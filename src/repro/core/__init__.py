"""The paper's contribution: micro-op cache characterization, the
tiger/zebra exploit-generation framework, covert channels across
privilege and SMT boundaries, and the transient-execution attacks.

Section map:

- :mod:`repro.core.microbench` -- Listings 1-3 program generators (III)
- :mod:`repro.core.characterize` -- Figures 3-7 experiments (III)
- :mod:`repro.core.exploitgen` -- tiger/zebra generation (IV)
- :mod:`repro.core.timing` -- RDTSC probe harness + classifier (IV)
- :mod:`repro.core.covert` -- same-address-space channel (V-A)
- :mod:`repro.core.crossdomain` -- user/kernel channel (V-A)
- :mod:`repro.core.smtchannel` -- cross-SMT channel on Zen (V-B)
- :mod:`repro.core.transient` -- variant-1, Spectre-v1 baseline,
  variant-2 / LFENCE bypass (VI)
- :mod:`repro.core.mitigations` -- Section VIII counter monitoring
"""

from repro.core.exploitgen import (
    FootprintSpec,
    emit_chain,
    emit_probe,
    neutral_set,
    striped_sets,
)
from repro.core.timing import ProbeTiming, TimingClassifier

__all__ = [
    "FootprintSpec",
    "ProbeTiming",
    "TimingClassifier",
    "emit_chain",
    "emit_probe",
    "neutral_set",
    "striped_sets",
]

# The attack classes live in submodules to keep imports cheap:
#   repro.core.covert.CovertChannel          (Section V-A)
#   repro.core.crossdomain.CrossDomainChannel (Section V-A)
#   repro.core.smtchannel.SMTChannel          (Section V-B)
#   repro.core.transient.UopCacheSpectreV1 / ClassicSpectreV1 /
#       LfenceBypass                          (Section VI)
#   repro.core.transient_multibit.JumpTableSpectre
#   repro.core.keyextract.KeyExtractor
#   repro.core.gadgets.scan / generate_corpus (Section VI-A)
#   repro.core.mitigations.UopCacheMonitor    (Section VIII)
