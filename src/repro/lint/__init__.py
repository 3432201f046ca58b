"""``repro.lint``: static µop-cache footprint analysis, gadget
verification and simulator cross-checking.

Following uops.info's static instruction characterization and uGen's
validate-before-run discipline, this package derives everything the
attacks depend on -- set indices, line packing, cacheability, conflict
relations -- from the assembled :class:`~repro.isa.program.Program` and
a :class:`~repro.cpu.config.CPUConfig` alone.

A driver states what its layout must do as one list of claims
(:meth:`repro.session.AttackSession.claims`): chain and pair claims in
µop-cache sets (:mod:`repro.lint.gadgets`), iTLB page and store-site
claims (:mod:`repro.lint.resources`) and secret declarations
(:mod:`repro.lint.taint`).  :func:`verify_claims` checks the static
ones and :func:`verify_secret_claims` runs the taint pass over the
secrets.  Three consumers:

- ``python -m repro lint`` (see :mod:`repro.lint.runner`) lints the
  shipped attack programs and the gadget corpus;
- :class:`repro.session.AttackSession` runs a construction-time
  preflight (opt-out: :func:`repro.session.no_preflight`);
- the live differential (:func:`live_check`, :mod:`repro.lint.crosscheck`)
  diffs static predictions against the simulator's events -- DSB fills
  (XC001), iTLB fills (XC002), store drains (XC003) and the divergence
  between secrets (XC004).
"""

from repro.lint.crosscheck import LiveCheck, Prediction, live_check
from repro.lint.diagnostics import (
    CATALOG,
    MAX_DIVERGENCE_DIAGNOSTICS,
    CatalogEntry,
    Diagnostic,
    LintError,
    Severity,
    errors_of,
    worst_severity,
)
from repro.lint.footprint import (
    FootprintReport,
    RegionFootprint,
    analyze,
    predicted_set,
)
from repro.lint.gadgets import ChainClaim, PairClaim, verify_claims
from repro.lint.resources import (
    ITLBClaim,
    ResourcePairClaim,
    StoreClaim,
    static_pages,
    static_store_sites,
)
from repro.lint.rules import check_program, check_sources
from repro.lint.taint import (
    LeakReport,
    SecretClaim,
    TaintReport,
    analyze_claim,
    verify_secret_claims,
)

__all__ = [
    "CATALOG",
    "MAX_DIVERGENCE_DIAGNOSTICS",
    "CatalogEntry",
    "ChainClaim",
    "Diagnostic",
    "FootprintReport",
    "ITLBClaim",
    "LeakReport",
    "LintError",
    "LiveCheck",
    "PairClaim",
    "Prediction",
    "RegionFootprint",
    "ResourcePairClaim",
    "SecretClaim",
    "Severity",
    "StoreClaim",
    "TaintReport",
    "analyze",
    "analyze_claim",
    "check_program",
    "check_sources",
    "errors_of",
    "live_check",
    "predicted_set",
    "static_pages",
    "static_store_sites",
    "verify_claims",
    "verify_secret_claims",
    "worst_severity",
]
