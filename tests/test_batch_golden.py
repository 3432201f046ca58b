"""Golden ``repro batch`` runs: the stored job keys and the stdout.

``batch attacks --fast`` and ``batch characterize --fast`` run cold
through :func:`repro.__main__.main` into a fresh result cache.  The
SHA-256 of the sorted keys the run stores pins the job grid (a warm
cache stays valid only while these do not drift); the stdout pins every
value the command prints.  The wall time in the summary line is masked,
and the ``pass``/``FAIL`` claim lines are dropped: the claims are
checked in ``tests/test_golden_artifacts.py``.
"""

import hashlib
import re

import pytest

from repro.__main__ import main

ATTACKS_KEYS_SHA256 = (
    "4a770d13f26675ae620c76d9c95a70d416a674781b6c49a2787fc79d4c955e8a"
)

ATTACKS_STDOUT = """\
Attack evaluation (Tables I & II, key extraction, variants):
  Mode                               BitErr     Kbit/s      w/ECC
  Same address space                  0.00%     361.31     301.09
  Same address space (User/Kernel)    0.00%     332.07     276.73
  Cross-thread (SMT)                  0.00%     217.33     181.11
  Transient Execution Attack          0.00%     542.95     452.45
  Cross-thread iTLB (SMT)             0.00%    1075.22     896.01
  Cross-thread store buffer (SMT)     0.00%    2597.09    2164.24

  Attack                       Seconds     LLC refs     LLC miss    DSB penalty     Acc
  Spectre (original)         0.000047s          518          518           1052  100.0%
  Spectre (uop cache)        0.000014s           41           41          19892  100.0%

  key extraction: 1/1 exact
    12-bit key 0xaaa -> 0xaaa (0 bit errors)
  BTI (variant 2): 100.0% bytes, 0 bit errors
  jump table (multi-bit v1): 100.0% bytes, 0 bit errors
  fence signal (Fig 10): none=276.0 lfence=209.0 cpuid=47.0 cycles
14 job(s): 14 executed, 0 from cache, 0 failed (1 worker(s), <wall>s)
"""

CHARACTERIZE_KEYS_SHA256 = (
    "42976cf9fc4ff62e5f3f6fe394cf2bba874a826a9ef1971515cbfb7f176fba93"
)

CHARACTERIZE_STDOUT = """\
characterization study (Figures 3-7, 100 points):
100 job(s): 100 executed, 0 from cache, 0 failed (1 worker(s), <wall>s)
"""


def _stored_keys_digest(cache_dir) -> str:
    keys = sorted(p.stem for p in (cache_dir / "objects").rglob("*.json"))
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def _masked(out: str) -> str:
    lines = [line for line in out.splitlines()
             if line.split()[:1] not in (["pass"], ["FAIL"])]
    text = "\n".join(lines) + "\n"
    return re.sub(r"worker\(s\), [\d.]+s\)", "worker(s), <wall>s)", text)


@pytest.mark.parametrize("experiment,keys_sha256,stdout", [
    ("attacks", ATTACKS_KEYS_SHA256, ATTACKS_STDOUT),
    ("characterize", CHARACTERIZE_KEYS_SHA256, CHARACTERIZE_STDOUT),
])
def test_fast_batch_is_golden(experiment, keys_sha256, stdout, tmp_path,
                              capsys):
    cache_dir = tmp_path / "cache"
    assert main(["batch", experiment, "--fast",
                 "--cache-dir", str(cache_dir)]) == 0
    out = _masked(capsys.readouterr().out)
    assert out == stdout
    assert _stored_keys_digest(cache_dir) == keys_sha256
