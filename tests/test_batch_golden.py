"""Golden ``repro batch`` runs: the stored job keys and the stdout.

``batch attacks --fast``, ``batch characterize --fast``, ``batch
contention --fast`` and ``batch workloads`` run cold through
:func:`repro.__main__.main` into a fresh result cache.  The
SHA-256 of the sorted keys the run stores pins the job grid (a warm
cache stays valid only while these do not drift); the stdout pins every
value the command prints.  The wall time in the summary line is masked,
the ``pass``/``FAIL`` claim lines are dropped (the claims are checked
in ``tests/test_golden_artifacts.py``) and trailing blanks are cut
(the matrix table pads its last column).

The batch runs cover only the fast grids, so one more pin covers the
paper-resolution grids of every figure and attack artifact: the SHA-256
of the sorted keys of all their jobs, each keyed by building its
program.
"""

import hashlib
import re

import pytest

from repro.__main__ import main
from repro.harness.experiments import ATTACKS, FIGURES, artifact_sweeps

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

CONTENTION_KEYS_SHA256 = (
    "3d0c312e87711a3077411af87e9501a72b1bc3e51c130e3cda8af3d4875f2f80"
)

CONTENTION_STDOUT = """\
contention matrix (3 resources, 12 cells; slowdown = (contended - baseline) / baseline):
resource      variant   smt slowdown  time_sliced slowdown
------------  --------  ------------  --------------------
uop_cache     conflict  +5.888        +9.161
uop_cache     disjoint  +0.033        +0.076
itlb          conflict  +0.605        +3.077
itlb          disjoint  +0.000        +0.000
store_buffer  conflict  +0.848        +0.000
store_buffer  disjoint  +0.121        +0.000
12 job(s): 12 executed, 0 from cache, 0 failed (1 worker(s), <wall>s)
"""

WORKLOADS_KEYS_SHA256 = (
    "588f11aa3cfb45eda589a79ff7e495fc4e5fe2c29f3d7c540ac233ff4c5cad7a"
)

WORKLOADS_STDOUT = """\
workload suite on skylake (1536-uop cache):
workload            cycles    IPC   DSB hit  DSB uops  mispred
branchy               5256   0.62    100.0%    100.0%     9.7%
hash_loop             1484   2.08    100.0%    100.0%     0.6%
hot_loop               406   1.98    100.0%    100.0%     0.5%
interpreter           3647   0.36    100.0%    100.0%     7.9%
large_code            1948   0.99      0.2%      0.2%    50.0%
matvec                 623   3.34    100.0%    100.0%     1.9%
pointer_chase         1802   0.22    100.0%    100.0%     0.8%
syscall_heavy          153   3.16    100.0%     33.6%     2.5%

mean DSB hit rate: 87.5% (paper cites ~80% average, ~100% for hotspots)
8 job(s): 8 executed, 0 from cache, 0 failed (1 worker(s), <wall>s)
"""


FULL_GRID_KEYS_SHA256 = (
    "f1f3d121b8a77f427445f18a720d98410d700f421ed356670e032559cfd482d9"
)


def _keys_digest(keys) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


def _stored_keys_digest(cache_dir) -> str:
    blobs = (cache_dir / "objects").rglob("*.json")
    return _keys_digest(p.stem for p in blobs)


def _masked(out: str) -> str:
    lines = [line.rstrip() for line in out.splitlines()
             if line.split()[:1] not in (["pass"], ["FAIL"])]
    text = "\n".join(lines) + "\n"
    return re.sub(r"worker\(s\), [\d.]+s\)", "worker(s), <wall>s)", text)


@pytest.mark.parametrize("experiment,keys_sha256,stdout", [
    ("attacks", ATTACKS_KEYS_SHA256, ATTACKS_STDOUT),
    ("characterize", CHARACTERIZE_KEYS_SHA256, CHARACTERIZE_STDOUT),
    ("contention", CONTENTION_KEYS_SHA256, CONTENTION_STDOUT),
    ("workloads", WORKLOADS_KEYS_SHA256, WORKLOADS_STDOUT),
])
def test_fast_batch_is_golden(experiment, keys_sha256, stdout, tmp_path,
                              capsys):
    # The workload suite has one grid, so it runs without --fast.
    fast = [] if experiment == "workloads" else ["--fast"]
    cache_dir = tmp_path / "cache"
    assert main(["batch", experiment, *fast,
                 "--cache-dir", str(cache_dir)]) == 0
    out = _masked(capsys.readouterr().out)
    assert out == stdout
    assert _stored_keys_digest(cache_dir) == keys_sha256


def test_full_grid_keys_are_golden():
    sweeps = artifact_sweeps(FIGURES + ATTACKS, fast=False)
    jobs = [job for sweep in sweeps.values() for job in sweep.jobs()]
    assert len(jobs) == 325
    assert _keys_digest(job.key() for job in jobs) == FULL_GRID_KEYS_SHA256
