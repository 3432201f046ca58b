"""Benign workload suite.

Synthetic but realistically shaped programs used three ways:

- to sanity-check the front-end model against the micro-op cache's
  documented behaviour (the paper cites ~80% average hit rates and
  ~100% for tight loop kernels when the structure was introduced);
- to price the Section VIII mitigations on code that is *not* an
  attack (flush-at-crossing hurts syscall-heavy work most);
- to give the counter-based detector a benign trace with honest
  variance for ROC evaluation.
"""

from repro.workloads.suite import (
    WorkloadResult,
    WORKLOADS,
    build_workload,
    run_workload,
)

__all__ = [
    "WORKLOADS",
    "WorkloadResult",
    "build_workload",
    "run_workload",
]
