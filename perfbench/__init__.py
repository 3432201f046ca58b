"""The repository benchmark: three workloads measured end to end and per layer.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``NOTES.md`` explains
the workloads and the metrics.
"""
