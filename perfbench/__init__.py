"""Benchmark for convlab: three workloads, end-to-end metrics, a traced run.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root. See ``perfbench/README.md``.
"""
