"""Repository benchmark for the Radical reproduction.

``python3 radbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in a fresh interpreter, checks its correctness gates and
prints its metrics; ``README.md`` in this directory explains the workloads,
the metrics and which layer each per-layer metric should move.
"""
