"""Benchmark of the placement stack: end-to-end metrics per workload and a
traced per-layer breakdown.  Entry point: ``perfbench/run.py``."""
