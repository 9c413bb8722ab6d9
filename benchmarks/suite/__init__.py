"""The benchmark suite: four workloads, both clocks, every layer.

See README.md in this directory. Run ``python -m benchmarks.suite --help``.
"""
