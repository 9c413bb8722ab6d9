"""The paper's experiment record.

``python -m benchmarks.paper`` regenerates every committed table under
``benchmarks/results/`` -- Table 1, Figures 2-8, two ablations and the
skew-join and incremental-refresh decisions -- plus ``REPORT.md``, and
checks each table's claims (see :mod:`benchmarks.paper.registry`).
"""
