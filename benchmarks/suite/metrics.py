"""The single definition of metric names, units, directions and bounds.

``BENCHMARK.json`` repeats these tables and a self-test holds the two
equal. Nothing here imports the engine, so ``compare`` works on result
files alone.
"""

#: name, unit, better, bound (share of the parent's median). The bounds
#: are three times the widest spread seen over ten seeds on the 2-core
#: sandbox, where a busy neighbour slows whole runs by a fifth: every
#: wall-clock metric sits at the contract's cap. README.md has the
#: measured spreads.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "op/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("latency_ms_geomean", "ms", "lower", 0.25),
    ("sim_s_per_op", "sim-s", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.15),
)
#: in every result file and in ``compare``, but not in BENCHMARK.json:
#: its healthy value is 0 and the contract admits no metric that is.
FAILED_OPS_RATIO = ("failed_ops_ratio", "ratio", "lower", 0.0)

#: name, unit, better. ``<span>.calls|self_s|busy_s`` read the span
#: totals of the timed phase; the rest are harvested counts or computed
#: in ``_layer_extras``.
PER_LAYER = (
    # jaql
    ("jaql.parse.calls", "count", "lower"),
    ("jaql.parse.self_s", "s", "lower"),
    ("jaql.prepare.calls", "count", "lower"),
    ("jaql.prepare.self_s", "s", "lower"),
    ("jaql.compile.calls", "count", "lower"),
    ("jaql.compile.self_s", "s", "lower"),
    # core.dyno
    ("dyno.execute_multi.calls", "count", "lower"),
    ("dyno.execute_multi.self_s", "s", "lower"),
    # core.pilot
    ("pilot.run.calls", "count", "lower"),
    ("pilot.run.busy_s", "s", "lower"),
    ("pilot.jobs_run", "count", "lower"),
    ("pilot.leaves_reused", "count", "higher"),
    ("pilot.sim_s", "sim-s", "lower"),
    # optimizer
    ("optimizer.search.calls", "count", "lower"),
    ("optimizer.search.self_s", "s", "lower"),
    ("optimizer.plans_considered", "count", "lower"),
    # core.dynopt
    ("dynopt.execute_block.calls", "count", "lower"),
    ("dynopt.execute_block.self_s", "s", "lower"),
    ("dynopt.iterations", "count", "lower"),
    ("dynopt.plan_changes", "count", "lower"),
    ("dynopt.sim_optimizer_s", "sim-s", "lower"),
    ("dynopt.sim_execution_s", "sim-s", "lower"),
    # cluster.runtime
    ("runtime.execute_batch.calls", "count", "lower"),
    ("runtime.execute_batch.self_s", "s", "lower"),
    ("runtime.execute_batch.under_pilot_s", "s", "lower"),
    ("runtime.jobs", "count", "lower"),
    ("runtime.map_input_records", "count", "lower"),
    ("runtime.shuffle_bytes", "bytes", "lower"),
    ("runtime.output_records", "count", "lower"),
    ("runtime.spilled_bytes", "bytes", "lower"),
    # cluster.scheduler
    ("slots.schedule.calls", "count", "lower"),
    ("slots.schedule.self_s", "s", "lower"),
    # stats
    ("stats.observe.calls", "count", "lower"),
    ("stats.observe.self_s", "s", "lower"),
    ("stats.merge.self_s", "s", "lower"),
    ("stats.metastore.put.calls", "count", "lower"),
    ("stats.metastore.entries", "count", "lower"),
    # storage.dfs
    ("dfs.write_rows.calls", "count", "lower"),
    ("dfs.write_rows.self_s", "s", "lower"),
    ("dfs.read_all.self_s", "s", "lower"),
    ("dfs.files", "count", "lower"),
    # service.scheduler
    ("sched.submit.self_s", "s", "lower"),
    ("sched.drain.calls", "count", "lower"),
    ("sched.drain.self_s", "s", "lower"),
    ("sched.wait_ms_p50", "ms", "lower"),
    ("sched.exec_ms_p50", "ms", "lower"),
    ("sched.latency_ms_p99", "ms", "lower"),
    # service.plan_cache
    ("plan_cache.lookup.calls", "count", "lower"),
    ("plan_cache.lookup.self_s", "s", "lower"),
    ("plan_cache.store.self_s", "s", "lower"),
    ("plan_cache.hit_ratio", "ratio", "higher"),
    ("plan_cache.invalidations", "count", "lower"),
    # service.result_cache
    ("result_cache.identity.self_s", "s", "lower"),
    ("result_cache.key.calls", "count", "lower"),
    ("result_cache.key.self_s", "s", "lower"),
    ("result_cache.lookup.self_s", "s", "lower"),
    ("result_cache.store.self_s", "s", "lower"),
    ("result_cache.hit_ratio", "ratio", "higher"),
    ("result_cache.invalidations", "count", "lower"),
    # incremental.cdc
    ("cdc.generate.self_s", "s", "lower"),
    ("cdc.apply.calls", "count", "lower"),
    ("cdc.apply.self_s", "s", "lower"),
    ("cdc.delta_rows", "count", "lower"),
    # incremental.standing
    ("standing.refresh.calls", "count", "lower"),
    ("standing.refresh.busy_s", "s", "lower"),
    ("standing.refresh.self_s", "s", "lower"),
    ("standing.delta_count", "count", "higher"),
    ("standing.full_count", "count", "lower"),
    ("standing.sim_s", "sim-s", "lower"),
    # harness
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
)

#: harvested counts that also go into every traced record's ``counts``,
#: beside ``sim_s_per_op`` and the caches' hits and misses. On one commit
#: and one seed all of those repeat exactly; ``compare`` checks them for
#: equality instead of against a bound.
TRACED_COUNTS = ("pilot.jobs_run", "standing.delta_count",
                 "standing.full_count")
