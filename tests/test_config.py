"""Configuration invariants the paper's setup depends on."""

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    ClusterConfig,
    DynoConfig,
    ExecutorConfig,
    OptimizerConfig,
    PilotConfig,
)


class TestClusterConfig:
    def test_paper_slot_totals(self):
        cluster = ClusterConfig()
        # 14 worker nodes x 10 map / 6 reduce = the paper's 140 / 84.
        assert cluster.total_map_slots == 140
        assert cluster.total_reduce_slots == 84

    def test_job_startup_matches_paper(self):
        # Section 4.2: "could be as high as 15-20 seconds".
        assert 15.0 <= ClusterConfig().job_startup_seconds <= 20.0

    def test_rate_ordering(self):
        cluster = ClusterConfig()
        # Shuffle is the expensive path; broadcast re-reads are cached.
        assert cluster.shuffle_bytes_per_second \
            < cluster.read_bytes_per_second
        assert cluster.broadcast_read_bytes_per_second \
            > cluster.read_bytes_per_second


class TestOptimizerConfig:
    def test_paper_constant_ordering(self):
        opt = OptimizerConfig()
        # Section 5.2: crep >> cprobe > cbuild > cout.
        assert opt.crep > 3 * opt.cprobe
        assert opt.cprobe > opt.cbuild > opt.cout > 0

    def test_memory_budget_matches_runtime_budget(self):
        assert (DEFAULT_CONFIG.optimizer.max_broadcast_bytes
                == DEFAULT_CONFIG.cluster.task_memory_bytes)


class TestPilotConfig:
    def test_kmv_size_keeps_paper_error_bound(self):
        # Section 4.3: k=1024 -> ~6% distinct-value error bound.
        assert PilotConfig().kmv_size == 1024

    def test_reuse_threshold_is_a_fraction(self):
        assert 0.0 < PilotConfig().reuse_completion_threshold <= 1.0


class TestBackendSwitch:
    def test_with_backend(self):
        assert DEFAULT_CONFIG.with_backend("hive").backend == "hive"
        assert DEFAULT_CONFIG.with_backend("jaql").backend == "jaql"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_backend("flink")

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.backend = "hive"  # type: ignore[misc]

    def test_default_reoptimizes_every_job(self):
        # q-error 1.0 = every estimate "misses" = the paper's policy.
        assert DynoConfig().reoptimization_qerror_threshold == 1.0

    def test_reoptimization_threshold_is_a_q_error(self):
        from dataclasses import replace

        for bad in (0.99, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                DynoConfig(reoptimization_qerror_threshold=bad)
        with pytest.raises(ValueError):
            replace(DEFAULT_CONFIG, reoptimization_qerror_threshold=0.5)
        never = replace(DEFAULT_CONFIG,
                        reoptimization_qerror_threshold=float("inf"))
        assert never.reoptimization_qerror_threshold == float("inf")


class TestExecutorConfig:
    def test_serial_by_default(self):
        assert not DEFAULT_CONFIG.executor.parallel_jobs

    def test_with_parallel_execution(self):
        config = DEFAULT_CONFIG.with_parallel_execution(max_workers=3)
        assert config.executor.parallel_jobs
        assert config.executor.max_workers == 3
        # everything else is untouched
        assert config.cluster == DEFAULT_CONFIG.cluster
        assert not DEFAULT_CONFIG.executor.parallel_jobs  # original intact

    def test_can_toggle_off(self):
        config = DEFAULT_CONFIG.with_parallel_execution()
        assert not config.with_parallel_execution(
            enabled=False
        ).executor.parallel_jobs

    def test_unknown_pool_rejected(self):
        # There is one pool (threads): the kind is not a setting at all.
        with pytest.raises(TypeError):
            ExecutorConfig(pool="process")
        with pytest.raises(TypeError):
            DEFAULT_CONFIG.with_parallel_execution(pool="process")

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(max_workers=0)
        with pytest.raises(ValueError):
            ExecutorConfig(min_parallel_jobs=1)


class TestCalibration:
    def test_default_config_inside_paper_regime(self):
        from repro.bench.calibration import derive_ratios

        ratios = derive_ratios(DEFAULT_CONFIG.cluster)
        assert ratios.in_paper_regime() == []

    def test_violations_detected(self):
        from repro.bench.calibration import derive_ratios

        broken = ClusterConfig(shuffle_bytes_per_second=1e9)
        ratios = derive_ratios(broken)
        assert any("shuffle" in problem
                   for problem in ratios.in_paper_regime())

    def test_report_renders(self):
        from repro.bench.calibration import report

        text = report()
        assert "calibration" in text
        assert "inside the paper's regime" in text
