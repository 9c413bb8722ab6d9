"""Configuration invariants the paper's setup depends on."""

from dataclasses import fields, is_dataclass

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    ClusterConfig,
    DynoConfig,
    OptimizerConfig,
    PilotConfig,
)
from repro.optimizer.cost import JoinCostModel


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
        # The optimizer's Mmax is the runtime's task memory, not a copy.
        model = JoinCostModel(DEFAULT_CONFIG.optimizer,
                              DEFAULT_CONFIG.cluster)
        fitting = (DEFAULT_CONFIG.cluster.task_memory_bytes
                   / DEFAULT_CONFIG.optimizer.broadcast_safety_factor)
        assert model.fits_in_memory(fitting)
        assert not model.fits_in_memory(fitting + 1)


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


def leaf_fields(config) -> int:
    return sum(
        leaf_fields(value) if is_dataclass(value) else 1
        for value in (getattr(config, f.name) for f in fields(config))
    )


def test_knob_count_is_edited_in_the_open():
    """Every independently settable value multiplies the configurations
    tests and benchmarks must cover: a PR that adds one edits this line."""
    assert leaf_fields(DEFAULT_CONFIG) == 40


class TestCalibration:
    def test_default_config_inside_paper_regime(self):
        from benchmarks.paper.calibration import derive_ratios

        ratios = derive_ratios(DEFAULT_CONFIG.cluster)
        assert ratios.in_paper_regime() == []

    def test_violations_detected(self):
        from benchmarks.paper.calibration import derive_ratios

        broken = ClusterConfig(shuffle_bytes_per_second=1e9)
        ratios = derive_ratios(broken)
        assert any("shuffle" in problem
                   for problem in ratios.in_paper_regime())

    def test_report_renders(self):
        from benchmarks.paper.calibration import report

        text = report()
        assert "calibration" in text
        assert "inside the paper's regime" in text
