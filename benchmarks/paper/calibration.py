"""Time-model calibration report.

Prints the derived ratios that carry every experimental result (DESIGN.md
Section 2, docs/architecture.md Section 2) and checks them against the
regime of the paper's cluster. Run after changing any
:class:`~repro.config.ClusterConfig` rate to see what moved::

    python -m benchmarks.paper.calibration
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_CONFIG, ClusterConfig


@dataclass(frozen=True)
class CalibrationRatios:
    """The scale-free quantities the experiments depend on."""

    #: one split scan relative to job startup (paper: same order).
    split_scan_vs_startup: float
    #: shuffle cost per byte relative to a read (paper: the expensive path).
    shuffle_vs_read: float
    #: broadcast build re-read per byte relative to a read (page cache).
    broadcast_vs_read: float
    #: broadcast memory budget in blocks (paper: a handful of blocks).
    memory_in_blocks: float
    #: map slots per worker node.
    map_slots_per_node: int

    def in_paper_regime(self) -> list[str]:
        """Violations of the calibrated regime (empty = all good)."""
        problems = []
        if not 0.2 <= self.split_scan_vs_startup <= 5.0:
            problems.append(
                "split scan and job startup should be the same order "
                f"(ratio {self.split_scan_vs_startup:.2f})"
            )
        if not 1.0 < self.shuffle_vs_read <= 8.0:
            problems.append(
                "shuffle must cost more than a read, but not absurdly "
                f"(ratio {self.shuffle_vs_read:.2f})"
            )
        if not self.broadcast_vs_read < 1.0:
            problems.append(
                "broadcast re-reads should be cheaper than cold reads "
                f"(ratio {self.broadcast_vs_read:.2f})"
            )
        if not 2 <= self.memory_in_blocks <= 64:
            problems.append(
                "task memory should hold a handful of blocks "
                f"({self.memory_in_blocks:.1f})"
            )
        return problems


def derive_ratios(cluster: ClusterConfig) -> CalibrationRatios:
    split_seconds = (cluster.block_size_bytes
                     / cluster.read_bytes_per_second)
    return CalibrationRatios(
        split_scan_vs_startup=split_seconds / cluster.job_startup_seconds,
        shuffle_vs_read=(cluster.read_bytes_per_second
                         / cluster.shuffle_bytes_per_second),
        broadcast_vs_read=(cluster.read_bytes_per_second
                           / cluster.broadcast_read_bytes_per_second),
        memory_in_blocks=(cluster.task_memory_bytes
                          / cluster.block_size_bytes),
        map_slots_per_node=cluster.map_slots_per_node,
    )


def report(cluster: ClusterConfig = DEFAULT_CONFIG.cluster) -> str:
    ratios = derive_ratios(cluster)
    lines = [
        "== time-model calibration ==",
        f"split scan / job startup : {ratios.split_scan_vs_startup:8.2f}",
        f"shuffle cost / read cost : {ratios.shuffle_vs_read:8.2f}",
        f"broadcast / read cost    : {ratios.broadcast_vs_read:8.2f}",
        f"task memory (blocks)     : {ratios.memory_in_blocks:8.1f}",
        f"map slots per node       : {ratios.map_slots_per_node:8d}",
    ]
    problems = ratios.in_paper_regime()
    if problems:
        lines.append("regime violations:")
        lines.extend(f"  ! {problem}" for problem in problems)
    else:
        lines.append("all ratios inside the paper's regime")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - module entry
    print(report())
