"""The experiment record: one entry per committed table.

Each :class:`Entry` is three things -- run the experiment, render its
text (``benchmarks/results/<name>.txt``), check its claims -- plus,
for the tables of ``REPORT.md``, a markdown rendering of the same run.
A check raises ``AssertionError`` when a claim no longer holds; the
bounds are the paper's shapes (EXPERIMENTS.md) and may not be loosened
to make a run pass. That the numbers themselves did not move is the
record's own gate: the tables are committed, and CI fails on any
``git diff`` of ``benchmarks/results/`` after a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from benchmarks.paper import decisions, experiments
from benchmarks.paper.harness import ExperimentTable
from repro.config import DynoConfig


@dataclass(frozen=True)
class Entry:
    """One experiment of the record."""

    #: results/<name>.txt, and the runner's ``--only`` name.
    name: str
    run: Callable[[DynoConfig], Any]
    #: raises AssertionError when a claim fails.
    check: Callable[[Any], None]
    text: Callable[[Any], str] = lambda result: result.format()
    #: REPORT.md section(s) from the same result; None = not in REPORT.md.
    report: Callable[[Any], str] | None = lambda result: result.markdown()


def _pct(cell) -> float:
    return float(cell.rstrip("%"))


# ---------------------------------------------------------------------------
# Claims: the paper's qualitative findings (EXPERIMENTS.md), on each run.
# ---------------------------------------------------------------------------


def check_table1(table: ExperimentTable) -> None:
    values = {}
    for row in table.rows:
        query = row[0]
        values[query] = [float(cell.rstrip("%")) for cell in row[2:]]
    for query, percentages in values.items():
        # MT is always a multiple faster than ST ...
        assert all(p < 60.0 for p in percentages), (query, percentages)
        # ... and (near) scale-factor invariant.
        assert max(percentages) - min(percentages) < 15.0, (
            query, percentages
        )


def check_fig2(evolution) -> None:
    assert evolution.relopt_plan
    assert len(evolution.dyno_plans) >= 1
    # Signatures are recorded for every re-optimization point.
    assert len(evolution.signatures) == len(evolution.dyno_plans)


def check_fig3(figure: experiments.Figure3) -> None:
    rows = {row[0]: row for row in figure.counts.rows}
    relopt_broadcasts = rows["RELOPT"][2]
    dyno_repartitions = rows["DYNO (after pilot runs)"][1]
    dyno_broadcasts = rows["DYNO (after pilot runs)"][2]
    # DYNO: only broadcast joins; RELOPT: mostly repartition joins.
    assert dyno_repartitions == 0
    assert dyno_broadcasts == 5
    assert rows["RELOPT"][1] >= 2
    assert relopt_broadcasts <= 3


def check_fig4(table: ExperimentTable) -> None:
    # Simulation scale weighs fixed costs more than the paper's cluster
    # (pilots 2.5%-6.7%, stats 0.1%-2.8%, total 7%-10% there), so the
    # bands are wider here; the ordering is asserted.
    by_query = {row[0]: row for row in table.rows}
    for query, row in by_query.items():
        assert _pct(row[3]) > 0.0, f"{query}: pilot overhead missing"
        if query == "Q2":
            # Q2 is a short query over small tables (EXPERIMENTS.md's
            # listed deviation): a fixed pilot cost over a small base.
            # The map-side GROUP BY shrank that base, not the pilots, so
            # Q2's ratio gets its own cap and its mechanism is checked:
            # nearly all of its overhead is the pilot runs.
            assert _pct(row[5]) < 75.0, f"{query}: total overhead exploded"
            assert _pct(row[3]) >= 0.95 * _pct(row[5]), \
                f"{query}: overhead is no longer the pilot runs"
        else:
            assert _pct(row[5]) < 60.0, f"{query}: total overhead exploded"
    # Q8' (8-way join) has by far the largest re-optimization share.
    reopt = {query: _pct(row[2]) for query, row in by_query.items()}
    assert reopt["Q8'"] == max(reopt.values())
    assert reopt["Q8'"] > 3 * min(reopt.values())


def check_fig5(table: ExperimentTable) -> None:
    for row in table.rows:
        query, so, mo = row[0], _pct(row[1]), _pct(row[2])
        assert so == 100.0
        # MO never loses to SO (equal when the plan is one job).
        assert mo <= so + 1e-6, (query, mo)


def check_fig6(table: ExperimentTable) -> None:
    speedups = [float(row[3].rstrip("x")) for row in table.rows]
    jobs = [row[4] for row in table.rows]
    # Big wins at high selectivity (small dimensions)...
    assert speedups[0] > 1.5
    assert speedups[1] > 1.5
    # ...decaying monotonically-ish to parity at 100%.
    assert speedups[-1] < 1.25
    assert min(speedups) > 0.9
    # The number of jobs grows as fewer dimensions fit together.
    assert jobs[0] <= jobs[-1]


def check_fig7(table: ExperimentTable) -> None:
    rows = {(row[0], row[1]): row for row in table.rows}
    # Q9' and Q8' show the paper's headline wins somewhere in the sweep.
    assert _pct(rows[(300, "Q9'")][4]) < 60.0   # DYNOPT-SIMPLE
    assert _pct(rows[(100, "Q8'")][5]) < 90.0   # DYNOPT
    # Q8' keeps beating the static baseline at every scale factor, and
    # re-optimization never costs more than its small overhead on top of
    # DYNOPT-SIMPLE.
    for sf in (100, 300, 1000):
        assert _pct(rows[(sf, "Q8'")][5]) < 95.0
        assert (_pct(rows[(sf, "Q8'")][5])
                <= 1.15 * _pct(rows[(sf, "Q8'")][4]))
    # Q10: DYNOPT runs the static plan's join methods (at SF300/1000 its
    # join execution is within 1.2 sim-s of the static plan's; at SF100
    # another order costs 20.8 sim-s more); the residual is mainly the
    # 54.8 sim-s of pilot runs, a fixed cost that weighs most at small
    # scale. The map-side GROUP BY shrank the plan's time, not the
    # pilots, so SF100 gets a 135 % cap, and the mechanism is checked:
    # the residual falls as the SF grows, and re-optimization adds
    # nothing to DYNOPT-SIMPLE (same plan).
    caps = {100: 135.0, 300: 130.0, 1000: 130.0}
    for sf, cap in caps.items():
        assert _pct(rows[(sf, "Q10")][5]) < cap
        assert abs(_pct(rows[(sf, "Q10")][5])
                   - _pct(rows[(sf, "Q10")][4])) <= 0.5
    residuals = [_pct(rows[(sf, "Q10")][5]) for sf in caps]
    assert residuals[0] > residuals[1] > residuals[2]


def check_fig8(table: ExperimentTable) -> None:
    rows = {row[0]: row for row in table.rows}
    # DYNO's plans still win under Hive, and Q9' by a larger factor than
    # the Jaql backend's Figure 7 result.
    assert _pct(rows["Q9'"][3]) < 50.0
    assert _pct(rows["Q8'"][4]) < 100.0


def check_chain_rule(result: tuple[float, float]) -> None:
    chained, unchained = result
    assert chained < unchained


def check_dynamic_join(result) -> None:
    plain, dynamic = result
    assert len(dynamic.switched_joins) >= 2
    assert dynamic.execution_seconds < plain.execution_seconds


def check_skew(table: ExperimentTable) -> None:
    """The skew join beats the best feasible alternative on every entry,
    and the comparison is not vacuous."""
    for entry, _, _, speedup, with_rule, without_rule in table.rows:
        assert with_rule >= 1, \
            f"{entry}: default optimizer planned no skew join"
        assert without_rule == 0, \
            f"{entry}: skew join planned with the rule disabled"
        assert float(speedup) > 1.0, \
            f"{entry}: speedup {speedup} <= 1.0 (skew join did not win)"


def check_incremental(table: ExperimentTable) -> None:
    """Delta and full refresh agree everywhere; at the claim's scale
    factor delta is >= 2x cheaper at a 1% change rate and chosen there,
    and the rule picks full at 50%."""
    for sf, label, *_, agree in table.rows:
        assert agree, (f"delta and full refresh disagree at SF {sf} "
                       f"{label}: the incremental path is wrong, not just "
                       "slow")
    claimed = str(decisions.INCREMENTAL_SCALE_FACTORS[0])
    rates = {row[1]: row for row in table.rows if row[0] == claimed}
    speedup = float(rates["1%"][4].rstrip("x"))
    assert speedup >= 2.0, (f"1% change rate: delta refresh speedup "
                            f"{speedup:.2f}x < required 2.0x")
    assert rates["1%"][6] == "delta", (
        "1% change rate: the cardinality rule should pick delta "
        f"(ratio {rates['1%'][5]})")
    assert rates["50%"][6] == "full", (
        "50% change rate: the cardinality rule should pick full "
        f"(ratio {rates['50%'][5]})")


# ---------------------------------------------------------------------------
# The registry, in REPORT.md order
# ---------------------------------------------------------------------------


def _chain_rule_text(result: tuple[float, float]) -> str:
    chained, unchained = result
    return "\n".join([
        "== Ablation: broadcast-chain rule (Q9', SF=300) ==",
        f"with chain rule:    {chained:10.1f} s",
        f"without chain rule: {unchained:10.1f} s",
        f"chain-rule benefit: {unchained / chained:10.2f} x",
    ])


def _dynamic_join_text(result) -> str:
    plain, dynamic = result
    return "\n".join([
        "== Ablation: dynamic join operator (Q9', SF=300, conservative "
        "all-repartition plan) ==",
        f"fixed execution:   {plain.execution_seconds:10.1f} s",
        f"dynamic switching: {dynamic.execution_seconds:10.1f} s "
        f"({len(dynamic.switched_joins)} joins switched to broadcast)",
        f"speedup:           "
        f"{plain.execution_seconds / dynamic.execution_seconds:10.2f} x",
    ])


REGISTRY: tuple[Entry, ...] = (
    Entry("table1_pilr", experiments.table1_pilr, check_table1),
    Entry("fig2_plan_evolution", experiments.figure2_plan_evolution,
          check_fig2),
    Entry("fig3_q9_plans", experiments.figure3, check_fig3),
    Entry("fig4_overhead", experiments.figure4_overhead, check_fig4),
    Entry("fig5_strategies", experiments.figure5_strategies, check_fig5),
    Entry("fig6_udf_selectivity", experiments.figure6_udf_selectivity,
          check_fig6),
    Entry("fig7_query_times", experiments.figure7_query_times, check_fig7),
    Entry("fig8_hive", experiments.figure8_hive, check_fig8),
    Entry("ablation_chain_rule", experiments.ablation_chain_rule,
          check_chain_rule, _chain_rule_text, report=None),
    Entry("ablation_dynamic_join", experiments.ablation_dynamic_join,
          check_dynamic_join, _dynamic_join_text, report=None),
    Entry("skew_join", decisions.skew_join, check_skew),
    Entry("incremental_refresh", decisions.incremental_refresh,
          check_incremental),
)
