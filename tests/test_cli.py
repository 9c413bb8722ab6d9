"""Command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workload_and_sql_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "Q10",
                                       "--sql", "SELECT 1"])

    def test_service_workers_flag_is_gone(self, capsys):
        """The service runs one driver thread; there is nothing to set."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--batch", "mixed",
                                       "--service-workers", "2"])
        assert exit_info.value.code == 2
        assert "--service-workers" in capsys.readouterr().err

    def test_cluster_pool_flag_is_gone(self, capsys):
        """The only memory budget is the per-task one; no pool to size."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--workload", "Q10",
                                       "--cluster-memory", "1048576"])
        assert exit_info.value.code == 2
        assert "--cluster-memory" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--feedback",),
        ("--feedback-report",),
        ("--load-feedback", "store.json"),
        ("--save-feedback", "store.json"),
    ], ids=lambda flags: flags[0].lstrip("-"))
    def test_feedback_flags_are_gone(self, capsys, flags):
        """Plans come from the query's own statistics; there is no
        cross-query correction store to enable, load or save."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--workload", "Q10", *flags])
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_task_memory_moves_both_budgets(self):
        """``--task-memory`` is ``Mmax``: the runtime's build budget,
        which the optimizer's broadcast cap reads too."""
        from repro.cli import _open_session

        args = build_parser().parse_args(["--workload", "Q10",
                                          "--scale-factor", "0.01",
                                          "--task-memory", "8192"])
        config = _open_session(args, io.StringIO()).dyno.config
        assert config.cluster.task_memory_bytes == 8192

    def test_paper_sf_choices(self):
        args = build_parser().parse_args(["--workload", "Q10",
                                          "--paper-sf", "100"])
        assert args.paper_sf == 100

    @pytest.mark.parametrize("value", ["0", "-1", "-0.5"])
    def test_scale_factor_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "Q10",
                                       "--scale-factor", value])
        assert "must be > 0" in capsys.readouterr().err

    def test_scale_factor_must_be_numeric(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "Q10",
                                       "--scale-factor", "tiny"])
        assert "not a number: 'tiny'" in capsys.readouterr().err

    def test_limit_rejects_negative(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "Q10",
                                       "--limit", "-5"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_limit_rejects_non_integer(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "Q10",
                                       "--limit", "ten"])
        assert "not an integer: 'ten'" in capsys.readouterr().err

    def test_limit_zero_is_allowed(self):
        args = build_parser().parse_args(["--workload", "Q10",
                                          "--limit", "0"])
        assert args.limit == 0


class TestExecution:
    def test_workload_run(self):
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05")
        assert code == 0
        assert "result row(s)" in output
        assert "pilot runs" in output

    def test_sql_run_with_plans(self):
        code, output = run_cli(
            "--sql",
            "SELECT n.n_name AS name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'",
            "--scale-factor", "0.05", "--show-plans",
        )
        assert code == 0
        assert "iteration 0" in output

    def test_explain_only(self):
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05", "--explain")
        assert code == 0
        assert "best plan" in output
        assert "result row(s)" not in output

    def test_explain_multi_stage_workload(self):
        """Stage 0 is explained; Q2's outer block reads stage 0's output,
        which no explain writes, so it is named with what it waits for."""
        code, output = run_cli("--workload", "Q2",
                               "--scale-factor", "0.05", "--explain")
        assert code == 0
        assert "join block Q2a:" in output
        assert "best plan" in output
        assert output.rstrip().endswith("stage 1 (Q2) waits for q2mincost")
        assert "result row(s)" not in output

    def test_multi_stage_workload(self):
        code, output = run_cli("--workload", "Q2",
                               "--scale-factor", "0.05", "--mode", "simple")
        assert code == 0
        assert "result row(s)" in output

    def test_sql_file(self, tmp_path):
        path = tmp_path / "query.sql"
        path.write_text(
            "SELECT r.r_name AS name FROM region r WHERE r.r_name = 'ASIA'"
        )
        code, output = run_cli("--sql-file", str(path),
                               "--scale-factor", "0.05")
        assert code == 0
        assert "ASIA" in output

    def test_stats_round_trip(self, tmp_path):
        stats = tmp_path / "stats.json"
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05",
                               "--save-stats", str(stats))
        assert code == 0 and stats.exists()
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05",
                               "--load-stats", str(stats))
        assert code == 0
        assert "loaded" in output
        assert "pilot runs            0.0 s" in output

    def test_error_reported_cleanly(self):
        code, output = run_cli(
            "--sql", "SELECT a.x FROM t1 a", "--scale-factor", "0.05"
        )
        assert code == 1
        assert "error:" in output

    def test_hive_backend_flag(self):
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05",
                               "--backend", "hive")
        assert code == 0


class TestFaultPlanFlag:
    def _plan_file(self, tmp_path):
        from repro.cluster.faults import FaultPlan

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan(seed=67, name="cli-chaos",
                                  task_failure_rate=0.15,
                                  job_failure_rate=0.3,
                                  node_loss_rate=0.5, max_node_losses=1,
                                  straggler_rate=0.2).to_json())
        return path

    def test_faulted_run_matches_fault_free_rows(self, tmp_path):
        code, clean = run_cli("--workload", "Q10", "--scale-factor", "0.05")
        faulted_code, faulted = run_cli(
            "--workload", "Q10", "--scale-factor", "0.05",
            "--fault-plan", str(self._plan_file(tmp_path)))
        assert code == faulted_code == 0
        assert "armed fault plan cli-chaos (seed 67)" in faulted
        assert "fault injection:" in faulted
        # Identical result rows; only the simulated-time report may move.
        rows = [line for line in clean.splitlines()
                if line.startswith("  {")]
        faulted_rows = [line for line in faulted.splitlines()
                        if line.startswith("  {")]
        assert rows and rows == faulted_rows

    def test_invalid_plan_file_reports_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1, "task_failure_rte": 0.1}')
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05",
                               "--fault-plan", str(path))
        assert code == 1
        assert "error: cannot load fault plan" in output
        assert "task_failure_rte" in output

    def test_missing_plan_file_reports_cleanly(self, tmp_path):
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05",
                               "--fault-plan", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error: cannot load fault plan" in output


    @staticmethod
    def row_counts(output):
        # query name, tenant, result rows of every outcome line.
        table = output.split("plan hits")[1].split("\ntenant ")[0]
        table = table.split("plan cache:")[0]
        return [line.split()[:3] for line in table.splitlines()[1:]
                if line.strip()]

    def test_batch_arms_the_plan_and_matches_fault_free_rows(self,
                                                             tmp_path):
        """Regression: --fault-plan was parsed but never read under
        --batch, so "faulted" batches ran fault-free."""
        batch = ("--batch", "mixed", "--scale-factor", "0.02")
        code, clean = run_cli(*batch)
        faulted_code, faulted = run_cli(
            *batch, "--fault-plan", str(self._plan_file(tmp_path)))
        assert code == faulted_code == 0
        assert "armed fault plan cli-chaos (seed 67)" in faulted
        assert "fault injection:" in faulted
        assert "0 fault event(s), 0 task retries" not in faulted
        assert len(self.row_counts(clean)) == 7
        assert self.row_counts(faulted) == self.row_counts(clean)

    def test_multi_tenant_batch_under_a_plan_matches_fault_free_rows(
            self, tmp_path):
        """Faults under multi-tenant traffic: three tenants' requests,
        interleaved by the fair dispatcher, all come back with the
        fault-free rows."""
        batch = ("--batch", "mixed", "--scale-factor", "0.02",
                 "--tenants", "3")
        code, clean = run_cli(*batch)
        faulted_code, faulted = run_cli(
            *batch, "--fault-plan", str(self._plan_file(tmp_path)))
        assert code == faulted_code == 0
        assert "armed fault plan cli-chaos (seed 67)" in faulted
        assert "0 fault event(s), 0 task retries" not in faulted
        assert len(self.row_counts(clean)) == 21
        assert self.row_counts(faulted) == self.row_counts(clean)


class TestMissingInputFiles:
    @pytest.mark.parametrize("flags", [
        ("--sql-file", "{missing}"),
        ("--workload", "Q10", "--load-stats", "{missing}"),
        ("--batch", "mixed", "--load-stats", "{missing}"),
    ], ids=["sql-file", "load-stats", "batch-load-stats"])
    def test_reported_like_a_missing_fault_plan(self, tmp_path, flags):
        missing = str(tmp_path / "nope")
        code, output = run_cli(
            *(flag.format(missing=missing) for flag in flags),
            "--scale-factor", "0.02")
        assert code == 1
        assert "error: cannot load" in output
        assert "nope" in output


class TestObservabilityFlags:
    def test_trace_writes_parseable_json_lines(self, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05",
                               "--trace", str(trace))
        assert code == 0
        assert f"wrote trace to {trace}" in output
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert records
        names = {record["name"] for record in records}
        # The full DYNOPT lifecycle shows up in one trace.
        assert {"query", "pilot", "optimize", "execute",
                "job", "estimate"} <= names
        # seq is dense and deterministic.
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_metrics_summary_written(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05",
                               "--metrics", str(path))
        assert code == 0
        summary = json.loads(path.read_text())
        assert summary["counters"]["queries.executed"] == 1
        assert summary["counters"]["jobs.executed"] >= 1
        assert "qerror.rows" in summary["observations"]
        assert "query.driver_wall_s" in summary["observations"]

    def test_profile_prints_breakdown(self):
        code, output = run_cli("--workload", "Q10",
                               "--scale-factor", "0.05", "--profile")
        assert code == 0
        assert "profile:" in output
        assert "driver wall-clock:" in output
        assert "q-error" in output
        assert "queries.executed" in output

    def test_trace_closed_on_query_error(self, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        code, output = run_cli("--sql", "SELECT a.x FROM t1 a",
                               "--scale-factor", "0.05",
                               "--trace", str(trace))
        assert code == 1
        # The sink is flushed and every written line still parses.
        for line in trace.read_text().splitlines():
            json.loads(line)
