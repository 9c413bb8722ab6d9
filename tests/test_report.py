"""The experiment record's runner (``python -m benchmarks.paper``)."""

import pytest

from benchmarks.paper.harness import ExperimentTable
from benchmarks.paper.registry import REGISTRY, Entry
from benchmarks.paper.runner import RESULTS_DIR, _config_fingerprint, main, run
from repro.config import DEFAULT_CONFIG


def _stub(name: str, calls: list[str], holds: bool = True) -> Entry:
    """A millisecond entry whose run, text, claim and report are known."""

    def experiment(config):
        calls.append(name)
        return ExperimentTable(name, f"{name} demo", ["A"], [["x"]])

    def check(table):
        assert holds, f"{table.experiment_id} claim"

    return Entry(name, experiment, check)


class TestRendering:
    def test_markdown_table(self):
        table = ExperimentTable("T", "demo", ["A", "B"],
                                [["x", 1.5], ["y", 2]],
                                notes=["hello"])
        text = table.markdown()
        assert "### T: demo" in text
        assert "| A | B |" in text
        assert "| x | 1.50 |" in text
        assert "> hello" in text

    def test_config_fingerprint_lists_sections(self):
        text = _config_fingerprint(DEFAULT_CONFIG)
        for needle in ("[cluster]", "[optimizer]", "[pilot]",
                       "job_startup_seconds", "backend = jaql"):
            assert needle in text

    def test_sequence_covers_every_paper_artifact(self):
        names = {entry.name for entry in REGISTRY}
        assert "table1_pilr" in names
        for figure in range(2, 9):
            assert any(name.startswith(f"fig{figure}_") for name in names)


class TestGenerate:
    def test_single_experiment_report(self, tmp_path):
        calls: list[str] = []
        registry = (_stub("one", calls), _stub("other", calls))
        assert main(["--only", "one"], registry, tmp_path) == 0
        # The other entry was skipped, and a partial run leaves REPORT.md.
        assert calls == ["one"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.txt"]
        assert (tmp_path / "one.txt").read_text().startswith("== one: ")

    def test_markdown_writes_to_disk(self, tmp_path):
        calls: list[str] = []
        assert main([], (_stub("one", calls),), tmp_path) == 0
        # One run feeds both the table and the report.
        assert calls == ["one"]
        report = (tmp_path / "REPORT.md").read_text()
        assert report.startswith("# DYNO reproduction")
        assert "### one: one demo" in report

    def test_failed_claim_exits_non_zero(self, tmp_path):
        calls: list[str] = []
        registry = (_stub("bad", calls, holds=False), _stub("good", calls))
        assert main([], registry, tmp_path) == 1
        # Every entry still ran and wrote its table.
        assert calls == ["bad", "good"]
        assert (tmp_path / "bad.txt").exists()
        failures = run(registry).failures
        assert len(failures) == 1
        assert failures[0].startswith("bad: bad claim")

    def test_unknown_only_name_exits_non_zero(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["--only", "no_such_entry"], results_dir=tmp_path)
        assert exit_info.value.code != 0
        assert not any(tmp_path.iterdir())


def test_every_result_file_is_written_by_exactly_one_entry():
    names = [entry.name for entry in REGISTRY]
    assert len(names) == len(set(names))
    written = {f"{name}.txt" for name in names} | {"REPORT.md"}
    assert {path.name for path in RESULTS_DIR.iterdir()} == written
