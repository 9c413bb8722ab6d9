"""Every record is sized once: ``sizes[i] == estimate_value_size(rows[i])``.

The simulator's clock is computed from record byte sizes, so the sizes
that travel with the rows -- out of a DFS file, through scans, build
loads, joins and pilot outputs, back into a DFS file -- must equal the
recursive value estimator at every hop *without* calling it again. Three
angles: (a) every shape of file hands out value-exact sizes, (b) an
engine sweep re-derives every job output and every loaded build from
scratch and compares, (c) a warm request makes no sizing call that is
not a freshly aggregated row.
"""

import sys

import pytest

from repro.cluster.runtime import ClusterRuntime
from repro.config import DEFAULT_CONFIG
from repro.core.dyno import Dyno
from repro.data import schema as schema_module
from repro.data.schema import (
    DATE,
    FLOAT,
    INT,
    STRING,
    Schema,
    estimate_value_size,
)
from repro.service import QueryRequest, QueryService
from repro.storage.dfs import DFSFile, DistributedFileSystem
from repro.workloads.queries import q10
from repro.workloads.skewed import skewed_join
from repro.workloads.weblogs import (
    PAGEVIEW_SCHEMA,
    generate_weblogs,
    weblog_engagement,
)
from tests.oracle import skewed_oracle_tables
from tests.serving import run_requests


@pytest.fixture(scope="module")
def weblogs():
    return generate_weblogs(user_count=100, page_count=50,
                            event_count=3000, seed=23)


# ---------------------------------------------------------------------------
# (a) every file shape answers value_sizes()
# ---------------------------------------------------------------------------

def file_shapes(weblogs):
    typed = Schema.of(k=INT, s=STRING, f=FLOAT)
    return {
        "typed value-exact": (typed, [
            {"k": 1, "s": "abc", "f": 1.5},
            {"k": None, "s": "", "f": None},
        ], True),
        "typed with a date": (Schema.of(d=DATE, k=INT), [
            {"d": "1997-03-15", "k": 1}, {"d": None, "k": 2},
        ], True),
        "non-canonical date": (Schema.of(d=DATE), [{"d": "97-3-15"}], False),
        "nested struct + array": (
            PAGEVIEW_SCHEMA, weblogs["pageviews"].rows[:400], False),
        "schema-free intermediate": (Schema(()), [
            {"pv.userid": 3, "pv.client": {"ua": "x/1", "ip": None},
             "u.tags": ["a", "b"]},
            {"pv.userid": None},
            {},
        ], True),
        "sparse rows": (typed, [
            {"k": 7}, {}, {"s": "xy", "extra": [1, {"deep": "v"}]},
        ], True),
        "bool smuggled into an int column": (
            Schema.of(k=INT), [{"k": 1}, {"k": True}], False),
    }


class TestValueSizes:
    def test_every_shape_is_value_exact(self, weblogs):
        for label, (schema, rows, proven) in file_shapes(weblogs).items():
            dfs_file = DFSFile("f", schema, rows, block_size_bytes=512)
            assert dfs_file.sizes_are_value_exact is proven, label
            sizes = dfs_file.value_sizes()
            assert sizes == [estimate_value_size(row) for row in rows], label
            assert dfs_file.value_sizes() is sizes, label
            # proven files hand out the stored sizes themselves.
            assert (sizes is dfs_file.row_sizes) is proven, label

    def test_batches_slice_the_file_sizes(self, weblogs):
        for label, (schema, rows, _) in file_shapes(weblogs).items():
            dfs_file = DFSFile("f", schema, rows, block_size_bytes=512)
            sizes = dfs_file.value_sizes()
            whole = dfs_file.file_batch()
            assert whole.rows == rows and whole.ensure_sizes() == sizes
            stitched = []
            for split in dfs_file.splits:
                stitched.extend(dfs_file.split_batch(split).ensure_sizes())
            assert stitched == sizes, label

    def test_sweep_is_lazy_and_split_sizes_stay_schema_sized(self, weblogs):
        """Loading never pays the sweep, and block boundaries (hence
        simulated I/O) keep using the schema's sizes."""
        table = weblogs["pageviews"]
        dfs = DistributedFileSystem(block_size_bytes=4096)
        dfs_file = dfs.write_table(table)
        assert dfs_file._value_sizes is None
        assert dfs_file.row_sizes == \
            table.schema.estimated_row_sizes(table.rows)
        assert dfs_file.value_sizes() != dfs_file.row_sizes
        assert dfs_file.size_bytes == sum(dfs_file.row_sizes)

    def test_whole_file_read_is_charged_like_read_all(self, weblogs):
        dfs = DistributedFileSystem(block_size_bytes=4096)
        dfs.write_table(weblogs["users"])
        batch = dfs.read_file_batch("users")
        assert dfs.bytes_read == dfs.file_size("users")
        assert batch.rows == dfs.read_all("users")
        assert dfs.bytes_read == 2 * dfs.file_size("users")


# ---------------------------------------------------------------------------
# (b) engine sweep: re-derive every output and every build from scratch
# ---------------------------------------------------------------------------

class CheckingRuntime(ClusterRuntime):
    """Asserts the sizing invariant on everything a job produced."""

    jobs_checked = 0
    builds_checked = 0
    labels: set = set()

    def _finalize_job(self, job, data):
        cls = CheckingRuntime
        assert data.output_sizes == \
            [estimate_value_size(row) for row in data.output_rows], job.name
        cls.jobs_checked += 1
        cls.labels.add(job.name.rsplit(".", 1)[-1].rstrip("0123456789"))
        for build in job.broadcast_builds:
            expected = [estimate_value_size(row) for row in build.rows]
            assert build.sizes == expected, build.description
            assert build.loaded_bytes == sum(expected), build.description
            cls.builds_checked += 1
        result = super()._finalize_job(job, data)
        written = self.dfs.open(job.output_name)
        assert written.value_sizes() == data.output_sizes, job.name
        return result


@pytest.fixture()
def checking(monkeypatch):
    monkeypatch.setattr("repro.core.dyno.ClusterRuntime", CheckingRuntime)
    CheckingRuntime.jobs_checked = 0
    CheckingRuntime.builds_checked = 0
    CheckingRuntime.labels = set()
    return CheckingRuntime


# One leg: jobs run one way. (The "serial" id is the name these tests
# are tracked under.)
@pytest.mark.parametrize("config", [DEFAULT_CONFIG], ids=["serial"])
class TestEngineSweep:
    def run(self, tables, workload, config):
        dyno = Dyno(tables, config=config, udfs=workload.udfs)
        assert isinstance(dyno.runtime, CheckingRuntime)
        return dyno.execute_multi(workload.stages)

    def test_q10(self, checking, tpch_tables, config):
        execution = self.run(tpch_tables, q10(), config)
        assert execution.rows
        assert checking.builds_checked > 0
        assert {"pilr", "groupby"} <= checking.labels

    def test_weblog_query_over_the_nested_table(self, checking, weblogs,
                                                config):
        execution = self.run(weblogs, weblog_engagement(), config)
        assert execution.rows
        assert checking.builds_checked > 0
        assert "pilr" in checking.labels

    def test_skew_join(self, checking, config):
        execution = self.run(skewed_oracle_tables(), skewed_join(), config)
        assert execution.rows
        # the heavy-key build slice went through the selection loader.
        assert "sjoin" in checking.labels
        assert checking.builds_checked > 0


# ---------------------------------------------------------------------------
# (c) re-walk budget of a warm request
# ---------------------------------------------------------------------------

def count_sizing_calls(monkeypatch):
    """Wrap the two per-record sizers wherever a module bound them."""
    calls = {"n": 0}
    for name in ("estimate_value_size", "estimate_dict_size"):
        original = getattr(schema_module, name)

        def counted(value, _original=original):
            calls["n"] += 1
            return _original(value)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro.") and \
                    vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestReWalkBudget:
    def test_warm_weblog_request_sizes_only_its_aggregates(
            self, weblogs, monkeypatch):
        workload = weblog_engagement()
        service = QueryService(weblogs, udfs=workload.udfs)
        (cold,) = run_requests(service, [QueryRequest.from_workload(workload)])
        assert cold.error is None

        calls = count_sizing_calls(monkeypatch)
        (warm,) = run_requests(
            service, [QueryRequest.from_workload(weblog_engagement())])
        assert warm.error is None and warm.rows == cold.rows
        assert warm.pilot_jobs == 0
        # Scans slice the file's sizes, joins add them, builds carry them:
        # the only rows sized from scratch are the ones GROUP BY creates.
        assert 0 < calls["n"] <= len(warm.rows)
