"""DYNO: dynamically optimizing queries over large-scale data platforms.

A from-scratch Python reproduction of Karanasos et al., SIGMOD 2014. The
public API centers on two layers:

* :class:`repro.Dyno` -- the end-to-end system: load tables, execute SQL
  (or built :class:`repro.QuerySpec` trees) with pilot runs, cost-based
  join enumeration and dynamic re-optimization over a simulated
  MapReduce/HDFS cluster;
* :mod:`repro.workloads` -- the paper's TPC-H workload (Q2, Q7, Q8', Q9',
  Q10) and the scaled-down TPC-H generator.

The paper's evaluation section -- one experiment per table/figure -- is
outside the library: ``python -m benchmarks.paper`` regenerates it from
a source checkout.

Quickstart::

    from repro import Dyno, generate_tpch
    from repro.workloads.queries import q10

    dataset = generate_tpch(0.25)        # paper SF=100 equivalent
    workload = q10()
    dyno = Dyno(dataset.tables, udfs=workload.udfs)
    result = dyno.execute(workload.final_spec)
    print(result.rows[:3], result.total_seconds)
"""

from repro.config import (
    DEFAULT_CONFIG,
    ClusterConfig,
    DynoConfig,
    OptimizerConfig,
    PilotConfig,
)
from repro.core.dyno import Dyno, QueryExecution
from repro.core.dynopt import BlockExecutionResult, DynoptExecutor
from repro.core.pilot import PilotReport, PilotRunner
from repro.core.strategies import STRATEGIES, ExecutionStrategy
from repro.data.schema import FieldType, Path, Schema
from repro.data.table import Table
from repro.data.tpch import TpchDataset, generate_restaurants, generate_tpch
from repro.errors import (
    BroadcastBuildOverflowError,
    DynoError,
    OptimizerError,
    ParseError,
    PlanError,
    SchemaError,
    StatisticsError,
    UnsupportedQueryError,
)
from repro.jaql.expr import QuerySpec
from repro.jaql.functions import Udf, UdfRegistry, make_selective_udf
from repro.jaql.parser import parse_query
from repro.optimizer.plans import plan_diff, render_plan, summarize_plan
from repro.optimizer.search import JoinOptimizer, OptimizationResult
from repro.stats.kmv import KMVSynopsis
from repro.stats.metastore import StatisticsMetastore
from repro.validation import VerificationReport, verify_workload
from repro.stats.statistics import ColumnStats, Histogram, TableStats

__version__ = "1.0.0"

__all__ = [
    "BlockExecutionResult",
    "BroadcastBuildOverflowError",
    "ClusterConfig",
    "ColumnStats",
    "DEFAULT_CONFIG",
    "Dyno",
    "DynoConfig",
    "DynoError",
    "DynoptExecutor",
    "ExecutionStrategy",
    "FieldType",
    "JoinOptimizer",
    "KMVSynopsis",
    "OptimizationResult",
    "OptimizerConfig",
    "OptimizerError",
    "ParseError",
    "Path",
    "PilotConfig",
    "PilotReport",
    "PilotRunner",
    "PlanError",
    "QueryExecution",
    "QuerySpec",
    "STRATEGIES",
    "Schema",
    "SchemaError",
    "StatisticsError",
    "StatisticsMetastore",
    "Table",
    "TableStats",
    "TpchDataset",
    "Udf",
    "UdfRegistry",
    "UnsupportedQueryError",
    "Histogram",
    "VerificationReport",
    "generate_restaurants",
    "generate_tpch",
    "make_selective_udf",
    "parse_query",
    "plan_diff",
    "render_plan",
    "summarize_plan",
    "verify_workload",
]
