"""Serving layer: multi-tenant query execution with cross-query reuse.

See :mod:`repro.service.service` for the QueryService,
:mod:`repro.service.scheduler` for the multi-tenant submission queue,
:mod:`repro.service.plan_cache` for the plan cache,
:mod:`repro.service.result_cache` for the result-set cache shared across
queries and :mod:`repro.service.lru` for the sharded LRU store both hold.
``docs/serving.md`` walks through the design.
"""

from repro.service.plan_cache import (
    CachedOptimization,
    PlanCache,
    canonical_block_key,
    statistics_fingerprint,
)
from repro.service.result_cache import ResultCache, request_identity
from repro.service.scheduler import QueryScheduler, dispatch_order
from repro.service.service import QueryOutcome, QueryRequest, QueryService

__all__ = [
    "CachedOptimization",
    "PlanCache",
    "QueryOutcome",
    "QueryRequest",
    "QueryScheduler",
    "QueryService",
    "ResultCache",
    "canonical_block_key",
    "dispatch_order",
    "request_identity",
    "statistics_fingerprint",
]
