"""Deterministic fault injection for the simulated cluster.

The paper's robustness argument (Section 1) is that DYNO inherits
MapReduce's fault tolerance for free: every job checkpoints its output to
the DFS, so a failure re-runs only the lost sub-plan and re-optimization
can route around a permanently broken operator. This module supplies the
adverse schedules that let tests *prove* that claim.

A :class:`FaultPlan` is a small, seeded, JSON-serializable description of
what goes wrong during a run:

* **task-attempt failures** -- individual task attempts fail with
  ``task_failure_rate`` and consume attempts against the cluster's
  ``max_task_attempts`` budget (Hadoop's mapred.*.max.attempts). Retries
  cost simulated time; an exhausted budget kills the job with
  :class:`~repro.errors.TaskRetriesExhaustedError`.
* **whole-job failures** -- the job dies at a map/reduce/finalize
  boundary (:class:`~repro.errors.JobFaultInjectedError`); the runtime
  retries it with capped exponential backoff, charged as extra startup
  time in the slot schedule.
* **stragglers** -- a task's duration is multiplied by
  ``straggler_factor``; with speculative execution enabled the
  :class:`~repro.cluster.scheduler.SlotScheduler` launches backup copies
  that cap the damage.
* **node loss** -- a materialized job output disappears from the DFS
  between DYNOPT iterations; the executor re-runs only the producing
  sub-plan (provenance-based recovery).
* **doomed broadcasts** -- a broadcast-join job fails *permanently*
  (every attempt), forcing the re-optimization loop to replan the join
  as a repartition join.

Every random draw is derived from ``blake2b(seed, job-name, incarnation,
channel)``, never from global RNG state or ``hash()`` (which is salted
per process). Faults are therefore reproducible across runs *and*
independent of the order in which jobs happen to run -- the property the
differential oracle in ``tests/oracle.py`` relies on. Retried jobs get a
fresh *incarnation* and hence fresh draws, so transient faults do not
repeat deterministically forever.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from repro.errors import FaultPlanError, JobFaultInjectedError, \
    TaskRetriesExhaustedError
from repro.obs.tracer import NULL_TRACER, Tracer

#: the only boundaries at which a whole-job fault may fire.
JOB_BOUNDARIES = ("map", "reduce", "finalize")


def derived_rng(seed: int, *parts: object) -> random.Random:
    """A ``random.Random`` keyed on ``seed`` and a structured label.

    Uses blake2b, not ``hash()``: Python salts string hashing per process,
    which would break cross-process reproducibility of a fault schedule.
    """
    label = "/".join(str(part) for part in parts)
    digest = hashlib.blake2b(f"{seed}:{label}".encode("utf-8"),
                             digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of injected faults.

    All rates are probabilities in ``[0, 1]``; budgets (``max_*``) bound
    how much damage a plan may do so every plan terminates. A plan with
    all rates zero injects nothing and costs nothing (the runtime skips
    the fault path entirely).
    """

    seed: int
    name: str = ""
    #: per-task-attempt failure probability (consumes retry budget).
    task_failure_rate: float = 0.0
    #: per-boundary whole-job failure probability.
    job_failure_rate: float = 0.0
    job_failure_boundaries: tuple[str, ...] = JOB_BOUNDARIES
    #: total whole-job faults injected per job name before the plan
    #: leaves that job alone (keeps transient faults transient).
    max_job_failures: int = 2
    #: probability that a task straggles ...
    straggler_rate: float = 0.0
    #: ... and the slowdown multiplier when it does.
    straggler_factor: float = 8.0
    #: probability that a freshly materialized job output is lost.
    node_loss_rate: float = 0.0
    max_node_losses: int = 2
    #: probability that a broadcast-join job is *doomed*: every attempt
    #: fails, modeling a permanently overloaded build -- the executor
    #: must replan the join as repartition.
    broadcast_failure_rate: float = 0.0

    def __post_init__(self) -> None:
        for rate_name in ("task_failure_rate", "job_failure_rate",
                          "straggler_rate", "node_loss_rate",
                          "broadcast_failure_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(
                    f"{rate_name} must be within [0, 1], got {rate}")
        if self.straggler_factor < 1.0:
            raise FaultPlanError("straggler_factor must be >= 1.0")
        if self.max_job_failures < 0 or self.max_node_losses < 0:
            raise FaultPlanError("fault budgets must be non-negative")
        boundaries = tuple(self.job_failure_boundaries)
        unknown = set(boundaries) - set(JOB_BOUNDARIES)
        if unknown:
            raise FaultPlanError(
                f"unknown job failure boundaries: {sorted(unknown)}; "
                f"valid: {list(JOB_BOUNDARIES)}")
        object.__setattr__(self, "job_failure_boundaries", boundaries)

    @property
    def injects_anything(self) -> bool:
        return any((self.task_failure_rate, self.job_failure_rate,
                    self.straggler_rate, self.node_loss_rate,
                    self.broadcast_failure_rate))

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["job_failure_boundaries"] = list(self.job_failure_boundaries)
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(payload).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan keys: {sorted(unknown)}")
        if "seed" not in payload:
            raise FaultPlanError("fault plan requires a 'seed'")
        data = dict(payload)
        if "job_failure_boundaries" in data:
            data["job_failure_boundaries"] = tuple(
                data["job_failure_boundaries"])
        try:
            return cls(**data)
        except TypeError as error:
            raise FaultPlanError(f"bad fault plan: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}") \
                from error
        return cls.from_dict(payload)

    def arm(self, tracer: Tracer = NULL_TRACER) -> "FaultInjector":
        """Fresh injector (mutable run state) for one execution."""
        return FaultInjector(self, tracer)


class JobAttempt:
    """Per-(job, incarnation) fault draws for one data-pass attempt.

    All RNG streams are derived from ``(seed, job name, incarnation)``, so
    the same attempt of the same job draws the same faults no matter
    what ran before it or which service driver submitted it.
    """

    __slots__ = ("_injector", "job_name", "incarnation", "doomed",
                 "_boundary_rng", "_task_rng", "_straggle_rng")

    def __init__(self, injector: "FaultInjector", job_name: str,
                 incarnation: int, doomed: bool):
        plan = injector.plan
        self._injector = injector
        self.job_name = job_name
        self.incarnation = incarnation
        #: a doomed job fails on *every* attempt (permanent fault).
        self.doomed = doomed
        self._boundary_rng = derived_rng(plan.seed, "job-boundary",
                                         job_name, incarnation)
        self._task_rng = derived_rng(plan.seed, "task-attempt",
                                     job_name, incarnation)
        self._straggle_rng = derived_rng(plan.seed, "straggler",
                                         job_name, incarnation)

    def boundary(self, name: str) -> None:
        """Maybe kill the job at boundary ``name`` (map/reduce/finalize)."""
        injector = self._injector
        plan = injector.plan
        if name == "map" and self.doomed:
            injector.record(f"broadcast-kill job={self.job_name} "
                            f"attempt={self.incarnation}")
            raise TaskRetriesExhaustedError(
                self.job_name, None,
                detail="injected permanent broadcast failure")
        if plan.job_failure_rate <= 0.0 \
                or name not in plan.job_failure_boundaries:
            return
        draw = self._boundary_rng.random()
        if draw < plan.job_failure_rate \
                and injector.consume_job_failure(self.job_name):
            injector.record(f"job-fault job={self.job_name} "
                            f"attempt={self.incarnation} boundary={name}")
            raise JobFaultInjectedError(self.job_name, name,
                                        self.incarnation)

    def task_inflater(self, max_attempts: int,
                      task_startup_seconds: float,
                      ) -> Callable[[float], float]:
        """Time-inflation function applied to every task of this attempt.

        Models Hadoop retries: each failed attempt re-pays the task plus
        startup; ``max_attempts`` failures kill the job. Stragglers
        multiply the base duration first, so a straggling retry is slow
        every time (it is the *input/node* that is bad, not the attempt).
        """
        injector = self._injector
        plan = injector.plan
        job_name = self.job_name
        task_rng = self._task_rng
        straggle_rng = self._straggle_rng

        def inflate(seconds: float) -> float:
            if plan.straggler_rate > 0.0 \
                    and straggle_rng.random() < plan.straggler_rate:
                seconds *= plan.straggler_factor
                injector.count_straggler(job_name)
            if plan.task_failure_rate <= 0.0:
                return seconds
            total = seconds
            failures = 0
            while task_rng.random() < plan.task_failure_rate:
                failures += 1
                if failures >= max_attempts:
                    injector.record(
                        f"task-retries-exhausted job={job_name} "
                        f"attempt={self.incarnation}")
                    raise TaskRetriesExhaustedError(job_name, max_attempts)
                total += seconds + task_startup_seconds
                injector.count_task_retry(job_name)
            return total

        return inflate


class FaultInjector:
    """Mutable per-run state of an armed :class:`FaultPlan`.

    Everything that runs on one runtime shares its injector. Holds the
    incarnation counters (fresh draws per retry), the fault budgets,
    pending backoff penalties, and the event log the determinism tests
    compare.
    """

    def __init__(self, plan: FaultPlan, tracer: Tracer = NULL_TRACER):
        self.plan = plan
        #: fault events become trace events. The tracer only *sees* what
        #: the seeded plan was going to do anyway, so a traced faulted
        #: run stays byte-identical to an untraced one.
        self.tracer = tracer
        self._incarnations: dict[str, int] = {}
        self._job_failures: dict[str, int] = {}
        self._penalties: dict[str, float] = {}
        self._loss_considered: set[str] = set()
        self._losses_fired = 0
        #: ordered log of discrete fault events (job faults, kills,
        #: exhaustions, node losses). High-volume channels (task retries,
        #: stragglers) are tallied instead.
        self.events: list[str] = []
        self.task_retries = 0
        self.stragglers = 0

    # -- attempt lifecycle ------------------------------------------------
    def begin_attempt(self, job) -> JobAttempt:
        incarnation = self._incarnations.get(job.name, 0) + 1
        self._incarnations[job.name] = incarnation
        doomed = False
        if self.plan.broadcast_failure_rate > 0.0 and job.is_broadcast_join:
            # One draw per job *name*, not per incarnation: a doomed
            # broadcast stays doomed, so the executor must replan.
            doom_rng = derived_rng(self.plan.seed, "broadcast-doom",
                                   job.name)
            doomed = doom_rng.random() < self.plan.broadcast_failure_rate
        return JobAttempt(self, job.name, incarnation, doomed)

    # -- budgets and tallies ---------------------------------------------
    def consume_job_failure(self, job_name: str) -> bool:
        used = self._job_failures.get(job_name, 0)
        if used >= self.plan.max_job_failures:
            return False
        self._job_failures[job_name] = used + 1
        return True

    def count_task_retry(self, job_name: str) -> None:
        self.task_retries += 1
        if self.tracer.enabled:
            self.tracer.event("task_retry", job=job_name)

    def count_straggler(self, job_name: str) -> None:
        self.stragglers += 1
        if self.tracer.enabled:
            self.tracer.event("straggler", job=job_name)

    def record(self, event: str) -> None:
        self.events.append(event)
        if self.tracer.enabled:
            self.tracer.event("fault", detail=event)

    # -- backoff penalties ------------------------------------------------
    def add_penalty(self, job_name: str, seconds: float) -> None:
        """Charge ``seconds`` of retry backoff to the job's next schedule."""
        self._penalties[job_name] = \
            self._penalties.get(job_name, 0.0) + seconds

    def consume_penalty(self, job_name: str) -> float:
        return self._penalties.pop(job_name, 0.0)

    # -- node loss --------------------------------------------------------
    def lose_outputs(self, outputs: Iterable[str]) -> list[str]:
        """Decide which freshly materialized ``outputs`` a node loss eats.

        Each output is considered exactly once per run (re-materialized
        outputs are not re-lost, so recovery always converges), and the
        plan's ``max_node_losses`` budget caps total damage.
        """
        if self.plan.node_loss_rate <= 0.0:
            return []
        lost = []
        for name in outputs:
            if name in self._loss_considered:
                continue
            self._loss_considered.add(name)
            if self._losses_fired >= self.plan.max_node_losses:
                continue
            draw = derived_rng(self.plan.seed, "node-loss",
                               name).random()
            if draw < self.plan.node_loss_rate:
                self._losses_fired += 1
                self.record(f"node-loss output={name}")
                lost.append(name)
        return lost

    # -- reporting --------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic summary used by tests and the CLI report."""
        return {
            "events": list(self.events),
            "task_retries": self.task_retries,
            "stragglers": self.stragglers,
            "job_failures": dict(sorted(self._job_failures.items())),
            "node_losses": self._losses_fired,
        }

    def summary(self) -> str:
        snap = self.snapshot()
        return (f"{len(snap['events'])} fault event(s), "
                f"{snap['task_retries']} task retr"
                f"{'y' if snap['task_retries'] == 1 else 'ies'}, "
                f"{snap['stragglers']} straggler(s), "
                f"{snap['node_losses']} node loss(es) "
                f"[seed {self.plan.seed}]")
