"""The workload feedback store: audits in, better optimizations out.

Every executed DYNOPT job already yields an estimate audit (estimated vs
actual rows/bytes, the q-error the paper treats as the core feedback
signal). This store closes the loop on three channels:

* **correction factors** -- per group key (see :mod:`repro.feedback.keys`)
  a multiplicative correction in log space, updated by
  ``log2_correction += alpha * log2(actual / estimated)``. The estimate
  fed back is the *already corrected* one, so the update chases the
  residual error and converges toward q-error 1.0 under a stationary
  bias. Applied factors are clamped and **quantized** in log2 space so
  the plan-cache salt (below) stabilizes once learning converges instead
  of thrashing the cache on every epsilon;
* **pilot boosts** -- a key whose rows q-error stays above
  :data:`PILOT_QERROR_THRESHOLD` for :data:`PILOT_ESCALATE_AFTER`
  consecutive audits *despite corrections* escalates its contributing
  base-leaf signatures: their next pilot runs with a boosted ``k`` and is
  forced even though the metastore already has the signature. Re-piloting
  (rather than invalidating the metastore) keeps the old statistics live
  until the fresh ones replace them;
* **plan-choice regret** -- per canonical block key, each optimizer
  choice is compared with the best (cheapest) cost ever recorded for that
  key. ``regret = chosen_cost / best_known - 1`` (0 = picked the best
  known plan; best-known is the running minimum, so early choices are not
  charged retroactively). The leaderboard surfaces the blocks that keep
  paying for bad plans.

Corrected estimates must not resurrect plans cached under the uncorrected
ones: :meth:`correction_token` hashes the quantized corrections relevant
to a block, and the DYNOPT executor salts the plan cache's statistics
fingerprint with it.

Persisted with the metastore's atomic tmp-then-replace discipline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StatisticsError
from repro.obs.metrics import MetricsRegistry, NULL_METRICS, q_error

#: EWMA step on the log-space residual; 0.5 halves the error per audit.
LEARNING_RATE = 0.5
#: Applied corrections stay within 2**±MAX_LOG2_CORRECTION (x64 either way).
MAX_LOG2_CORRECTION = 6.0
#: One audit may move the correction by at most this much (outlier guard).
MAX_LOG2_UPDATE = 8.0
#: Applied factors snap to multiples of this in log2 space (~19% steps),
#: so the plan-cache token goes quiet once learning converges.
QUANT_STEP_LOG2 = 0.25

#: Rows q-error at/above which an audit counts as a persistent miss.
PILOT_QERROR_THRESHOLD = 4.0
#: Consecutive misses (post-correction) before pilots escalate.
PILOT_ESCALATE_AFTER = 3
#: Each escalation doubles the pilot's k_records, up to the cap.
PILOT_BOOST_FACTOR = 2.0
PILOT_BOOST_MAX = 16.0


def _quantize(log2_value: float) -> float:
    """Snap a log2 correction to the grid, clamped to the legal range."""
    clamped = max(-MAX_LOG2_CORRECTION, min(MAX_LOG2_CORRECTION, log2_value))
    return round(clamped / QUANT_STEP_LOG2) * QUANT_STEP_LOG2


@dataclass
class _Correction:
    """Learned state for one group key."""

    samples: int = 0
    log2_rows: float = 0.0
    log2_bytes: float = 0.0
    last_qerror_rows: float = 1.0
    last_qerror_bytes: float = 1.0
    consecutive_high: int = 0
    #: sorted (alias, identity) pairs of the group the key describes.
    identity: tuple = ()

    @property
    def contributing(self) -> tuple[str, ...]:
        """Base-leaf signatures whose statistics fed this estimate."""
        return tuple(sorted({
            identity for _, identity in self.identity
            if identity.startswith("table:")
        }))

    def factors(self) -> tuple[float, float]:
        return (2.0 ** _quantize(self.log2_rows),
                2.0 ** _quantize(self.log2_bytes))

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "log2_rows": self.log2_rows,
            "log2_bytes": self.log2_bytes,
            "last_qerror_rows": self.last_qerror_rows,
            "last_qerror_bytes": self.last_qerror_bytes,
            "consecutive_high": self.consecutive_high,
            "identity": [list(pair) for pair in self.identity],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "_Correction":
        return cls(
            samples=int(payload.get("samples", 0)),
            log2_rows=float(payload.get("log2_rows", 0.0)),
            log2_bytes=float(payload.get("log2_bytes", 0.0)),
            last_qerror_rows=float(payload.get("last_qerror_rows", 1.0)),
            last_qerror_bytes=float(payload.get("last_qerror_bytes", 1.0)),
            consecutive_high=int(payload.get("consecutive_high", 0)),
            identity=tuple(
                (str(alias), str(identity))
                for alias, identity in payload.get("identity", [])
            ),
        )


@dataclass
class _BlockRegret:
    """Regret bookkeeping for one canonical block key."""

    choices: int = 0
    best_cost: float = math.inf
    best_plan: str = ""
    total_regret: float = 0.0
    max_regret: float = 0.0
    worst_plan: str = ""

    @property
    def mean_regret(self) -> float:
        return self.total_regret / self.choices if self.choices else 0.0

    def to_dict(self) -> dict:
        return {
            "choices": self.choices,
            "best_cost": self.best_cost,
            "best_plan": self.best_plan,
            "total_regret": self.total_regret,
            "max_regret": self.max_regret,
            "worst_plan": self.worst_plan,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "_BlockRegret":
        return cls(
            choices=int(payload.get("choices", 0)),
            best_cost=float(payload.get("best_cost", math.inf)),
            best_plan=str(payload.get("best_plan", "")),
            total_regret=float(payload.get("total_regret", 0.0)),
            max_regret=float(payload.get("max_regret", 0.0)),
            worst_plan=str(payload.get("worst_plan", "")),
        )


@dataclass
class _PilotTuning:
    """Escalation state for one base-leaf statistics signature."""

    boost: float = 1.0
    repilot_pending: bool = False
    escalations: int = 0

    def to_dict(self) -> dict:
        return {"boost": self.boost,
                "repilot_pending": self.repilot_pending,
                "escalations": self.escalations}

    @classmethod
    def from_dict(cls, payload: dict) -> "_PilotTuning":
        return cls(boost=float(payload.get("boost", 1.0)),
                   repilot_pending=bool(payload.get("repilot_pending",
                                                    False)),
                   escalations=int(payload.get("escalations", 0)))


class FeedbackStore:
    """Per-block-key feedback over estimate audits."""

    def __init__(self) -> None:
        self._corrections: dict[str, _Correction] = {}
        self._blocks: dict[str, _BlockRegret] = {}
        self._pilots: dict[str, _PilotTuning] = {}
        self.metrics: MetricsRegistry = NULL_METRICS

    def bind_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Adopt a real registry; never downgrade to the null one."""
        if metrics is not None and metrics.enabled:
            self.metrics = metrics

    def __len__(self) -> int:
        return len(self._corrections)

    # -- ingestion ------------------------------------------------------------

    def ingest(self, key: str, identity: tuple,
               estimated_rows: float, actual_rows: float,
               estimated_bytes: float, actual_bytes: float,
    ) -> tuple[str, ...]:
        """Fold one estimate audit in; returns signatures escalated now.

        ``estimated_rows``/``estimated_bytes`` are the (already corrected)
        estimates the executed job carried, so the log-space update chases
        the residual error and converges.
        """
        rows_q = q_error(estimated_rows, actual_rows)
        bytes_q = q_error(estimated_bytes, actual_bytes)
        escalated: tuple[str, ...] = ()
        correction = self._corrections.get(key)
        if correction is None:
            correction = _Correction(identity=tuple(identity))
            self._corrections[key] = correction
        correction.samples += 1
        correction.log2_rows = self._step(
            correction.log2_rows, estimated_rows, actual_rows)
        correction.log2_bytes = self._step(
            correction.log2_bytes, estimated_bytes, actual_bytes)
        correction.last_qerror_rows = rows_q
        correction.last_qerror_bytes = bytes_q
        if rows_q >= PILOT_QERROR_THRESHOLD:
            correction.consecutive_high += 1
            if correction.consecutive_high >= PILOT_ESCALATE_AFTER:
                correction.consecutive_high = 0
                escalated = self._escalate(correction.contributing)
        else:
            correction.consecutive_high = 0
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("feedback.ingested")
            if escalated:
                metrics.inc("feedback.pilot_boosts", len(escalated))
        return escalated

    @staticmethod
    def _step(log2_correction: float, estimated: float,
              actual: float) -> float:
        residual = math.log2(max(actual, 1.0) / max(estimated, 1.0))
        residual = max(-MAX_LOG2_UPDATE, min(MAX_LOG2_UPDATE, residual))
        updated = log2_correction + LEARNING_RATE * residual
        return max(-MAX_LOG2_CORRECTION,
                   min(MAX_LOG2_CORRECTION, updated))

    def _escalate(self, signatures: tuple[str, ...]) -> tuple[str, ...]:
        """Boost + force-repilot the contributing base-leaf signatures."""
        escalated = []
        for signature in signatures:
            tuning = self._pilots.setdefault(signature, _PilotTuning())
            if tuning.boost >= PILOT_BOOST_MAX and tuning.repilot_pending:
                continue  # already maxed out and queued
            tuning.boost = min(tuning.boost * PILOT_BOOST_FACTOR,
                               PILOT_BOOST_MAX)
            tuning.repilot_pending = True
            tuning.escalations += 1
            escalated.append(signature)
        return tuple(escalated)

    # -- correction application ----------------------------------------------

    def correction(self, key: str) -> tuple[float, float]:
        """(rows factor, bytes factor) to multiply into an estimate."""
        correction = self._corrections.get(key)
        if correction is None or not correction.samples:
            return (1.0, 1.0)
        return correction.factors()

    def correction_token(self, alias_identity: dict[str, str]) -> str:
        """Salt for the plan-cache fingerprint of a block.

        Hashes every quantized, non-identity correction whose group lies
        inside the block's (alias, identity) mapping -- exactly the
        corrections that can change this block's estimates. Quantization
        keeps the token stable once learning converges; an empty token
        means "no corrections apply", matching feedback-off behaviour.
        """
        items = set(alias_identity.items())
        parts = []
        for key, correction in self._corrections.items():
            if not correction.samples:
                continue
            if not set(correction.identity) <= items:
                continue
            rows_factor, bytes_factor = correction.factors()
            if rows_factor == 1.0 and bytes_factor == 1.0:
                continue
            parts.append(f"{key}:{rows_factor:.6g}:{bytes_factor:.6g}")
        if not parts:
            return ""
        digest = hashlib.sha256("|".join(sorted(parts)).encode("utf-8"))
        return digest.hexdigest()[:12]

    # -- pilot auto-tuning ----------------------------------------------------

    def pilot_boost(self, signature: str) -> float:
        tuning = self._pilots.get(signature)
        return tuning.boost if tuning is not None else 1.0

    def should_repilot(self, signature: str) -> bool:
        """True when this signature's next pilot must run even on a hit."""
        tuning = self._pilots.get(signature)
        return tuning is not None and tuning.repilot_pending

    def repilot_done(self, signature: str) -> None:
        tuning = self._pilots.get(signature)
        if tuning is None or not tuning.repilot_pending:
            return
        tuning.repilot_pending = False
        if self.metrics.enabled:
            self.metrics.inc("feedback.repilots")

    # -- plan-choice regret ----------------------------------------------------

    def record_choice(self, block_key: str, plan_signature: str,
                      cost: float) -> float:
        """Record one optimizer decision; returns its regret (>= 0)."""
        record = self._blocks.setdefault(block_key, _BlockRegret())
        record.choices += 1
        if cost < record.best_cost:
            record.best_cost = cost
            record.best_plan = plan_signature
        if record.best_cost > 0:
            regret = cost / record.best_cost - 1.0
        else:
            regret = 0.0
        record.total_regret += regret
        if regret >= record.max_regret:
            record.max_regret = regret
            record.worst_plan = plan_signature
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("feedback.choices")
            metrics.observe("feedback.regret", regret)
        return regret

    def regret_leaderboard(self, top: int = 10) -> list[dict]:
        """Blocks ranked by mean regret (worst offenders first)."""
        records = [(key, record) for key, record in self._blocks.items()
                   if record.choices]
        records.sort(key=lambda item: (-item[1].mean_regret,
                                       -item[1].max_regret, item[0]))
        return [
            {
                "block": key,
                "choices": record.choices,
                "mean_regret": record.mean_regret,
                "max_regret": record.max_regret,
                "best_cost": record.best_cost,
                "best_plan": record.best_plan,
                "worst_plan": record.worst_plan,
            }
            for key, record in records[:top]
        ]

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict:
        corrections = len(self._corrections)
        samples = sum(c.samples for c in self._corrections.values())
        active = sum(1 for c in self._corrections.values()
                     if c.factors() != (1.0, 1.0))
        boosted = {signature: tuning.boost
                   for signature, tuning in self._pilots.items()
                   if tuning.boost > 1.0}
        pending = sorted(signature
                         for signature, tuning in self._pilots.items()
                         if tuning.repilot_pending)
        blocks = len(self._blocks)
        return {
            "keys": corrections,
            "samples": samples,
            "active_corrections": active,
            "pilot_boosts": boosted,
            "repilots_pending": pending,
            "blocks_tracked": blocks,
            "regret_leaderboard": self.regret_leaderboard(),
        }

    def report(self, top: int = 10) -> str:
        """Human-readable view (the CLI's ``--feedback-report``)."""
        summary = self.summary()
        worst = sorted(
            self._corrections.items(),
            key=lambda item: (-abs(item[1].log2_rows), item[0]),
        )[:top]
        lines = [
            "feedback report:",
            f"  correction keys     {summary['keys']} "
            f"({summary['active_corrections']} active, "
            f"{summary['samples']} audits ingested)",
            f"  pilot boosts        {len(summary['pilot_boosts'])} "
            f"({len(summary['repilots_pending'])} repilot(s) pending)",
            f"  blocks tracked      {summary['blocks_tracked']}",
        ]
        if worst:
            lines.append("  largest corrections (rows x / bytes x, "
                         "last q-error):")
            for key, correction in worst:
                rows_factor, bytes_factor = correction.factors()
                if rows_factor == 1.0 and bytes_factor == 1.0:
                    continue
                lines.append(
                    f"    x{rows_factor:<8.3g} x{bytes_factor:<8.3g} "
                    f"q={correction.last_qerror_rows:<8.3g} {key}"
                )
        for signature, boost in sorted(summary["pilot_boosts"].items()):
            lines.append(f"  pilot k x{boost:g}  {signature}")
        leaderboard = summary["regret_leaderboard"]
        offenders = [entry for entry in leaderboard
                     if entry["mean_regret"] > 0.0]
        if offenders:
            lines.append("  regret leaderboard (chosen vs best-known "
                         "cost):")
            for entry in offenders[:top]:
                lines.append(
                    f"    mean {entry['mean_regret']:.3f} "
                    f"max {entry['max_regret']:.3f} "
                    f"over {entry['choices']} choice(s): "
                    f"{entry['block'][:100]}"
                )
        else:
            lines.append("  regret: every optimization picked the "
                         "best-known plan")
        return "\n".join(lines)

    def clear(self) -> None:
        """Forget everything learned (benchmark epoch boundaries)."""
        self._corrections.clear()
        self._blocks.clear()
        self._pilots.clear()

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write atomically: a failure mid-write must not clobber the
        previous feedback file (same discipline as the metastore)."""
        payload = {
            "schema_version": 1,
            "corrections": {
                key: correction.to_dict()
                for key, correction in self._corrections.items()
            },
            "pilots": {
                signature: tuning.to_dict()
                for signature, tuning in self._pilots.items()
            },
            "blocks": {
                key: record.to_dict()
                for key, record in self._blocks.items()
            },
        }
        target = Path(path)
        staging = target.with_name(target.name + ".tmp")
        try:
            staging.write_text(json.dumps(payload, indent=2,
                                          sort_keys=True))
            os.replace(staging, target)
        except BaseException:
            staging.unlink(missing_ok=True)
            raise

    @staticmethod
    def load(path: str | Path) -> "FeedbackStore":
        store = FeedbackStore()
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StatisticsError(
                f"cannot load feedback store: {exc}") from exc
        if not isinstance(payload, dict):
            raise StatisticsError(
                "feedback file must hold a JSON object")
        for key, entry in payload.get("corrections", {}).items():
            store._corrections[key] = _Correction.from_dict(entry)
        for signature, entry in payload.get("pilots", {}).items():
            store._pilots[signature] = _PilotTuning.from_dict(entry)
        for key, entry in payload.get("blocks", {}).items():
            store._blocks[key] = _BlockRegret.from_dict(entry)
        return store
