"""Crash-safe campaign running: budgets, checkpoints, backoff, resume.

Long campaigns (Algorithm 1 sweeps, probabilistic sprays, Monte Carlo
batches) are split into numbered *segments*. :class:`CampaignRunner` is
the one engine that runs them, inline or fanned across a process pool.
It executes them under optional wall-clock / segment budgets, retries
segments aborted by transient injected faults with exponential backoff,
checkpoints completed work to JSON (atomic tmp-file + ``os.replace``),
and reports partial results when interrupted.

The determinism contract that makes resume trustworthy: segment ``index``
attempt ``attempt`` always runs with seed ``derive_seed(campaign_seed,
index, attempt)`` — independent of execution order or history — so a
killed-and-resumed campaign merges into *exactly* the result an
uninterrupted run would have produced (asserted by the resume tests).
Reports derive retry/backoff accounting from the recorded per-segment
attempt counts rather than live wall-clock, so they compare equal too.

The pieces below are shared with the campaign service
(:mod:`repro.service`): one payload builder (:func:`segment_payloads`),
one segment body (:func:`run_segment`), one failed-outcome builder
(:func:`failed_outcome`), one requeue-or-fail policy
(:func:`requeue_or_fail`) and one outcome fold
(:meth:`CampaignReport.fold`). Every executor — inline, process pool,
service worker pool — produces the same outcome dicts and folds them
the same way, which is what keeps their reports byte-identical.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro import obs
from repro.errors import ConfigurationError, TransientFaultError, WorkerCrashError
from repro.rng import DEFAULT_SEED, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.perf.memo.key import SegmentKey
    from repro.perf.memo.runtime import SegmentMemo

CHECKPOINT_VERSION = 1

#: ``target(index, seed, **kwargs) -> result dict``; ``seed`` is already
#: ``derive_seed(campaign_seed, index, attempt)``.
SegmentFn = Callable[..., Dict[str, Any]]

#: The default retry taxonomy: injected transient faults, which include
#: worker deaths (:class:`~repro.errors.WorkerCrashError`).
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (TransientFaultError,)


@dataclass(frozen=True)
class CampaignBudget:
    """Stop-early limits: segments per run() call and/or wall-clock."""

    max_segments: Optional[int] = None
    max_wall_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_segments is not None and self.max_segments < 1:
            raise ConfigurationError(
                f"max_segments {self.max_segments} must be >= 1"
            )
        if self.max_wall_s is not None and self.max_wall_s <= 0:
            raise ConfigurationError(f"max_wall_s {self.max_wall_s} must be > 0")


def _attempt_backoff_s(attempts: int, base_s: float) -> float:
    """Total backoff accounted before a segment that took ``attempts`` tries."""
    return sum(base_s * (2**retry) for retry in range(attempts - 1))


@dataclass
class CampaignReport:
    """Partial or complete campaign results plus retry accounting."""

    name: str
    seed: int
    num_segments: int
    config: Dict[str, Any]
    backoff_base_s: float
    completed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def remaining(self) -> int:
        """Segments neither completed nor terminally failed."""
        return self.num_segments - len(self.completed) - len(self.failed)

    @property
    def interrupted(self) -> bool:
        """Whether a budget stopped the run with segments still pending."""
        return self.remaining > 0

    @property
    def retries(self) -> int:
        """Total retry attempts across all recorded segments."""
        records = list(self.completed.values()) + list(self.failed.values())
        return sum(record["attempts"] - 1 for record in records)

    @property
    def backoff_wait_s(self) -> float:
        """Total exponential-backoff wait implied by the attempt counts."""
        records = list(self.completed.values()) + list(self.failed.values())
        return sum(
            _attempt_backoff_s(record["attempts"], self.backoff_base_s)
            for record in records
        )

    def fold(self, outcomes: Mapping[int, Dict[str, Any]]) -> "CampaignReport":
        """Merge segment outcomes into this report, in segment-index order.

        Each outcome's exported obs delta merges into the live registry
        (counters add, gauges overwrite, traces re-emit), its record lands
        in ``completed`` or ``failed``, and ``campaign.segments`` counts
        it — the same sequence whichever executor produced the outcomes.
        """
        registry = obs.get_registry()
        for index in sorted(outcomes):
            outcome = outcomes[index]
            registry.merge_state(outcome["obs_state"])
            if outcome["ok"]:
                self.completed[index] = outcome["record"]
                status = "completed"
            else:
                self.failed[index] = outcome["record"]
                status = "failed"
            obs.inc("campaign.segments", campaign=self.name, status=status)
        return self

    def results(self) -> list:
        """Per-index merged results: result dict, error record, or None."""
        out = []
        for index in range(self.num_segments):
            if index in self.completed:
                out.append(self.completed[index]["result"])
            elif index in self.failed:
                out.append({"error": self.failed[index]["error_type"]})
            else:
                out.append(None)
        return out

    def fault_totals(self) -> Dict[str, int]:
        """Injected-fault firings summed over completed segments."""
        totals: Dict[str, int] = {}
        for index in sorted(self.completed):
            faults = self.completed[index]["result"].get("faults", {})
            for name, count in faults.items():
                totals[name] = totals.get(name, 0) + int(count)
        return dict(sorted(totals.items()))

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready view (no wall-clock content)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "num_segments": self.num_segments,
            "config": self.config,
            "interrupted": self.interrupted,
            "segments": {
                "completed": len(self.completed),
                "failed": len(self.failed),
                "remaining": self.remaining,
            },
            "retries": self.retries,
            "backoff_wait_s": self.backoff_wait_s,
            "fault_totals": self.fault_totals(),
            "results": self.results(),
        }


def read_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and structurally validate a checkpoint file.

    Raises :class:`ConfigurationError` on a missing, unparseable or
    wrong-version file.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path} has unsupported version "
            f"{data.get('version') if isinstance(data, dict) else '?'}"
        )
    for key in ("name", "seed", "num_segments", "config", "completed", "failed"):
        if key not in data:
            raise ConfigurationError(f"checkpoint {path} is missing {key!r}")
    return data


def write_checkpoint(path: Union[str, Path], report: CampaignReport) -> None:
    """Atomically persist a report's recorded state (tmp file + ``os.replace``)."""
    path = Path(path)
    data = {
        "version": CHECKPOINT_VERSION,
        "name": report.name,
        "seed": report.seed,
        "num_segments": report.num_segments,
        "config": report.config,
        "completed": {str(k): v for k, v in sorted(report.completed.items())},
        "failed": {str(k): v for k, v in sorted(report.failed.items())},
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


# -- targets -------------------------------------------------------------------
def qualified_name(obj: Any) -> str:
    """``"module:qualname"`` reference for a picklable top-level object."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ConfigurationError(
            f"{obj!r} is not an importable top-level callable; pooled "
            "campaigns need module-level targets"
        )
    return f"{module}:{qualname}"


def resolve_qualified(reference: str) -> Any:
    """Import the object a :func:`qualified_name` reference points at."""
    module_name, _, qualname = reference.partition(":")
    if not module_name or not qualname:
        raise ConfigurationError(f"malformed qualified reference {reference!r}")
    try:
        target: Any = import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import {module_name!r} for {reference!r}: {exc}"
        ) from None
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise ConfigurationError(
                f"{module_name!r} has no attribute path {qualname!r}"
            ) from None
    return target


def _importable_reference(target: Any) -> Optional[str]:
    """The reference a target can be shipped by, or None for a closure."""
    try:
        reference = qualified_name(target)
        if resolve_qualified(reference) is target:
            return reference
    except ConfigurationError:
        pass
    return None


# -- the shared segment pieces -------------------------------------------------
def segment_payloads(
    target: Optional[str],
    indices: Iterable[int],
    *,
    name: str,
    seed: int,
    max_retries: int,
    retryable: Iterable[Type[BaseException]],
    kwargs: Mapping[str, Any],
) -> List[Dict[str, Any]]:
    """One plain JSON-able unit of work per segment index.

    A payload can cross a process boundary, be re-enqueued after a worker
    death, and key the memo. ``target`` is the ``"module:qualname"``
    reference, or None for an in-process callable (such payloads never
    leave the process). Each payload owns its kwargs dict.
    """
    retryable_refs = [qualified_name(exc_type) for exc_type in retryable]
    return [
        {
            "target": target,
            "retryable": list(retryable_refs),
            "index": index,
            "name": name,
            "seed": seed,
            "max_retries": max_retries,
            "kwargs": dict(kwargs),
        }
        for index in indices
    ]


def _error_record(exc: BaseException, attempts: int) -> Dict[str, Any]:
    return {"attempts": attempts, "error": str(exc), "error_type": type(exc).__name__}


def run_segment(
    target: SegmentFn,
    retryable: Tuple[Type[BaseException], ...],
    payload: Mapping[str, Any],
) -> Dict[str, Any]:
    """Run one segment's retry loop under an isolated obs registry.

    Attempt ``a`` calls ``target(index, derive_seed(seed, index, a),
    **kwargs)``. A ``retryable`` error retries (counted as
    ``campaign.retries``) until ``max_retries`` retries are spent, then
    records the segment failed; backoff is accounted from the attempt
    count, never slept. Any other error propagates to the caller.

    Returns the outcome ``{index, ok, record, obs_state}``: the record is
    ``{"attempts", "result"}`` or ``{"attempts", "error", "error_type"}``
    and ``obs_state`` is the exported registry the segment recorded into,
    for :meth:`CampaignReport.fold` to merge.
    """
    index = payload["index"]
    previous = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        attempt = 0
        while True:
            seed = derive_seed(payload["seed"], index, attempt)
            try:
                result = target(index, seed, **payload["kwargs"])
            except retryable as exc:
                attempt += 1
                if attempt > payload["max_retries"]:
                    ok, record = False, _error_record(exc, attempt)
                    break
                obs.inc("campaign.retries", campaign=payload["name"])
                continue
            ok, record = True, {"attempts": attempt + 1, "result": result}
            break
    finally:
        obs.set_registry(previous)
    return {
        "index": index,
        "ok": ok,
        "record": record,
        "obs_state": registry.export_state(),
    }


def failed_outcome(index: int, exc: BaseException) -> Dict[str, Any]:
    """A one-attempt failed outcome that contributed no metrics.

    Shaped like a :func:`run_segment` failure, so folds, checkpoints and
    reports need no special case: a segment lost to worker death, or a
    target error the service records instead of propagating.
    """
    return {
        "index": index,
        "ok": False,
        "record": _error_record(exc, 1),
        "obs_state": obs.Registry().export_state(),
    }


def requeue_or_fail(
    requeues: Dict[int, int], index: int, max_requeues: int, death: BaseException
) -> Optional[Dict[str, Any]]:
    """Count one worker death against segment ``index``.

    Returns None while the segment has re-enqueues left (the executor
    re-enqueues it; the seed contract makes the re-run from attempt 0
    byte-identical), else its terminal ``WorkerCrashError`` outcome.
    """
    requeues[index] = requeues.get(index, 0) + 1
    if requeues[index] <= max_requeues:
        return None
    return failed_outcome(
        index,
        WorkerCrashError(
            f"worker died running segment {index} "
            f"({max_requeues} re-enqueues exhausted): {death}"
        ),
    )


class CampaignRunner:
    """Runs numbered segments crash-safely; see the module docstring.

    Parameters
    ----------
    name, num_segments, seed, config:
        Campaign identity; all four are recorded in checkpoints and
        validated on resume (a mismatch raises ConfigurationError).
    target:
        ``(index, seed, **kwargs) -> result dict``: a callable, or its
        ``"module:qualname"`` string. The seed is already derived per
        (campaign seed, index, attempt).
    kwargs:
        Passed to every ``target`` call; never recorded in checkpoints.
    workers:
        ``1`` runs segments inline, in index order, checkpointing after
        each. More fan the pending segments across a process pool and
        checkpoint once after the fold; ``target`` must then be
        importable, and wall-clock budgets are rejected because they
        depend on an execution order the pool does not keep.
    budget:
        Optional per-``run()`` limits; exceeding one stops cleanly with
        ``interrupted=True`` and the checkpoint holding completed work.
        With a wall-clock limit, ``time_source`` is read once at start
        and once before each segment.
    checkpoint_path:
        Where the campaign state is rewritten atomically.
    retryable:
        Exception types retried with accounted exponential backoff
        (default: the injected :class:`TransientFaultError`). Any other
        error propagates out of :meth:`run`, inline or pooled.
    memo:
        Optional :class:`~repro.perf.memo.runtime.SegmentMemo`. Each
        segment is first looked up by its content address (importable
        targets by payload, closures by campaign identity and config,
        which must then capture everything the closure depends on); a hit
        folds the cached outcome byte-identically to recomputation, a
        miss computes the segment and publishes it.
    """

    def __init__(
        self,
        name: str,
        target: Union[str, SegmentFn],
        num_segments: int,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        kwargs: Optional[Dict[str, Any]] = None,
        workers: int = 1,
        budget: Optional[CampaignBudget] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        max_retries: int = 3,
        backoff_base_s: float = 0.5,
        retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE,
        time_source: Optional[Callable[[], float]] = None,
        memo: Optional["SegmentMemo"] = None,
    ):
        if num_segments < 1:
            raise ConfigurationError(f"num_segments {num_segments} must be >= 1")
        if max_retries < 0:
            raise ConfigurationError(f"max_retries {max_retries} must be >= 0")
        if backoff_base_s < 0:
            raise ConfigurationError(f"backoff_base_s {backoff_base_s} must be >= 0")
        if isinstance(target, str):
            self._reference: Optional[str] = target
            self._target = resolve_qualified(target)
        else:
            self._reference = _importable_reference(target)
            self._target = target
        if workers > 1:
            if budget is not None and budget.max_wall_s is not None:
                raise ConfigurationError("wall-clock budgets require workers=1")
            if self._reference is None:
                raise ConfigurationError(
                    f"{target!r} is not an importable top-level callable; "
                    "pooled campaigns need module-level targets"
                )
        self._name = name
        self._num_segments = num_segments
        self._seed = DEFAULT_SEED if seed is None else int(seed)
        self._config: Dict[str, Any] = dict(config or {})
        self._kwargs: Dict[str, Any] = dict(kwargs or {})
        self._workers = workers
        self._budget = budget
        self._checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self._max_retries = max_retries
        self._backoff_base_s = backoff_base_s
        self._retryable = retryable
        self._time_source = time_source or time.monotonic
        self._memo = memo

    @property
    def checkpoint_path(self) -> Optional[Path]:
        """Where state is persisted (None = in-memory only)."""
        return self._checkpoint_path

    # -- running -----------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignReport:
        """Execute pending segments; returns the (possibly partial) report."""
        completed: Dict[int, Dict[str, Any]] = {}
        failed: Dict[int, Dict[str, Any]] = {}
        if resume:
            completed, failed = self._load_state()
        report = CampaignReport(
            name=self._name,
            seed=self._seed,
            num_segments=self._num_segments,
            config=dict(self._config),
            backoff_base_s=self._backoff_base_s,
            completed=completed,
            failed=failed,
        )
        pending = [
            index
            for index in range(self._num_segments)
            if index not in completed and index not in failed
        ]
        budget = self._budget
        if self._workers > 1:
            if budget is not None and budget.max_segments is not None:
                pending = pending[: budget.max_segments]
            report.fold(self._outcomes(pending))
            self._write_checkpoint(report)
            return report
        started_at = self._time_source()
        for processed, index in enumerate(pending):
            if self._budget_exceeded(processed, started_at):
                break
            report.fold(self._outcomes([index]))
            self._write_checkpoint(report)
        return report

    def _budget_exceeded(self, processed: int, started_at: float) -> bool:
        budget = self._budget
        if budget is None:
            return False
        if budget.max_segments is not None and processed >= budget.max_segments:
            return True
        if (
            budget.max_wall_s is not None
            and self._time_source() - started_at >= budget.max_wall_s
        ):
            return True
        return False

    def _compute(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        return run_segment(self._target, self._retryable, payload)

    def _outcomes(self, indices: List[int]) -> Dict[int, Dict[str, Any]]:
        """Outcomes for ``indices``: memo hits, then the rest computed.

        Misses run inline, or across the process pool when ``workers >
        1``; fresh outcomes are published to the memo before the fold.
        """
        payloads = segment_payloads(
            self._reference,
            indices,
            name=self._name,
            seed=self._seed,
            max_retries=self._max_retries,
            retryable=self._retryable,
            kwargs=self._kwargs,
        )
        memo = self._memo
        outcomes: Dict[int, Dict[str, Any]] = {}
        keys: Dict[int, "SegmentKey"] = {}
        misses: List[Dict[str, Any]] = []
        for payload in payloads:
            index = payload["index"]
            key = None if memo is None else memo.segment_key(payload, self._config)
            if memo is not None and key is not None:
                cached = memo.lookup(
                    key,
                    campaign=self._name,
                    recompute=partial(self._compute, payload),
                )
                if cached is not None:
                    outcomes[index] = cached
                    continue
                keys[index] = key
            misses.append(payload)
        if self._workers > 1 and misses:
            from repro.perf.parallel import run_payloads_pooled

            outcomes.update(
                run_payloads_pooled(
                    misses, self._workers, campaign=self._name, memo=memo, keys=keys
                )
            )
        else:
            for payload in misses:
                outcomes[payload["index"]] = self._compute(payload)
        if memo is not None:
            for index, key in sorted(keys.items()):
                if index in outcomes:
                    outcomes[index] = memo.store(
                        key, outcomes[index], campaign=self._name
                    )
        return outcomes

    # -- checkpointing -----------------------------------------------------
    def _write_checkpoint(self, report: CampaignReport) -> None:
        if self._checkpoint_path is not None:
            write_checkpoint(self._checkpoint_path, report)

    def _load_state(
        self,
    ) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, Dict[str, Any]]]:
        """``(completed, failed)`` from a checkpoint of this very campaign."""
        path = self._checkpoint_path
        if path is None:
            raise ConfigurationError("resume requested without a checkpoint_path")
        data = read_checkpoint(path)
        expected = {
            "name": self._name,
            "seed": self._seed,
            "num_segments": self._num_segments,
            "config": self._config,
        }
        for key, value in expected.items():
            if data[key] != value:
                raise ConfigurationError(
                    f"checkpoint {path} does not match this campaign: "
                    f"{key} is {data[key]!r}, expected {value!r}"
                )
        completed = {int(k): v for k, v in data["completed"].items()}
        failed = {int(k): v for k, v in data["failed"].items()}
        return completed, failed
