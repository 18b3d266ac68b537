"""Process-pool execution for campaign segments, plus the trial targets.

:class:`~repro.faults.campaign.CampaignRunner` is the one campaign
engine; with ``workers > 1`` it hands its pending segment payloads to
:func:`run_payloads_pooled`, which fans them across a
:class:`~concurrent.futures.ProcessPoolExecutor`. Segments run under the
stateless seed contract ``derive_seed(campaign_seed, index, attempt)``,
so a segment's stream depends only on its identity, never on which
worker ran it or what ran before; each worker records metrics into an
isolated registry and ships the exported state back, and the engine
folds the outcomes in segment-index order. Reports, registries and
checkpoint bytes therefore equal an inline run's.

:func:`run_segment_task` is the worker-side entry point, shared with the
campaign service's :class:`~repro.service.supervisor.WorkerPool`.
Targets and retryable exception types travel as ``"module:qualname"``
strings, so pooled targets must be importable top-level callables.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Union

from repro import obs
from repro.attacks.timing import AttackTimingModel
from repro.dram.rowhammer import FlipStatistics, RowHammerModel
from repro.faults.campaign import (
    CampaignBudget,
    CampaignReport,
    CampaignRunner,
    qualified_name,
    requeue_or_fail,
    resolve_qualified,
    run_segment,
)
from repro.kernel.kernel import Kernel, KernelConfig
from repro.rng import derive_seed
from repro.units import GIB, MIB

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.perf.memo.key import SegmentKey
    from repro.perf.memo.runtime import SegmentMemo

__all__ = [
    "default_workers",
    "qualified_name",
    "resolve_qualified",
    "run_segment_task",
    "run_payloads_pooled",
    "capture_trial_snapshot",
    "probabilistic_trial",
    "montecarlo_trial",
    "run_probabilistic_trials",
]

#: Executor-level re-enqueues allowed per segment after worker deaths
#: before the segment is recorded as terminally failed.
DEFAULT_MAX_REQUEUES = 2


def default_workers() -> int:
    """Sensible worker count: one core left for the parent process."""
    return max(1, (os.cpu_count() or 2) - 1)


def run_segment_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one segment payload in a worker: resolve, then :func:`run_segment`.

    The unit of work of the process pool and of the campaign service's
    supervised workers. The payload is a plain JSON-able dict (see
    :func:`~repro.faults.campaign.segment_payloads`), so it can cross a
    process boundary, be re-enqueued after a worker death, and always
    reproduce the same outcome.

    A ``payload["memo"]`` dict (``{"dir", "verify", "fault_digest"}``,
    attached only for pooled runs with a disk-backed memo) makes the
    worker consult and populate the shared on-disk store around the
    computation: a segment re-enqueued after a worker crash finds the
    bytes its first incarnation published. The rebuilt memo pins the
    parent's fault-schedule decision via ``fault_digest`` instead of
    probing the worker's own (empty) plane; ``memo.*`` metrics counted
    here land in the worker's transient default registry — never in the
    isolated registry whose exported state gets cached — and are
    intentionally discarded with it.
    """
    target = resolve_qualified(payload["target"])
    retryable = tuple(resolve_qualified(reference) for reference in payload["retryable"])
    compute = partial(run_segment, target, retryable, payload)
    memo_info = payload.get("memo")
    if not memo_info:
        return compute()
    from repro.perf.memo.runtime import build_memo

    memo = build_memo(
        memo_info["dir"],
        verify_fraction=memo_info.get("verify", 0.0),
        fault_digest=memo_info.get("fault_digest", ""),
    )
    return memo.run(memo.segment_key(payload), campaign=payload["name"], compute=compute)


def run_payloads_pooled(
    payloads: List[Dict[str, Any]],
    worker_count: int,
    *,
    campaign: str,
    memo: Optional["SegmentMemo"] = None,
    keys: Optional[Mapping[int, "SegmentKey"]] = None,
    max_requeues: int = DEFAULT_MAX_REQUEUES,
) -> Dict[int, Dict[str, Any]]:
    """Fan payloads across a process pool, surviving worker death.

    A worker process dying (OOM kill, segfault, ``os._exit`` in a
    target) surfaces as :class:`BrokenProcessPool` on every in-flight
    future. The pool is rebuilt (counted as ``service.worker_restarts``)
    and segments without an outcome go through
    :func:`~repro.faults.campaign.requeue_or_fail`: re-enqueued, or
    recorded failed with ``error_type: "WorkerCrashError"`` once their
    requeue budget is spent. Other errors propagate.

    With a disk-backed ``memo``, payloads the parent keyed (``keys``)
    carry the disk tier to their worker, so a re-enqueued segment hits
    what its dead first incarnation published.
    """
    if memo is not None and memo.disk_directory is not None and keys:
        for payload in payloads:
            key = keys.get(payload["index"])
            if key is not None:
                payload["memo"] = {
                    "dir": memo.disk_directory,
                    "verify": memo.verify_fraction,
                    "fault_digest": key.fault_digest,
                }
    outcomes: Dict[int, Dict[str, Any]] = {}
    requeues: Dict[int, int] = {}
    pending = list(payloads)
    while pending:
        death: Optional[BrokenProcessPool] = None
        with ProcessPoolExecutor(max_workers=min(worker_count, len(pending))) as pool:
            futures = [pool.submit(run_segment_task, payload) for payload in pending]
            try:
                for future in as_completed(futures):
                    outcome = future.result()
                    outcomes[outcome["index"]] = outcome
            except BrokenProcessPool as exc:
                death = exc
        if death is None:
            break
        obs.inc("service.worker_restarts", campaign=campaign, scope="pool")
        lost = [p for p in pending if p["index"] not in outcomes]
        pending = []
        for payload in lost:
            failed = requeue_or_fail(requeues, payload["index"], max_requeues, death)
            if failed is None:
                pending.append(payload)
            else:
                outcomes[payload["index"]] = failed
    return outcomes


def _trial_kernel(total_bytes: int, row_bytes: int) -> Kernel:
    """The stock kernel every probabilistic trial runs against."""
    return Kernel(
        KernelConfig(
            total_bytes=total_bytes,
            row_bytes=row_bytes,
            num_banks=2,
            cell_interleave_rows=32,
        )
    )


def capture_trial_snapshot(
    total_bytes: int = 16 * MIB,
    row_bytes: int = 16 * 1024,
    spray_mappings: int = 16,
):
    """Freeze a booted + sprayed trial world for warm-started trials.

    The spray (:meth:`ProbabilisticPteAttack.prepare`) consumes no hammer
    randomness, so it is identical for every trial seed — exactly the
    setup work :func:`probabilistic_trial` otherwise repeats per segment.
    Returns a :class:`~repro.perf.snapshot.SimulatorSnapshot` whose extra
    state carries the attacker pid and the sprayed/checked address lists.
    """
    from repro.attacks.probabilistic import ProbabilisticPteAttack
    from repro.perf.snapshot import SimulatorSnapshot

    def extra_fn(kernel: Kernel) -> Dict[str, Any]:
        # The hammer is unused during prepare(); trials build their own,
        # seeded per segment, against the materialized module.
        attack = ProbabilisticPteAttack(
            kernel=kernel,
            hammer=RowHammerModel(kernel.module, seed=0),
            timing=AttackTimingModel(),
        )
        attacker = kernel.create_process()
        attack.prepare(attacker, spray_mappings=spray_mappings)
        return {
            "pid": attacker.pid,
            "sprayed_vas": list(attack.sprayed_vas),
            "checked_vas": list(attack.checked_vas),
        }

    return SimulatorSnapshot.capture(
        lambda: _trial_kernel(total_bytes, row_bytes), extra_fn
    )


def probabilistic_trial(
    index: int,
    seed: int,
    total_bytes: int = 16 * MIB,
    row_bytes: int = 16 * 1024,
    spray_mappings: int = 16,
    max_rounds: int = 1,
    p_vulnerable: float = 3e-2,
    p_with_leak: float = 0.5,
    snapshot: Optional[str] = None,
) -> Dict[str, Any]:
    """One self-contained probabilistic-attack trial (picklable target).

    Builds a fresh stock kernel + hammer seeded from the segment seed and
    runs one Drammer-style spray; the result dict is JSON-checkpointable.
    ``index`` is accepted for the segment-fn signature but the trial's
    stream depends only on ``seed``.

    ``snapshot`` names a shared-memory world from
    :func:`capture_trial_snapshot` (captured with the same kwargs): the
    trial then attaches copy-on-write instead of replaying boot + spray,
    merging the captured obs state so reports, checkpoints, and metric
    totals stay byte-identical to a cold trial.
    """
    del index
    from repro.attacks.probabilistic import ProbabilisticPteAttack

    stats = FlipStatistics(p_vulnerable=p_vulnerable, p_with_leak=p_with_leak)
    hammer_seed = derive_seed(seed, "hammer")
    if snapshot is not None:
        from repro.perf.snapshot import SimulatorSnapshot

        kernel, extra = SimulatorSnapshot.attach_cached(snapshot).materialize()
        attacker = kernel.processes[extra["pid"]]
        attack = ProbabilisticPteAttack(
            kernel=kernel,
            hammer=RowHammerModel(kernel.module, stats=stats, seed=hammer_seed),
            timing=AttackTimingModel(),
            sprayed_vas=list(extra["sprayed_vas"]),
            checked_vas=list(extra["checked_vas"]),
        )
        result = attack.execute(attacker, max_rounds=max_rounds)
    else:
        kernel = _trial_kernel(total_bytes, row_bytes)
        hammer = RowHammerModel(
            kernel.module, stats=stats, seed=hammer_seed
        )
        attack = ProbabilisticPteAttack(
            kernel=kernel, hammer=hammer, timing=AttackTimingModel()
        )
        result = attack.run(
            kernel.create_process(),
            spray_mappings=spray_mappings,
            max_rounds=max_rounds,
        )
    return {
        "outcome": result.outcome.value,
        "hammer_rounds": result.hammer_rounds,
        "flips": result.flips_induced,
        "ptes_checked": result.ptes_checked,
        "faults": {},
    }


def montecarlo_trial(
    index: int,
    seed: int,
    trials: int = 1,
    total_bytes: int = 8 * GIB,
    ptp_bytes: int = 32 * MIB,
    p_vulnerable: float = 1e-4,
    p_up: float = 0.5,
) -> Dict[str, Any]:
    """One analytical Monte-Carlo segment (cheap importable service target).

    Wraps :func:`repro.analysis.montecarlo.simulate_exploitable_ptes` so
    the campaign service has a fast, pure-computation workload for
    overload and fault-injection scenarios: no kernel boot, no snapshot,
    milliseconds per segment. The stream depends only on ``seed``;
    ``index`` is accepted for the segment-fn signature.
    """
    del index
    from repro.analysis.montecarlo import simulate_exploitable_ptes

    result = simulate_exploitable_ptes(
        total_bytes=total_bytes,
        ptp_bytes=ptp_bytes,
        p_vulnerable=p_vulnerable,
        p_up=p_up,
        trials=trials,
        seed=seed,
    )
    return {
        "trials": result.trials,
        "num_ptes": result.num_ptes,
        "exploitable_count": result.exploitable_count,
        "expected_per_system": result.expected_per_system,
        "faults": {},
    }


def run_probabilistic_trials(
    trials: int,
    seed: Optional[int] = None,
    workers: int = 1,
    checkpoint_path: Optional[Union[str, Path]] = None,
    budget: Optional[CampaignBudget] = None,
    resume: bool = False,
    warm_start: bool = False,
    memo: Optional["SegmentMemo"] = None,
    **trial_kwargs: Any,
) -> CampaignReport:
    """Run ``trials`` independent probabilistic-attack trials.

    One :class:`CampaignRunner` over :func:`probabilistic_trial`:
    ``workers`` 1 runs inline, more fan out across processes, and both
    produce identical reports, checkpoints and obs totals for the same
    seed. A ``memo`` replays repeated identical runs from the cache,
    byte-identically.

    ``warm_start`` captures one boot + spray world up front
    (:func:`capture_trial_snapshot`) and has every trial attach to it
    copy-on-write instead of replaying setup. The snapshot name travels
    in the segment kwargs only — never in ``config`` — so checkpoint
    files stay byte-identical to cold runs.
    """
    config = {"trials": int(trials), **{k: trial_kwargs[k] for k in sorted(trial_kwargs)}}
    snapshot = None
    run_kwargs = dict(trial_kwargs)
    if warm_start:
        snapshot = capture_trial_snapshot(
            **{
                k: trial_kwargs[k]
                for k in ("total_bytes", "row_bytes", "spray_mappings")
                if k in trial_kwargs
            }
        )
        run_kwargs["snapshot"] = snapshot.name
    try:
        return CampaignRunner(
            "probabilistic-trials",
            "repro.perf.parallel:probabilistic_trial",
            trials,
            seed=seed,
            config=config,
            kwargs=run_kwargs,
            workers=workers,
            budget=budget,
            checkpoint_path=checkpoint_path,
            memo=memo,
        ).run(resume=resume)
    finally:
        if snapshot is not None:
            snapshot.release()
