"""Built-in chaos segments for ``repro chaos`` / ``repro resume``.

A chaos campaign rotates three segment kinds, each a self-contained
world (fresh kernel, hammer, sanitizers, fault plane) so segments are
order-independent and resumable:

``probabilistic``
    The Drammer-style spray attack on a *stock* kernel under heavy fault
    pressure (ECC miscorrection bursts, transient read errors, allocator
    pressure, stale TLB entries, stalled refresh sweeps, remap-table
    corruption) with the buddy/zone sanitizers armed.
``algorithm1``
    The paper's Algorithm 1 on a *CTA* kernel whose ZONE_PTP gets drained
    mid-spray by the ``ptp-exhaust`` injector, exercising the configured
    exhaustion policy under the full sanitizer set (including
    monotonicity and no-self-reference).
``montecarlo``
    A batch of the Section 4 Monte Carlo security model — pure
    computation that demonstrates deterministic result merging across
    checkpoint/resume.

Every segment returns a plain dict (JSON-checkpointable) carrying its
outcome, per-fault firing counts, sanitizer accounting and any security
downgrades, so ``CampaignReport.fault_totals`` can aggregate them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

from repro import faults, sanitize
from repro.analysis.montecarlo import simulate_exploitable_ptes
from repro.dram.refresh import RefreshScheduler
from repro.dram.remap import RowRemapper
from repro.dram.rowhammer import FlipStatistics, RowHammerModel
from repro.errors import OutOfMemoryError, TransientFaultError
from repro.faults.campaign import CampaignBudget, CampaignRunner
from repro.faults.injectors import FaultSpec
from repro.kernel.cta import CtaConfig
from repro.kernel.degrade import ExhaustionPolicy
from repro.kernel.kernel import Kernel, KernelConfig
from repro.rng import derive_seed
from repro.units import GIB, MIB

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.perf.memo.runtime import SegmentMemo

#: Segment rotation; ``index % 3`` picks the kind.
SEGMENT_KINDS = ("probabilistic", "algorithm1", "montecarlo")

#: Default segment count for a full chaos campaign (two full rotations).
DEFAULT_SEGMENTS = 6


def segment_kind(index: int) -> str:
    """Which scenario a segment index runs."""
    return SEGMENT_KINDS[index % len(SEGMENT_KINDS)]


def _stock_kernel() -> Kernel:
    return Kernel(
        KernelConfig(
            total_bytes=16 * MIB,
            row_bytes=16 * 1024,
            num_banks=2,
            cell_interleave_rows=32,
        )
    )


def _cta_kernel(policy: str) -> Kernel:
    return Kernel(
        KernelConfig(
            total_bytes=32 * MIB,
            row_bytes=16 * 1024,
            num_banks=2,
            cell_interleave_rows=32,
            cta=CtaConfig(ptp_bytes=2 * MIB),
            profile_cells=False,
            ptp_exhaustion_policy=policy,
        )
    )


def _segment_kernel(snapshot: Optional[str], factory) -> Kernel:
    """A segment's world: warm-started from a snapshot, or freshly booted.

    Segments boot their kernel *before* installing the fault plane and
    sanitizers, so attaching copy-on-write to a pre-boot snapshot (and
    merging its captured boot obs) is indistinguishable from the cold
    boot — reports, checkpoints, and metric totals stay byte-identical.
    """
    if snapshot is None:
        return factory()
    from repro.perf.snapshot import SimulatorSnapshot

    kernel, _ = SimulatorSnapshot.attach_cached(snapshot).materialize()
    return kernel


def _segment_verdicts(payloads, kernel) -> list:
    """Static verify verdicts for a segment's executed payloads.

    Plain JSON dicts (segments cross process boundaries under the
    parallel runner); deduplicated by digest inside the summary helper.
    """
    from repro.verify import payload_verdict_summary

    return payload_verdict_summary(payloads, kernel)


def _probabilistic_segment(
    seed: int, smoke: bool, snapshot: Optional[str] = None
) -> Dict[str, Any]:
    from repro.attacks.probabilistic import ProbabilisticPteAttack

    kernel = _segment_kernel(snapshot, _stock_kernel)
    hammer = RowHammerModel(
        kernel.module,
        FlipStatistics(p_vulnerable=3e-2, p_with_leak=0.5),
        seed=derive_seed(seed, "hammer"),
    )
    suite = sanitize.install(kernel, hammer=hammer)
    remapper = RowRemapper(kernel.module.cell_map)
    refresh = RefreshScheduler(total_rows=kernel.module.geometry.total_rows)
    plane = faults.install(
        [
            FaultSpec("ecc-miscorrect", probability=0.2, max_fires=3),
            FaultSpec("dram-read-error", probability=2e-6, max_fires=1),
            FaultSpec("buddy-oom", probability=0.01, max_fires=2),
            FaultSpec("tlb-stale", probability=0.05, max_fires=6),
            FaultSpec("refresh-stall", probability=0.5, max_fires=1),
            FaultSpec("remap-corrupt", probability=0.25, max_fires=2),
        ],
        seed=derive_seed(seed, "faults"),
        kernel=kernel,
        remapper=remapper,
    )
    attack = ProbabilisticPteAttack(kernel=kernel, hammer=hammer)
    result = attack.run(
        kernel.create_process(),
        spray_mappings=16 if smoke else 48,
        max_rounds=1 if smoke else 2,
    )
    for _ in range(2):
        refresh.advance(0.064)
        refresh.refresh_all()
    faults.disarm()
    suite.check_now()
    return {
        "outcome": result.outcome.value,
        "hammer_rounds": result.hammer_rounds,
        "flips": result.flips_induced,
        "faults": plane.counts,
        "remap_corruptions": len(remapper.remapped_rows),
        "stalled_rows_overdue": len(refresh.overdue_rows()),
        "sanitizer_checks": suite.checks,
        "sanitizer_violations": suite.violations,
        "payloads": [p.digest() for p in attack.executed_payloads],
        "payload_verdicts": _segment_verdicts(attack.executed_payloads, kernel),
    }


def _algorithm1_segment(
    seed: int, policy: str, smoke: bool, snapshot: Optional[str] = None
) -> Dict[str, Any]:
    from repro.attacks.algorithm1 import CtaBruteForceAttack

    kernel = _segment_kernel(snapshot, lambda: _cta_kernel(policy))
    # Idealized true-cells (p_with_leak=1.0): every flip is 1 -> 0, the
    # regime where the monotonicity sanitizer must stay silent.
    hammer = RowHammerModel(
        kernel.module,
        FlipStatistics(p_vulnerable=3e-2, p_with_leak=1.0),
        seed=derive_seed(seed, "hammer"),
    )
    suite = sanitize.install(kernel, hammer=hammer)
    plane = faults.install(
        [
            FaultSpec("ptp-exhaust", probability=1.0, max_fires=1, start_after=2),
            FaultSpec(
                "buddy-oom", probability=0.01, max_fires=2, target="ZONE_NORMAL"
            ),
            FaultSpec("tlb-stale", probability=0.03, max_fires=4),
        ],
        seed=derive_seed(seed, "faults"),
        kernel=kernel,
    )
    attack = CtaBruteForceAttack(kernel=kernel, hammer=hammer)
    result = attack.run(
        kernel.create_process(),
        max_target_pages=1,
        spray_mappings=12 if smoke else 24,
    )
    faults.disarm()
    kernel.verify_cta_rules()
    suite.check_now()
    return {
        "outcome": result.outcome.value,
        "hammer_rounds": result.hammer_rounds,
        "flips": result.flips_induced,
        "faults": plane.counts,
        "policy": policy,
        "capacity_exhaustions": kernel.stats.capacity_exhaustions,
        "security_downgrades": kernel.stats.security_downgrades,
        "pointer_observations": len(attack.observations),
        "sanitizer_checks": suite.checks,
        "sanitizer_violations": suite.violations,
        "payloads": [p.digest() for p in attack.executed_payloads],
        "payload_verdicts": _segment_verdicts(attack.executed_payloads, kernel),
    }


def _montecarlo_segment(seed: int, smoke: bool) -> Dict[str, Any]:
    result = simulate_exploitable_ptes(
        total_bytes=8 * GIB,
        ptp_bytes=32 * MIB,
        p_vulnerable=1e-4,
        p_up=0.5,
        trials=1 if smoke else 4,
        seed=derive_seed(seed, "montecarlo"),
    )
    return {
        "num_ptes": result.num_ptes,
        "exploitable": result.exploitable_count,
        "trials": result.trials,
        "faults": {},
        "sanitizer_checks": 0,
        "sanitizer_violations": 0,
    }


def run_chaos_segment(
    index: int,
    seed: int,
    policy: str = "fail-hard",
    smoke: bool = True,
    snapshot_names: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Run one chaos segment in a clean world; always tears chaos down.

    ``snapshot_names`` maps segment kinds to shared-memory snapshot names
    (see :func:`run_chaos_campaign`'s ``warm_start``); kinds without an
    entry boot cold.
    """
    kind = segment_kind(index)
    names = snapshot_names or {}
    sanitize.reset()
    faults.uninstall()
    try:
        if kind == "probabilistic":
            result = _probabilistic_segment(seed, smoke, snapshot=names.get(kind))
        elif kind == "algorithm1":
            result = _algorithm1_segment(
                seed, policy, smoke, snapshot=names.get(kind)
            )
        else:
            result = _montecarlo_segment(seed, smoke)
    finally:
        faults.uninstall()
        sanitize.reset()
    result["kind"] = kind
    return result


def run_chaos_campaign(
    seed: Optional[int],
    num_segments: int = DEFAULT_SEGMENTS,
    policy: Union[str, ExhaustionPolicy] = "fail-hard",
    smoke: bool = True,
    checkpoint_path: Optional[str] = None,
    budget: Optional[CampaignBudget] = None,
    workers: int = 1,
    resume: bool = False,
    warm_start: bool = False,
    memo: Optional["SegmentMemo"] = None,
):
    """Run the standard chaos rotation, inline or across processes.

    ``workers`` 1 runs segments inline, more fan them across a process
    pool; reports, checkpoints and obs totals are identical for the same
    seed either way (the engine's determinism contract).

    ``warm_start`` boots the stock and CTA worlds once into shared-memory
    snapshots; every probabilistic/algorithm1 segment then attaches
    copy-on-write instead of re-booting. The snapshot names travel in the
    segment kwargs only — never in ``config`` — so checkpoint files stay
    byte-identical to cold runs.

    ``memo`` threads a segment-result cache through the engine. The
    chaos segments are cacheable even though they inject faults: each
    installs its *own* plane seeded ``derive_seed(segment_seed,
    "faults")`` and always uninstalls it, so the whole fault schedule —
    down to the per-fault firing counts in the cached record — is a pure
    function of the segment seed already in the key.
    """
    policy_value = ExhaustionPolicy.coerce(policy).value
    snapshots = []
    snapshot_names: Optional[Dict[str, str]] = None
    if warm_start:
        from repro.perf.snapshot import SimulatorSnapshot

        snapshots = [
            SimulatorSnapshot.capture(_stock_kernel),
            SimulatorSnapshot.capture(lambda: _cta_kernel(policy_value)),
        ]
        snapshot_names = {
            "probabilistic": snapshots[0].name,
            "algorithm1": snapshots[1].name,
        }
    try:
        runner = build_chaos_runner(
            seed,
            num_segments=num_segments,
            policy=policy_value,
            smoke=smoke,
            checkpoint_path=checkpoint_path,
            budget=budget,
            workers=workers,
            snapshot_names=snapshot_names,
            memo=memo,
        )
        return runner.run(resume=resume)
    finally:
        for snap in snapshots:
            snap.release()


def build_chaos_runner(
    seed: Optional[int],
    num_segments: int = DEFAULT_SEGMENTS,
    policy: Union[str, ExhaustionPolicy] = "fail-hard",
    smoke: bool = True,
    checkpoint_path: Optional[str] = None,
    budget: Optional[CampaignBudget] = None,
    max_retries: int = 2,
    time_source: Optional[Callable[[], float]] = None,
    snapshot_names: Optional[Dict[str, str]] = None,
    memo: Optional["SegmentMemo"] = None,
    workers: int = 1,
) -> CampaignRunner:
    """A :class:`CampaignRunner` over the standard chaos rotation."""
    config: Dict[str, Any] = {
        "policy": ExhaustionPolicy.coerce(policy).value,
        "smoke": bool(smoke),
    }
    kwargs = dict(config)
    if snapshot_names is not None:
        kwargs["snapshot_names"] = snapshot_names
    return CampaignRunner(
        "chaos",
        "repro.faults.scenarios:run_chaos_segment",
        num_segments,
        seed=seed,
        config=config,
        kwargs=kwargs,
        workers=workers,
        budget=budget,
        checkpoint_path=checkpoint_path,
        max_retries=max_retries,
        backoff_base_s=0.25,
        retryable=(TransientFaultError, OutOfMemoryError),
        time_source=time_source,
        memo=memo,
    )
