"""Vectorized hot paths and parallel campaigns vs their scalar references.

The performance work is only admissible because it is *provably* inert:
every fast path must reproduce the slow reference bit-for-bit — same
flips, same RNG stream position, same obs counters, same checkpoint
bytes. These tests are that proof.
"""

import json
import os
from pathlib import Path

import pytest

from repro import faults, obs
from repro.dram.cells import CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.rowhammer import FlipStatistics, RowHammerModel
from repro.errors import ConfigurationError, ReproError
from repro.faults.injectors import FaultSpec
from repro.perf.bench import (
    bench_hammer_heavy,
    bench_walk_heavy,
    check_baseline,
    run_bench_suite,
)
from repro.faults.campaign import CampaignRunner
from repro.perf.parallel import (
    default_workers,
    qualified_name,
    resolve_qualified,
    run_probabilistic_trials,
)
from repro.units import MIB, PAGE_SIZE

from tests.conftest import make_stock_kernel


def _hammer_model(slow_reference, seed=42):
    geometry = DramGeometry(total_bytes=8 * MIB, row_bytes=16 * 1024, num_banks=2)
    cell_map = CellTypeMap.interleaved(geometry, period_rows=8)
    module = DramModule(geometry, cell_map)
    for row in range(48):
        module.fill_row(row, 0xFF if row % 2 else 0x5A)
    model = RowHammerModel(
        module,
        stats=FlipStatistics(p_vulnerable=2e-2, p_with_leak=0.7),
        seed=seed,
        activation_probability=0.8,
        slow_reference=slow_reference,
    )
    return module, model


def _run_hammer_burst(model):
    flips = []
    for burst in range(8):
        flips.extend(model.hammer(2 + burst * 4).flips)
    flips.extend(model.hammer_double_sided(20).flips)
    return flips


class TestHammerEquivalence:
    def test_vectorized_matches_scalar_bit_for_bit(self):
        module_vec, vec = _hammer_model(slow_reference=False)
        flips_vec = _run_hammer_burst(vec)
        snapshot_vec = obs.get_registry().snapshot()
        state_vec = vec._rng.bit_generator.state

        obs.set_registry(obs.Registry())
        module_ref, ref = _hammer_model(slow_reference=True)
        flips_ref = _run_hammer_burst(ref)
        snapshot_ref = obs.get_registry().snapshot()

        assert flips_vec == flips_ref
        assert flips_vec  # the burst must actually induce flips
        assert snapshot_vec == snapshot_ref
        assert state_vec == ref._rng.bit_generator.state
        for row in range(48):
            assert module_vec.read(row * 16 * 1024, 16 * 1024) == (
                module_ref.read(row * 16 * 1024, 16 * 1024)
            )

    def test_armed_fault_plane_matches_slow_reference(self):
        # With the plane armed the model stays on the batched path and
        # resolves the dram.read schedule per victim row; it must observe
        # the same fault stream as the scalar reference and stay identical
        # (tests/test_fault_aware_hammer.py compares every observable).
        def run(slow_reference):
            faults.set_plane(faults.FaultPlane())
            faults.install(
                [FaultSpec("dram-read-error", probability=1e-9, max_fires=1)],
                seed=7,
            )
            obs.set_registry(obs.Registry())
            _, model = _hammer_model(slow_reference=slow_reference)
            try:
                return _run_hammer_burst(model)
            finally:
                faults.uninstall()

        assert run(False) == run(True)

    def test_obs_flip_totals_match_flip_list(self):
        _, model = _hammer_model(slow_reference=False)
        flips = _run_hammer_burst(model)
        counters = obs.get_registry().snapshot()
        total = sum(
            value
            for name, value in counters.items()
            if name.startswith("rowhammer.flips{")
        )
        assert total == len(flips)


class TestMmuPtCache:
    def test_cached_walk_matches_uncached(self):
        kernel = make_stock_kernel()
        process = kernel.create_process()
        vma = kernel.mmap(process, 8 * PAGE_SIZE)
        addresses = [vma.start + i * PAGE_SIZE for i in range(8)]
        for address in addresses:
            kernel.touch(process, address, write=True)
        cached = [
            kernel.mmu.translate(process.cr3, a, pid=process.pid, use_tlb=False)
            for a in addresses
        ]
        kernel.mmu.pt_cache_enabled = False
        uncached = [
            kernel.mmu.translate(process.cr3, a, pid=process.pid, use_tlb=False)
            for a in addresses
        ]
        assert cached == uncached

    def test_cache_aliases_live_pte_corruption(self):
        # The cached numpy view aliases DRAM storage, so a PTE flipped
        # *after* the view is cached must be visible on the next walk.
        kernel = make_stock_kernel()
        process = kernel.create_process()
        vma = kernel.mmap(process, PAGE_SIZE)
        kernel.touch(process, vma.start, write=True)
        kernel.mmu.translate(process.cr3, vma.start, pid=process.pid, use_tlb=False)
        leaf_address = kernel.leaf_pte_address(process, vma.start)
        raw = kernel.module.read_u64(leaf_address)
        corrupted = raw & ~0x1  # clear P
        kernel.module.write_u64(leaf_address, corrupted)
        entry = kernel.mmu.read_entry(
            leaf_address & ~0xFFF, (leaf_address & 0xFFF) // 8
        )
        assert entry == corrupted != raw

    def test_forget_row_invalidates_views(self):
        kernel = make_stock_kernel()
        process = kernel.create_process()
        vma = kernel.mmap(process, PAGE_SIZE)
        kernel.touch(process, vma.start, write=True)
        kernel.mmu.translate(process.cr3, vma.start, pid=process.pid, use_tlb=False)
        generation = kernel.module.generation
        row = process.cr3 // kernel.module.geometry.row_bytes
        kernel.module.forget_row(row)
        assert kernel.module.generation == generation + 1
        # A forgotten row reads as fill (all zero / not-present) again;
        # the walk must not serve a stale cached view of the old table.
        with pytest.raises(ReproError):
            kernel.mmu.translate(
                process.cr3, vma.start, pid=process.pid, use_tlb=False
            )


class TestParallelCampaigns:
    def _probabilistic_state(self, workers, tmp_path, tag):
        obs.set_registry(obs.Registry())
        checkpoint = tmp_path / f"trials-{tag}.json"
        report = run_probabilistic_trials(
            3,
            seed=11,
            workers=workers,
            checkpoint_path=checkpoint,
            spray_mappings=6,
            max_rounds=1,
        )
        registry = obs.get_registry()
        return report.to_dict(), registry.export_state(), checkpoint.read_bytes()

    def test_parallel_trials_equal_serial(self, tmp_path):
        serial = self._probabilistic_state(1, tmp_path, "serial")
        parallel = self._probabilistic_state(2, tmp_path, "parallel")
        assert serial[0] == parallel[0]  # CampaignReport
        assert serial[1] == parallel[1]  # full obs registry state
        assert serial[2] == parallel[2]  # checkpoint file bytes

    def test_parallel_chaos_equals_serial(self, tmp_path):
        from repro import sanitize
        from repro.faults.scenarios import run_chaos_campaign

        def run(workers, tag):
            obs.set_registry(obs.Registry())
            sanitize.reset()
            faults.uninstall()
            checkpoint = tmp_path / f"chaos-{tag}.json"
            report = run_chaos_campaign(
                5,
                num_segments=3,
                smoke=True,
                checkpoint_path=checkpoint,
                workers=workers,
            )
            registry = obs.get_registry()
            return report.to_dict(), registry.export_state(), checkpoint.read_bytes()

        assert run(1, "serial") == run(2, "parallel")

    def test_wall_clock_budget_rejected_in_parallel(self):
        from repro.faults.campaign import CampaignBudget

        with pytest.raises(ConfigurationError):
            CampaignRunner(
                name="x",
                target="repro.perf.parallel:probabilistic_trial",
                num_segments=1,
                workers=2,
                budget=CampaignBudget(max_wall_s=1.0),
            )

    def test_local_callable_rejected(self):
        def local_target(index, seed):
            return {}

        with pytest.raises(ConfigurationError):
            qualified_name(local_target)

    def test_qualified_name_roundtrip(self):
        reference = qualified_name(run_probabilistic_trials)
        assert resolve_qualified(reference) is run_probabilistic_trials
        with pytest.raises(ConfigurationError):
            resolve_qualified("repro.perf.parallel:does_not_exist")
        with pytest.raises(ConfigurationError):
            resolve_qualified("no-colon")

    def test_default_workers_positive(self):
        assert default_workers() >= 1


def crash_once_trial(index, seed, marker_dir=""):
    """Segment 0 kills its worker process once, then succeeds on re-run.

    The marker file survives the process death, so the re-enqueued
    attempt (a fresh worker in a rebuilt pool) completes normally —
    a real ``BrokenProcessPool``, not a simulated one.
    """
    marker = Path(marker_dir) / f"seg-{index}"
    if index == 0 and not marker.exists():
        marker.write_text("dying")
        os._exit(17)
    return {"index": index, "seed": seed, "faults": {}}


def crash_always_trial(index, seed, marker_dir=""):
    """Segment 0 kills every worker that ever dispatches it."""
    del marker_dir
    if index == 0:
        os._exit(17)
    return {"index": index, "seed": seed, "faults": {}}


class TestWorkerDeathRecovery:
    """A worker-process death is retryable taxonomy, not a raw
    executor exception: the pool rebuilds, lost segments re-run from
    the same derived seeds, and the merged report matches a death-free
    serial run."""

    def test_worker_death_classified_and_recovered(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        kwargs = {"marker_dir": str(marker_dir)}
        obs.set_registry(obs.Registry())
        report = CampaignRunner(
            name="crashy",
            target="tests.test_perf_parallel:crash_once_trial",
            num_segments=4,
            seed=3,
            kwargs=kwargs,
            workers=2,
        ).run()
        counters = obs.get_registry().snapshot()
        assert len(report.completed) == 4
        assert any(
            name.startswith("service.worker_restarts") for name in counters
        )
        # Byte-identity: serial reference (marker pre-seeded, no death).
        obs.set_registry(obs.Registry())
        reference = CampaignRunner(
            name="crashy",
            target="tests.test_perf_parallel:crash_once_trial",
            num_segments=4,
            seed=3,
            kwargs=kwargs,
            workers=1,
        ).run()
        assert report.to_dict() == reference.to_dict()

    def test_requeue_budget_exhaustion_fails_segment_terminally(self, tmp_path):
        obs.set_registry(obs.Registry())
        report = CampaignRunner(
            name="doomed",
            target="tests.test_perf_parallel:crash_always_trial",
            num_segments=3,
            seed=3,
            kwargs={"marker_dir": str(tmp_path)},
            workers=2,
        ).run()
        assert report.failed[0]["error_type"] == "WorkerCrashError"
        assert sorted(report.completed) == [1, 2]


class TestBenchSuite:
    def test_hammer_bench_reports_speedup(self):
        result = bench_hammer_heavy(quick=True)
        # Acceptance floor is 5x; assert a safe margin below the ~12-15x
        # observed so a loaded CI box doesn't flake.
        assert result["speedup"] >= 3.0
        assert result["flips"] > 0

    def test_walk_bench_gates_on_real_speedup(self):
        result = bench_walk_heavy(quick=True)
        assert result["ops"] > 0
        # The bench itself raises below the 2x floor; the reported ratio
        # must also clear it (frontier vs the scalar reference walk).
        assert result["speedup"] >= 2.0

    def test_walk_frontier_bench_runs(self):
        from repro.perf.bench import bench_walk_frontier

        result = bench_walk_frontier(quick=True)
        assert result["ops"] >= 2048  # thousands of VPNs per pass
        assert result["speedup"] >= 2.0

    def test_live_boot_multigb_bench_stays_sparse_and_contained(self):
        from repro.perf.bench import bench_live_boot_multigb

        result = bench_live_boot_multigb(quick=True)
        assert result["total_bytes"] == 2 * 1024**3
        assert result["resident_bytes"] < 256 * 1024**2
        assert 0 < result["resident_fraction"] < 0.05
        assert result["ops"] > 0 and result["flips"] > 0

    def test_suite_report_shape_and_baseline_gate(self, tmp_path):
        report = run_bench_suite(quick=True)
        assert set(report["results"]) == {
            "hammer_heavy", "walk_heavy", "walk_frontier", "walk_batch",
            "live_boot_multigb", "spray_batch", "snapshot_warm_start",
            "campaign", "campaign_memo_warm", "service_multi_tenant_memo",
            "payload_compiled",
        }
        passing = {
            case: {"ops_per_s": result["ops_per_s"] / 2}
            for case, result in report["results"].items()
        }
        assert check_baseline(report, passing) == []
        failing = {"hammer_heavy": {"ops_per_s": report["results"]["hammer_heavy"]["ops_per_s"] * 100}}
        messages = check_baseline(report, failing)
        assert len(messages) == 1 and "hammer_heavy" in messages[0]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(passing))
        assert check_baseline(report, path) == []
        with pytest.raises(ConfigurationError):
            check_baseline(report, tmp_path / "missing.json")
        with pytest.raises(ConfigurationError):
            check_baseline(report, passing, max_regression=0)
