"""The batched hammer under an armed fault plane vs its scalar oracle.

With a ``dram.read`` injector listening, ``RowHammerModel`` still runs
its batched disturb: each victim row's reads are passed through the
injector schedules in one draw (``FaultPlane.skip_quiet``) and only the
read an injector fires on goes through ``DramModule.read_bit``. These
tests pin that path to ``slow_reference=True`` access for access: same
flips, same exception at the same read, same registry, same RNG
positions of the hammer and of every injector, same DRAM bytes and
``read_count``.
"""

import pytest

from repro import faults, obs
from repro.dram.cells import CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.rowhammer import FlipStatistics, RowHammerModel
from repro.errors import ReproError
from repro.faults.injectors import DramReadErrorInjector
from repro.perf.snapshot import SimulatorSnapshot
from repro.units import MIB

from tests.conftest import make_stock_kernel

ROW_BYTES = 16 * 1024
ROWS = 48


def _world(slow_reference, activation_probability, seed):
    geometry = DramGeometry(total_bytes=8 * MIB, row_bytes=ROW_BYTES, num_banks=2)
    cell_map = CellTypeMap.interleaved(geometry, period_rows=8)
    module = DramModule(geometry, cell_map)
    for row in range(ROWS):
        module.fill_row(row, 0xFF if row % 2 else 0x5A)
    model = RowHammerModel(
        module,
        stats=FlipStatistics(p_vulnerable=2e-3, p_with_leak=0.7),
        seed=seed,
        activation_probability=activation_probability,
        slow_reference=slow_reference,
    )
    return module, model


def _burst(model, flips):
    for step in range(8):
        flips.extend(model.hammer(2 + step * 4).flips)
    flips.extend(model.hammer_double_sided(20).flips)


def _run(specs, slow_reference, activation_probability, seed):
    """Every observable of one burst under a plane carrying ``specs``."""
    obs.set_registry(obs.Registry())
    module, model = _world(slow_reference, activation_probability, seed)
    plane = faults.install(specs, seed=seed + 1)
    flips = []
    error = None
    try:
        _burst(model, flips)
    except ReproError as exc:
        error = (type(exc), str(exc))
    finally:
        faults.uninstall()
    return {
        "flips": flips,
        "error": error,
        "registry": obs.get_registry().snapshot(),
        "hammer_rng": model._rng.bit_generator.state,
        "injectors": [
            (i.spec.name, i.fires, i._seen, i._rng.bit_generator.state)
            for i in plane.injectors
        ],
        "read_count": module.read_count,
        "dram": [module.snapshot_row(row).tobytes() for row in range(ROWS)],
        "hammers": model.hammer_count,
    }


SCHEDULES = {
    "never-fires": ["dram-read-error:p=0,max=1"],
    "rare": ["dram-read-error:p=2e-3,max=1"],
    "mid-row": ["dram-read-error:p=1,after=5,max=1"],
    "after-first-victims": ["dram-read-error:p=1,after=600,max=1"],
    "two-listeners": [
        "dram-read-error:p=1e-3,after=40,name=late",
        "dram-read-error:p=4e-3,max=2,name=early",
    ],
}


class TestArmedBatchedHammer:
    @pytest.mark.parametrize("activation", [0.8, 1.0])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_matches_slow_reference(self, schedule, seed, activation):
        specs = SCHEDULES[schedule]
        batched = _run(specs, False, activation, seed)
        reference = _run(specs, True, activation, seed)
        assert batched == reference
        if schedule != "never-fires":
            assert any(fires for _, fires, _, _ in batched["injectors"])

    def test_mid_row_firing_keeps_earlier_flips_of_the_row(self):
        # after=5 fires on the sixth activated read of the first victim row
        # with vulnerable bits: the flips before it must land and count.
        batched = _run(SCHEDULES["mid-row"], False, 1.0, 3)
        assert batched["error"][0].__name__ == "TransientFaultError"
        total = sum(
            value
            for name, value in batched["registry"].items()
            if name.startswith("rowhammer.flips{")
        )
        assert 0 < total < 6
        assert batched == _run(SCHEDULES["mid-row"], True, 1.0, 3)

    @pytest.mark.parametrize("activation", [0.8, 1.0])
    def test_plane_without_read_listener(self, activation):
        specs = ["ecc-miscorrect:p=0.5,max=4", "tlb-stale:p=0.5"]
        batched = _run(specs, False, activation, 5)
        reference = _run(specs, True, activation, 5)
        batched_reads = batched.pop("read_count")
        reference.pop("read_count")
        assert batched == reference
        # read_bits counts one read per victim row with vulnerable bits;
        # each ECC burst adds one read_bit per flipped bit.
        _, model = _world(False, activation, 5)
        geometry = model.module.geometry
        visits = [
            victim
            for step in range(8)
            for victim in geometry.neighbors(2 + step * 4)
        ] + [20]
        rows_read = sum(1 for v in visits if model._vulnerable_row_arrays(v)[0].size)
        ecc_fires = dict((name, fires) for name, fires, _, _ in batched["injectors"])
        assert ecc_fires["ecc-miscorrect"] > 0
        assert batched_reads == rows_read + 3 * ecc_fires["ecc-miscorrect"]

    def test_armed_run_caches_no_per_bit_objects(self):
        module, model = _world(False, 0.8, 3)
        model.seed_vulnerable_bits(2, [(0, 0, 1), (9, 1, 0)])
        faults.install(["dram-read-error:p=0"], seed=4)
        try:
            for step in range(8):
                model.hammer(2 + step * 4)
        finally:
            faults.uninstall()
        assert set(model._vulnerable) == {2}

    def test_disturb_scalar_only_under_slow_reference(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            RowHammerModel, "_disturb_scalar",
            lambda self, outcome, victims: calls.append(victims),
        )
        faults.install(["dram-read-error:p=0", "tlb-stale:p=0.5"], seed=1)
        _, model = _world(False, 0.8, 3)
        model.hammer(6)
        assert calls == []
        _, model = _world(True, 0.8, 3)
        model.hammer(6)
        assert len(calls) == 1


class TestListens:
    def test_listens_needs_arming_and_a_subscriber(self):
        plane = faults.FaultPlane(seed=1)
        plane.add("dram-read-error:p=0.1")
        assert not plane.listens("dram.read")
        plane.arm()
        assert plane.listens("dram.read")
        assert not plane.listens("tlb.invalidate")
        plane.disarm()
        assert not plane.listens("dram.read")

    def test_module_helper_reads_default_plane(self):
        assert not faults.listens("dram.read")
        faults.install(["dram-read-error:p=0.1"], seed=1)
        assert faults.listens("dram.read")
        faults.uninstall()
        assert not faults.listens("dram.read")

    def test_add_after_arm_refreshes_module_cache(self):
        geometry = DramGeometry(total_bytes=1 * MIB, row_bytes=8192, num_banks=1)
        module = DramModule(geometry)
        plane = faults.install(["tlb-stale:p=0.5"], seed=2)
        assert module.fault_plane_armed
        assert not module.read_faults_armed
        plane.add("dram-read-error:p=0.5")
        assert module.read_faults_armed
        faults.uninstall()
        assert not module.read_faults_armed
        assert not module.fault_plane_armed


def _scalar_positions(spec, events, seed=9):
    """Which of ``events`` dispatches an injector fires on, plus its state."""
    plane = faults.FaultPlane(seed=seed)
    injector = plane.add(spec)
    plane.arm()
    fired = []
    for index in range(events):
        before = injector.fires
        plane.dispatch("dram.read", {"address": index})
        if injector.fires > before:
            fired.append(index)
    return fired, injector


class TestSkipQuiet:
    @pytest.mark.parametrize(
        "spec",
        [
            "dram-read-error:p=0.05",
            "dram-read-error:p=0.05,after=30",
            "dram-read-error:p=0.5,max=2",
            "dram-read-error:p=1,after=7,max=1",
            "dram-read-error:p=0",
        ],
    )
    def test_replays_the_dispatch_schedule(self, spec, monkeypatch):
        # Fire by counting instead of raising so the schedule runs on.
        monkeypatch.setattr(DramReadErrorInjector, "fire", lambda self, e, c: False)
        events = 120
        expected, reference = _scalar_positions(spec, events)
        plane = faults.FaultPlane(seed=9)
        injector = plane.add(spec)
        plane.arm()
        fired = []
        done = 0
        while done < events:
            done += plane.skip_quiet("dram.read", events - done)
            if done < events:
                before = injector.fires
                plane.dispatch("dram.read", {"address": done})
                if injector.fires > before:
                    fired.append(done)
                done += 1
        assert fired == expected
        assert injector.fires == reference.fires
        assert injector._seen == reference._seen == events
        assert injector._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_returns_index_of_the_first_firing_across_injectors(self):
        plane = faults.FaultPlane(seed=3)
        plane.add("dram-read-error:p=1,after=9,name=a")
        plane.add("dram-read-error:p=1,after=4,name=b")
        plane.arm()
        assert plane.skip_quiet("dram.read", 50) == 4
        assert [i._seen for i in plane.injectors] == [4, 4]
        assert plane.skip_quiet("dram.read", 3) == 0

    def test_disarmed_or_unsubscribed_plane_is_all_quiet(self):
        plane = faults.FaultPlane(seed=3)
        injector = plane.add("dram-read-error:p=1")
        assert plane.skip_quiet("dram.read", 10) == 10
        assert injector._seen == 0
        plane.arm()
        assert plane.skip_quiet("tlb.invalidate", 10) == 10
        assert plane.skip_quiet("dram.read", 0) == 0

    def test_context_dependent_matcher_is_never_skipped(self, monkeypatch):
        monkeypatch.setattr(
            DramReadErrorInjector, "matches", lambda self, event, ctx: True
        )
        plane = faults.FaultPlane(seed=3)
        injector = plane.add("dram-read-error:p=0")
        plane.arm()
        assert plane.skip_quiet("dram.read", 10) == 0
        assert injector._seen == 0


class TestSnapshotCache:
    def test_materialize_recomputes_read_faults_armed(self):
        def factory():
            kernel = make_stock_kernel(total_bytes=16 * MIB)
            # Pickle a cache claiming an armed dram.read listener at an
            # epoch this process may reach again.
            kernel.module._faults_epoch = faults.epoch()
            kernel.module._faults_armed = True
            kernel.module._read_faults_armed = True
            return kernel

        snapshot = SimulatorSnapshot.capture(factory)
        try:
            kernel, _ = snapshot.materialize()
            assert not kernel.module.read_faults_armed
            assert not kernel.module.fault_plane_armed
        finally:
            snapshot.release()
