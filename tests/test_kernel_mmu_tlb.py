"""MMU page walks and TLB behaviour."""

import pytest

from repro.dram.cells import CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.errors import ConfigurationError, PageFaultError
from repro.kernel.mmu import Mmu
from repro.kernel.pagetable import PageTableEntry, entry_address
from repro.kernel.tlb import Tlb
from repro.units import MIB, PAGE_SHIFT, PAGE_SIZE


@pytest.fixture
def dram():
    geometry = DramGeometry(total_bytes=4 * MIB, row_bytes=16 * 1024, num_banks=2)
    return DramModule(geometry, CellTypeMap.interleaved(geometry, period_rows=8))


def build_mapping(dram, va, pfn, writable=True, user=True, huge_level=0):
    """Hand-build a 4-level mapping rooted at pfn 1 (PML4)."""
    from repro.kernel.pagetable import split_virtual_address

    indices = split_virtual_address(va)
    table_pfns = [1, 2, 3, 4]  # PML4, PDPT, PD, PT at fixed frames
    cr3 = table_pfns[0] << PAGE_SHIFT
    for position in range(3):
        table_level = 4 - position  # level of the table holding this entry
        base = table_pfns[position] << PAGE_SHIFT
        address = entry_address(base, indices[position])
        if huge_level and table_level == huge_level:
            # A PS leaf in the level-`huge_level` table terminates the walk.
            leaf = PageTableEntry.make(pfn, writable=writable, user=user, huge=True)
            dram.write_u64(address, leaf.encode())
            return cr3
        next_entry = PageTableEntry.make(table_pfns[position + 1], writable=True, user=True)
        dram.write_u64(address, next_entry.encode())
    leaf_base = table_pfns[3] << PAGE_SHIFT
    dram.write_u64(
        entry_address(leaf_base, indices[3]),
        PageTableEntry.make(pfn, writable=writable, user=user).encode(),
    )
    return cr3


class TestWalk:
    def test_translate_4k(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        mmu = Mmu(dram)
        pa = mmu.translate(cr3, 0x200123)
        assert pa == (42 << PAGE_SHIFT) | 0x123

    def test_walk_records_steps(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        result = Mmu(dram).walk(cr3, 0x200000)
        assert [step.level for step in result.steps] == [4, 3, 2, 1]
        assert result.pfn == 42

    def test_non_present_faults(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        with pytest.raises(PageFaultError):
            Mmu(dram).translate(cr3, 0x400000)  # different PD entry: absent

    def test_write_to_readonly_faults(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42, writable=False)
        mmu = Mmu(dram)
        assert mmu.translate(cr3, 0x200000, write=False)
        with pytest.raises(PageFaultError):
            mmu.translate(cr3, 0x200000, write=True)

    def test_user_access_to_supervisor_faults(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42, user=False)
        mmu = Mmu(dram)
        with pytest.raises(PageFaultError):
            mmu.translate(cr3, 0x200000, user=True)
        assert mmu.translate(cr3, 0x200000, user=False)

    def test_huge_2mb_translation(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=256, huge_level=2)
        result = Mmu(dram).walk(cr3, 0x200000 + 0x12345)
        assert result.huge_level == 2
        base = (256 << PAGE_SHIFT) & ~((1 << 21) - 1)
        assert result.physical_address == base | 0x12345

    def test_corrupted_table_pointer_is_bus_error(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        # Corrupt the PDPT entry to point far outside the module.
        from repro.kernel.pagetable import split_virtual_address

        indices = split_virtual_address(0x200000)
        pdpt_base = 2 << PAGE_SHIFT
        dram.write_u64(
            entry_address(pdpt_base, indices[1]),
            PageTableEntry.make(1 << 30, writable=True, user=True).encode(),
        )
        with pytest.raises(PageFaultError, match="bus error"):
            Mmu(dram).translate(cr3, 0x200000, use_tlb=False)

    def test_load_store(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        mmu = Mmu(dram)
        mmu.store(cr3, 0x200010, b"payload")
        assert mmu.load(cr3, 0x200010, 7) == b"payload"
        assert dram.read(42 * PAGE_SIZE + 0x10, 7) == b"payload"


class TestTlbIntegration:
    def test_hit_skips_walk(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        mmu = Mmu(dram)
        mmu.translate(cr3, 0x200000)
        walks_after_first = mmu.walk_count
        mmu.translate(cr3, 0x200000)
        assert mmu.walk_count == walks_after_first
        assert mmu.tlb.hits == 1

    def test_flush_forces_rewalk(self, dram):
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        mmu = Mmu(dram)
        mmu.translate(cr3, 0x200000)
        mmu.tlb.flush()
        walks = mmu.walk_count
        mmu.translate(cr3, 0x200000)
        assert mmu.walk_count == walks + 1

    def test_stale_tlb_hides_corruption_until_flush(self, dram):
        """The reason hammer loops flush the TLB (Section 5 step 2)."""
        cr3 = build_mapping(dram, va=0x200000, pfn=42)
        mmu = Mmu(dram)
        assert mmu.translate(cr3, 0x200000) >> PAGE_SHIFT == 42
        # Corrupt the leaf PTE directly.
        from repro.kernel.pagetable import split_virtual_address

        indices = split_virtual_address(0x200000)
        leaf = entry_address(4 << PAGE_SHIFT, indices[3])
        dram.write_u64(leaf, PageTableEntry.make(99, writable=True, user=True).encode())
        # Cached translation still returns the old frame...
        assert mmu.translate(cr3, 0x200000) >> PAGE_SHIFT == 42
        # ...until the TLB is flushed.
        mmu.tlb.flush()
        assert mmu.translate(cr3, 0x200000) >> PAGE_SHIFT == 99


class TestTlbUnit:
    def test_lru_eviction(self):
        tlb = Tlb(capacity=2)
        tlb.insert(1, 10, 100, True, True)
        tlb.insert(1, 11, 101, True, True)
        tlb.lookup(1, 10)  # refresh 10
        tlb.insert(1, 12, 102, True, True)  # evicts 11
        assert tlb.lookup(1, 11) is None
        assert tlb.lookup(1, 10) is not None

    def test_flush_pid_selective(self):
        tlb = Tlb()
        tlb.insert(1, 10, 100, True, True)
        tlb.insert(2, 10, 200, True, True)
        tlb.flush_pid(1)
        assert tlb.lookup(1, 10) is None
        assert tlb.lookup(2, 10) is not None

    def test_invalidate_single(self):
        tlb = Tlb()
        tlb.insert(1, 10, 100, True, True)
        tlb.invalidate(1, 10)
        assert tlb.lookup(1, 10) is None

    def test_hit_rate(self):
        tlb = Tlb()
        tlb.insert(1, 10, 100, True, True)
        tlb.lookup(1, 10)
        tlb.lookup(1, 11)
        assert tlb.hit_rate == pytest.approx(0.5)

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            Tlb(capacity=0)


class TestTlbFlushResetsOccupiedSlots:
    """``flush`` resets only occupied slots, yet leaves every slot as at boot."""

    @staticmethod
    def _rebuild_flush(tlb):
        """Reset every slot to its boot state (an O(capacity) flush)."""
        boot = Tlb(capacity=tlb.capacity)
        tlb._slot_of.clear()
        tlb._key_of = boot._key_of
        tlb._free, tlb._fresh = boot._free, boot._fresh
        tlb._stamps = boot._stamps
        tlb.flushes += 1

    @staticmethod
    def _internals(tlb):
        return (
            dict(tlb._slot_of), list(tlb._key_of), list(tlb._free), tlb._fresh,
            tlb._pids.tolist(), tlb._vpns.tolist(), tlb._pfns.tolist(),
            tlb._flag_bits.tolist(), tlb._stamps.tolist(), tlb._clock,
            tlb.hits, tlb.misses, tlb.evictions, tlb.flushes,
        )

    def test_slot_order_reuses_the_last_dropped_slot_first(self):
        tlb = Tlb(capacity=4)
        for vpn in (10, 11, 12):
            tlb.insert(1, vpn, vpn, True, True)
        tlb.invalidate(1, 10)
        tlb.invalidate(1, 12)
        for vpn in (13, 14, 15):
            tlb.insert(1, vpn, vpn, True, True)
        assert [tlb._slot_of[(1, vpn)] for vpn in (13, 14, 15)] == [2, 0, 3]
        tlb.flush()
        tlb.insert(1, 16, 16, True, True)
        assert tlb._slot_of == {(1, 16): 0}

    @pytest.mark.parametrize("seed", range(6))
    def test_interleavings_match_full_rebuild(self, seed):
        import numpy as np

        from repro import obs

        rng = np.random.default_rng(seed)
        ops = [
            (str(rng.choice(["insert", "insert", "insert", "flush", "invalidate",
                             "flush_pid", "lookup"])),
             int(rng.integers(1, 3)), int(rng.integers(0, 12)))
            for _ in range(300)
        ]
        sides = []
        for rebuild in (False, True):
            registry = obs.Registry()
            obs.set_registry(registry)
            tlb = Tlb(capacity=8)
            for op, pid, vpn in ops:
                if op == "insert":
                    tlb.insert(pid, vpn, vpn + 100, vpn % 2 == 0, True)
                elif op == "flush":
                    if rebuild:
                        self._rebuild_flush(tlb)
                        obs.inc("tlb.flushes", scope="full")
                    else:
                        tlb.flush()
                elif op == "invalidate":
                    tlb.invalidate(pid, vpn)
                elif op == "flush_pid":
                    tlb.flush_pid(pid)
                else:
                    tlb.lookup(pid, vpn)
                sides.append((op, self._internals(tlb)))
            sides.append(("obs", registry.export_state()))
        half = len(sides) // 2
        assert sides[:half] == sides[half:]


class TestTlbPlanEvictions:
    """``plan_evictions`` picks the victims a scalar insert loop would."""

    @staticmethod
    def _full_tlb():
        """Capacity 4 holding pid 1's vpns 10..13, least recent first."""
        tlb = Tlb(capacity=4)
        for vpn in (10, 11, 12, 13):
            tlb.insert(1, vpn, vpn + 100, True, True)
        return tlb

    @staticmethod
    def _plan(tlb, hits, inserts, stop=99):
        import numpy as np

        hit_vpns = np.asarray([vpn for vpn, _ in hits], dtype=np.int64)
        hit_first = np.asarray([position for _, position in hits], dtype=np.int64)
        victims, stop = tlb.plan_evictions(
            1, hit_vpns, hit_first, np.asarray(inserts, dtype=np.int64), stop
        )
        return [tlb._key_of[slot][1] for slot in victims], stop

    def test_skips_pages_the_batch_touched_before_the_insert(self):
        # vpn 10 is re-read at position 0, so the inserts at 1 and 2 evict
        # the next least recent pages, 11 and 12.
        assert self._plan(self._full_tlb(), [(10, 0)], [1, 2]) == ([11, 12], 99)

    def test_stops_at_the_first_access_to_an_evicted_page(self):
        # The insert at 0 evicts 10, which the batch reads at 3: the scalar
        # loop misses there, so the plan ends before it.
        assert self._plan(self._full_tlb(), [(10, 3)], [0, 5]) == ([10], 3)

    def test_stops_when_only_pages_the_batch_stamped_remain(self):
        hits = [(10, 0), (11, 1), (12, 2)]
        assert self._plan(self._full_tlb(), hits, [3, 4, 5]) == ([13], 4)

    def test_commit_evicts_the_planned_victims(self):
        import numpy as np

        tlb = self._full_tlb()
        scalar = self._full_tlb()
        victims = tlb.plan_evictions(
            1, np.asarray([10]), np.asarray([0]), np.asarray([1, 2]), 99
        )[0]
        tlb.commit_many(
            1, np.asarray([10, 20, 21]), np.asarray([20, 21]),
            np.asarray([120, 121]), np.asarray([True, False]),
            np.asarray([True, True]), victims,
        )
        scalar.lookup(1, 10)
        scalar.insert(1, 20, 120, True, True)
        scalar.insert(1, 21, 121, False, True)
        assert victims == []
        assert tlb.evictions == scalar.evictions == 2
        for column in ("_pfns", "_flag_bits", "_stamps"):
            assert np.array_equal(getattr(tlb, column), getattr(scalar, column))
        assert tlb._key_of == scalar._key_of
        assert tlb._slot_of == scalar._slot_of
        assert tlb._clock == scalar._clock
