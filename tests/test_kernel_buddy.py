"""Buddy allocator, including property-based invariant checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, KernelError, OutOfMemoryError
from repro.kernel.buddy import MAX_ORDER, BuddyAllocator


class TestBasics:
    def test_initial_accounting(self):
        buddy = BuddyAllocator(0, 1024)
        assert buddy.total_pages == 1024
        assert buddy.free_pages == 1024
        assert buddy.allocated_pages == 0

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            BuddyAllocator(10, 10)

    def test_alloc_free_roundtrip(self):
        buddy = BuddyAllocator(0, 64)
        pfn = buddy.alloc_pages(order=0)
        assert buddy.free_pages == 63
        buddy.free_pages_block(pfn)
        assert buddy.free_pages == 64
        buddy.check_invariants()

    def test_alloc_respects_order_size(self):
        buddy = BuddyAllocator(0, 64)
        pfn = buddy.alloc_pages(order=3)
        assert buddy.free_pages == 64 - 8
        assert pfn % 8 == 0  # order-3 blocks are 8-page aligned
        buddy.free_pages_block(pfn, order=3)

    def test_allocations_do_not_overlap(self):
        buddy = BuddyAllocator(0, 64)
        seen = set()
        for _ in range(64):
            pfn = buddy.alloc_pages(0)
            assert pfn not in seen
            seen.add(pfn)
        assert buddy.free_pages == 0

    def test_oom_raises(self):
        buddy = BuddyAllocator(0, 4)
        for _ in range(4):
            buddy.alloc_pages(0)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_pages(0)
        assert buddy.failed_allocs == 1

    def test_order_too_large(self):
        buddy = BuddyAllocator(0, 16)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_pages(order=5)  # 32 pages from a 16-page zone

    def test_invalid_order(self):
        buddy = BuddyAllocator(0, 16)
        with pytest.raises(ConfigurationError):
            buddy.alloc_pages(order=MAX_ORDER + 1)

    def test_nonzero_base(self):
        buddy = BuddyAllocator(1000, 1064)
        pfn = buddy.alloc_pages(0)
        assert 1000 <= pfn < 1064
        assert buddy.contains(pfn)
        assert not buddy.contains(999)
        buddy.free_pages_block(pfn)

    def test_unaligned_base_and_size(self):
        # Zone of 100 pages starting at pfn 3: seeding must still cover it.
        buddy = BuddyAllocator(3, 103)
        buddy.check_invariants()
        allocated = [buddy.alloc_pages(0) for _ in range(100)]
        assert len(set(allocated)) == 100
        assert buddy.free_pages == 0


class TestFreeing:
    def test_free_unknown_block(self):
        buddy = BuddyAllocator(0, 16)
        with pytest.raises(KernelError):
            buddy.free_pages_block(0)

    def test_double_free_detected(self):
        buddy = BuddyAllocator(0, 16)
        pfn = buddy.alloc_pages(0)
        buddy.free_pages_block(pfn)
        with pytest.raises(KernelError):
            buddy.free_pages_block(pfn)

    def test_wrong_order_free_detected(self):
        buddy = BuddyAllocator(0, 16)
        pfn = buddy.alloc_pages(order=2)
        with pytest.raises(KernelError):
            buddy.free_pages_block(pfn, order=1)

    def test_coalescing_restores_max_blocks(self):
        buddy = BuddyAllocator(0, 1 << MAX_ORDER)
        pfns = [buddy.alloc_pages(0) for _ in range(1 << MAX_ORDER)]
        for pfn in pfns:
            buddy.free_pages_block(pfn)
        blocks = buddy.free_blocks_by_order()
        assert blocks[MAX_ORDER] == 1
        assert all(count == 0 for order, count in blocks.items() if order != MAX_ORDER)

    def test_is_allocated_tracks_interior_pages(self):
        buddy = BuddyAllocator(0, 64)
        pfn = buddy.alloc_pages(order=2)
        for offset in range(4):
            assert buddy.is_allocated(pfn + offset)
        buddy.free_pages_block(pfn)
        assert not buddy.is_allocated(pfn)


@settings(max_examples=40, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(0, 4)),
        min_size=1,
        max_size=120,
    )
)
def test_property_random_alloc_free_conserves_pages(operations):
    """Any alloc/free interleaving preserves page conservation + non-overlap."""
    buddy = BuddyAllocator(0, 256)
    live = []
    for action, order in operations:
        if action == "alloc":
            try:
                pfn = buddy.alloc_pages(order)
                live.append((pfn, order))
            except OutOfMemoryError:
                pass
        elif live:
            pfn, recorded_order = live.pop()
            buddy.free_pages_block(pfn, recorded_order)
    buddy.check_invariants()
    assert buddy.free_pages + buddy.allocated_pages == 256
    assert buddy.allocated_pages == sum(1 << order for _, order in live)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_full_drain_and_refill(seed):
    """Allocate everything at mixed orders, free all, end fully coalesced."""
    import random

    rng = random.Random(seed)
    buddy = BuddyAllocator(0, 256)
    live = []
    while True:
        try:
            order = rng.randint(0, 3)
            live.append((buddy.alloc_pages(order), order))
        except OutOfMemoryError:
            break
    rng.shuffle(live)
    for pfn, order in live:
        buddy.free_pages_block(pfn, order)
    assert buddy.free_pages == 256
    buddy.check_invariants()


class TestAllocPagesMany:
    """``alloc_pages_many`` equals rounds of alloc_pages + freeing rejects."""

    @staticmethod
    def _rounds(buddy, count, accept):
        """The reference: the kernel's per-page indicator-hardening loop."""
        pfns = []
        for _ in range(count):
            rejected = []
            try:
                while True:
                    pfn = buddy.alloc_pages(0)
                    if accept is None or accept(pfn):
                        pfns.append(pfn)
                        break
                    rejected.append(pfn)
            except OutOfMemoryError:
                return pfns
            finally:
                for pfn in rejected:
                    buddy.free_pages_block(pfn)
        return pfns

    @staticmethod
    def _state(buddy, registry):
        return (
            {order: sorted(blocks) for order, blocks in buddy._free_lists.items()},
            sorted(buddy._allocated.items()),
            buddy.alloc_calls, buddy.split_count, buddy.coalesce_count,
            buddy.failed_allocs, registry.export_state(),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        held=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=20),
        count=st.integers(0, 80),
        modulus=st.sampled_from([0, 2, 3, 7]),
    )
    def test_matches_alloc_pages_rounds(self, held, count, modulus):
        from repro import obs

        accept = None if modulus == 0 else (lambda pfn: pfn % modulus != 1)
        sides = []
        for batched in (False, True):
            buddy = BuddyAllocator(start_pfn=5, end_pfn=5 + 64, name="Z")
            live = []
            for order, free_it in held:
                try:
                    live.append(buddy.alloc_pages(order))
                except OutOfMemoryError:
                    continue
                if free_it and len(live) > 1:
                    buddy.free_pages_block(live.pop(0))
            registry = obs.Registry()
            obs.set_registry(registry)
            if batched:
                pfns = buddy.alloc_pages_many(count, accept)
            else:
                pfns = self._rounds(buddy, count, accept)
            buddy.check_invariants()
            sides.append((pfns, self._state(buddy, registry)))
        assert sides[0] == sides[1]
