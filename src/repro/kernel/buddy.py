"""Binary buddy allocator over a contiguous page-frame range.

A faithful model of the Linux zoned buddy system (Section 6.1, [4, 8, 24]):
free blocks are kept in per-order free lists; allocation splits larger
blocks downward; freeing coalesces with the buddy block recursively. Each
:class:`~repro.kernel.zones.MemoryZone` gets its own allocator instance.

Buddy arithmetic is done on pfns relative to the zone base so that zones
need not start at power-of-two-aligned pfns.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs, sanitize
from repro.errors import ConfigurationError, OutOfMemoryError, KernelError

#: Largest allocation order supported (matches Linux's historical MAX_ORDER-1).
MAX_ORDER = 10


class BuddyAllocator:
    """Per-zone buddy allocator.

    Parameters
    ----------
    start_pfn, end_pfn:
        Page-frame range managed (end exclusive).
    name:
        Zone label attached to this allocator's metrics (e.g. "Normal",
        "PTP0"); empty for standalone allocators.
    """

    def __init__(self, start_pfn: int, end_pfn: int, name: str = ""):
        if end_pfn <= start_pfn:
            raise ConfigurationError(f"empty pfn range [{start_pfn}, {end_pfn})")
        self._start_pfn = start_pfn
        self._end_pfn = end_pfn
        self.name = name
        # free_lists[order] = set of relative block starts. Per-order block
        # counts and the total free-page count are maintained incrementally
        # alongside (the obs gauge reads free_pages on every alloc/free and
        # sanitizer sweeps poll free_blocks_by_order repeatedly).
        self._free_lists: Dict[int, Set[int]] = {order: set() for order in range(MAX_ORDER + 1)}
        self._free_counts: Dict[int, int] = {order: 0 for order in range(MAX_ORDER + 1)}
        self._free_pages = 0
        self._allocated: Dict[int, int] = {}  # relative start -> order
        self._seed_free_blocks()
        #: Allocation-path statistics for the perf harness.
        self.alloc_calls = 0
        self.split_count = 0
        self.coalesce_count = 0
        self.failed_allocs = 0

    def _seed_free_blocks(self) -> None:
        """Carve the range into maximal aligned power-of-two free blocks."""
        size = self._end_pfn - self._start_pfn
        cursor = 0
        while cursor < size:
            order = MAX_ORDER
            while order > 0 and (
                cursor % (1 << order) != 0 or cursor + (1 << order) > size
            ):
                order -= 1
            self._add_free(order, cursor)
            cursor += 1 << order

    def _add_free(self, order: int, block: int) -> None:
        self._free_lists[order].add(block)
        self._free_counts[order] += 1
        self._free_pages += 1 << order

    def _take_free(self, order: int, block: int) -> None:
        self._free_lists[order].discard(block)
        self._free_counts[order] -= 1
        self._free_pages -= 1 << order

    # -- properties ----------------------------------------------------------
    @property
    def start_pfn(self) -> int:
        """First pfn managed."""
        return self._start_pfn

    @property
    def end_pfn(self) -> int:
        """One past the last pfn managed."""
        return self._end_pfn

    @property
    def total_pages(self) -> int:
        """Page frames managed."""
        return self._end_pfn - self._start_pfn

    @property
    def free_pages(self) -> int:
        """Currently free page frames (maintained incrementally, O(1))."""
        return self._free_pages

    @property
    def allocated_pages(self) -> int:
        """Currently allocated page frames."""
        return sum(1 << order for order in self._allocated.values())

    def free_blocks_by_order(self) -> Dict[int, int]:
        """Free-list occupancy, order -> block count (``/proc/buddyinfo``).

        Served from the incrementally maintained counts — O(orders), not
        O(free blocks) — since sanitizer sweeps call this repeatedly.
        """
        return dict(self._free_counts)

    # -- allocation -------------------------------------------------------------
    def alloc_pages(self, order: int = 0) -> int:
        """Allocate a 2**order-page block; returns its first (absolute) pfn.

        Raises :class:`OutOfMemoryError` when no block of sufficient order
        is free — or immediately when an armed ``buddy-oom`` fault targets
        this zone (the ``buddy.prepare_alloc`` hook fires before any free
        list is touched, so injected pressure never leaks blocks).
        """
        self._check_order(order)
        sanitize.notify("buddy.prepare_alloc", allocator=self, order=order)
        self.alloc_calls += 1
        taken = self._take_block(order)
        if taken is None:
            self.failed_allocs += 1
            obs.inc("buddy.failed_allocs", zone=self.name, order=order)
            raise OutOfMemoryError(
                f"no free block of order >= {order} in pfn range "
                f"[{self._start_pfn}, {self._end_pfn})"
            )
        block, splits = taken
        if splits:
            obs.inc("buddy.splits", splits, zone=self.name)
        obs.inc("buddy.allocs", zone=self.name, order=order)
        obs.set_gauge("buddy.free_pages", self.free_pages, zone=self.name)
        sanitize.notify(
            "buddy.alloc", allocator=self, pfn=self._start_pfn + block, order=order
        )
        return self._start_pfn + block

    def alloc_pages_many(
        self, count: int, accept: Optional[Callable[[int], bool]] = None
    ) -> List[int]:
        """``count`` order-0 allocation rounds in one call; returns their pfns.

        Each round takes pages exactly as :meth:`alloc_pages` would until
        ``accept(pfn)`` holds (the first page when ``accept`` is None),
        then frees the pages it rejected — the kernel's indicator-hardening
        loop. The pfns, their order, the free lists, the counters and the
        obs totals equal those of ``count`` such rounds of
        :meth:`alloc_pages` / :meth:`free_pages_block`; obs is updated
        once per call instead of once per page. Stops after the first
        round that runs out of pages, charging that round's failure as
        :meth:`alloc_pages` would, so the list may be shorter than
        ``count``. Emits no sanitizer or fault-plane events: callers with
        sanitizers enabled or an armed fault plane allocate page by page.
        """
        pfns: List[int] = []
        allocs = splits = frees = merges = 0
        failed = False
        for _ in range(count):
            rejected: List[int] = []
            while True:
                self.alloc_calls += 1
                taken = self._take_block(0)
                if taken is None:
                    failed = True
                    break
                block, split = taken
                allocs += 1
                splits += split
                pfn = self._start_pfn + block
                if accept is None or accept(pfn):
                    pfns.append(pfn)
                    break
                rejected.append(block)
            for block in rejected:
                merges += self._release(block)
            frees += len(rejected)
            if failed:
                self.failed_allocs += 1
                obs.inc("buddy.failed_allocs", zone=self.name, order=0)
                break
        if splits:
            obs.inc("buddy.splits", splits, zone=self.name)
        if allocs:
            obs.inc("buddy.allocs", allocs, zone=self.name, order=0)
        if merges:
            obs.inc("buddy.merges", merges, zone=self.name)
        if frees:
            obs.inc("buddy.frees", frees, zone=self.name, order=0)
        if allocs or frees:
            obs.set_gauge("buddy.free_pages", self.free_pages, zone=self.name)
        return pfns

    def free_pages_block(self, pfn: int, order: Optional[int] = None) -> None:
        """Free the block starting at absolute ``pfn``.

        ``order`` may be omitted (looked up from the allocation record) or
        provided and validated. Coalesces with free buddies upward.
        """
        relative = pfn - self._start_pfn
        recorded = self._allocated.get(relative)
        if recorded is None:
            raise KernelError(f"pfn {pfn} is not the head of an allocated block")
        if order is not None and order != recorded:
            raise KernelError(
                f"pfn {pfn} was allocated at order {recorded}, freed at {order}"
            )
        merges = self._release(relative)
        if merges:
            obs.inc("buddy.merges", merges, zone=self.name)
        obs.inc("buddy.frees", zone=self.name, order=recorded)
        obs.set_gauge("buddy.free_pages", self.free_pages, zone=self.name)
        sanitize.notify("buddy.free", allocator=self, pfn=pfn, order=recorded)

    def _take_block(self, order: int) -> Optional[Tuple[int, int]]:
        """Carve the lowest free block of the smallest order >= ``order``.

        Splits it down to ``order`` (freeing the upper halves) and records
        the allocation; returns ``(relative block, splits)``, or None when
        no block is large enough. No obs or sanitizer side effects.
        """
        found_order = order
        while not self._free_lists[found_order]:
            found_order += 1
            if found_order > MAX_ORDER:
                return None
        block = min(self._free_lists[found_order])
        self._take_free(found_order, block)
        splits = found_order - order
        while found_order > order:
            found_order -= 1
            self._add_free(found_order, block + (1 << found_order))
        self.split_count += splits
        self._allocated[block] = order
        return block, splits

    def _release(self, relative: int) -> int:
        """Free the allocated block at ``relative``, coalescing upward.

        Returns the number of merges. No obs or sanitizer side effects.
        """
        block = relative
        current = self._allocated.pop(relative)
        merges = 0
        while current < MAX_ORDER:
            buddy = block ^ (1 << current)
            if buddy not in self._free_lists[current]:
                break
            if buddy + (1 << current) > self.total_pages:
                break
            self._take_free(current, buddy)
            merges += 1
            block = min(block, buddy)
            current += 1
        self._add_free(current, block)
        self.coalesce_count += merges
        return merges

    def contains(self, pfn: int) -> bool:
        """Whether ``pfn`` is managed by this allocator."""
        return self._start_pfn <= pfn < self._end_pfn

    def is_allocated(self, pfn: int) -> bool:
        """Whether ``pfn`` lies inside any currently allocated block."""
        relative = pfn - self._start_pfn
        for block, order in self._allocated.items():
            if block <= relative < block + (1 << order):
                return True
        return False

    def check_invariants(self) -> None:
        """Assert conservation and non-overlap; used by property tests.

        Raises :class:`KernelError` on any violation.
        """
        covered: Set[int] = set()
        for order, blocks in self._free_lists.items():
            for block in blocks:
                pages = set(range(block, block + (1 << order)))
                if covered & pages:
                    raise KernelError("free blocks overlap")
                covered |= pages
        for block, order in self._allocated.items():
            pages = set(range(block, block + (1 << order)))
            if covered & pages:
                raise KernelError("allocated block overlaps a free block")
            covered |= pages
        if len(covered) != self.total_pages:
            raise KernelError(
                f"page conservation violated: covered {len(covered)} of "
                f"{self.total_pages} pages"
            )

    def _check_order(self, order: int) -> None:
        if not 0 <= order <= MAX_ORDER:
            raise ConfigurationError(f"order {order} outside [0, {MAX_ORDER}]")
