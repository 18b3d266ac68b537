"""The kernel facade: boots zones over simulated DRAM and runs processes.

This is the integration point the paper's 18-line patch targets. The
kernel owns:

- the physical substrate (a :class:`~repro.dram.module.DramModule`),
- the zone layout and one buddy allocator per (sub-)zone,
- the page-frame database,
- an MMU + TLB,
- processes, their page tables (stored *in* simulated DRAM), and demand
  paging.

With a :class:`~repro.kernel.cta.CtaConfig` supplied, booting runs the
cell-type profiler, plans ``ZONE_PTP`` out of true-cell rows above the low
water mark, and routes every ``pte_alloc_one`` through ``GFP_PTP`` — the
complete CTA deployment. Without it, the kernel behaves like the stock
allocator the attacks exploit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs, sanitize
from repro.dram.cells import CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.profiler import CellTypeProfiler
from repro.errors import (
    AddressError,
    CapacityError,
    ConfigurationError,
    OutOfMemoryError,
    PageFaultError,
    ProcessError,
    ReproError,
    ZoneViolationError,
)
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.cta import CtaConfig, CtaPolicy
from repro.kernel.degrade import (
    RECLAIM_RETRY_ROUNDS,
    ExhaustionPolicy,
    screened_fallback_alloc,
)
from repro.kernel.gfp import GFP_KERNEL, GFP_PTP, GFP_USER, GfpFlags
from repro.kernel.mmu import Mmu
from repro.kernel.page import PageFrameDatabase, PageUse
from repro.kernel.pagetable import (
    BITS_PER_LEVEL,
    ENTRIES_PER_TABLE,
    NUM_LEVELS,
    PageTableEntry,
    encode_entries,
    entry_address,
    split_virtual_address,
)
from repro.kernel.process import MappedFile, Process, VmArea
from repro.kernel.tlb import Tlb
from repro.kernel.zones import MemoryZone, ZoneId, ZoneLayout
from repro.units import PAGE_SHIFT, PAGE_SIZE


#: The contents of a freshly allocated frame.
_ZERO_PAGE = bytes(PAGE_SIZE)

#: Fewest accesses :meth:`Kernel.touch_many` plans as a batch. A plan has
#: a fixed cost (TLB probe, frontier walk, tree check) that a scalar
#: :meth:`Kernel.touch` loop only repays after several faults. Measured
#: per call on a 2 vCPU Xeon, faulting n single-page VMAs whose page
#: table exists (scalar / planned): n=6 1.17 / 1.41 ms, n=8 1.64 / 1.49
#: ms, n=16 3.3 / 2.2 ms; with a new page table for the batch the two
#: meet at n=10.
_PLAN_MIN_ACCESSES = 8


@dataclass
class KernelConfig:
    """Boot-time configuration.

    ``cell_interleave_rows`` controls the simulated module's true/anti
    alternation period; ``cta`` enables the paper's defense. When ``cta``
    is set, ``profile_cells`` chooses between running the system-level
    profiler (realistic; default) and trusting the ground-truth map
    directly (faster for big sweeps), and ``ptp_exhaustion_policy``
    selects what ``pte_alloc_one`` does when ZONE_PTP runs dry after
    reclaim (see :mod:`repro.kernel.degrade`).
    """

    total_bytes: int = 64 * 1024 * 1024
    row_bytes: int = 64 * 1024
    num_banks: int = 4
    cell_interleave_rows: int = 16
    cta: Optional[CtaConfig] = None
    profile_cells: bool = True
    tlb_capacity: int = 1536
    arch: str = "x86_64"
    ptp_exhaustion_policy: Union[ExhaustionPolicy, str] = ExhaustionPolicy.FAIL_HARD

    def __post_init__(self) -> None:
        if self.arch not in ("x86_64", "x86_32"):
            raise ConfigurationError(f"unknown arch {self.arch!r}")
        self.ptp_exhaustion_policy = ExhaustionPolicy.coerce(
            self.ptp_exhaustion_policy
        )


@dataclass
class KernelStats:
    """Aggregate counters for the perf harness."""

    page_allocs: int = 0
    page_frees: int = 0
    pte_allocs: int = 0
    demand_faults: int = 0
    ptp_fallback_denied: int = 0
    indicator_rejections: int = 0
    screening_rejections: int = 0
    huge_mappings: int = 0
    ptp_reclaims: int = 0
    capacity_exhaustions: int = 0
    security_downgrades: int = 0
    fallback_screen_rejections: int = 0


@dataclass
class _TouchPlan:
    """One :meth:`Kernel.touch_many` batch, classified at its start.

    Access arrays (``vas`` .. ``fault``) have one entry per access;
    ``frames`` / ``frame_w`` / ``frame_u`` one per distinct page (indexed
    through ``inverse``), filled in for faulting pages as they are mapped.
    """

    vas: np.ndarray
    vpns: np.ndarray
    offsets: np.ndarray
    inverse: np.ndarray
    #: First access of a page the TLB lacks: it walks and inserts.
    new: np.ndarray
    #: First access of a page that demand-faults on a mapped VMA.
    fault: np.ndarray
    frames: np.ndarray
    frame_w: np.ndarray
    frame_u: np.ndarray
    #: The VMA of each faulting access, by position.
    vma_of: Dict[int, VmArea]
    #: TLB slots the plan's inserts evict once the free list runs out,
    #: in insert order (consumed as the plan commits).
    victims: List[int]
    #: Accesses before ``stop`` are covered by the plan.
    stop: int
    #: Whether the accesses from ``stop`` on go through the scalar loop.
    scalar_rest: bool


class Kernel:
    """A booted system instance."""

    def __init__(
        self,
        config: KernelConfig = KernelConfig(),
        module: Optional[DramModule] = None,
        cell_map: Optional[CellTypeMap] = None,
    ):
        self.config = config
        if module is not None:
            self._module = module
            self._cell_map = module.cell_map
            geometry = module.geometry
        else:
            geometry = DramGeometry(
                total_bytes=config.total_bytes,
                row_bytes=config.row_bytes,
                num_banks=config.num_banks,
            )
            self._cell_map = cell_map or CellTypeMap.interleaved(
                geometry, period_rows=config.cell_interleave_rows
            )
            self._module = DramModule(geometry, self._cell_map)
        if self._cell_map is None:
            raise ConfigurationError("kernel requires a module with a cell map")

        self.stats = KernelStats()
        self._cta_policy: Optional[CtaPolicy] = None
        self._layout = self._build_layout(geometry)
        self._allocators: List[Tuple[MemoryZone, BuddyAllocator]] = [
            (zone, BuddyAllocator(zone.start_pfn, zone.end_pfn, name=zone.name))
            for zone in self._layout.zones
        ]
        self._page_db = PageFrameDatabase(self._layout.total_pages)
        self._tlb = Tlb(capacity=config.tlb_capacity)
        self._mmu = Mmu(self._module, self._tlb)
        self._processes: Dict[int, Process] = {}
        self._files: Dict[int, MappedFile] = {}
        self._next_pid = 1
        self._next_file_id = 1
        #: Frames the Section 7 page-size-bit screening forbids for
        #: high-level page tables (see :mod:`repro.kernel.screening`).
        self._screened_ptp_frames: set = set()
        #: Page-table frames served below the low water mark by the
        #: screened-fallback exhaustion policy — each one an acknowledged
        #: Rule 1 exception (see :mod:`repro.kernel.degrade`).
        self._downgraded_pt_pfns: set = set()

    # -- boot helpers ------------------------------------------------------
    def _build_layout(self, geometry: DramGeometry) -> ZoneLayout:
        if self.config.cta is None:
            if self.config.arch == "x86_32":
                return ZoneLayout.x86_32(geometry.total_bytes)
            return ZoneLayout.x86_64(geometry.total_bytes)
        observed_map = self._cell_map
        if self.config.profile_cells:
            observed_map = CellTypeProfiler(self._module).profile().inferred_map
        self._cta_policy = CtaPolicy(observed_map, self.config.cta)
        subzones = self._cta_policy.build_subzones()
        ptp_span = geometry.total_bytes - self._cta_policy.low_water_mark
        if self.config.arch == "x86_32":
            # 32-bit layouts share the x86_64 builder's PTP carving logic via
            # explicit subzones being above the computed mark.
            layout = ZoneLayout.x86_32(geometry.total_bytes, ptp_bytes=ptp_span)
            zones = [z for z in layout.zones if z.zone_id is not ZoneId.PTP]
            return ZoneLayout(list(zones) + subzones, layout.total_pages)
        return ZoneLayout.x86_64(
            geometry.total_bytes, ptp_bytes=ptp_span, ptp_subzones=subzones
        )

    # -- basic accessors -----------------------------------------------------
    @property
    def module(self) -> DramModule:
        """Simulated physical memory."""
        return self._module

    @property
    def layout(self) -> ZoneLayout:
        """Zone layout in force."""
        return self._layout

    @property
    def page_db(self) -> PageFrameDatabase:
        """Page-frame database."""
        return self._page_db

    @property
    def mmu(self) -> Mmu:
        """The MMU (and its TLB)."""
        return self._mmu

    @property
    def tlb(self) -> Tlb:
        """The TLB."""
        return self._tlb

    @property
    def cta_policy(self) -> Optional[CtaPolicy]:
        """The CTA layout, when the defense is enabled."""
        return self._cta_policy

    @property
    def cta_enabled(self) -> bool:
        """Whether CTA allocation is active."""
        return self._cta_policy is not None

    @property
    def processes(self) -> Dict[int, Process]:
        """Live processes by pid."""
        return dict(self._processes)

    def allocator_for_zone(self, zone: MemoryZone) -> BuddyAllocator:
        """The buddy allocator managing ``zone``."""
        for candidate, allocator in self._allocators:
            if candidate is zone:
                return allocator
        raise ConfigurationError(f"zone {zone.name} not managed by this kernel")

    def allocator_of_pfn(self, pfn: int) -> Optional[BuddyAllocator]:
        """The allocator whose range contains ``pfn`` (None in zone holes)."""
        for _, allocator in self._allocators:
            if allocator.contains(pfn):
                return allocator
        return None

    # -- page allocation -----------------------------------------------------
    def alloc_page(
        self,
        flags: GfpFlags,
        use: PageUse,
        owner_pid: Optional[int] = None,
        pt_level: int = 0,
        untrusted: bool = False,
        order: int = 0,
        frame_filter: Optional[Callable[[int], bool]] = None,
        downgraded: bool = False,
    ) -> int:
        """Allocate and zero a 2**order-page block according to ``flags``.

        Enforces CTA Rules 1/2: PTP requests only touch PTP sub-zones (no
        fallback), and non-PTP requests never see ZONE_PTP because it is
        absent from their zonelists. With the indicator-zeros hardening,
        untrusted allocations skip pages whose PTP indicator has fewer
        than two '0' bits. Frames on the Section 7 page-size-bit screening
        list are never used for high-level page tables.

        ``frame_filter`` rejects candidate head frames (used by the
        screened-fallback path); ``downgraded`` records the surviving
        frame as an acknowledged security downgrade before sanitizers see
        its ``kernel.page_alloc`` event.
        """
        if flags.is_ptp_request and use is not PageUse.PAGE_TABLE:
            raise ZoneViolationError(
                f"GFP_PTP used for {use.value}; only page tables allowed (Rule 2)"
            )
        zonelist = self._layout.zonelist_for(flags, pt_level)
        rejected: List[Tuple[BuddyAllocator, int]] = []
        try:
            for zone in zonelist:
                allocator = self.allocator_for_zone(zone)
                while True:
                    try:
                        pfn = allocator.alloc_pages(order=order)
                    except OutOfMemoryError:
                        break
                    if untrusted and self._cta_policy is not None:
                        address = pfn << PAGE_SHIFT
                        if not self._cta_policy.address_allowed_for_untrusted(address):
                            rejected.append((allocator, pfn))
                            self.stats.indicator_rejections += 1
                            obs.inc("kernel.indicator_rejections")
                            continue
                    if (
                        use is PageUse.PAGE_TABLE
                        and pt_level >= 2
                        and pfn in self._screened_ptp_frames
                    ):
                        rejected.append((allocator, pfn))
                        self.stats.screening_rejections += 1
                        obs.inc("kernel.screening_rejections")
                        continue
                    if frame_filter is not None and not frame_filter(pfn):
                        rejected.append((allocator, pfn))
                        self.stats.fallback_screen_rejections += 1
                        obs.inc("kernel.fallback_screen_rejections")
                        continue
                    for offset in range(1 << order):
                        self._page_db.mark_allocated(
                            pfn + offset, use, owner_pid=owner_pid,
                            pt_level=pt_level, order=order if offset == 0 else 0,
                        )
                    self._module.write(
                        pfn << PAGE_SHIFT, b"\x00" * (PAGE_SIZE << order)
                    )
                    self.stats.page_allocs += 1
                    obs.inc("kernel.page_allocs", use=use.value, zone=zone.name)
                    if downgraded:
                        self._register_downgrade(pfn, pt_level)
                    sanitize.notify(
                        "kernel.page_alloc", kernel=self, pfn=pfn, use=use,
                        order=order, pt_level=pt_level, downgraded=downgraded,
                    )
                    return pfn
            if flags.forbids_fallback:
                self.stats.ptp_fallback_denied += 1
                obs.inc("kernel.ptp_fallback_denied")
            raise self._out_of_memory(use, zonelist)
        finally:
            for allocator, pfn in rejected:
                allocator.free_pages_block(pfn)

    @staticmethod
    def _out_of_memory(use: PageUse, zonelist: List[MemoryZone]) -> OutOfMemoryError:
        return OutOfMemoryError(
            f"no free page for {use.value} in zonelist {[z.name for z in zonelist]}"
        )

    def free_page(self, pfn: int) -> None:
        """Free the block whose head frame is ``pfn``."""
        allocator = self.allocator_of_pfn(pfn)
        if allocator is None:
            raise ConfigurationError(f"pfn {pfn} lies in a zone hole")
        head = self._page_db.frame(pfn)
        order = head.order
        was_page_table = head.use is PageUse.PAGE_TABLE
        for offset in range(1 << order):
            self._page_db.mark_free(pfn + offset)
        if was_page_table:
            # The MMU may hold an aliasing entry view of this table; once
            # the frame is reused for data that view must not be consulted.
            for offset in range(1 << order):
                self._mmu.forget_table((pfn + offset) << PAGE_SHIFT)
        allocator.free_pages_block(pfn)
        self._downgraded_pt_pfns.discard(pfn)
        self.stats.page_frees += 1
        obs.inc("kernel.page_frees")
        sanitize.notify("kernel.page_free", kernel=self, pfn=pfn)

    def set_screened_ptp_frames(self, frames) -> None:
        """Install the page-size-bit screening list (Section 7).

        Frames listed here are never used for level >= 2 page tables; see
        :func:`repro.kernel.screening.screen_ps_vulnerable_frames`.
        """
        self._screened_ptp_frames = set(frames)

    @property
    def screened_ptp_frames(self) -> set:
        """Currently screened-out frames."""
        return set(self._screened_ptp_frames)

    def pte_alloc_one(self, owner_pid: int, table_level: int) -> int:
        """Allocate one page-table page — the function the patch rewires.

        With CTA enabled the request carries ``__GFP_PTP`` (Rule 1: PTP
        zones only, no fallback); otherwise it is a normal kernel
        allocation served from any ordinary zone. When ZONE_PTP is full
        the configured exhaustion policy takes over (see
        :meth:`_pte_alloc_degraded`): at least one kswapd-style reclaim
        pass — the "swap daemon is awakened" behaviour of Section 6.1 —
        then either a :class:`CapacityError` or the screened fallback.
        """
        flags = GFP_PTP if self.cta_enabled else GFP_KERNEL
        level = table_level if (self._cta_policy and self._cta_policy.config.multilevel) else 0
        effective_level = table_level if level == 0 else level
        try:
            pfn = self.alloc_page(
                flags, PageUse.PAGE_TABLE, owner_pid=owner_pid, pt_level=effective_level
            )
        except OutOfMemoryError:
            if not self.cta_enabled:
                raise
            pfn = self._pte_alloc_degraded(owner_pid, effective_level)
        self.stats.pte_allocs += 1
        obs.inc("kernel.pte_allocs", level=table_level)
        obs.trace("kernel.pte_alloc", pid=owner_pid, level=table_level, pfn=pfn)
        return pfn

    def _pte_alloc_degraded(self, owner_pid: int, pt_level: int) -> int:
        """ZONE_PTP is exhausted: reclaim, then apply the configured policy.

        All policies reclaim first (``reclaim-retry`` keeps at it for
        :data:`~repro.kernel.degrade.RECLAIM_RETRY_ROUNDS` rounds); when
        reclaim cannot satisfy the request, ``screened-fallback`` serves
        the table from an ordinary zone as a counted security downgrade
        and the other policies raise :class:`CapacityError`.
        """
        policy = ExhaustionPolicy.coerce(self.config.ptp_exhaustion_policy)
        self.stats.capacity_exhaustions += 1
        obs.inc("kernel.capacity_exhaustions", policy=policy.value)
        rounds = (
            RECLAIM_RETRY_ROUNDS if policy is ExhaustionPolicy.RECLAIM_RETRY else 1
        )
        for _ in range(rounds):
            if self.reclaim_empty_page_tables() == 0:
                break
            try:
                return self.alloc_page(
                    GFP_PTP, PageUse.PAGE_TABLE, owner_pid=owner_pid,
                    pt_level=pt_level,
                )
            except OutOfMemoryError:
                continue
        if policy is ExhaustionPolicy.SCREENED_FALLBACK:
            return screened_fallback_alloc(self, owner_pid, pt_level)
        raise CapacityError(
            f"ZONE_PTP exhausted under the {policy.value} policy "
            "(Rule 1 forbids ordinary-zone fallback)",
            zone="ZONE_PTP",
        )

    def _register_downgrade(self, pfn: int, pt_level: int) -> None:
        policy = ExhaustionPolicy.coerce(self.config.ptp_exhaustion_policy)
        self._downgraded_pt_pfns.add(pfn)
        self.stats.security_downgrades += 1
        obs.inc("kernel.security_downgrades", policy=policy.value)
        obs.trace("kernel.downgrade", pfn=pfn, level=pt_level)

    @property
    def downgraded_pt_pfns(self) -> frozenset:
        """Live page-table frames granted as explicit security downgrades."""
        return frozenset(self._downgraded_pt_pfns)

    def reclaim_empty_page_tables(self) -> int:
        """Free last-level page tables that map nothing (kswapd-lite).

        ``munmap`` clears PTEs but leaves the tables themselves in place;
        under PTP pressure this reclaimer walks every level-1 table, frees
        those with no present entries, and clears their parent pointers.
        Returns the number of tables reclaimed.
        """
        leaf_tables = [
            frame.pfn
            for frame in self._page_db.frames_with_use(PageUse.PAGE_TABLE)
            if frame.pt_level == 1
        ]
        parents = [
            frame.pfn
            for frame in self._page_db.frames_with_use(PageUse.PAGE_TABLE)
            if frame.pt_level >= 2
        ]
        reclaimed = 0
        # Armed chaos needs the per-entry read path so dram.read fault
        # schedules stay identical; otherwise scan whole tables with one
        # aliasing u64 view each.
        use_views = not self._module.fault_plane_armed
        for pt_pfn in leaf_tables:
            base = pt_pfn << PAGE_SHIFT
            view = self._module.u64_view(base, ENTRIES_PER_TABLE) if use_views else None
            if view is not None:
                if bool((view & np.uint64(1)).any()):
                    continue
            elif any(
                self._module.read_u64(base + slot * 8) & 1 for slot in range(512)
            ):
                continue
            # Only tables attached to a paging tree are reclaimable; a
            # table with no parent reference may be mid-construction.
            parent_refs = []
            for parent_pfn in parents:
                parent_base = parent_pfn << PAGE_SHIFT
                parent_view = (
                    self._module.u64_view(parent_base, ENTRIES_PER_TABLE)
                    if use_views
                    else None
                )
                if parent_view is not None:
                    present_slots = np.nonzero(parent_view & np.uint64(1))[0]
                    for slot in present_slots.tolist():
                        raw = int(parent_view[slot])
                        if PageTableEntry.decode(raw).pfn == pt_pfn:
                            parent_refs.append(parent_base + slot * 8)
                    continue
                for slot in range(512):
                    address = parent_base + slot * 8
                    raw = self._module.read_u64(address)
                    if raw & 1 and PageTableEntry.decode(raw).pfn == pt_pfn:
                        parent_refs.append(address)
            if not parent_refs:
                continue
            for address in parent_refs:
                self._module.write_u64(address, 0)
            self.free_page(pt_pfn)
            reclaimed += 1
        if reclaimed:
            self._tlb.flush()
            self.stats.ptp_reclaims += reclaimed
            obs.inc("kernel.ptp_reclaims", reclaimed)
        return reclaimed

    # -- processes ------------------------------------------------------------
    def create_process(self, trusted: bool = False) -> Process:
        """Spawn a process with an empty PML4."""
        pid = self._next_pid
        self._next_pid += 1
        pml4_pfn = self.pte_alloc_one(pid, table_level=NUM_LEVELS)
        process = Process(pid=pid, cr3=pml4_pfn << PAGE_SHIFT, trusted=trusted)
        self._processes[pid] = process
        return process

    def create_file(self, size_bytes: int) -> MappedFile:
        """Create a shareable file object (for mmap-based spraying)."""
        file = MappedFile(file_id=self._next_file_id, size_bytes=size_bytes)
        self._next_file_id += 1
        self._files[file.file_id] = file
        return file

    def mmap(
        self,
        process: Process,
        length: int,
        writable: bool = True,
        backing: Optional[MappedFile] = None,
        file_page_offset: int = 0,
        address: Optional[int] = None,
    ) -> VmArea:
        """Map ``length`` bytes into ``process``; returns the new VMA."""
        start = address if address is not None else process.reserve_va_range(length)
        vma = VmArea(
            start=start,
            end=start + length,
            writable=writable,
            user=True,
            backing=backing,
            file_page_offset=file_page_offset,
        )
        return process.add_vma(vma)

    def munmap(self, process: Process, vma: VmArea) -> None:
        """Unmap a VMA, clearing PTEs and freeing anonymous frames."""
        for page_index in range(vma.num_pages):
            va = vma.start + page_index * PAGE_SIZE
            leaf = self._leaf_entry_address(process, va)
            if leaf is None:
                continue
            entry = PageTableEntry.decode(self._module.read_u64(leaf))
            if entry.present:
                self._module.write_u64(leaf, PageTableEntry.empty().encode())
                self._tlb.invalidate(process.pid, va >> PAGE_SHIFT)
                if vma.backing is None:
                    self.free_page(entry.pfn)
        process.remove_vma(vma)

    # -- paging --------------------------------------------------------------
    def touch(self, process: Process, virtual_address: int, write: bool = False) -> int:
        """Ensure ``virtual_address`` is mapped; returns the physical address.

        Implements demand paging: a fault on a mapped VMA allocates the
        frame (or reuses the shared file frame) and builds any missing
        page-table levels via :meth:`pte_alloc_one`.
        """
        try:
            return self._mmu.translate(
                process.cr3, virtual_address, pid=process.pid, write=write, user=True
            )
        except PageFaultError:
            pass
        vma = process.find_vma(virtual_address)
        if vma is None:
            raise PageFaultError(
                f"segfault: VA {virtual_address:#x} not mapped", virtual_address
            )
        if write and not vma.writable:
            raise PageFaultError(
                f"write to read-only mapping at {virtual_address:#x}", virtual_address
            )
        self.stats.demand_faults += 1
        obs.inc("kernel.demand_faults")
        # Mirror Linux's fault path: page tables are allocated (pte_alloc)
        # before the data frame itself — the ordering Drammer's memory
        # massaging depends on.
        pt_base, _, _ = self._walk_alloc_tables(process, virtual_address)
        return self._map_and_translate(process, vma, virtual_address, pt_base, write)

    def _map_and_translate(
        self, process: Process, vma: VmArea, virtual_address: int, pt_base: int,
        write: bool,
    ) -> int:
        """The rest of one :meth:`touch` fault once its page tables exist."""
        pfn = self._frame_for(process, vma, virtual_address)
        self._set_leaf(process, pt_base, virtual_address, pfn, vma.writable)
        return self._mmu.translate(
            process.cr3, virtual_address, pid=process.pid, write=write, user=True
        )

    def touch_many(
        self,
        process: Process,
        virtual_addresses: "np.ndarray | List[int]",
        write: bool = False,
        slow_reference: bool = False,
    ) -> List[int]:
        """Batched :meth:`touch`: demand-map an address vector in order.

        Observationally equivalent to calling ``touch`` per address in
        sequence — identical results, buddy allocation order, page-frame
        records, DRAM contents, TLB state, obs totals, and the same
        exception raised at the same access — but the work is done in
        bulk. One TLB probe and one frontier walk classify every access,
        and one ``searchsorted`` finds the VMAs of the faulting ones. Each
        run of faults in one 2 MiB region then builds its page tables once
        (before its first data frame, as Linux does), takes its data
        frames from one :meth:`BuddyAllocator.alloc_pages_many` round,
        stores its new leaves with one vectorized write, and fills the TLB
        from the frames it just mapped instead of re-walking them;
        counters and obs series move once per run. An access the batch
        cannot replay exactly — a fault that raises, a permission fault on
        a present page, a page the batch's own inserts evicted from the
        TLB, page tables that do not form a proper tree — goes through
        :meth:`touch` itself. On :class:`OutOfMemoryError` the physical
        addresses of the completed prefix are attached to the exception as
        ``exc.touched``. Runs the scalar loop when ``slow_reference`` is
        set, the fault plane is armed, sanitizers are enabled (their
        events then come in the scalar order by construction), or fewer
        than :data:`_PLAN_MIN_ACCESSES` accesses remain.
        """
        vas = np.asarray(virtual_addresses, dtype=np.int64)
        results: List[int] = []
        scalar = slow_reference or self._module.fault_plane_armed or sanitize.enabled()
        position = 0
        try:
            while position < vas.size:
                if scalar or vas.size - position < _PLAN_MIN_ACCESSES:
                    for va in vas[position:].tolist():
                        results.append(self.touch(process, va, write=write))
                    break
                position, scalar = self._touch_planned(
                    process, vas, position, write, results
                )
        except OutOfMemoryError as exc:
            exc.touched = results  # type: ignore[attr-defined]
            raise
        return results

    def _touch_planned(
        self, process: Process, vas: np.ndarray, start: int, write: bool,
        results: List[int],
    ) -> Tuple[int, bool]:
        """Touch ``vas[start:]`` as far as one plan reaches.

        Returns the next position to touch and whether the rest must run
        through the scalar loop (the walked tables are not a proper tree).
        """
        plan = self._plan_touches(process, vas[start:], write)
        done = 0
        fault_pos = np.flatnonzero(plan.fault[: plan.stop])
        region = plan.vpns[fault_pos] >> BITS_PER_LEVEL
        runs = np.split(fault_pos, np.flatnonzero(np.diff(region)) + 1)
        for run in runs:
            if run.size == 0:
                continue
            done, replan = self._fault_run(process, plan, run, done, write, results)
            if replan:
                return start + done, False
        self._commit_touches(process, plan, done, plan.stop, results)
        if plan.stop == plan.vas.size or plan.scalar_rest:
            return start + plan.stop, plan.scalar_rest
        results.append(
            self.touch(process, int(plan.vas[plan.stop]), write=write)
        )
        return start + plan.stop + 1, False

    def _plan_touches(
        self, process: Process, vas: np.ndarray, write: bool
    ) -> "_TouchPlan":
        """Classify every access of a batch against the state at its start.

        Each distinct page is a TLB hit, a present page (walked), a
        demand fault on a mapped VMA, or "hard": its first access would
        raise or re-fault a present page, so the plan stops there. Inserts
        beyond the TLB's free slots evict the victims
        :meth:`Tlb.plan_evictions` picks, and the plan stops at the first
        access to an evicted page. It covers nothing when the walked
        tables do not form a tree of genuine page tables (a corrupted
        pointer could then make one access's writes change another's
        walk).
        """
        size = int(vas.size)
        vpns = vas >> PAGE_SHIFT
        uvpns, first, inverse = np.unique(vpns, return_index=True, return_inverse=True)
        found, hit_pfn, frame_w, frame_u = self._tlb.probe_many(process.pid, uvpns)
        frames = hit_pfn << PAGE_SHIFT
        in_range = (uvpns >= 0) & (uvpns < 1 << (48 - PAGE_SHIFT))
        hard = ~in_range
        faulting = np.zeros(uvpns.size, dtype=bool)
        missing = np.flatnonzero(~found & in_range)
        visited: List[Tuple[int, np.ndarray, np.ndarray]] = []
        walked = self._mmu._walk_many(process.cr3, uvpns[missing], visited)
        for k, vpn in zip(missing.tolist(), uvpns[missing].tolist()):
            res = walked[vpn]
            if res[0] == "ok":
                frames[k], frame_w[k], frame_u[k] = res[1], res[2], res[3]
            elif res[0] == "not_present":
                faulting[k] = True
            else:
                hard[k] = True
        resolved = ~faulting & ~hard
        denied = ~frame_u | (~frame_w if write else False)
        hard |= resolved & denied
        vma_of: Dict[int, VmArea] = {}
        fault_u = np.flatnonzero(faulting)
        fault_first = first[fault_u]
        fault_vas = vas[fault_first]
        for k, position, va, vma in zip(
            fault_u.tolist(), fault_first.tolist(), fault_vas.tolist(),
            process.find_vmas(fault_vas),
        ):
            if (
                vma is None
                or (write and not vma.writable)
                or (
                    vma.backing is not None
                    and vma.file_page_for(va) >= vma.backing.num_pages
                )
            ):
                hard[k] = True
            else:
                vma_of[position] = vma
        faulting &= ~hard
        stop = int(first[hard].min()) if hard.any() else size
        inserts = np.sort(first[~found & ~hard])
        budget = self._tlb.capacity - self._tlb.size
        victims: List[int] = []
        if inserts.size > budget and int(inserts[budget]) < stop:
            victims, stop = self._tlb.plan_evictions(
                process.pid, uvpns[found], first[found], inserts[budget:], stop
            )
        scalar_rest = False
        if not self._tables_form_tree(visited):
            stop, scalar_rest = 0, True
        new = np.zeros(size, dtype=bool)
        new[first[~found]] = True
        fault = np.zeros(size, dtype=bool)
        fault[first[faulting]] = True
        return _TouchPlan(
            vas=vas, vpns=vpns, offsets=vas & (PAGE_SIZE - 1), inverse=inverse,
            new=new, fault=fault, frames=frames, frame_w=frame_w,
            frame_u=frame_u, vma_of=vma_of, victims=victims, stop=stop,
            scalar_rest=scalar_rest,
        )

    def _tables_form_tree(
        self, visited: List[Tuple[int, np.ndarray, np.ndarray]]
    ) -> bool:
        """Whether a frontier walk read only genuine tables, as a tree.

        Every table read at level L must be a live page table of level L,
        and distinct table paths must lead to distinct tables. Then fresh
        frames never alias a walked table and each new leaf or parent
        entry is read only by the pages it maps, so a batch's writes
        cannot change the walk of another access in it.
        """
        total = self._module.geometry.total_bytes
        for level, vpn_a, table_a in visited:
            inside = (table_a >= 0) & (table_a + PAGE_SIZE <= total)
            tables = set(table_a[inside].tolist())
            paths = set((vpn_a[inside] >> (BITS_PER_LEVEL * level)).tolist())
            if len(tables) != len(paths):
                return False
            for table in tables:
                frame = self._page_db.lookup(table >> PAGE_SHIFT)
                if (
                    frame is None
                    or frame.use is not PageUse.PAGE_TABLE
                    or frame.pt_level != level
                ):
                    return False
        return True

    def _fault_run(
        self, process: Process, plan: "_TouchPlan", run: np.ndarray, done: int,
        write: bool, results: List[int],
    ) -> Tuple[int, bool]:
        """Demand-map one run of faults in a 2 MiB region.

        Commits every access before the run, builds the region's tables,
        maps the run's frames and commits through its last page. Returns
        the next uncommitted position and whether the plan went stale
        (the table allocation flushed the TLB) or the path denies the
        access; the run's first fault is then finished like :meth:`touch`
        and the caller plans afresh after it.
        """
        head = int(run[0])
        self._commit_touches(process, plan, done, head, results)
        va = int(plan.vas[head])
        flushes = self._tlb.flushes
        try:
            pt_base, path_w, path_u = self._walk_alloc_tables(process, va)
        except ReproError:
            self._count_touches(0, 1, 1)
            raise
        if self._tlb.flushes != flushes or not path_u or (write and not path_w):
            self._count_touches(0, 1, 1)
            results.append(
                self._map_and_translate(process, plan.vma_of[head], va, pt_base, write)
            )
            return head + 1, True
        frames, failure = self._run_frames(process, plan, run)
        mapped = run[: frames.size]
        if mapped.size:
            writable = np.array(
                [plan.vma_of[position].writable for position in mapped.tolist()],
                dtype=bool,
            )
            leaf_index = plan.vpns[mapped] & (ENTRIES_PER_TABLE - 1)
            self._module.write_u64_many(
                pt_base + leaf_index * 8, encode_entries(frames, writable)
            )
            pages = plan.inverse[mapped]
            plan.frames[pages] = frames << PAGE_SHIFT
            plan.frame_w[pages] = writable & path_w
            plan.frame_u[pages] = True
        if failure is not None:
            failed_at = int(run[frames.size])
            self._commit_touches(process, plan, head, failed_at, results)
            self._count_touches(0, 1, 1)
            raise failure
        end = int(run[-1]) + 1
        self._commit_touches(process, plan, head, end, results)
        return end, False

    def _run_frames(
        self, process: Process, plan: "_TouchPlan", run: np.ndarray
    ) -> Tuple[np.ndarray, Optional[OutOfMemoryError]]:
        """Data frames for a run's pages, as :meth:`_frame_for` would pick them.

        Anonymous pages and file pages not yet cached take fresh frames
        from one :meth:`_alloc_user_frames` call; cached file pages reuse
        ``backing.frames``. Returns the frames of the pages served before
        memory ran out, and the error :meth:`touch` would raise at the
        first page that was not served.
        """
        frames = np.zeros(run.size, dtype=np.int64)
        fresh: List[int] = []
        uses: List[PageUse] = []
        file_pages: Dict[int, Tuple[MappedFile, int]] = {}
        first_of: Dict[Tuple[int, int], int] = {}
        sharing: List[Tuple[int, int]] = []
        for k, position in enumerate(run.tolist()):
            vma = plan.vma_of[position]
            if vma.backing is None:
                fresh.append(k)
                uses.append(PageUse.USER_DATA)
                continue
            file_page = vma.file_page_for(int(plan.vas[position]))
            existing = vma.backing.frames.get(file_page)
            if existing is not None:
                frames[k] = existing
                continue
            key = (vma.backing.file_id, file_page)
            if key in first_of:
                sharing.append((k, first_of[key]))
                continue
            first_of[key] = k
            file_pages[k] = (vma.backing, file_page)
            fresh.append(k)
            uses.append(PageUse.FILE_CACHE)
        pfns = self._alloc_user_frames(uses, process.pid, untrusted=not process.trusted)
        for k, pfn in zip(fresh, pfns):
            frames[k] = pfn
            if k in file_pages:
                backing, file_page = file_pages[k]
                backing.frames[file_page] = pfn
        for k, source in sharing:
            frames[k] = frames[source]
        if len(pfns) == len(fresh):
            return frames, None
        failed = fresh[len(pfns)]
        return frames[:failed], self._out_of_memory(
            uses[len(pfns)], self._layout.zonelist_for(GFP_USER, 0)
        )

    def _alloc_user_frames(
        self, uses: List[PageUse], owner_pid: int, untrusted: bool
    ) -> List[int]:
        """:meth:`alloc_page` of one ``GFP_USER`` frame per entry of ``uses``.

        Same frames in the same order, page-frame records, zeroed DRAM,
        stats and obs totals as one ``alloc_page`` call per entry, with
        the zonelist resolved once, each zone's frames taken by
        :meth:`BuddyAllocator.alloc_pages_many` (indicator rejections and
        the frees that follow them included), all frames zeroed in one
        write and obs moved once per series. Returns fewer frames than
        ``uses`` when memory runs out; the caller raises at the first
        unserved entry.
        """
        zonelist = self._layout.zonelist_for(GFP_USER, 0)
        allocators = [self.allocator_for_zone(zone) for zone in zonelist]
        policy = self._cta_policy
        rejections = 0
        accept: Optional[Callable[[int], bool]] = None
        if untrusted and policy is not None and policy.config.restrict_indicator_zeros:

            def accept(pfn: int) -> bool:
                nonlocal rejections
                if policy.address_allowed_for_untrusted(pfn << PAGE_SHIFT):
                    return True
                rejections += 1
                return False

        pfns: List[int] = []
        zone_names: List[str] = []
        carried = 0
        for index, allocator in enumerate(allocators):
            got = allocator.alloc_pages_many(len(uses) - len(pfns), accept)
            short = len(pfns) + len(got) < len(uses)
            # alloc_page walks the zonelist from the top in every round,
            # so each round that reached this zone first failed in every
            # earlier one (the round carried in from the previous zone
            # already has).
            for earlier in allocators[:index]:
                for _ in range(len(got) + short - carried):
                    earlier.alloc_pages_many(1, accept)
            zone_names.extend([zonelist[index].name] * len(got))
            pfns.extend(got)
            if not short:
                break
            carried = 1
        if rejections:
            self.stats.indicator_rejections += rejections
            obs.inc("kernel.indicator_rejections", rejections)
        mark = self._page_db.mark_allocated
        for pfn, use in zip(pfns, uses):
            mark(pfn, use, owner_pid=owner_pid)
        self._module.write_many(np.asarray(pfns, dtype=np.int64) << PAGE_SHIFT, _ZERO_PAGE)
        self.stats.page_allocs += len(pfns)
        for (zone_name, use), count in Counter(zip(zone_names, uses)).items():
            obs.inc("kernel.page_allocs", count, use=use.value, zone=zone_name)
        return pfns

    def _commit_touches(
        self, process: Process, plan: "_TouchPlan", lo: int, hi: int,
        results: List[int],
    ) -> None:
        """Apply the planned accesses ``lo..hi-1``: TLB, counters, results.

        Each first access of a missing page inserts its translation (into
        a free slot or the plan's next victim) and every access re-stamps
        its slot in order; hits, walks and faults are counted as the
        scalar loop counts them.
        """
        if hi <= lo:
            return
        inserted = np.flatnonzero(plan.new[lo:hi]) + lo
        pages = plan.inverse[inserted]
        self._tlb.commit_many(
            process.pid,
            plan.vpns[lo:hi],
            plan.vpns[inserted],
            plan.frames[pages] >> PAGE_SHIFT,
            plan.frame_w[pages],
            plan.frame_u[pages],
            plan.victims,
        )
        faults = int(np.count_nonzero(plan.fault[lo:hi]))
        self._count_touches(hi - lo - inserted.size, inserted.size + faults, faults)
        results.extend(
            (plan.frames[plan.inverse[lo:hi]] | plan.offsets[lo:hi]).tolist()
        )

    def _count_touches(self, hits: int, walks: int, faults: int) -> None:
        """Charge TLB hits, walks (each a TLB miss) and demand faults."""
        tlb = self._tlb
        if hits:
            tlb.hits += hits
            obs.inc("tlb.hits", hits)
        if walks:
            tlb.misses += walks
            obs.inc("tlb.misses", walks)
            self._mmu.walk_count += walks
            obs.inc("mmu.walks", walks)
        if faults:
            obs.inc("mmu.faults", faults, kind="not_present")
            self.stats.demand_faults += faults
            obs.inc("kernel.demand_faults", faults)

    def mmap_touch_many(
        self,
        process: Process,
        length: int,
        writable: bool = True,
        backing: Optional[MappedFile] = None,
        file_page_offset: int = 0,
        address: Optional[int] = None,
        write: bool = False,
    ) -> Tuple[VmArea, List[int]]:
        """Map a region and demand-fault every page in one batched call.

        Equivalent to :meth:`mmap` followed by a scalar :meth:`touch`
        loop over each page; the pages are one :meth:`touch_many` batch,
        so a region of at least :data:`_PLAN_MIN_ACCESSES` pages within
        one 2 MiB region is faulted as one run (one table walk, one
        allocation round, one leaf store, no re-walk). On
        :class:`OutOfMemoryError` the VMA stays mapped (as after a
        partial scalar loop), the completed physical
        addresses ride on ``exc.touched``, and the VMA on ``exc.vma``.
        """
        vma = self.mmap(
            process, length, writable=writable, backing=backing,
            file_page_offset=file_page_offset, address=address,
        )
        vas = vma.start + PAGE_SIZE * np.arange(vma.num_pages, dtype=np.int64)
        try:
            pas = self.touch_many(process, vas, write=write)
        except OutOfMemoryError as exc:
            exc.vma = vma  # type: ignore[attr-defined]
            raise
        return vma, pas

    def _frame_for(self, process: Process, vma: VmArea, virtual_address: int) -> int:
        untrusted = not process.trusted
        if vma.backing is None:
            return self.alloc_page(
                GFP_USER, PageUse.USER_DATA, owner_pid=process.pid, untrusted=untrusted
            )
        file_page = vma.file_page_for(virtual_address)
        if file_page >= vma.backing.num_pages:
            raise PageFaultError(
                f"file mapping past EOF at {virtual_address:#x}", virtual_address
            )
        existing = vma.backing.frames.get(file_page)
        if existing is not None:
            return existing
        pfn = self.alloc_page(
            GFP_USER, PageUse.FILE_CACHE, owner_pid=process.pid, untrusted=untrusted
        )
        vma.backing.frames[file_page] = pfn
        return pfn

    def _set_leaf(
        self, process: Process, pt_base: int, virtual_address: int, pfn: int,
        writable: bool,
    ) -> None:
        indices = split_virtual_address(virtual_address)
        leaf_address = entry_address(pt_base, indices[3])
        entry = PageTableEntry.make(pfn, writable=writable, user=True)
        try:
            self._module.write_u64(leaf_address, entry.encode())
        except AddressError:
            raise PageFaultError(
                f"bus error: page table for VA {virtual_address:#x} lies "
                "outside physical memory",
                virtual_address,
            ) from None
        self._tlb.invalidate(process.pid, virtual_address >> PAGE_SHIFT)

    def _walk_alloc_tables(
        self, process: Process, virtual_address: int
    ) -> Tuple[int, bool, bool]:
        """Descend PML4 -> PT, allocating missing tables.

        Returns the PT base PA and whether every entry on the way is
        writable and user-accessible (the walk of the page's translation
        ANDs these bits with the leaf's). A corrupted intermediate entry
        pointing outside physical memory raises :class:`PageFaultError`
        (machine-check semantics), exactly like the hardware walk in
        :class:`~repro.kernel.mmu.Mmu`.
        """
        indices = split_virtual_address(virtual_address)
        table_pa = process.cr3
        writable = user = True
        for position, table_level in zip(range(3), (3, 2, 1)):
            # The entry at this position points to a table of `table_level`.
            address = entry_address(table_pa, indices[position])
            try:
                entry = PageTableEntry.decode(
                    self._mmu.read_entry(table_pa, indices[position])
                )
            except AddressError:
                raise PageFaultError(
                    f"bus error: corrupted level-{table_level + 1} table for "
                    f"VA {virtual_address:#x}",
                    virtual_address,
                ) from None
            if not entry.present:
                new_pfn = self.pte_alloc_one(process.pid, table_level=table_level)
                entry = PageTableEntry.make(new_pfn, writable=True, user=True)
                self._module.write_u64(address, entry.encode())
            writable = writable and entry.writable
            user = user and entry.user
            table_pa = entry.pfn << PAGE_SHIFT
        return table_pa, writable, user

    def _leaf_entry_address(self, process: Process, virtual_address: int) -> Optional[int]:
        """PA of the last-level PTE for ``virtual_address`` (None if absent).

        Returns None when an intermediate entry is corrupted to point
        outside physical memory (the hardware walk would bus-error).
        """
        indices = split_virtual_address(virtual_address)
        table_pa = process.cr3
        for position in range(3):
            try:
                entry = PageTableEntry.decode(
                    self._mmu.read_entry(table_pa, indices[position])
                )
            except AddressError:
                return None
            if not entry.present:
                return None
            table_pa = entry.pfn << PAGE_SHIFT
        leaf = entry_address(table_pa, indices[3])
        try:
            self._module.geometry.check_address(leaf, 8)
        except AddressError:
            return None
        return leaf

    def leaf_pte_address(self, process: Process, virtual_address: int) -> Optional[int]:
        """Public wrapper: physical address of the last-level PTE, if built."""
        return self._leaf_entry_address(process, virtual_address)

    # -- huge pages (Section 7: multiple page sizes) ---------------------------
    def map_huge_page(
        self, process: Process, virtual_address: int, writable: bool = True
    ) -> int:
        """Map a 2 MiB huge page at a 2 MiB-aligned VA; returns its head pfn.

        Allocates an order-9 data block and installs a PS-bit leaf in the
        PD entry — the Section 7 scenario where a high-level PTE points
        directly at (attacker-writable) user data, so a ``1 -> 0`` flip of
        the PS bit would reinterpret that data as a page table.
        """
        huge_span = PAGE_SIZE << 9
        if virtual_address % huge_span:
            raise ProcessError("huge mappings must be 2 MiB aligned")
        indices = split_virtual_address(virtual_address)
        # Build PML4 -> PDPT only; the PD entry becomes the leaf.
        table_pa = process.cr3
        for position, table_level in zip(range(2), (3, 2)):
            address = entry_address(table_pa, indices[position])
            entry = PageTableEntry.decode(
                self._mmu.read_entry(table_pa, indices[position])
            )
            if not entry.present:
                new_pfn = self.pte_alloc_one(process.pid, table_level=table_level)
                entry = PageTableEntry.make(new_pfn, writable=True, user=True)
                self._module.write_u64(address, entry.encode())
            table_pa = entry.pfn << PAGE_SHIFT
        data_pfn = self.alloc_page(
            GFP_USER, PageUse.USER_DATA, owner_pid=process.pid,
            untrusted=not process.trusted, order=9,
        )
        pd_entry_address = entry_address(table_pa, indices[2])
        leaf = PageTableEntry.make(data_pfn, writable=writable, user=True, huge=True)
        self._module.write_u64(pd_entry_address, leaf.encode())
        process.add_vma(
            VmArea(start=virtual_address, end=virtual_address + huge_span,
                   writable=writable)
        )
        self.stats.huge_mappings += 1
        obs.inc("kernel.huge_mappings")
        return data_pfn

    def pd_entry_address(self, process: Process, virtual_address: int) -> Optional[int]:
        """Physical address of the PD (level-2) entry covering a VA."""
        indices = split_virtual_address(virtual_address)
        table_pa = process.cr3
        for position in range(2):
            try:
                entry = PageTableEntry.decode(
                    self._mmu.read_entry(table_pa, indices[position])
                )
            except AddressError:
                return None
            if not entry.present:
                return None
            table_pa = entry.pfn << PAGE_SHIFT
        return entry_address(table_pa, indices[2])

    # -- user-visible memory access ----------------------------------------------
    def read_virtual(self, process: Process, virtual_address: int, length: int) -> bytes:
        """Read process memory, demand-paging as needed (may span pages)."""
        out = bytearray()
        cursor = 0
        while cursor < length:
            va = virtual_address + cursor
            chunk = min(length - cursor, PAGE_SIZE - (va % PAGE_SIZE))
            pa = self.touch(process, va, write=False)
            out += self._module.read(pa, chunk)
            cursor += chunk
        return bytes(out)

    def write_virtual(self, process: Process, virtual_address: int, data: bytes) -> None:
        """Write process memory, demand-paging as needed (may span pages)."""
        cursor = 0
        while cursor < len(data):
            va = virtual_address + cursor
            chunk = min(len(data) - cursor, PAGE_SIZE - (va % PAGE_SIZE))
            pa = self.touch(process, va, write=True)
            self._module.write(pa, data[cursor : cursor + chunk])
            cursor += chunk

    # -- introspection --------------------------------------------------------
    def page_table_pfns(self, pid: Optional[int] = None) -> List[int]:
        """All page-table frames (optionally of one process)."""
        return [
            frame.pfn
            for frame in self._page_db.frames_with_use(PageUse.PAGE_TABLE)
            if pid is None or frame.owner_pid == pid
        ]

    def is_page_table_pfn(self, pfn: int) -> bool:
        """Whether ``pfn`` currently holds a page table."""
        try:
            return self._page_db.frame(pfn).use is PageUse.PAGE_TABLE
        except Exception:
            return False

    def page_table_bytes(self, pid: Optional[int] = None) -> int:
        """Bytes of physical memory holding page tables."""
        return len(self.page_table_pfns(pid)) * PAGE_SIZE

    def verify_cta_rules(self) -> None:
        """Assert CTA Rules 1/2 over the live system (no-op without CTA).

        Frames in :attr:`downgraded_pt_pfns` are exempt from Rule 1 — they
        were served below the mark deliberately, and are accounted under
        ``kernel.security_downgrades`` instead of raised as violations.
        """
        if self._cta_policy is not None:
            self._cta_policy.check_rules(
                self._page_db, acknowledged_downgrades=self._downgraded_pt_pfns
            )

    def zone_usage(self) -> Dict[str, Tuple[int, int]]:
        """Per-zone (free_pages, total_pages) snapshot."""
        return {
            zone.name: (allocator.free_pages, allocator.total_pages)
            for zone, allocator in self._allocators
        }
