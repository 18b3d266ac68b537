"""Hardware page-table walker.

Walks the 4-level hierarchy *by reading simulated DRAM*, exactly as an
x86-64 MMU would: starting from CR3, each level's entry is an 8-byte load
from physical memory. Consequently a RowHammer flip in a page-table row
changes what this walker returns — the attack's entire mechanism.

The walker deliberately performs **no sanity checks** beyond what hardware
does (present bit, permission bits): a corrupted PFN that happens to point
at another page table is followed without complaint. That is the PTE
self-reference behaviour the paper's defense must make unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs, sanitize
from repro.dram.module import DramModule
from repro.errors import AddressError, PageFaultError, PageTableError
from repro.kernel.pagetable import (
    BITS_PER_LEVEL,
    ENTRIES_PER_TABLE,
    NUM_LEVELS,
    PageTableEntry,
    decode_entries,
    entry_address,
    split_virtual_address,
)
from repro.kernel.tlb import Tlb
from repro.units import PAGE_SHIFT


@dataclass(frozen=True)
class WalkStep:
    """One level of a completed walk: where the entry was and what it said."""

    level: int  # 4 = PML4 ... 1 = PT
    entry_physical_address: int
    entry: PageTableEntry


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a successful translation."""

    physical_address: int
    pfn: int
    steps: Tuple[WalkStep, ...]
    huge_level: int = 0  # 0 = 4 KiB page, 2 = 2 MiB, 3 = 1 GiB

    @property
    def leaf(self) -> WalkStep:
        """The final (leaf) step."""
        return self.steps[-1]


class Mmu:
    """Page-table walker + TLB front-end over one DRAM module."""

    def __init__(self, dram: DramModule, tlb: Optional[Tlb] = None, pt_cache: bool = True):
        self._dram = dram
        self._tlb = tlb or Tlb()
        # Page-table entry cache: table base PA -> aliasing u64 view of the
        # whole table (or None when the table isn't view-addressable). The
        # views share storage with DRAM, so PTE writes and RowHammer flips
        # are visible without invalidation; only forget_row() re-binds
        # arrays, which the generation stamp detects.
        self._pt_cache_enabled = bool(pt_cache)
        self._pt_views: Dict[int, Optional[np.ndarray]] = {}
        self._pt_generation = -1
        #: Count of full walks performed (perf harness signal).
        self.walk_count = 0

    @property
    def tlb(self) -> Tlb:
        """The TLB consulted before walking."""
        return self._tlb

    @property
    def dram(self) -> DramModule:
        """Physical memory the walker reads."""
        return self._dram

    # -- page-table entry cache -------------------------------------------
    @property
    def pt_cache_enabled(self) -> bool:
        """Whether walks index cached table views instead of full reads."""
        return self._pt_cache_enabled

    @pt_cache_enabled.setter
    def pt_cache_enabled(self, enabled: bool) -> None:
        self._pt_cache_enabled = bool(enabled)
        self._pt_views.clear()

    def forget_table(self, table_base: int) -> None:
        """Drop the cached view of the table at physical ``table_base``.

        Called by the kernel when a page-table frame is freed, so a frame
        later reused for data can't serve stale entry views.
        """
        self._pt_views.pop(table_base, None)

    def read_entry(self, table_base: int, index: int) -> int:
        """Raw 64-bit entry ``index`` of the table at ``table_base``.

        Fast path: one cached numpy index per level. Falls back to the
        full :meth:`DramModule.read_u64` path (chunking, fault-plane
        hooks) when the cache is disabled, the fault plane is armed —
        per-read fault schedules must see every access — or the table
        doesn't fit a single aligned row span.
        """
        dram = self._dram
        if not self._pt_cache_enabled or dram.fault_plane_armed:
            return dram.read_u64(entry_address(table_base, index))
        view = self._table_view(table_base)
        if view is None:
            return dram.read_u64(entry_address(table_base, index))
        dram.read_count += 1
        return int(view[index])

    def _table_view(self, table_base: int) -> Optional[np.ndarray]:
        """Cached aliasing u64 view of the whole table, or ``None``."""
        dram = self._dram
        generation = dram.generation
        if generation != self._pt_generation:
            self._pt_views.clear()
            self._pt_generation = generation
        try:
            return self._pt_views[table_base]
        except KeyError:
            view = dram.u64_view(table_base, ENTRIES_PER_TABLE)
            self._pt_views[table_base] = view
            return view

    # -- translation ------------------------------------------------------
    def translate(
        self,
        cr3: int,
        virtual_address: int,
        pid: int = 0,
        write: bool = False,
        user: bool = True,
        use_tlb: bool = True,
    ) -> int:
        """Translate ``virtual_address``; returns the physical address.

        Raises :class:`PageFaultError` on a non-present entry or a
        permission violation (write to read-only, user access to
        supervisor page).
        """
        vpn = virtual_address >> PAGE_SHIFT
        offset = virtual_address & ((1 << PAGE_SHIFT) - 1)
        if use_tlb:
            cached = self._tlb.lookup(pid, vpn)
            if cached is not None:
                pfn, writable, user_ok = cached
                self._check_permissions(virtual_address, writable, user_ok, write, user)
                return (pfn << PAGE_SHIFT) | offset
        result = self.walk(cr3, virtual_address)
        writable = all(step.entry.writable for step in result.steps)
        user_ok = all(step.entry.user for step in result.steps)
        self._check_permissions(virtual_address, writable, user_ok, write, user)
        if use_tlb:
            # Cache the 4 KiB frame actually backing this vpn — for huge
            # pages that is an interior frame of the block, not the leaf's
            # head pfn.
            self._tlb.insert(
                pid, vpn, result.physical_address >> PAGE_SHIFT, writable, user_ok
            )
        sanitize.notify(
            "mmu.translate", mmu=self, pid=pid,
            pfn=result.physical_address >> PAGE_SHIFT, user=user,
        )
        return result.physical_address

    def walk(self, cr3: int, virtual_address: int) -> WalkResult:
        """Perform the 4-level walk, returning every step.

        Honors the PS (huge page) bit at levels 3 and 2, terminating the
        walk early with a 1 GiB / 2 MiB leaf (Section 7's multi-page-size
        discussion).
        """
        self.walk_count += 1
        obs.inc("mmu.walks")
        indices = split_virtual_address(virtual_address)[:NUM_LEVELS]
        offset_bits = PAGE_SHIFT
        table_base = cr3
        steps: List[WalkStep] = []
        for position, level in enumerate(range(NUM_LEVELS, 0, -1)):
            index = indices[position]
            address = entry_address(table_base, index)
            try:
                entry = PageTableEntry.decode(self.read_entry(table_base, index))  # repro-lint: ignore[RL012] — the scalar reference walk decodes per level by contract
            except AddressError:
                # A corrupted upper-level entry pointed outside physical
                # memory; hardware raises a machine check / bus error.
                obs.inc("mmu.faults", kind="bus_error")
                raise PageFaultError(
                    f"bus error: level-{level} table at {table_base:#x} outside "
                    f"physical memory (VA {virtual_address:#x})",
                    virtual_address,
                ) from None
            steps.append(WalkStep(level=level, entry_physical_address=address, entry=entry))
            if not entry.present:
                obs.inc("mmu.faults", kind="not_present")
                raise PageFaultError(
                    f"non-present level-{level} entry for VA {virtual_address:#x}",
                    virtual_address,
                )
            if level in (3, 2) and entry.huge:
                huge_shift = PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)
                huge_offset = virtual_address & ((1 << huge_shift) - 1)
                base = (entry.pfn << PAGE_SHIFT) & ~((1 << huge_shift) - 1)
                return WalkResult(
                    physical_address=base | huge_offset,
                    pfn=entry.pfn,
                    steps=tuple(steps),
                    huge_level=level,
                )
            if level == 1:
                physical = (entry.pfn << PAGE_SHIFT) | (
                    virtual_address & ((1 << offset_bits) - 1)
                )
                return WalkResult(
                    physical_address=physical, pfn=entry.pfn, steps=tuple(steps)
                )
            table_base = entry.pfn << PAGE_SHIFT
        raise PageTableError(
            f"walk for VA {virtual_address:#x} descended past level 1 without "
            "reaching a leaf"
        )

    # -- batched translation ----------------------------------------------
    def translate_many(
        self,
        cr3: int,
        virtual_addresses: "np.ndarray | List[int]",
        pid: int = 0,
        write: bool = False,
        user: bool = True,
        use_tlb: bool = True,
        slow_reference: bool = False,
    ) -> np.ndarray:
        """Translate an address vector; returns int64 physical addresses.

        Observationally equivalent to calling :meth:`translate` per
        address in order — same results, TLB hit/miss/eviction state, obs
        counters, and the same fault raised at the same access — but after
        the single TLB-probe pass every missing VPN advances through the
        radix tree as one numpy frontier per level (:meth:`_walk_many`):
        shared interior nodes are deduplicated and each level is gathered
        with one batched DRAM read, so a thousand-page miss storm costs
        four gathers, not four thousand entry reads. Automatically
        degrades to the scalar loop when ``slow_reference`` is set or the
        fault plane is armed, so per-access fault schedules
        (``tlb-stale``, ``dram-read-error``) replay exactly as in a
        scalar run. The frontier-only instrumentation
        (``mmu.walk.frontier_batches``, ``mmu.walk.levels``,
        ``dram.resident_rows``) is outside that equivalence contract.

        Stores in the same batch must not modify page tables consulted by
        later addresses (data pages only); the batched walk reads tables
        once up front.
        """
        vas = np.asarray(virtual_addresses, dtype=np.int64)
        if slow_reference or self._dram.fault_plane_armed:
            return np.array(
                [
                    self.translate(
                        cr3, int(va), pid=pid, write=write, user=user, use_tlb=use_tlb
                    )
                    for va in vas
                ],
                dtype=np.int64,
            )
        n = int(vas.size)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        vpns = vas >> PAGE_SHIFT
        offsets = vas & ((1 << PAGE_SHIFT) - 1)
        tlb = self._tlb
        if use_tlb:
            found, hit_pfns, hit_w, hit_u = tlb.probe_many(pid, vpns)
            need = np.unique(vpns[~found])
        else:
            found = np.zeros(n, dtype=bool)
            hit_pfns = np.zeros(n, dtype=np.int64)
            hit_w = np.zeros(n, dtype=bool)
            hit_u = np.zeros(n, dtype=bool)
            need = np.unique(vpns)
        walked = self._walk_many(cr3, need)
        # Distinct-page walk outcomes, aligned with the sorted `need`.
        ok_arr = np.zeros(need.size, dtype=bool)
        frame_arr = np.zeros(need.size, dtype=np.int64)
        w_arr = np.zeros(need.size, dtype=bool)
        u_arr = np.zeros(need.size, dtype=bool)
        all_ok = True
        for k in range(need.size):
            res = walked[int(need[k])]
            if res[0] == "ok":
                ok_arr[k] = True
                frame_arr[k] = res[1]
                w_arr[k] = res[2]
                u_arr[k] = res[3]
            else:
                all_ok = False
        fast = all_ok
        if fast and use_tlb and tlb.size + need.size > tlb.capacity:
            fast = False  # evictions possible: replay access order exactly
        if fast:
            miss_pos = np.searchsorted(need, vpns[~found])
            if write and not (
                bool(w_arr[miss_pos].all()) and bool(hit_w[found].all())
            ):
                fast = False
            if user and not (
                bool(u_arr[miss_pos].all()) and bool(hit_u[found].all())
            ):
                fast = False
        if fast:
            return self._commit_fast(
                pid, vpns, offsets, found, hit_pfns, need, frame_arr, w_arr, u_arr,
                use_tlb, user,
            )
        return self._commit_ordered(
            cr3, vas, vpns, offsets, walked, pid, write, user, use_tlb
        )

    def _commit_fast(
        self,
        pid: int,
        vpns: np.ndarray,
        offsets: np.ndarray,
        found: np.ndarray,
        hit_pfns: np.ndarray,
        need: np.ndarray,
        frame_arr: np.ndarray,
        w_arr: np.ndarray,
        u_arr: np.ndarray,
        use_tlb: bool,
        user: bool,
    ) -> np.ndarray:
        """Vectorized commit for a fault-free, eviction-free batch."""
        n = int(vpns.size)
        frames = np.empty(n, dtype=np.int64)
        if use_tlb:
            frames[found] = hit_pfns[found] << PAGE_SHIFT
        miss_mask = ~found
        miss_pos = np.searchsorted(need, vpns[miss_mask])
        frames[miss_mask] = frame_arr[miss_pos]
        physical = frames | offsets
        miss_indices = np.flatnonzero(miss_mask)
        if use_tlb:
            # First access of each distinct missing vpn is the true miss
            # (walk + insert); later accesses of it hit the fresh entry.
            _, first_of = np.unique(vpns[miss_indices], return_index=True)
            true_miss = miss_indices[np.sort(first_of)]
            walks = int(true_miss.size)
            hits = n - walks
            tlb = self._tlb
            if hits:
                tlb.hits += hits
                obs.inc("tlb.hits", amount=float(hits))
            if walks:
                tlb.misses += walks
                obs.inc("tlb.misses", amount=float(walks))
            need_pos = np.searchsorted(need, vpns[true_miss])
            tlb.commit_many(
                pid,
                vpns,
                vpns[true_miss],
                frame_arr[need_pos] >> PAGE_SHIFT,
                w_arr[need_pos],
                u_arr[need_pos],
            )
            notify_frames = frames[true_miss]
        else:
            walks = n
            notify_frames = frames
        if walks:
            self.walk_count += walks
            obs.inc("mmu.walks", amount=float(walks))
        if sanitize.enabled():
            for frame in notify_frames:
                sanitize.notify(
                    "mmu.translate", mmu=self, pid=pid,
                    pfn=int(frame) >> PAGE_SHIFT, user=user,
                )
        return physical

    def _commit_ordered(
        self,
        cr3: int,
        vas: np.ndarray,
        vpns: np.ndarray,
        offsets: np.ndarray,
        walked: Dict[int, tuple],
        pid: int,
        write: bool,
        user: bool,
        use_tlb: bool,
    ) -> np.ndarray:
        """Per-access commit with pre-walked results (faults, permission
        violations, or possible evictions): replays the exact scalar
        counter/TLB/raise sequence."""
        n = int(vas.size)
        physical = np.empty(n, dtype=np.int64)
        tlb = self._tlb
        for i in range(n):
            va = int(vas[i])
            vpn = int(vpns[i])
            offset = int(offsets[i])
            if use_tlb:
                cached = tlb.lookup(pid, vpn)
                if cached is not None:
                    pfn, writable, user_ok = cached
                    self._check_permissions(va, writable, user_ok, write, user)
                    physical[i] = (pfn << PAGE_SHIFT) | offset
                    continue
            res = walked.get(vpn)
            if res is None:
                # Evicted mid-batch and re-missed: walk now (walk() does
                # its own walk/obs accounting).
                result = self.walk(cr3, va)
                writable = all(step.entry.writable for step in result.steps)
                user_ok = all(step.entry.user for step in result.steps)
                self._check_permissions(va, writable, user_ok, write, user)
                if use_tlb:
                    tlb.insert(
                        pid, vpn, result.physical_address >> PAGE_SHIFT,
                        writable, user_ok,
                    )
                sanitize.notify(
                    "mmu.translate", mmu=self, pid=pid,
                    pfn=result.physical_address >> PAGE_SHIFT, user=user,
                )
                physical[i] = result.physical_address
                continue
            self.walk_count += 1
            obs.inc("mmu.walks")
            if res[0] == "not_present":
                obs.inc("mmu.faults", kind="not_present")
                raise PageFaultError(
                    f"non-present level-{res[1]} entry for VA {va:#x}", va
                )
            if res[0] == "bus_error":
                obs.inc("mmu.faults", kind="bus_error")
                raise PageFaultError(
                    f"bus error: level-{res[1]} table at {res[2]:#x} outside "
                    f"physical memory (VA {va:#x})",
                    va,
                ) from None
            _, frame_pa, writable, user_ok = res
            self._check_permissions(va, writable, user_ok, write, user)
            if use_tlb:
                tlb.insert(pid, vpn, frame_pa >> PAGE_SHIFT, writable, user_ok)
            sanitize.notify(
                "mmu.translate", mmu=self, pid=pid,
                pfn=frame_pa >> PAGE_SHIFT, user=user,
            )
            physical[i] = frame_pa | offset
        return physical

    def _walk_many(
        self,
        cr3: int,
        vpns: np.ndarray,
        visited: Optional[List[Tuple[int, np.ndarray, np.ndarray]]] = None,
    ) -> Dict[int, tuple]:
        """Walk each distinct VPN once as a level-at-a-time numpy frontier.

        Every missing VPN advances through the radix tree together: per
        level the frontier's entry addresses are deduplicated (an interior
        node shared by many VPNs is read exactly once no matter how wide
        the fan-in), gathered with one batched
        :meth:`~repro.dram.module.DramModule.read_u64_many`, decoded with
        the vectorized :func:`~repro.kernel.pagetable.decode_entries`
        batch decoder, and terminal outcomes scattered back per VPN.

        Returns a map ``vpn -> ("ok", frame_pa, writable, user_ok)`` or
        ``("not_present", level)`` or ``("bus_error", level, table_base)``.
        No walk/fault counters or obs metrics of the equivalence contract
        move here: the commit loops charge walks and faults per access,
        exactly as scalar walks would. The walker's own instrumentation —
        ``mmu.walk.frontier_batches``, ``mmu.walk.levels`` and the
        ``dram.resident_rows`` gauge — is documented as outside that
        contract (it only exists on the frontier path).

        When ``visited`` is a list, each level appends ``(level, vpns,
        table_bases)``: the frontier's VPNs and the base of the table each
        one reads at that level (the kernel's batched fault path checks
        that these tables form a proper tree before trusting the walk).
        """
        dram = self._dram
        total_bytes = dram.geometry.total_bytes
        results: Dict[int, tuple] = {}
        vpn_a = np.asarray(vpns, dtype=np.int64)
        if vpn_a.size == 0:
            return results
        obs.inc("mmu.walk.frontier_batches")
        table_a = np.full(vpn_a.size, int(cr3), dtype=np.int64)
        w_a = np.ones(vpn_a.size, dtype=bool)
        u_a = np.ones(vpn_a.size, dtype=bool)
        levels_walked = 0
        for position, level in enumerate(range(NUM_LEVELS, 0, -1)):
            if vpn_a.size == 0:
                break
            levels_walked += 1
            if visited is not None:
                visited.append((level, vpn_a, table_a))
            shift = BITS_PER_LEVEL * (NUM_LEVELS - 1 - position)
            idx = (vpn_a >> shift) & (ENTRIES_PER_TABLE - 1)
            addrs = table_a + idx * 8
            bad = (table_a < 0) | (addrs < 0) | (addrs + 8 > total_bytes)
            entries = np.zeros(vpn_a.size, dtype=np.uint64)
            readable = ~bad
            if readable.any():
                # Dedup shared interior nodes across the whole frontier,
                # then one batched DRAM gather over the distinct entries.
                uniq_addrs, inverse = np.unique(
                    addrs[readable], return_inverse=True
                )
                entries[readable] = dram.read_u64_many(uniq_addrs)[inverse]
            present, w_bit, u_bit, huge_bit, pfn = decode_entries(entries)
            present &= readable
            if bad.any():
                for vpn, base in zip(vpn_a[bad].tolist(), table_a[bad].tolist()):
                    results[vpn] = ("bus_error", level, base)
            absent = ~present & readable
            if absent.any():
                for vpn in vpn_a[absent].tolist():
                    results[vpn] = ("not_present", level)
            w_a = w_a & w_bit
            u_a = u_a & u_bit
            if level in (3, 2):
                huge = present & huge_bit
                if huge.any():
                    huge_shift = PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)
                    mask = (1 << huge_shift) - 1
                    base_pa = (pfn[huge] << PAGE_SHIFT) & ~mask
                    frame_pa = base_pa | ((vpn_a[huge] << PAGE_SHIFT) & mask)
                    for vpn, frame, w, u in zip(
                        vpn_a[huge].tolist(), frame_pa.tolist(),
                        w_a[huge].tolist(), u_a[huge].tolist(),
                    ):
                        results[vpn] = ("ok", frame, w, u)
                cont = present & ~huge
            elif level == 1:
                if present.any():
                    frame_pa = pfn[present] << PAGE_SHIFT
                    for vpn, frame, w, u in zip(
                        vpn_a[present].tolist(), frame_pa.tolist(),
                        w_a[present].tolist(), u_a[present].tolist(),
                    ):
                        results[vpn] = ("ok", frame, w, u)
                cont = np.zeros(vpn_a.size, dtype=bool)
            else:
                cont = present
            vpn_a = vpn_a[cont]
            table_a = pfn[cont] << PAGE_SHIFT
            w_a = w_a[cont]
            u_a = u_a[cont]
        obs.inc("mmu.walk.levels", amount=float(levels_walked))
        obs.set_gauge("dram.resident_rows", float(dram.resident_rows))
        return results

    # -- memory access through translation ----------------------------------
    def load(
        self, cr3: int, virtual_address: int, length: int, pid: int = 0, user: bool = True
    ) -> bytes:
        """Read virtual memory (single-page spans only)."""
        physical = self.translate(cr3, virtual_address, pid=pid, write=False, user=user)
        try:
            return self._dram.read(physical, length)
        except AddressError:
            raise PageFaultError(
                f"bus error reading PA {physical:#x}", virtual_address
            ) from None

    def store(
        self, cr3: int, virtual_address: int, data: bytes, pid: int = 0, user: bool = True
    ) -> None:
        """Write virtual memory (single-page spans only)."""
        physical = self.translate(cr3, virtual_address, pid=pid, write=True, user=user)
        try:
            self._dram.write(physical, data)
        except AddressError:
            raise PageFaultError(
                f"bus error writing PA {physical:#x}", virtual_address
            ) from None

    def load_many(
        self,
        cr3: int,
        virtual_addresses: "np.ndarray | List[int]",
        length: int,
        pid: int = 0,
        user: bool = True,
        slow_reference: bool = False,
    ) -> List[bytes]:
        """Batched :meth:`load`: one translation pass, then row reads.

        Equivalent to a per-address ``load`` loop (same results, counters,
        and faults); degrades to the scalar loop when ``slow_reference``
        is set or the fault plane is armed.
        """
        vas = np.asarray(virtual_addresses, dtype=np.int64)
        if slow_reference or self._dram.fault_plane_armed:
            return [
                self.load(cr3, int(va), length, pid=pid, user=user) for va in vas
            ]
        physical = self.translate_many(cr3, vas, pid=pid, write=False, user=user)
        try:
            return self._dram.read_many(physical, length)
        except AddressError:
            # read_many's scalar fallback raised at the first out-of-range
            # element (after counting the prior reads, like a scalar loop);
            # re-identify it to name the faulting virtual address.
            total = self._dram.geometry.total_bytes
            bad = int(
                np.flatnonzero((physical < 0) | (physical + length > total))[0]
            )
            raise PageFaultError(
                f"bus error reading PA {int(physical[bad]):#x}", int(vas[bad])
            ) from None

    def store_many(
        self,
        cr3: int,
        virtual_addresses: "np.ndarray | List[int]",
        data: "List[bytes] | bytes",
        pid: int = 0,
        user: bool = True,
        slow_reference: bool = False,
    ) -> None:
        """Batched :meth:`store`: one translation pass, then row writes.

        ``data`` is either one payload per address or a single payload
        written at every address. The batch must target data pages only —
        a store that rewrites a page table consulted by a *later* address
        in the same batch would diverge from the scalar loop, which
        re-walks after every store. Degrades to the scalar loop when
        ``slow_reference`` is set or the fault plane is armed.
        """
        vas = np.asarray(virtual_addresses, dtype=np.int64)
        payloads: List[bytes]
        if isinstance(data, (bytes, bytearray)):
            payloads = [bytes(data)] * int(vas.size)
        else:
            payloads = list(data)
        if slow_reference or self._dram.fault_plane_armed:
            for i in range(int(vas.size)):
                self.store(cr3, int(vas[i]), payloads[i], pid=pid, user=user)
            return
        physical = self.translate_many(cr3, vas, pid=pid, write=True, user=user)
        for i in range(int(vas.size)):
            try:
                self._dram.write(int(physical[i]), payloads[i])
            except AddressError:
                raise PageFaultError(
                    f"bus error writing PA {int(physical[i]):#x}", int(vas[i])
                ) from None

    @staticmethod
    def _check_permissions(
        virtual_address: int, writable: bool, user_ok: bool, write: bool, user: bool
    ) -> None:
        if write and not writable:
            obs.inc("mmu.faults", kind="write_protect")
            raise PageFaultError(
                f"write to read-only VA {virtual_address:#x}", virtual_address
            )
        if user and not user_ok:
            obs.inc("mmu.faults", kind="privilege")
            raise PageFaultError(
                f"user access to supervisor VA {virtual_address:#x}", virtual_address
            )
