"""Translation lookaside buffer.

A small model of the TLB with explicit flushing. The hammer loop in
RowHammer attacks must flush translations so every access re-reads the
PTE from DRAM (Section 5, step (2)); the perf harness counts hits and
misses to model translation overhead.

Storage is a set of parallel numpy slot arrays (key -> slot dict plus
pid/vpn/pfn/flag/stamp columns) rather than an ``OrderedDict``: recency
is a monotonic access stamp per slot, so LRU eviction is an ``argmin``
over the stamp column and the batched MMU pipeline can probe many VPNs
against the columns in one vectorized pass. The scalar ``lookup`` /
``insert`` / ``flush`` semantics (and their obs counters) are unchanged
from the OrderedDict implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import faults, obs
from repro.errors import ConfigurationError, KernelError

_FLAG_WRITABLE = 1
_FLAG_USER = 2


class Tlb:
    """LRU TLB mapping (pid, virtual page number) -> cached translation."""

    def __init__(self, capacity: int = 1536):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self._capacity = capacity
        self._slot_of: Dict[Tuple[int, int], int] = {}
        self._key_of: List[Optional[Tuple[int, int]]] = [None] * capacity
        # Slots are handed out as the most recently dropped one, else the
        # lowest never used since the last flush (``_fresh``), else LRU.
        self._free: List[int] = []
        self._fresh = 0
        self._pids = np.zeros(capacity, dtype=np.int64)
        self._vpns = np.zeros(capacity, dtype=np.int64)
        self._pfns = np.zeros(capacity, dtype=np.int64)
        self._flag_bits = np.zeros(capacity, dtype=np.uint8)
        # Access stamp per slot; -1 marks an empty slot. Eviction picks the
        # occupied slot with the smallest stamp (exact LRU).
        self._stamps = np.full(capacity, -1, dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum cached translations."""
        return self._capacity

    def lookup(self, pid: int, vpn: int) -> Optional[Tuple[int, bool, bool]]:
        """Cached (pfn, writable, user) for a virtual page, if any."""
        slot = self._slot_of.get((pid, vpn))
        if slot is None:
            self.misses += 1
            obs.inc("tlb.misses")
            return None
        self._clock += 1
        self._stamps[slot] = self._clock
        self.hits += 1
        obs.inc("tlb.hits")
        flag_bits = int(self._flag_bits[slot])
        return (
            int(self._pfns[slot]),
            bool(flag_bits & _FLAG_WRITABLE),
            bool(flag_bits & _FLAG_USER),
        )

    def insert(self, pid: int, vpn: int, pfn: int, writable: bool, user: bool) -> None:
        """Cache a translation, evicting LRU when full."""
        key = (pid, vpn)
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._allocate_slot()
            self._slot_of[key] = slot
            self._key_of[slot] = key
        self._pids[slot] = pid
        self._vpns[slot] = vpn
        self._pfns[slot] = pfn
        self._flag_bits[slot] = (_FLAG_WRITABLE if writable else 0) | (
            _FLAG_USER if user else 0
        )
        self._clock += 1
        self._stamps[slot] = self._clock

    def flush(self) -> None:
        """Drop every cached translation (the attacker's clflush/remap).

        Resets only the occupied slots; slot 0 is handed out next.
        """
        if self._slot_of:
            slots = list(self._slot_of.values())
            key_of = self._key_of
            for slot in slots:
                key_of[slot] = None
            self._stamps[slots] = -1
            self._slot_of.clear()
        self._free.clear()
        self._fresh = 0
        self.flushes += 1
        obs.inc("tlb.flushes", scope="full")

    def flush_pid(self, pid: int) -> None:
        """Drop one address space's translations (context switch)."""
        stale = [key for key in self._slot_of if key[0] == pid]
        for key in stale:
            self._drop(key)
        self.flushes += 1
        obs.inc("tlb.flushes", scope="pid")

    def invalidate(self, pid: int, vpn: int) -> None:
        """Drop a single translation (invlpg).

        An armed ``tlb-stale`` fault suppresses the invalidation, leaving
        a stale translation cached (lost-IPI / missed-shootdown model).
        """
        if faults.get_plane().armed and faults.notify(
            "tlb.invalidate", tlb=self, pid=pid, vpn=vpn
        ):
            return
        if (pid, vpn) in self._slot_of:
            self._drop((pid, vpn))

    # -- batched pipeline support ------------------------------------------
    def probe_many(
        self, pid: int, vpns: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Side-effect-free vectorized probe of many VPNs for one pid.

        Returns ``(found, pfn, writable, user)`` arrays aligned with
        ``vpns``. No counters, stamps, or obs metrics move: the batched
        MMU pipeline replays per-access hit/miss accounting itself in
        access order at commit time.
        """
        vpns = np.asarray(vpns, dtype=np.int64)
        found = np.zeros(vpns.size, dtype=bool)
        pfn = np.zeros(vpns.size, dtype=np.int64)
        writable = np.zeros(vpns.size, dtype=bool)
        user = np.zeros(vpns.size, dtype=bool)
        if vpns.size == 0 or not self._slot_of:
            return found, pfn, writable, user
        slots = np.flatnonzero((self._stamps >= 0) & (self._pids == pid))
        if slots.size == 0:
            return found, pfn, writable, user
        order = np.argsort(self._vpns[slots])
        slots = slots[order]
        cached_vpns = self._vpns[slots]
        pos = np.minimum(
            np.searchsorted(cached_vpns, vpns), cached_vpns.size - 1
        )
        found[:] = cached_vpns[pos] == vpns
        hit_slots = slots[pos]
        pfn[found] = self._pfns[hit_slots[found]]
        flag_bits = self._flag_bits[hit_slots[found]]
        writable[found] = (flag_bits & _FLAG_WRITABLE) != 0
        user[found] = (flag_bits & _FLAG_USER) != 0
        return found, pfn, writable, user

    def plan_evictions(
        self,
        pid: int,
        hit_vpns: np.ndarray,
        hit_first: np.ndarray,
        inserts: np.ndarray,
        stop: int,
    ) -> Tuple[List[int], int]:
        """The slots LRU eviction frees for a batch's overflowing inserts.

        ``inserts`` are the batch positions, in order, of the inserts that
        find the free list empty; ``hit_vpns`` are the pages of ``pid``
        the batch finds cached and ``hit_first`` the position of each
        one's first access. An insert evicts the least recently stamped
        slot that the batch has not already stamped, as the scalar
        ``insert`` would. Returns the victim of each insert before the
        returned stop, which is ``stop`` moved back to the first access
        of an evicted page (the scalar loop misses there) or to the first
        insert that would evict a slot this batch stamped.
        """
        first_access = dict(zip(hit_vpns.tolist(), hit_first.tolist()))
        occupied = np.flatnonzero(self._stamps >= 0)
        victims: List[int] = []
        for slot in occupied[np.argsort(self._stamps[occupied])].tolist():
            if len(victims) == inserts.size or inserts[len(victims)] >= stop:
                return victims, stop
            key = self._key_of[slot]
            accessed = first_access.get(key[1]) if key[0] == pid else None
            if accessed is not None and accessed < inserts[len(victims)]:
                continue  # re-stamped before this insert: no longer LRU
            if accessed is not None:
                stop = min(stop, accessed)
            victims.append(slot)
        if len(victims) < inserts.size:
            stop = min(stop, int(inserts[len(victims)]))
        return victims, stop

    def commit_many(
        self,
        pid: int,
        vpns: np.ndarray,
        new_vpns: np.ndarray,
        new_pfns: np.ndarray,
        new_writable: np.ndarray,
        new_user: np.ndarray,
        victims: Optional[List[int]] = None,
    ) -> None:
        """Apply a batch of accesses in one vectorized pass.

        ``vpns`` is every access in order (hits and first-occurrence
        misses interleaved); ``new_*`` are the distinct translations to
        insert. Slots are taken as :meth:`insert` takes them and, once no
        free slot is left, from the front of ``victims`` (consumed; see
        :meth:`plan_evictions`), whose translations are evicted; without
        ``victims`` the free slots must hold every insert. Every access re-stamps its slot in access
        order, so the final LRU order is identical to a scalar
        lookup/insert loop. Evictions are counted here; hit/miss counters
        and their obs metrics are left to the batched commit.
        """
        vpns = np.asarray(vpns, dtype=np.int64)
        new_vpns = np.asarray(new_vpns, dtype=np.int64)
        if new_vpns.size:
            new_pfns = np.asarray(new_pfns, dtype=np.int64)
            new_writable = np.asarray(new_writable, dtype=bool)
            new_user = np.asarray(new_user, dtype=bool)
            dropped = min(new_vpns.size, len(self._free))
            fresh = min(new_vpns.size - dropped, self._capacity - self._fresh)
            evicted: List[int] = []
            if dropped + fresh < new_vpns.size:
                if victims is None:
                    raise KernelError("batched TLB inserts exceed the free slots")
                evicted = victims[: new_vpns.size - dropped - fresh]
                del victims[: len(evicted)]
                for slot in evicted:
                    del self._slot_of[self._key_of[slot]]
                self.evictions += len(evicted)
                obs.inc("tlb.evictions", len(evicted))
            slots = np.array(
                [self._free.pop() for _ in range(dropped)]
                + list(range(self._fresh, self._fresh + fresh))
                + evicted,
                dtype=np.int64,
            )
            self._fresh += fresh
            self._pids[slots] = pid
            self._vpns[slots] = new_vpns
            self._pfns[slots] = new_pfns
            self._flag_bits[slots] = (
                np.where(new_writable, _FLAG_WRITABLE, 0)
                | np.where(new_user, _FLAG_USER, 0)
            ).astype(np.uint8)
            # Provisional stamp marks the slots occupied; the access pass
            # below overwrites it (every new key is also an access).
            self._stamps[slots] = self._clock
            # tolist() once, then plain-int dict inserts — per-element
            # numpy scalar extraction dominated this loop at large batches.
            slot_of = self._slot_of
            key_of = self._key_of
            for slot, vpn in zip(slots.tolist(), new_vpns.tolist()):
                key = (pid, vpn)
                slot_of[key] = slot
                key_of[slot] = key
        if vpns.size == 0:
            return
        occupied = np.flatnonzero((self._stamps >= 0) & (self._pids == pid))
        order = np.argsort(self._vpns[occupied])
        occupied = occupied[order]
        pos = np.searchsorted(self._vpns[occupied], vpns)
        slot_per_access = occupied[pos]
        # Fancy assignment applies in order: a slot's final stamp is its
        # last access position, matching the scalar loop.
        self._stamps[slot_per_access] = self._clock + 1 + np.arange(
            vpns.size, dtype=np.int64
        )
        self._clock += vpns.size

    # -- internals ----------------------------------------------------------
    def _allocate_slot(self) -> int:
        if self._free:
            return self._free.pop()
        if self._fresh < self._capacity:
            self._fresh += 1
            return self._fresh - 1
        slot = int(np.argmin(self._stamps))
        old_key = self._key_of[slot]
        if old_key is not None:
            del self._slot_of[old_key]
        self.evictions += 1
        obs.inc("tlb.evictions")
        return slot

    def _drop(self, key: Tuple[int, int]) -> None:
        slot = self._slot_of.pop(key)
        self._key_of[slot] = None
        self._stamps[slot] = -1
        self._free.append(slot)

    @property
    def size(self) -> int:
        """Currently cached translations."""
        return len(self._slot_of)

    @property
    def hit_rate(self) -> float:
        """Hits / lookups since construction (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
