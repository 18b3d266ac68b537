"""x86-64 4-level page-table entry encoding.

PTEs live *in simulated DRAM* (written through the
:class:`~repro.dram.module.DramModule`), so RowHammer flips applied to
page-table rows corrupt real translations — the property the whole paper
is about. This module defines the bit layout; the walk logic lives in
:mod:`repro.kernel.mmu`.

Layout (Intel SDM [14]):

====  ==========================================
bit   meaning
====  ==========================================
0     P — present
1     RW — writable
2     US — user accessible
7     PS — page size (huge page) at levels 2/3
12..  physical frame number (PFN)
63    NX — no-execute
====  ==========================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import PageTableError
from repro.units import PAGE_SHIFT

#: Number of paging levels (PML4 = level 4 ... PT = level 1).
NUM_LEVELS = 4

#: Entries per 4 KiB table.
ENTRIES_PER_TABLE = 512

#: Bits of virtual address consumed per level.
BITS_PER_LEVEL = 9

#: Highest bit of the PFN field (bit 51 is the architectural limit).
PFN_HIGH_BIT = 51

_PFN_MASK = ((1 << (PFN_HIGH_BIT + 1)) - 1) & ~((1 << PAGE_SHIFT) - 1)


class PteFlags(enum.IntFlag):
    """PTE control bits (subset the model uses)."""

    NONE = 0
    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    PAGE_SIZE = 1 << 7
    NX = 1 << 63


@dataclass(frozen=True)
class PageTableEntry:
    """Decoded PTE: a frame pointer plus control flags."""

    pfn: int
    flags: PteFlags

    def __post_init__(self) -> None:
        if self.pfn < 0 or (self.pfn << PAGE_SHIFT) & ~_PFN_MASK & ((1 << 52) - 1):
            raise PageTableError(f"pfn {self.pfn:#x} does not fit the PTE frame field")

    # -- raw conversion ----------------------------------------------------
    def encode(self) -> int:
        """Pack into the raw 64-bit on-DRAM representation."""
        return ((self.pfn << PAGE_SHIFT) & _PFN_MASK) | int(self.flags)

    @classmethod
    def decode(cls, raw: int) -> "PageTableEntry":
        """Unpack a raw 64-bit word read from DRAM.

        Decoding never fails: a corrupted word still decodes to *some*
        (pfn, flags) pair, exactly as hardware would interpret it.
        Entries are frozen, so decoded values are shared through an LRU
        cache — a 4-level walk over warm tables costs four dict hits, not
        four dataclass constructions.
        """
        if not 0 <= raw < 2**64:
            raise PageTableError(f"raw PTE {raw:#x} outside 64 bits")
        return _decode_cached(raw)

    # -- convenience --------------------------------------------------------
    # Flag tests use `.real` (plain-int view of the IntFlag) with int
    # masks: enum `&` constructs a new flag instance per call, an order
    # of magnitude slower on the walk hot path.
    @property
    def present(self) -> bool:
        """P bit."""
        return bool(self.flags.real & 0x1)

    @property
    def writable(self) -> bool:
        """RW bit."""
        return bool(self.flags.real & 0x2)

    @property
    def user(self) -> bool:
        """US bit."""
        return bool(self.flags.real & 0x4)

    @property
    def huge(self) -> bool:
        """PS bit (meaningful at levels 2 and 3 only)."""
        return bool(self.flags.real & 0x80)

    @classmethod
    def make(
        cls, pfn: int, present: bool = True, writable: bool = True,
        user: bool = False, huge: bool = False,
    ) -> "PageTableEntry":
        """Build an entry from keyword flags."""
        flags = PteFlags.NONE
        if present:
            flags |= PteFlags.PRESENT
        if writable:
            flags |= PteFlags.WRITABLE
        if user:
            flags |= PteFlags.USER
        if huge:
            flags |= PteFlags.PAGE_SIZE
        return cls(pfn=pfn, flags=flags)

    @classmethod
    def empty(cls) -> "PageTableEntry":
        """A non-present zero entry."""
        return cls(pfn=0, flags=PteFlags.NONE)


#: Bit masks of the fields :func:`decode_entries` extracts, as u64 scalars
#: (kept module-level so the frontier walker pays no per-call conversions).
_PRESENT_U64 = np.uint64(int(PteFlags.PRESENT))
_WRITABLE_U64 = np.uint64(int(PteFlags.WRITABLE))
_USER_U64 = np.uint64(int(PteFlags.USER))
_PAGE_SIZE_U64 = np.uint64(int(PteFlags.PAGE_SIZE))
_PFN_MASK_U64 = np.uint64(_PFN_MASK)
_PAGE_SHIFT_U64 = np.uint64(PAGE_SHIFT)


def decode_entries(
    raw: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`PageTableEntry.decode` over a raw u64 word vector.

    Returns ``(present, writable, user, huge, pfn)`` arrays aligned with
    ``raw`` — four boolean masks plus an int64 frame-number array — with
    the exact bit semantics of the scalar decode: decoding never fails,
    a corrupted word still yields *some* (pfn, flags) interpretation,
    exactly as hardware would follow it. This is the frontier walker's
    per-level decoder: one numpy pass per field instead of one dataclass
    construction (or LRU hit) per entry.
    """
    words = np.asarray(raw, dtype=np.uint64)
    present = (words & _PRESENT_U64) != 0
    writable = (words & _WRITABLE_U64) != 0
    user = (words & _USER_U64) != 0
    huge = (words & _PAGE_SIZE_U64) != 0
    pfn = ((words & _PFN_MASK_U64) >> _PAGE_SHIFT_U64).astype(np.int64)
    return present, writable, user, huge, pfn


def encode_entries(pfn: np.ndarray, writable: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`PageTableEntry.make` + ``encode`` for user leaves.

    Returns the raw u64 words of present, user-accessible entries
    pointing at ``pfn``, each writable where ``writable`` is set.
    """
    flags = np.where(
        np.asarray(writable, dtype=bool),
        np.uint64(int(PteFlags.PRESENT | PteFlags.WRITABLE | PteFlags.USER)),
        np.uint64(int(PteFlags.PRESENT | PteFlags.USER)),
    )
    frames = np.asarray(pfn, dtype=np.int64).astype(np.uint64) << _PAGE_SHIFT_U64
    return (frames & _PFN_MASK_U64) | flags


@lru_cache(maxsize=65536)
def _decode_cached(raw: int) -> PageTableEntry:
    pfn = (raw & _PFN_MASK) >> PAGE_SHIFT
    flags = PteFlags(raw & ~_PFN_MASK)
    return PageTableEntry(pfn=pfn, flags=flags)


def split_virtual_address(virtual_address: int) -> Tuple[int, int, int, int, int]:
    """Split a canonical VA into (pml4, pdpt, pd, pt, offset) indices."""
    if not 0 <= virtual_address < 2**48:
        raise PageTableError(
            f"virtual address {virtual_address:#x} outside the 48-bit model range"
        )
    offset = virtual_address & ((1 << PAGE_SHIFT) - 1)
    indices = []
    for level in range(NUM_LEVELS, 0, -1):
        shift = PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)
        indices.append((virtual_address >> shift) & (ENTRIES_PER_TABLE - 1))
    pml4, pdpt, pd, pt = indices
    return pml4, pdpt, pd, pt, offset


def join_virtual_address(pml4: int, pdpt: int, pd: int, pt: int, offset: int = 0) -> int:
    """Inverse of :func:`split_virtual_address`."""
    for index in (pml4, pdpt, pd, pt):
        if not 0 <= index < ENTRIES_PER_TABLE:
            raise PageTableError(f"table index {index} outside [0, {ENTRIES_PER_TABLE})")
    if not 0 <= offset < (1 << PAGE_SHIFT):
        raise PageTableError(f"offset {offset:#x} outside a page")
    value = offset
    for level, index in zip(range(NUM_LEVELS, 0, -1), (pml4, pdpt, pd, pt)):
        shift = PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)
        value |= index << shift
    return value


def entry_address(table_base_pa: int, index: int) -> int:
    """Physical address of entry ``index`` within the table at ``table_base_pa``."""
    if not 0 <= index < ENTRIES_PER_TABLE:
        raise PageTableError(f"table index {index} outside [0, {ENTRIES_PER_TABLE})")
    return table_base_pa + index * 8
