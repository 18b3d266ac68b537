"""Processes, virtual memory areas, and file mappings.

Only the pieces the attacks and perf harness need: a per-process 4-level
page-table tree rooted at ``cr3``, ``mmap`` of anonymous memory or shared
files, and demand paging (frames and last-level PTEs materialise on first
touch, which is what makes page-table *spraying* work — each densely
touched 2 MiB region costs one page-table page).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ProcessError
from repro.units import PAGE_SHIFT, PAGE_SIZE


@dataclass
class MappedFile:
    """A file whose pages can be mapped into many VMAs simultaneously.

    ``frames`` maps file-page-index -> pfn once a page has been faulted in
    anywhere; later faults on any mapping of the same file reuse the frame.
    This sharing is exactly the spray trick of Figure 3: one small file,
    thousands of virtual mappings, page tables everywhere.
    """

    file_id: int
    size_bytes: int
    frames: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % PAGE_SIZE:
            raise ProcessError("file size must be a positive multiple of PAGE_SIZE")

    @property
    def num_pages(self) -> int:
        """File length in pages."""
        return self.size_bytes // PAGE_SIZE


@dataclass
class VmArea:
    """One contiguous virtual mapping."""

    start: int
    end: int  # exclusive
    writable: bool = True
    user: bool = True
    #: Shared file backing (None = anonymous).
    backing: Optional[MappedFile] = None
    #: Offset into the backing file, in pages.
    file_page_offset: int = 0

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise ProcessError("VMA bounds must be page aligned")
        if self.end <= self.start:
            raise ProcessError(f"empty VMA [{self.start:#x}, {self.end:#x})")

    @property
    def num_pages(self) -> int:
        """Pages spanned."""
        return (self.end - self.start) // PAGE_SIZE

    def contains(self, virtual_address: int) -> bool:
        """Whether the VA falls inside this area."""
        return self.start <= virtual_address < self.end

    def file_page_for(self, virtual_address: int) -> int:
        """Backing-file page index for a VA (file-backed VMAs only)."""
        if self.backing is None:
            raise ProcessError("anonymous VMA has no file pages")
        return self.file_page_offset + ((virtual_address - self.start) >> PAGE_SHIFT)


#: Default base for mmap placement.
MMAP_BASE = 0x0000_2000_0000

#: Model ceiling for user VAs (half the 48-bit canonical space).
USER_VA_LIMIT = 1 << 47


class Process:
    """A user process: an address space plus bookkeeping.

    Page-table construction and faults are handled by the owning
    :class:`~repro.kernel.kernel.Kernel`; the process object only tracks
    VMAs and the CR3 root.
    """

    def __init__(self, pid: int, cr3: int, trusted: bool = False):
        self.pid = pid
        #: Physical address of the PML4 page.
        self.cr3 = cr3
        #: Trusted processes may receive low-indicator-zero pages under the
        #: Section 5 hardening; attackers are untrusted.
        self.trusted = trusted
        # Mappings sorted by start, with their starts alongside for bisect.
        self._vmas: List[VmArea] = []
        self._starts: List[int] = []
        self._mmap_cursor = MMAP_BASE

    @property
    def vmas(self) -> List[VmArea]:
        """Current mappings, ascending by start."""
        return list(self._vmas)

    def find_vma(self, virtual_address: int) -> Optional[VmArea]:
        """The VMA containing ``virtual_address``, if any."""
        index = bisect.bisect_right(self._starts, virtual_address) - 1
        if index >= 0 and virtual_address < self._vmas[index].end:
            return self._vmas[index]
        return None

    def find_vmas(self, virtual_addresses: np.ndarray) -> List[Optional[VmArea]]:
        """:meth:`find_vma` for each address, with one ``searchsorted``."""
        vas = np.asarray(virtual_addresses, dtype=np.int64)
        if not self._vmas:
            return [None] * int(vas.size)
        indices = np.searchsorted(
            np.asarray(self._starts, dtype=np.int64), vas, side="right"
        ) - 1
        vmas = self._vmas
        return [
            vmas[index] if index >= 0 and va < vmas[index].end else None
            for index, va in zip(indices.tolist(), vas.tolist())
        ]

    def add_vma(self, vma: VmArea) -> VmArea:
        """Insert a mapping, rejecting overlaps."""
        index = bisect.bisect_right(self._starts, vma.start)
        for neighbour in self._vmas[max(index - 1, 0) : index + 1]:
            if vma.start < neighbour.end and neighbour.start < vma.end:
                raise ProcessError(
                    f"VMA [{vma.start:#x}, {vma.end:#x}) overlaps "
                    f"[{neighbour.start:#x}, {neighbour.end:#x})"
                )
        self._vmas.insert(index, vma)
        self._starts.insert(index, vma.start)
        return vma

    def remove_vma(self, vma: VmArea) -> None:
        """Drop a mapping (pages are torn down by the kernel)."""
        try:
            index = self._vmas.index(vma)
        except ValueError:
            raise ProcessError("VMA not mapped in this process") from None
        del self._vmas[index]
        del self._starts[index]

    def reserve_va_range(self, length: int) -> int:
        """Pick the next free mmap address for a ``length``-byte mapping."""
        if length <= 0 or length % PAGE_SIZE:
            raise ProcessError("mmap length must be a positive multiple of PAGE_SIZE")
        start = self._mmap_cursor
        if start + length > USER_VA_LIMIT:
            raise ProcessError("out of user virtual address space")
        self._mmap_cursor = start + length
        return start

    @property
    def mapped_bytes(self) -> int:
        """Total bytes currently mapped."""
        return sum(v.end - v.start for v in self._vmas)
