"""Page-frame database (the struct-page analogue).

One :class:`PageFrame` record per physical page tracks allocation state,
what the page is used for, and which process owns it. The CTA policy's
Rule 2 check ("only page-table pages reside in ZONE_PTP") and the attack
harness's ground-truth validation both read this database.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import KernelError
from repro.units import PAGE_SHIFT, PAGE_SIZE


class PageUse(enum.Enum):
    """What an allocated page frame holds."""

    FREE = "free"
    USER_DATA = "user-data"
    KERNEL_DATA = "kernel-data"
    PAGE_TABLE = "page-table"
    FILE_CACHE = "file-cache"
    RESERVED = "reserved"


@dataclass
class PageFrame:
    """State of one physical page frame."""

    pfn: int
    use: PageUse = PageUse.FREE
    owner_pid: Optional[int] = None
    #: Page-table level (1 = last-level PT, 4 = PML4) when use is PAGE_TABLE.
    pt_level: int = 0
    #: Buddy order this frame was allocated at (head frame only).
    order: int = 0

    @property
    def address(self) -> int:
        """First byte address of the frame."""
        return self.pfn << PAGE_SHIFT

    @property
    def is_free(self) -> bool:
        """Whether the frame is unallocated."""
        return self.use is PageUse.FREE


class PageFrameDatabase:
    """Sparse pfn -> :class:`PageFrame` map over physical memory."""

    def __init__(self, total_pages: int):
        if total_pages <= 0:
            raise KernelError("total_pages must be positive")
        self._total_pages = total_pages
        self._frames: Dict[int, PageFrame] = {}

    @property
    def total_pages(self) -> int:
        """Physical page frames in the system."""
        return self._total_pages

    def frame(self, pfn: int) -> PageFrame:
        """The frame record for ``pfn`` (created lazily as FREE)."""
        if not 0 <= pfn < self._total_pages:
            raise KernelError(f"pfn {pfn} outside [0, {self._total_pages})")
        existing = self._frames.get(pfn)
        if existing is None:
            existing = PageFrame(pfn=pfn)
            self._frames[pfn] = existing
        return existing

    def lookup(self, pfn: int) -> Optional[PageFrame]:
        """The frame record for ``pfn`` if one exists (never creates one)."""
        return self._frames.get(pfn)

    def mark_allocated(
        self,
        pfn: int,
        use: PageUse,
        owner_pid: Optional[int] = None,
        pt_level: int = 0,
        order: int = 0,
    ) -> PageFrame:
        """Transition a frame from FREE to an allocated use."""
        record = self.frame(pfn)
        if not record.is_free:
            raise KernelError(f"pfn {pfn} already allocated as {record.use.value}")
        record.use = use
        record.owner_pid = owner_pid
        record.pt_level = pt_level
        record.order = order
        return record

    def mark_free(self, pfn: int) -> None:
        """Return a frame to the FREE state."""
        record = self.frame(pfn)
        if record.is_free:
            raise KernelError(f"double free of pfn {pfn}")
        record.use = PageUse.FREE
        record.owner_pid = None
        record.pt_level = 0
        record.order = 0

    def allocated_frames(self) -> Iterator[PageFrame]:
        """Iterate currently allocated frames."""
        return (f for f in self._frames.values() if not f.is_free)

    def frames_with_use(self, use: PageUse) -> Iterator[PageFrame]:
        """Iterate allocated frames of a given use."""
        return (f for f in self._frames.values() if f.use is use)

    def count_use(self, use: PageUse) -> int:
        """Number of frames currently holding ``use``."""
        return sum(1 for _ in self.frames_with_use(use))

    def bytes_used_by(self, use: PageUse) -> int:
        """Bytes of physical memory holding ``use``."""
        return self.count_use(use) * PAGE_SIZE
