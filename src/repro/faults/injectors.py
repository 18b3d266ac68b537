"""Named fault specs and the injector classes that realise them.

Each injector subscribes to one or more of the hook events the sanitizers
already listen on (see :mod:`repro.faults` for the event table), draws its
firing schedule from a dedicated :mod:`repro.rng` stream, and perturbs the
simulator exactly the way real hardware or kernel pressure would:

==================  ========================  ================================
kind                hook event                effect when it fires
==================  ========================  ================================
``ecc-miscorrect``  ``rowhammer.hammer``      burst of extra bit flips in one
                                              64-bit word of a victim row (an
                                              ECC "correction" that made
                                              things worse, Section 2.3)
``refresh-stall``   ``refresh.sweep``         suppresses the sweep; rows stay
                                              overdue past their deadline
``remap-corrupt``   ``rowhammer.hammer``      writes a vendor remap-table
                                              entry bypassing the cell-type
                                              rule (needs a ``remapper``)
``dram-read-error`` ``dram.read``             raises ``TransientFaultError``
                                              aborting the access in flight
``buddy-oom``       ``buddy.prepare_alloc``   raises ``OutOfMemoryError``
                                              before the allocator commits
                                              (optional ``target`` zone-name
                                              prefix)
``tlb-stale``       ``tlb.invalidate``        suppresses the invlpg; the TLB
                                              serves a stale translation
``ptp-exhaust``     ``kernel.page_alloc``     drains every free ZONE_PTP
                                              block into a held list (needs
                                              a ``kernel``)
``worker-crash``    ``service.segment``       raises ``WorkerCrashError``;
                                              the service supervisor treats
                                              the worker as dead, restarts
                                              it and re-enqueues the segment
``worker-hang``     ``service.segment``       raises ``WorkerHangError``;
                                              models a heartbeat/timeout
                                              hang the supervisor must kill
``snapshot-corrupt`` ``service.snapshot_attach`` raises ``SnapshotCorruptError``
                                              for the attaching snapshot key
                                              (optional ``target`` key
                                              prefix); repeated strikes trip
                                              the library's circuit breaker
==================  ========================  ================================

Specs are parseable from compact strings (``kind:key=value,...``), e.g.
``"ecc-miscorrect:p=0.2,max=3,burst=3"`` — the format ``repro chaos``
documents in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    OutOfMemoryError,
    SnapshotCorruptError,
    TransientFaultError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.kernel.page import PageUse
from repro.kernel.zones import ZoneId
from repro.rng import Rng, bernoulli

#: spec-string key aliases -> FaultSpec field.
_SPEC_KEYS: Dict[str, str] = {
    "p": "probability",
    "probability": "probability",
    "max": "max_fires",
    "max_fires": "max_fires",
    "after": "start_after",
    "start_after": "start_after",
    "target": "target",
    "burst": "burst_bits",
    "burst_bits": "burst_bits",
    "name": "name",
}


@dataclass(frozen=True)
class FaultSpec:
    """One named, bounded, probabilistic fault schedule.

    ``probability`` is the per-matched-event firing chance; ``start_after``
    skips the first N matched events; ``max_fires`` caps total firings
    (None = unbounded). ``target`` narrows matching (zone-name prefix for
    ``buddy-oom``); ``burst_bits`` sizes ``ecc-miscorrect`` bursts.
    """

    kind: str
    name: str = ""
    probability: float = 1.0
    max_fires: Optional[int] = None
    start_after: int = 0
    target: str = ""
    burst_bits: int = 3

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            known = ", ".join(sorted(KINDS))
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (known: {known})"
            )
        if not self.name:
            object.__setattr__(self, "name", self.kind)
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability {self.probability} outside [0, 1]"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigurationError(f"max_fires {self.max_fires} must be >= 1")
        if self.start_after < 0:
            raise ConfigurationError(f"start_after {self.start_after} must be >= 0")
        if not 1 <= self.burst_bits <= 64:
            raise ConfigurationError(
                f"burst_bits {self.burst_bits} outside [1, 64]"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a compact ``kind[:key=value[,key=value...]]`` spec string."""
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if not kind:
            raise ConfigurationError(f"empty fault kind in spec {text!r}")
        kwargs: Dict[str, object] = {}
        if rest.strip():
            for item in rest.split(","):
                key, sep, value = item.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key or not value:
                    raise ConfigurationError(
                        f"malformed fault-spec item {item!r} in {text!r}"
                    )
                attr = _SPEC_KEYS.get(key)
                if attr is None:
                    known = ", ".join(sorted(set(_SPEC_KEYS)))
                    raise ConfigurationError(
                        f"unknown fault-spec key {key!r} (known: {known})"
                    )
                try:
                    if attr == "probability":
                        kwargs[attr] = float(value)
                    elif attr in ("max_fires", "start_after", "burst_bits"):
                        kwargs[attr] = int(value)
                    else:
                        kwargs[attr] = value
                except ValueError:
                    raise ConfigurationError(
                        f"fault-spec key {key!r} has non-numeric value {value!r}"
                    ) from None
        return cls(kind=kind, **kwargs)  # type: ignore[arg-type]


class FaultInjector:
    """Base class: schedule bookkeeping shared by every fault kind.

    ``matches`` filters events cheaply (no rng draw on a mismatch);
    ``should_fire`` consumes exactly one Bernoulli draw per matched event
    so schedules stay deterministic regardless of what other injectors do;
    ``fire`` perturbs the system and returns True when the triggering
    operation must be *suppressed* (stalled sweep, swallowed invlpg).
    """

    kind: str = ""
    events: Tuple[str, ...] = ()

    def __init__(
        self,
        spec: FaultSpec,
        rng: Rng,
        kernel: Optional[object] = None,
        remapper: Optional[object] = None,
    ):
        self.spec = spec
        self._rng = rng
        self._kernel = kernel
        self._remapper = remapper
        #: Times this injector actually fired.
        self.fires = 0
        #: Matched events seen (drives ``start_after``).
        self._seen = 0

    def matches(self, event: str, ctx: Mapping[str, object]) -> bool:
        """Whether this event is eligible (cheap; no rng use)."""
        return True

    def exhausted(self) -> bool:
        """Whether ``max_fires`` has been reached."""
        return self.spec.max_fires is not None and self.fires >= self.spec.max_fires

    def should_fire(self) -> bool:
        """Advance the schedule one matched event; True when it fires."""
        self._seen += 1
        if self._seen <= self.spec.start_after or self.exhausted():
            return False
        return bernoulli(self._rng, self.spec.probability)

    @property
    def matches_every_event(self) -> bool:
        """Whether :meth:`matches` ignores its context (no override)."""
        return type(self).matches is FaultInjector.matches

    def draw_window(self, n: int) -> Tuple[int, Optional[Tuple[int, dict]]]:
        """Advance the schedule past its next ``n`` matched events at once.

        Consumes exactly the draws of ``n`` :meth:`should_fire` calls in
        one array draw, but counts no firing. Returns ``(quiet, undo)``:
        the number of leading events at which it does not fire (``n`` when
        none fires), and what :meth:`rewind_window` needs to cut the
        window back (``None`` when nothing was drawn).
        """
        if self.exhausted():
            free = n
        else:
            free = min(n, max(0, self.spec.start_after - self._seen))
        self._seen += n
        if free == n:
            return n, None
        state = self._rng.bit_generator.state
        hits = np.flatnonzero(self._rng.random(n - free) < self.spec.probability)
        quiet = free + int(hits[0]) if hits.size else n
        return quiet, (free, state)

    def rewind_window(self, n: int, m: int, undo: Optional[Tuple[int, dict]]) -> None:
        """Cut a :meth:`draw_window` of ``n`` events back to its first ``m``."""
        self._seen -= n - m
        if undo is not None:
            free, state = undo
            self._rng.bit_generator.state = state
            self._rng.random(max(0, m - free))

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        """Inject the fault; returns True to suppress the operation."""
        raise NotImplementedError


class EccMiscorrectionInjector(FaultInjector):
    """A multi-bit ECC miscorrection burst in a hammered victim row."""

    kind = "ecc-miscorrect"
    events = ("rowhammer.hammer",)

    def matches(self, event: str, ctx: Mapping[str, object]) -> bool:
        outcome = ctx.get("outcome")
        return outcome is not None and bool(getattr(outcome, "victim_rows", ()))

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        module = ctx["module"]
        outcome = ctx["outcome"]
        geometry = module.geometry  # type: ignore[attr-defined]
        rows = [
            int(row)
            for row in outcome.victim_rows  # type: ignore[attr-defined]
            if 0 <= row < geometry.total_rows
        ]
        if not rows:
            return False
        row = rows[int(self._rng.integers(0, len(rows)))]
        row_bytes = int(geometry.row_bytes)
        word_base = row * row_bytes + int(self._rng.integers(0, row_bytes // 8)) * 8
        burst = min(self.spec.burst_bits, 64)
        word_bits = self._rng.choice(64, size=burst, replace=False)
        for word_bit in sorted(int(b) for b in word_bits):
            module.flip_bit(  # type: ignore[attr-defined]
                word_base + word_bit // 8, word_bit % 8
            )
        return False


class RefreshStallInjector(FaultInjector):
    """A stalled refresh sweep: rows sail past their 64 ms deadline."""

    kind = "refresh-stall"
    events = ("refresh.sweep",)

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        return True  # suppress the sweep


class RemapCorruptionInjector(FaultInjector):
    """Corrupts a vendor remap-table entry, ignoring the cell-type rule."""

    kind = "remap-corrupt"
    events = ("rowhammer.hammer",)

    def matches(self, event: str, ctx: Mapping[str, object]) -> bool:
        return self._remapper is not None

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        remapper = self._remapper
        if remapper is None:  # pragma: no cover - matches() guards this
            return False
        total = remapper.total_rows  # type: ignore[attr-defined]
        logical = int(self._rng.integers(0, total))
        physical = int(self._rng.integers(0, total))
        remapper.corrupt_entry(logical, physical)  # type: ignore[attr-defined]
        return False


class DramReadErrorInjector(FaultInjector):
    """A transient read failure: the access aborts with a counted error."""

    kind = "dram-read-error"
    events = ("dram.read",)

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        address = int(ctx.get("address", 0))  # type: ignore[call-overload]
        raise TransientFaultError(
            f"injected transient DRAM read error at PA {address:#x}",
            fault=self.spec.name,
        )


class BuddyOomInjector(FaultInjector):
    """Allocator pressure: the buddy allocation fails before committing."""

    kind = "buddy-oom"
    events = ("buddy.prepare_alloc",)

    def matches(self, event: str, ctx: Mapping[str, object]) -> bool:
        allocator = ctx.get("allocator")
        if allocator is None:
            return False
        target = self.spec.target
        if not target:
            return True
        return str(getattr(allocator, "name", "")).startswith(target)

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        allocator = ctx.get("allocator")
        name = str(getattr(allocator, "name", "")) or "?"
        raise OutOfMemoryError(
            f"injected allocator pressure in zone {name} "
            f"(fault {self.spec.name!r})"
        )


class TlbStalenessInjector(FaultInjector):
    """A swallowed invlpg: the TLB keeps serving a stale translation."""

    kind = "tlb-stale"
    events = ("tlb.invalidate",)

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        return True  # suppress the invalidation


class PtpExhaustionInjector(FaultInjector):
    """Induced ZONE_PTP exhaustion: drains every free PTP block.

    Fires on a page-table allocation of the targeted kernel and grabs all
    remaining free blocks of every PTP sub-zone allocator directly (the
    page-frame database is untouched, so heap invariants stay clean — the
    zone is simply *full*). Held blocks can be released for recovery
    tests via :meth:`release`.
    """

    kind = "ptp-exhaust"
    events = ("kernel.page_alloc",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.held: List[Tuple[object, int]] = []

    def matches(self, event: str, ctx: Mapping[str, object]) -> bool:
        return (
            self._kernel is not None
            and ctx.get("kernel") is self._kernel
            and ctx.get("use") is PageUse.PAGE_TABLE
        )

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        kernel = self._kernel
        if kernel is None:  # pragma: no cover - matches() guards this
            return False
        for zone in kernel.layout.zones:  # type: ignore[attr-defined]
            if zone.zone_id is not ZoneId.PTP:
                continue
            allocator = kernel.allocator_for_zone(zone)  # type: ignore[attr-defined]
            while True:
                try:
                    pfn = allocator.alloc_pages(0)
                except OutOfMemoryError:
                    break
                self.held.append((allocator, pfn))
        return False

    def release(self) -> int:
        """Return every held block to its allocator; counts released blocks."""
        released = 0
        for allocator, pfn in self.held:
            allocator.free_pages_block(pfn)  # type: ignore[attr-defined]
            released += 1
        self.held.clear()
        return released


class WorkerCrashInjector(FaultInjector):
    """A dying campaign worker: the dispatched segment never completes.

    Raised *before* the segment executes, so nothing the lost worker
    would have recorded leaks into the merged campaign state — exactly
    like a real process death whose un-merged registry delta vanishes
    with it. The supervisor classifies the error as retryable, restarts
    the worker and re-enqueues the segment once.
    """

    kind = "worker-crash"
    events = ("service.segment",)

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        index = int(ctx.get("index", -1))  # type: ignore[call-overload]
        raise WorkerCrashError(
            f"injected worker crash dispatching segment {index}",
            fault=self.spec.name,
        )


class WorkerHangInjector(FaultInjector):
    """A hung campaign worker: heartbeats stop, the segment stalls.

    The supervisor's per-segment deadline converts the stall into a
    :class:`WorkerHangError`; handling mirrors a crash (kill + restart +
    re-enqueue) with separate ``reason=hang`` restart accounting.
    """

    kind = "worker-hang"
    events = ("service.segment",)

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        index = int(ctx.get("index", -1))  # type: ignore[call-overload]
        raise WorkerHangError(
            f"injected worker hang on segment {index} (heartbeat deadline)",
            fault=self.spec.name,
        )


class SnapshotCorruptInjector(FaultInjector):
    """A corrupt snapshot-library world that fails to attach.

    ``target`` narrows matching to snapshot keys with that prefix. Each
    firing is one circuit-breaker strike against the key; the library
    quarantines it after repeated strikes and falls back to cold boot.
    """

    kind = "snapshot-corrupt"
    events = ("service.snapshot_attach",)

    def matches(self, event: str, ctx: Mapping[str, object]) -> bool:
        if not self.spec.target:
            return True
        return str(ctx.get("key", "")).startswith(self.spec.target)

    def fire(self, event: str, ctx: Mapping[str, object]) -> bool:
        key = str(ctx.get("key", "?"))
        raise SnapshotCorruptError(
            f"injected snapshot corruption attaching {key!r}", key=key
        )


#: kind string -> injector class (the registry ``FaultSpec`` validates against).
KINDS: Dict[str, Type[FaultInjector]] = {
    cls.kind: cls
    for cls in (
        EccMiscorrectionInjector,
        RefreshStallInjector,
        RemapCorruptionInjector,
        DramReadErrorInjector,
        BuddyOomInjector,
        TlbStalenessInjector,
        PtpExhaustionInjector,
        WorkerCrashInjector,
        WorkerHangInjector,
        SnapshotCorruptInjector,
    )
}


def build_injector(
    spec: FaultSpec,
    rng: Rng,
    kernel: Optional[object] = None,
    remapper: Optional[object] = None,
) -> FaultInjector:
    """Instantiate the injector class for ``spec``, wiring its targets."""
    cls = KINDS.get(spec.kind)
    if cls is None:
        raise FaultInjectionError(f"no injector registered for kind {spec.kind!r}")
    return cls(spec, rng, kernel=kernel, remapper=remapper)
