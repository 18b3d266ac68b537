"""The memoization runtime: fault-plane policy, lookup/store, verify.

:class:`SegmentMemo` is the object the campaign engine, its pool
workers, and the service supervisor share. It owns three decisions:

- **whether a segment is cacheable at all** — via
  :func:`ambient_fault_digest`: an ambient fault plane whose injectors
  can perturb segment-internal execution makes results depend on global
  dispatch order, which no per-segment key can capture, so the memo
  bypasses (computes without consulting or populating) rather than
  cache a lie. Service-dispatch-level injectors (worker crash/hang,
  snapshot corruption) never reach segment internals and are keyed by
  their full seeded schedule instead;
- **byte-identity on the hit path** — stored values are the canonical
  JSON of the whole segment outcome (record, exported obs state, hence
  traces and checkpoint content), and the miss path round-trips its
  freshly computed outcome through the same serialization, so hit and
  miss are indistinguishable downstream;
- **integrity sampling** — ``verify_fraction`` of hits (chosen
  deterministically from the key digest, never from ambient entropy)
  are recomputed and byte-compared; divergence raises
  :class:`~repro.errors.MemoIntegrityError`.

Metric discipline: ``memo.*`` metrics are recorded in the *consulting*
process's default registry — never inside the isolated registries whose
exported state gets cached — so cached outcomes, reports, and
checkpoints carry no memo metrics and stay byte-comparable against
uncached runs.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro import faults, obs
from repro.errors import MemoIntegrityError
from repro.perf.memo.key import (
    SegmentKey,
    campaign_key,
    canonical_json,
    digest_of,
    payload_key,
)
from repro.perf.memo.store import (
    DEFAULT_MEMORY_BUDGET,
    DiskMemoStore,
    InMemoryMemoStore,
    TieredMemoStore,
)

__all__ = [
    "SAFE_AMBIENT_EVENTS",
    "ambient_fault_digest",
    "SegmentMemo",
    "build_memo",
]

#: Fault-plane events that fire at service *dispatch* level, outside any
#: segment computation: they change which worker runs a segment and how
#: often, never what the segment computes. Ambient injectors subscribed
#: only to these stay cacheable (keyed by their seeded schedule); any
#: other subscription forces a cache bypass.
SAFE_AMBIENT_EVENTS = frozenset({"service.segment", "service.snapshot_attach"})


def ambient_fault_digest() -> Optional[str]:
    """Fault-schedule key component for the current default plane.

    Returns ``""`` when the plane is disarmed or empty (no injected
    faults to key), a schedule digest when every armed injector is
    dispatch-level with a reproducible seeded schedule, and ``None`` —
    meaning *bypass the cache* — when any injector can reach
    segment-internal events or the schedule has no recorded seed.

    Segments that install their **own** plane internally (the chaos
    scenarios seed one from ``derive_seed(segment_seed, "faults")`` and
    always uninstall it) are unaffected: their schedule is a pure
    function of the segment seed already in the key, which is what makes
    fault-armed chaos segments cacheable with identical fault messages.
    """
    plane = faults.get_plane()
    if not plane.armed:
        return ""
    injectors = plane.injectors
    if not injectors:
        return ""
    for injector in injectors:
        if not set(injector.events) <= SAFE_AMBIENT_EVENTS:
            return None
    token = plane.schedule_token()
    if token is None:
        return None
    return digest_of(token)


class SegmentMemo:
    """A shared content-addressed segment-result cache.

    One instance serves a whole campaign run, worker pool, or service
    process. Thread-safety is inherited from the store tiers (dict and
    file operations); cross-process sharing goes through the disk tier's
    atomic append-only files.

    ``fault_digest`` pins the fault-schedule key component at
    construction (used when a worker rebuilds a memo from a shipped
    payload — the parent's ambient decision must travel with the work,
    not be re-derived against the worker's own plane). ``None`` means
    "consult the live ambient plane per key build".
    """

    def __init__(
        self,
        store: Optional[TieredMemoStore] = None,
        *,
        verify_fraction: float = 0.0,
        fault_digest: Optional[str] = None,
    ):
        self._store = store if store is not None else TieredMemoStore()
        self.verify_fraction = float(verify_fraction)
        self._fault_digest_override = fault_digest
        #: Plain counters for programmatic gates (bench hit-rate checks)
        #: independent of the process-wide obs registry.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bypasses = 0
        self.verified = 0

    @property
    def disk_directory(self) -> Optional[str]:
        """Path of the shared disk tier, for shipping to workers."""
        disk = self._store.disk
        return str(disk.directory) if disk is not None else None

    # -- key building ------------------------------------------------------
    def segment_key(
        self,
        payload: Mapping[str, Any],
        config: Optional[Mapping[str, Any]] = None,
    ) -> Optional[SegmentKey]:
        """The key for one segment payload; ``None`` = bypass, counted here.

        The one place segment keys are built: an importable target keys
        by its payload (:meth:`payload_key`); an in-process callable
        (``payload["target"] is None``) by campaign identity and
        ``config`` (:meth:`campaign_key`).
        """
        if payload["target"] is None:
            key = self.campaign_key(
                name=payload["name"],
                config=config or {},
                seed=payload["seed"],
                index=payload["index"],
                max_retries=payload["max_retries"],
                retryable=payload["retryable"],
            )
        else:
            key = self.payload_key(payload)
        if key is None:
            self.note_bypass(payload["name"])
        return key

    def fault_digest(self) -> Optional[str]:
        """The fault key component in force (override or live ambient)."""
        if self._fault_digest_override is not None:
            return self._fault_digest_override
        return ambient_fault_digest()

    def payload_key(self, payload: Mapping[str, Any]) -> Optional[SegmentKey]:
        """Key for a ``run_segment_task`` payload; ``None`` = bypass."""
        digest = self.fault_digest()
        if digest is None:
            return None
        return payload_key(payload, digest)

    def campaign_key(
        self,
        *,
        name: str,
        config: Mapping[str, Any],
        seed: int,
        index: int,
        max_retries: int,
        retryable: Sequence[str],
    ) -> Optional[SegmentKey]:
        """Key for an in-process callable's segment; ``None`` = bypass."""
        digest = self.fault_digest()
        if digest is None:
            return None
        return campaign_key(
            name=name,
            config=config,
            seed=seed,
            index=index,
            max_retries=max_retries,
            retryable=retryable,
            fault_digest=digest,
        )

    # -- accounting --------------------------------------------------------
    def note_bypass(self, campaign: str) -> None:
        """Count a segment that computed uncached (fault-plane bypass)."""
        self.bypasses += 1
        obs.inc("memo.misses", campaign=campaign, reason="bypass")

    def _record_bytes(self) -> None:
        obs.set_gauge(
            "memo.bytes", self._store.memory.total_bytes, tier="memory"
        )
        if self._store.disk is not None:
            obs.set_gauge(
                "memo.bytes", self._store.disk.total_bytes, tier="disk"
            )

    def _should_verify(self, digest: str) -> bool:
        """Deterministic sampling: the key digest is the coin."""
        if self.verify_fraction <= 0.0:
            return False
        if self.verify_fraction >= 1.0:
            return True
        return int(digest[:8], 16) / 2**32 < self.verify_fraction

    # -- cache protocol ----------------------------------------------------
    def lookup(
        self,
        key: SegmentKey,
        *,
        campaign: str,
        recompute: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Return the cached outcome for ``key``, or ``None`` on miss.

        On a sampled hit (``verify_fraction``) with a ``recompute``
        callable available, the segment is recomputed and its canonical
        bytes compared against the stored entry;
        :class:`MemoIntegrityError` on divergence.
        """
        digest = key.digest()
        blob = self._store.get(digest)
        if blob is None:
            self.misses += 1
            obs.inc("memo.misses", campaign=campaign, reason="absent")
            return None
        if recompute is not None and self._should_verify(digest):
            self.verified += 1
            obs.inc("memo.verify.recomputed", campaign=campaign)
            fresh = canonical_json(recompute()).encode("utf-8")
            if fresh != blob:
                raise MemoIntegrityError(
                    f"memoized segment {digest[:16]} diverged from "
                    f"recomputation in campaign {campaign!r}: stored "
                    f"{len(blob)} bytes != recomputed {len(fresh)} bytes "
                    "or content differs",
                    key=digest,
                )
        self.hits += 1
        obs.inc("memo.hits", campaign=campaign)
        outcome: Dict[str, Any] = json.loads(blob)
        return outcome

    def store(
        self, key: SegmentKey, outcome: Dict[str, Any], *, campaign: str
    ) -> Dict[str, Any]:
        """Publish a computed outcome; returns its canonical round-trip.

        Only successful outcomes are cached — failures are rare,
        deterministic to recompute, and excluding them keeps poisoned
        entries (a segment that failed for environmental reasons)
        impossible. The returned dict is the JSON round-trip of the
        input, so the miss path hands downstream code byte-identical
        structures to a future hit.
        """
        blob = canonical_json(outcome).encode("utf-8")
        if outcome.get("ok", False):
            self._store.put(key.digest(), blob)
            self.stores += 1
            obs.inc("memo.stores", campaign=campaign)
            self._record_bytes()
        roundtrip: Dict[str, Any] = json.loads(blob)
        return roundtrip

    def run(
        self,
        key: Optional[SegmentKey],
        *,
        campaign: str,
        compute: Callable[[], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Lookup-or-compute-and-store; ``key is None`` computes uncached."""
        if key is None:
            return compute()
        cached = self.lookup(key, campaign=campaign, recompute=compute)
        if cached is not None:
            return cached
        return self.store(key, compute(), campaign=campaign)


def build_memo(
    memo_dir: Optional[str] = None,
    *,
    verify_fraction: float = 0.0,
    max_bytes: int = DEFAULT_MEMORY_BUDGET,
    fault_digest: Optional[str] = None,
) -> SegmentMemo:
    """CLI-facing constructor: memory tier always, disk tier if a dir."""
    disk = DiskMemoStore(memo_dir) if memo_dir is not None else None
    store = TieredMemoStore(InMemoryMemoStore(max_bytes=max_bytes), disk)
    return SegmentMemo(
        store, verify_fraction=verify_fraction, fault_digest=fault_digest
    )
