"""repro.faults — the deterministic, seeded fault-injection (chaos) plane.

The sanitizer fabric (:mod:`repro.sanitize`) proves invariants *hold*;
this package is its adversary: it perturbs the simulator through the very
same hook points — plus a few fault-only pre-hooks on hot paths — with
named, bounded, seeded fault schedules, so robustness claims (graceful
ZONE_PTP degradation, campaign resumability, sanitizer bite) can be
tested instead of assumed.

Design mirrors :mod:`repro.obs` / :mod:`repro.sanitize`: one process-wide
default :class:`FaultPlane`, module-level helpers resolving it at call
time, and a cheap disarmed path — a disarmed plane turns every hook into
one attribute check. Every firing is counted in :mod:`repro.obs` under
``faults.injected`` (labelled by fault name and event) and traced as
``faults.inject``, so injected chaos is always visible in ``repro stats``
output.

Hook events reaching the plane:

- forwarded by :func:`repro.sanitize.notify` (shared with sanitizers):
  ``buddy.alloc``, ``buddy.free``, ``buddy.prepare_alloc``,
  ``kernel.page_alloc``, ``kernel.page_free``, ``dram.bit_flip``,
  ``rowhammer.hammer``, ``mmu.translate``, ``attack.campaign``;
- fault-only pre-hooks (suppression points the sanitizers have no use
  for): ``dram.read``, ``tlb.invalidate``, ``refresh.sweep``;
- campaign-service hooks from :mod:`repro.service` (the supervisor
  offers every segment dispatch and snapshot attach to the plane so
  worker crashes, hangs, and snapshot corruption replay from a seed):
  ``service.segment``, ``service.snapshot_attach``.

Usage::

    from repro import faults

    plane = faults.install(
        ["ecc-miscorrect:p=0.2,max=3", "dram-read-error:p=1e-5"],
        seed=7, kernel=kernel,
    )
    ...  # run workloads; faults fire deterministically
    print(plane.counts)       # {spec name: fires}
    faults.uninstall()

Determinism: the plane seeds one :mod:`repro.rng` stream and splits a
child stream per spec, so each injector's schedule depends only on the
seed and the sequence of events *it* matches — rule ``RL006`` in
:mod:`repro.sanitize.lint` statically keeps wall-clock and ambient
entropy out of this package.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro import obs
from repro.faults.injectors import (
    KINDS,
    FaultInjector,
    FaultSpec,
    PtpExhaustionInjector,
    build_injector,
)
from repro.rng import SeedLike, make_rng, split_rng

__all__ = [
    "KINDS",
    "FaultInjector",
    "FaultPlane",
    "FaultSpec",
    "get_plane",
    "set_plane",
    "reset",
    "arm",
    "disarm",
    "armed",
    "epoch",
    "listens",
    "notify",
    "install",
    "uninstall",
]

SpecLike = Union[str, FaultSpec]


class FaultPlane:
    """A set of armed fault injectors plus their dispatch fabric.

    Starts disarmed: :func:`notify` and the :func:`repro.sanitize.notify`
    forwarding path skip it entirely until :meth:`arm`. ``injected``
    totals firings across all injectors; :attr:`counts` breaks them down
    by spec name for campaign reports.
    """

    def __init__(self, seed: SeedLike = None):
        self._rng = make_rng(seed)
        #: The integer seed this plane's schedules derive from, when one
        #: was given; ``None`` for generator/implicit seeding, in which
        #: case :meth:`schedule_token` reports the schedule as
        #: non-reproducible (the segment memo then bypasses the cache).
        self.seed_token: Optional[int] = seed if isinstance(seed, int) else None
        self._injectors: List[FaultInjector] = []
        self._by_event: Dict[str, List[FaultInjector]] = {}
        self._armed = False
        # Guards against re-entrant dispatch: an injector's own mutations
        # (e.g. an ECC burst calling flip_bit) re-enter notify().
        self._in_dispatch = False
        #: Total faults injected through this plane.
        self.injected = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def armed(self) -> bool:
        """Whether events are dispatched to injectors."""
        return self._armed

    def arm(self) -> None:
        """Start injecting."""
        self._armed = True
        _bump_epoch()

    def disarm(self) -> None:
        """Stop injecting (hooks become no-ops; schedules freeze)."""
        self._armed = False
        _bump_epoch()

    @property
    def injectors(self) -> tuple:
        """Registered injectors, in registration order."""
        return tuple(self._injectors)

    def add(
        self,
        spec: SpecLike,
        kernel: Optional[object] = None,
        remapper: Optional[object] = None,
    ) -> FaultInjector:
        """Register an injector for ``spec`` with its own child rng stream."""
        if isinstance(spec, str):
            spec = FaultSpec.parse(spec)
        injector = build_injector(
            spec, split_rng(self._rng, spec.name), kernel=kernel, remapper=remapper
        )
        self._injectors.append(injector)
        for event in injector.events:
            self._by_event.setdefault(event, []).append(injector)
        # A new subscription can change what an armed plane listens to.
        _bump_epoch()
        return injector

    def listens(self, event: str) -> bool:
        """Whether the plane is armed and some injector subscribes to ``event``."""
        return self._armed and bool(self._by_event.get(event))

    # -- dispatch ----------------------------------------------------------
    def dispatch(self, event: str, ctx: Mapping[str, object]) -> bool:
        """Offer one event to every subscribed injector.

        Returns True when any firing injector asked for the triggering
        operation to be suppressed. Raise-style injectors propagate their
        exception *after* the firing is counted, so aborted operations
        still show up in ``faults.injected``.
        """
        if self._in_dispatch:
            return False
        suppress = False
        self._in_dispatch = True
        try:
            for injector in self._by_event.get(event, ()):
                if not injector.matches(event, ctx):
                    continue
                if not injector.should_fire():
                    continue
                injector.fires += 1
                self.injected += 1
                obs.inc("faults.injected", fault=injector.spec.name, event=event)
                obs.trace(
                    "faults.inject",
                    fault=injector.spec.name,
                    kind=injector.spec.kind,
                    event=event,
                )
                if injector.fire(event, ctx):
                    suppress = True
        finally:
            self._in_dispatch = False
        return suppress

    def skip_quiet(self, event: str, n: int) -> int:
        """Pass the next ``n`` events named ``event`` through the schedules at once.

        Returns ``m``: the count of leading events at which no injector
        fires. Every subscribed injector is advanced past exactly those
        ``m`` events, with the ``_seen`` counts and rng draws of ``m``
        :meth:`dispatch` calls (``start_after`` and ``max_fires``
        honoured), so the caller may perform them without dispatching.
        When ``m < n`` the caller must send event ``m`` through the
        ordinary dispatch path, where an injector fires on it. Injectors
        whose :meth:`~FaultInjector.matches` reads the event context
        cannot be scheduled blind; their events all go through dispatch
        (``m == 0``).
        """
        if n <= 0 or not self._armed or self._in_dispatch:
            return max(n, 0)
        injectors = self._by_event.get(event, ())
        if not all(injector.matches_every_event for injector in injectors):
            return 0
        windows = [(injector, *injector.draw_window(n)) for injector in injectors]
        quiet = min((window[1] for window in windows), default=n)
        if quiet < n:
            for injector, _, undo in windows:
                injector.rewind_window(n, quiet, undo)
        return quiet

    def schedule_token(self) -> Optional[Dict[str, object]]:
        """JSON-able identity of this plane's injected-fault schedule.

        The token pins everything a replay needs: the installing seed
        plus every spec's full field set, in registration order (child
        rng streams split per spec name, so order + names + seed fix the
        schedules exactly). Returns ``None`` when the plane carries
        injectors but no recorded integer seed — such a schedule cannot
        be reproduced, so content-addressed caches must treat it as
        uncacheable rather than key on a lie.
        """
        from dataclasses import asdict

        if not self._injectors:
            return {"seed": self.seed_token, "specs": []}
        if self.seed_token is None:
            return None
        return {
            "seed": self.seed_token,
            "specs": [asdict(injector.spec) for injector in self._injectors],
        }

    # -- reporting ---------------------------------------------------------
    @property
    def counts(self) -> Dict[str, int]:
        """Firing counts by spec name (stable insertion order)."""
        return {injector.spec.name: injector.fires for injector in self._injectors}

    def release_held(self) -> int:
        """Release resources held by exhaustion-style injectors."""
        released = 0
        for injector in self._injectors:
            if isinstance(injector, PtpExhaustionInjector):
                released += injector.release()
        return released


_default_plane = FaultPlane()

# Monotonic counter bumped whenever the armed state or the subscriptions
# of *any* plane (or the identity of the default plane) may have changed.
# Hot paths cache the results of :func:`armed` and :func:`listens` keyed by
# this epoch instead of probing the plane on every access — see
# ``DramModule.fault_plane_armed``.
_epoch = 0


def _bump_epoch() -> None:
    global _epoch
    _epoch += 1


def epoch() -> int:
    """Current armed-state epoch (see module comment on ``_epoch``)."""
    return _epoch


def get_plane() -> FaultPlane:
    """The process-wide default plane."""
    return _default_plane


def set_plane(plane: FaultPlane) -> FaultPlane:
    """Install ``plane`` as the default; returns it (for chaining)."""
    global _default_plane
    _default_plane = plane
    _bump_epoch()
    return plane


def reset() -> FaultPlane:
    """Replace the default plane with a fresh, disarmed, empty one."""
    return set_plane(FaultPlane())


def arm() -> None:
    """Arm the default plane."""
    _default_plane.arm()


def disarm() -> None:
    """Disarm the default plane."""
    _default_plane.disarm()


def armed() -> bool:
    """Whether the default plane is armed."""
    return _default_plane.armed


def listens(event: str) -> bool:
    """Whether the default plane is armed and subscribed to ``event``."""
    return _default_plane.listens(event)


def notify(event: str, **ctx: object) -> bool:
    """Offer one event to the default plane from a fault-only pre-hook.

    Returns True when the triggering operation must be suppressed. Hot
    call sites may pre-check ``faults.get_plane().armed`` to skip kwargs
    construction on the common disarmed path.
    """
    plane = _default_plane
    if not plane._armed:
        return False
    return plane.dispatch(event, ctx)


def install(
    specs: Iterable[SpecLike],
    seed: SeedLike = None,
    kernel: Optional[object] = None,
    remapper: Optional[object] = None,
) -> FaultPlane:
    """Build, install and arm a fresh plane carrying ``specs``.

    ``kernel`` / ``remapper`` are handed to injectors that need a target
    (``ptp-exhaust`` / ``remap-corrupt``); target-less injectors ignore
    them. Returns the armed plane.
    """
    plane = FaultPlane(seed=seed)
    for spec in specs:
        plane.add(spec, kernel=kernel, remapper=remapper)
    set_plane(plane)
    plane.arm()
    return plane


def uninstall() -> FaultPlane:
    """Release held resources, then reset to a disarmed empty plane."""
    _default_plane.disarm()
    _default_plane.release_held()
    return reset()
