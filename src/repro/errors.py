"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError` so
callers can catch the whole family with one clause while tests can assert
on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters."""


class DramError(ReproError):
    """Base class for DRAM-substrate errors."""


class AddressError(DramError):
    """A physical address is out of range or misaligned."""


class RowRemapError(DramError):
    """An invalid row-remapping was requested (e.g. cell-type mismatch)."""


class KernelError(ReproError):
    """Base class for OS-model errors."""


class OutOfMemoryError(KernelError):
    """The buddy allocator could not satisfy an allocation request."""


class CapacityError(OutOfMemoryError):
    """A finite capacity pool is exhausted (ZONE_PTP, ZONE_HYPERVISOR, ...).

    Distinct from a transient allocation failure: the pool was sized at
    configuration time and demand outgrew it, so retrying without freeing
    or reconfiguring cannot succeed. Subclasses ``OutOfMemoryError`` so
    existing allocation-failure handling (sprays, reclaim paths) degrades
    gracefully, while the CLI can render capacity exhaustion specially.
    """

    def __init__(self, message: str, zone: str = ""):
        super().__init__(message)
        self.zone = zone


class ZoneViolationError(KernelError):
    """An allocation would violate a zone policy (e.g. CTA rules 1/2)."""


class PageTableError(KernelError):
    """Malformed page-table structure or walk failure."""


class PageFaultError(KernelError):
    """A virtual access could not be translated or lacked permission."""

    def __init__(self, message: str, virtual_address: int = 0):
        super().__init__(message)
        self.virtual_address = virtual_address


class ProcessError(KernelError):
    """Invalid process-level operation (bad mmap, double free, ...)."""


class AttackError(ReproError):
    """An attack harness was misused or hit an unexpected state."""


class PayloadError(ReproError):
    """A hammer-payload program is malformed or cannot be executed.

    Raised by the :mod:`repro.payload` validator (IR invariant broken),
    compiler (program lowers to more steps than the budget allows), and
    executors (a step needs a context piece — hammer, kernel, module —
    that the caller did not supply).
    """


class DefenseError(ReproError):
    """A defense was configured or engaged incorrectly."""


class AnalysisError(ReproError):
    """Invalid parameters for the analytical security model."""


class ObservabilityError(ReproError):
    """Misuse of the metrics/trace subsystem (kind mismatch, bad config)."""


class FaultInjectionError(ReproError):
    """Misuse of the fault-injection plane (bad spec, missing target)."""


class TransientFaultError(FaultInjectionError):
    """An *injected* transient failure (e.g. a DRAM read error).

    Raised by fault injectors to abort the operation in flight; campaign
    runners treat it as retryable. ``fault`` names the injector spec that
    fired, for attribution in reports.
    """

    def __init__(self, message: str, fault: str = ""):
        super().__init__(message)
        self.fault = fault


class ServiceError(ReproError):
    """Misuse or failure inside the long-lived campaign service."""


class AdmissionError(ServiceError):
    """The campaign service refused a request at the front door.

    Typed rejection — never a hang or a crash. ``reason`` is a stable
    machine-readable tag (``queue-full``, ``tenant-cap``, ``deadline``,
    ``deadline-missed``, ``shed``, ``draining``) so clients and tests can
    branch on the admission decision without parsing prose.
    """

    def __init__(self, message: str, reason: str = ""):
        super().__init__(message)
        self.reason = reason


class WorkerCrashError(TransientFaultError):
    """A campaign worker died mid-segment (process death or injected).

    Subclasses :class:`TransientFaultError` so every retry taxonomy that
    already treats injected transients as retryable — the
    :class:`~repro.faults.campaign.CampaignRunner` engine and the service
    supervisor — classifies worker death the same way
    instead of propagating a raw executor exception.
    """


class WorkerHangError(WorkerCrashError):
    """A campaign worker stopped heartbeating (hang or injected stall).

    Detected by the supervisor's per-segment timeout; handled like a
    crash (kill, restart with backoff, re-enqueue the lost segment) but
    attributed separately in restart accounting.
    """


class SnapshotCorruptError(ServiceError):
    """A snapshot-library world failed to attach (corrupt or injected).

    Each occurrence is a circuit-breaker strike against the snapshot
    key; repeated strikes quarantine the snapshot and the service falls
    back to cold-booting segment worlds.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


class MemoIntegrityError(ReproError):
    """A memoized segment result diverged from its recomputation.

    Raised by the ``--memo-verify`` sampling mode in
    :mod:`repro.perf.memo`: a cache hit whose stored bytes do not equal
    the freshly recomputed canonical serialization is a broken
    byte-identity contract — either the store was corrupted or a key
    component (config, seed, fault schedule, code version) failed to
    capture something the segment result depends on. ``key`` carries the
    hex digest of the offending :class:`~repro.perf.memo.SegmentKey`.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


class SanitizerError(ReproError):
    """A runtime sanitizer detected a violated simulator invariant.

    Carries the name of the checker that fired and the event that
    triggered it, so tests and CLI output can attribute the violation.
    """

    def __init__(self, message: str, checker: str = "", event: str = ""):
        super().__init__(message)
        self.checker = checker
        self.event = event
