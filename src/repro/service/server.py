"""The campaign service: admission -> supervised pool -> merged reports.

:class:`CampaignService` is the asyncio front-end gluing the package
together: requests pass :class:`~repro.service.admission.AdmissionController`
at the door, their segments are queued onto one shared
:class:`~repro.service.supervisor.WorkerPool`, and completed outcomes
fold back through :meth:`~repro.faults.campaign.CampaignReport.fold`,
producing a :class:`~repro.faults.campaign.CampaignReport`
**byte-identical** to what :class:`~repro.faults.campaign.CampaignRunner`
yields for the same (name, target, num_segments, seed, kwargs, config)
tuple, no matter how many workers crashed, hung, or snapshots got
quarantined along the way.

:func:`serve` exposes the service over the newline-delimited JSON
protocol in :mod:`repro.service.protocol`; :func:`run_overload_demo`
drives a deterministic many-tenant overload scenario (admission
rejections, priority shedding, deadline misses, injected worker
crashes) entirely on a virtual clock, for tests and ``repro stats``.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro import faults, obs
from repro.errors import AdmissionError, ReproError, ServiceError
from repro.faults.campaign import (
    DEFAULT_RETRYABLE,
    CampaignReport,
    resolve_qualified,
    segment_payloads,
)
from repro.rng import DEFAULT_SEED, derive_seed
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    VirtualClock,
)
from repro.service.protocol import (
    CampaignRequest,
    decode_line,
    encode_line,
    error_payload,
)
from repro.service.snapshot_library import (
    SnapshotLibrary,
    snapshot_factory_for,
    snapshot_key,
)
from repro.service.supervisor import SegmentJob, WorkerPool, spawn_supervised

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.perf.memo.runtime import SegmentMemo

__all__ = ["CampaignService", "serve", "run_overload_demo"]

class CampaignService:
    """One long-lived campaign service instance (see module docstring)."""

    def __init__(
        self,
        *,
        workers: int = 2,
        policy: Optional[AdmissionPolicy] = None,
        mode: str = "inline",
        max_requeues: int = 2,
        backoff_base_s: float = 0.5,
        segment_timeout_s: Optional[float] = None,
        snapshot_capacity: int = 4,
        quarantine_threshold: int = 2,
        time_source: Callable[[], float] = time.monotonic,
        memo: Optional["SegmentMemo"] = None,
    ):
        self.library = SnapshotLibrary(
            capacity=snapshot_capacity, quarantine_threshold=quarantine_threshold
        )
        self.admission = AdmissionController(policy, time_source=time_source)
        # The memo sits next to the SnapshotLibrary as cross-tenant
        # shared state: identical (config, payload, seed, fault
        # schedule) segments from different tenants replay one cached
        # outcome. The pool consults it strictly after the shed window
        # closes, so admission-shed jobs can never populate or poison it.
        self.memo = memo
        self.pool = WorkerPool(
            workers,
            mode=mode,
            max_requeues=max_requeues,
            backoff_base_s=backoff_base_s,
            segment_timeout_s=segment_timeout_s,
            time_source=time_source,
            library=self.library,
            memo=memo,
        )
        self.backoff_base_s = backoff_base_s
        self._drained = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        self.pool.start()

    async def drain(self) -> None:
        """Stop admitting, finish every queued segment, stop workers.

        The drain guarantee: every request admitted before the drain
        began still completes with a full report — no segment is lost
        on shutdown.
        """
        self.admission.begin_drain()
        await self.pool.drain()
        self.library.close()
        self._drained.set()

    async def closed(self) -> None:
        """Wait until a drain has completed."""
        await self._drained.wait()

    # -- submission --------------------------------------------------------
    async def submit(
        self,
        request: CampaignRequest,
        progress_cb: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> CampaignReport:
        """Admit, run, and merge one campaign request.

        Raises a typed :class:`AdmissionError` on rejection / shedding /
        missed deadlines; on success returns a report byte-comparable to
        a serial reference run.
        """
        ticket = self.admission.admit(request)
        obs.trace(
            "service.request",
            campaign=request.name,
            tenant=request.tenant,
            segments=request.num_segments,
            priority=request.priority,
        )
        try:
            job = self._build_job(request, ticket, progress_cb)
            ticket.shed_fn = job.try_shed
            self.pool.submit_job(job)
            await job.done.wait()
            if job.error is not None:
                raise job.error
            return self._merge(request, job)
        finally:
            self.admission.release(ticket)

    def _build_job(
        self,
        request: CampaignRequest,
        ticket: Any,
        progress_cb: Optional[Callable[[Dict[str, Any]], None]],
    ) -> SegmentJob:
        """Expand a request into queued segment payloads (fail fast)."""
        resolve_qualified(request.target)
        run_kwargs = dict(request.kwargs)
        key: Optional[str] = None
        if request.warm_start:
            factory = snapshot_factory_for(request.target)
            if factory is None:
                raise ServiceError(
                    f"target {request.target!r} has no snapshot factory; "
                    "submit without warm_start"
                )
            key = snapshot_key(request.target, run_kwargs)
            name = self.library.acquire(key, lambda: factory(run_kwargs))
            if name is not None:
                run_kwargs["snapshot"] = name
        payloads = segment_payloads(
            request.target,
            range(request.num_segments),
            name=request.name,
            seed=request.seed,
            max_retries=request.max_retries,
            retryable=DEFAULT_RETRYABLE,
            kwargs=run_kwargs,
        )
        return SegmentJob(
            request,
            payloads,
            ticket=ticket,
            snapshot_key=key,
            progress_cb=progress_cb,
        )

    def _merge(self, request: CampaignRequest, job: SegmentJob) -> CampaignReport:
        """Fold outcomes into the registry and report, as the engine does."""
        report = CampaignReport(
            name=request.name,
            seed=request.seed,
            num_segments=request.num_segments,
            config=dict(request.config),
            backoff_base_s=self.backoff_base_s,
        )
        return report.fold(job.outcomes)

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Machine-readable service health for the ``stats`` op."""
        counters = {
            name: value
            for name, value in sorted(obs.get_registry().snapshot().items())
            if name.startswith("service.")
        }
        return {
            "counters": counters,
            "pool": {
                "size": self.pool.size,
                "mode": self.pool.mode,
                "queued": self.pool.queued,
                "restarts": self.pool.restarts,
                "backoff_accounted_s": self.pool.backoff_accounted_s,
            },
            "admission": {
                "active": self.admission.active_count,
                "draining": self.admission.draining,
            },
            "snapshots": {
                "keys": list(self.library.keys),
                "quarantined": sorted(self.library.quarantined),
            },
            "memo": (
                None
                if self.memo is None
                else {
                    "hits": self.memo.hits,
                    "misses": self.memo.misses,
                    "stores": self.memo.stores,
                    "bypasses": self.memo.bypasses,
                    "verified": self.memo.verified,
                    "disk_dir": self.memo.disk_directory,
                }
            ),
        }


async def _handle_connection(
    service: CampaignService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection of the line protocol."""
    try:
        line = await reader.readline()
        if not line.strip():
            return
        try:
            message = decode_line(line)
            op = str(message.get("op", ""))
            if op == "ping":
                writer.write(encode_line({"event": "done", "ok": True, "pong": True}))
            elif op == "stats":
                writer.write(
                    encode_line({"event": "done", "ok": True, "stats": service.stats()})
                )
            elif op == "drain":
                await service.drain()
                writer.write(
                    encode_line({"event": "done", "ok": True, "drained": True})
                )
            elif op == "submit":
                request = CampaignRequest.from_wire(message.get("request", {}))

                def push(event: Dict[str, Any]) -> None:
                    writer.write(encode_line(event))

                report = await service.submit(request, progress_cb=push)
                writer.write(
                    encode_line(
                        {"event": "done", "ok": True, "report": report.to_dict()}
                    )
                )
            else:
                raise ServiceError(f"unknown op {op!r}")
        except ReproError as exc:
            # Typed errors go back over the wire; the server stays up.
            writer.write(encode_line(error_payload(exc)))
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_cb: Optional[Callable[[int], None]] = None,
) -> None:
    """Run the line-protocol server until a client sends ``drain``.

    ``port=0`` binds an ephemeral port; ``ready_cb`` receives the bound
    port once listening (the CLI prints it so clients can connect).
    """
    service.start()

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(service, reader, writer)

    server = await asyncio.start_server(handler, host=host, port=port)
    bound_port = server.sockets[0].getsockname()[1]
    if ready_cb is not None:
        ready_cb(bound_port)
    async with server:
        await service.closed()


def run_overload_demo(
    tenants: int = 50,
    segments: int = 1,
    seed: int = DEFAULT_SEED,
    workers: int = 2,
    fault_specs: Tuple[str, ...] = ("worker-crash:p=1,max=2",),
    policy: Optional[AdmissionPolicy] = None,
) -> Dict[str, Any]:
    """Deterministic many-tenant overload scenario (EXPERIMENTS.md).

    ``tenants`` requests (cheap :func:`repro.perf.parallel.montecarlo_trial`
    segments) arrive from a handful of tenant identities with mixed
    priorities and deadlines while the pool is still parked, so the
    admission picture — queue-full rejections, tenant-cap rejections,
    priority shedding — is decided before any segment runs. The virtual
    clock then jumps past the short deadlines, the pool starts (injected
    ``worker-crash`` faults kill workers mid-drain; the supervisor
    restarts them and re-enqueues), and every surviving request
    completes. Two invocations with the same arguments return the same
    summary dict — asserted by tests.
    """
    policy = policy or AdmissionPolicy(
        max_active=max(1, tenants // 4), tenant_cap=3
    )

    async def _run() -> Dict[str, Any]:
        clock = VirtualClock()
        service = CampaignService(
            workers=workers, policy=policy, time_source=clock
        )
        if fault_specs:
            faults.install(fault_specs, seed=seed)

        async def one(index: int) -> Tuple[str, str]:
            request = CampaignRequest(
                name=f"overload-{index:02d}",
                target="repro.perf.parallel:montecarlo_trial",
                num_segments=segments,
                seed=derive_seed(seed, index),
                tenant=f"team-{index % 8}",
                priority=index % 3,
                deadline_s=(5.0 if index % 5 == 0 else None),
                kwargs={"total_bytes": 64 * 1024 * 1024, "ptp_bytes": 1024 * 1024},
                config={"demo": "overload"},
            )
            try:
                report = await service.submit(request)
                return ("completed", f"{len(report.completed)}/{segments}")
            except AdmissionError as exc:
                return ("rejected:" + exc.reason, "")

        waiters = [
            spawn_supervised(one(index), name=f"overload-submit-{index}")
            for index in range(tenants)
        ]
        # Let every submission reach admission (pool still parked), then
        # expire the short deadlines before any dispatch happens.
        await asyncio.sleep(0)
        clock.advance(10.0)
        service.start()
        results = await asyncio.gather(*waiters)
        await service.drain()
        if fault_specs:
            faults.uninstall()

        outcomes: Dict[str, int] = {}
        for status, _ in results:
            outcomes[status] = outcomes.get(status, 0) + 1
        return {
            "tenants": tenants,
            "outcomes": dict(sorted(outcomes.items())),
            "worker_restarts": service.pool.restarts,
            "backoff_accounted_s": service.pool.backoff_accounted_s,
            "service_counters": {
                name: value
                for name, value in sorted(obs.get_registry().snapshot().items())
                if name.startswith("service.")
            },
        }

    return asyncio.run(_run())
