"""The campaign service: admission, supervision, and the byte-identity
contract — a fault-battered service run must merge into exactly the
report a serial, fault-free reference run produces."""

import asyncio
import json
import threading

import pytest

from repro import faults, obs
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ServiceError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.faults.campaign import CampaignRunner
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    CampaignRequest,
    CampaignService,
    SnapshotLibrary,
    VirtualClock,
    run_overload_demo,
    send_op,
    snapshot_key,
    submit_over_socket,
)
from repro.service.server import serve
from repro.units import MIB

MC_TARGET = "repro.perf.parallel:montecarlo_trial"
MC_KWARGS = {"total_bytes": 64 * MIB, "ptp_bytes": MIB}
PROB_TARGET = "repro.perf.parallel:probabilistic_trial"
PROB_KWARGS = {"total_bytes": 16 * MIB, "row_bytes": 16 * 1024, "spray_mappings": 8}


def _request(name="camp", segments=4, seed=11, **overrides):
    defaults = dict(
        name=name,
        target=MC_TARGET,
        num_segments=segments,
        seed=seed,
        kwargs=dict(MC_KWARGS),
    )
    defaults.update(overrides)
    return CampaignRequest(**defaults)


def _serial_bytes(request):
    """The serial no-fault reference report, rendered to bytes."""
    previous = obs.get_registry()
    obs.set_registry(obs.Registry())
    try:
        report = CampaignRunner(
            name=request.name,
            target=request.target,
            num_segments=request.num_segments,
            seed=request.seed,
            kwargs=dict(request.kwargs),
            config=dict(request.config),
            workers=1,
            max_retries=request.max_retries,
        ).run()
    finally:
        obs.set_registry(previous)
    return json.dumps(report.to_dict(), sort_keys=True)


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestCrashRecovery:
    def test_killed_workers_rerun_exactly_once_byte_identical(self):
        """Two injected worker deaths: each lost segment re-runs exactly
        once and the merged report matches the serial run byte-for-byte."""
        request = _request(segments=6, seed=99)
        reference = _serial_bytes(request)
        faults.install(["worker-crash:p=1,max=2"], seed=5)

        async def run():
            service = CampaignService(workers=3)
            service.start()
            ticket = service.admission.admit(request)
            job = service._build_job(request, ticket, None)
            ticket.shed_fn = job.try_shed
            service.pool.submit_job(job)
            await job.done.wait()
            report = service._merge(request, job)
            await service.drain()
            return report, job, service

        report, job, service = asyncio.run(run())
        assert service.pool.restarts == 2
        # The first two dispatched segments died with their workers; each
        # was re-enqueued exactly once and completed on the retry.
        assert job.requeues == {0: 1, 1: 1}
        assert _report_bytes(report) == reference

    def test_hang_classified_as_crash_and_recovered(self):
        request = _request(segments=4, seed=3)
        reference = _serial_bytes(request)
        faults.install(["worker-hang:p=1,max=1"], seed=2)

        async def run():
            service = CampaignService(workers=2)
            service.start()
            report = await service.submit(request)
            await service.drain()
            return report, service

        report, service = asyncio.run(run())
        assert service.pool.restarts == 1
        assert _report_bytes(report) == reference
        counters = obs.get_registry().snapshot()
        assert any(
            "service.worker_restarts" in name and "WorkerHangError" in name
            for name in counters
        )

    def test_requeue_budget_exhaustion_records_failed_segment(self):
        """A segment whose every attempt kills a worker fails terminally
        with the WorkerCrashError taxonomy — the service never hangs."""
        request = _request(segments=1, seed=7)
        faults.install(["worker-crash:p=1"], seed=1)  # unbounded firings

        async def run():
            service = CampaignService(workers=1, max_requeues=2)
            service.start()
            report = await service.submit(request)
            await service.drain()
            return report

        report = asyncio.run(run())
        assert report.failed[0]["error_type"] == "WorkerCrashError"

    def test_concurrent_tenants_all_byte_identical(self):
        """Crashes interleaved across concurrent campaigns corrupt none
        of them: every tenant's report equals its serial reference."""
        requests = [
            _request(name=f"multi-{i}", segments=3, seed=40 + i, tenant=f"t{i}")
            for i in range(3)
        ]
        references = [_serial_bytes(r) for r in requests]
        faults.install(["worker-crash:p=1,max=2"], seed=9)

        async def run():
            service = CampaignService(workers=2)
            service.start()
            reports = await asyncio.gather(
                *(service.submit(r) for r in requests)
            )
            await service.drain()
            return reports

        reports = asyncio.run(run())
        for report, reference in zip(reports, references):
            assert _report_bytes(report) == reference


class TestAdmission:
    def test_rejected_request_never_consumes_a_worker_slot(self):
        """A tenant-cap rejection leaves the segment queue untouched —
        the rejected request never reaches the pool."""
        async def run():
            service = CampaignService(
                workers=1, policy=AdmissionPolicy(max_active=8, tenant_cap=1)
            )
            # Pool deliberately parked: admission happens at the door.
            first = _request(name="held", segments=3, tenant="acme")
            waiter = asyncio.ensure_future(service.submit(first))
            await asyncio.sleep(0)
            queued_before = service.pool.queued
            with pytest.raises(AdmissionError) as excinfo:
                await service.submit(_request(name="over", tenant="acme"))
            assert excinfo.value.reason == "tenant-cap"
            assert service.pool.queued == queued_before
            service.start()
            report = await waiter
            await service.drain()
            return report

        report = asyncio.run(run())
        assert len(report.completed) == 3
        counters = obs.get_registry().snapshot()
        assert counters["service.rejected{reason=tenant-cap,tenant=acme}"] == 1.0

    def test_queue_full_sheds_lowest_priority(self):
        """At capacity, a higher-priority arrival evicts the cheapest
        queued request; the shed waiter gets a typed reason."""
        async def run():
            service = CampaignService(
                workers=1, policy=AdmissionPolicy(max_active=1, tenant_cap=4)
            )
            low = _request(name="low", segments=2, priority=0)
            low_waiter = asyncio.ensure_future(service.submit(low))
            await asyncio.sleep(0)
            high = _request(name="high", segments=2, priority=5)
            service.start()
            high_report = await service.submit(high)
            with pytest.raises(AdmissionError) as excinfo:
                await low_waiter
            await service.drain()
            return high_report, excinfo.value

        high_report, shed_error = asyncio.run(run())
        assert shed_error.reason == "shed"
        assert len(high_report.completed) == 2

    def test_queue_full_without_shed_candidate_rejects(self):
        async def run():
            service = CampaignService(
                workers=1, policy=AdmissionPolicy(max_active=1, tenant_cap=4)
            )
            held = asyncio.ensure_future(
                service.submit(_request(name="held", segments=1, priority=5))
            )
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as excinfo:
                await service.submit(_request(name="equal", priority=5))
            service.start()
            await held
            await service.drain()
            return excinfo.value

        assert asyncio.run(run()).reason == "queue-full"

    def test_deadline_missed_at_dispatch(self):
        """An admitted request whose deadline lapses before any segment
        dispatches fails typed, and the metric records the miss."""
        clock = VirtualClock()

        async def run():
            service = CampaignService(workers=1, time_source=clock)
            waiter = asyncio.ensure_future(
                service.submit(_request(name="late", deadline_s=5.0))
            )
            await asyncio.sleep(0)
            clock.advance(10.0)
            service.start()
            with pytest.raises(AdmissionError) as excinfo:
                await waiter
            await service.drain()
            return excinfo.value

        assert asyncio.run(run()).reason == "deadline-missed"
        counters = obs.get_registry().snapshot()
        assert counters["service.deadline_missed{tenant=default}"] == 1.0

    def test_expired_deadline_rejected_at_request_parse(self):
        with pytest.raises(AdmissionError) as excinfo:
            _request(deadline_s=0.0)
        assert excinfo.value.reason == "deadline"

    def test_draining_service_rejects_new_requests(self):
        controller = AdmissionController(AdmissionPolicy())
        controller.begin_drain()
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(_request())
        assert excinfo.value.reason == "draining"


class TestDrain:
    def test_drain_loses_no_segment(self):
        """Every campaign admitted before the drain still completes with
        a full report — shutdown never drops queued work."""
        requests = [
            _request(name=f"drain-{i}", segments=3, seed=60 + i, tenant=f"d{i}")
            for i in range(3)
        ]

        async def run():
            service = CampaignService(workers=2)
            service.start()
            waiters = [
                asyncio.ensure_future(service.submit(r)) for r in requests
            ]
            await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*waiters)

        reports = asyncio.run(run())
        for request, report in zip(requests, reports):
            assert len(report.completed) == request.num_segments
            assert not report.interrupted


class TestSnapshotLibrary:
    def test_corruption_strikes_then_quarantines_with_cold_boot_fallback(self):
        """Injected snapshot corruption downgrades to cold boot; repeated
        corruption opens the breaker; reports stay byte-identical
        throughout (warm == cold)."""
        request = CampaignRequest(
            name="warm",
            target=PROB_TARGET,
            num_segments=1,
            seed=21,
            warm_start=True,
            kwargs=dict(PROB_KWARGS),
        )
        reference = _serial_bytes(request)
        faults.install(["snapshot-corrupt:p=1,max=2"], seed=4)

        async def run():
            service = CampaignService(workers=1, quarantine_threshold=2)
            service.start()
            reports = []
            for _ in range(3):
                reports.append(await service.submit(request))
            key = snapshot_key(PROB_TARGET, PROB_KWARGS)
            quarantined = key in service.library.quarantined
            await service.drain()
            return reports, quarantined

        reports, quarantined = asyncio.run(run())
        assert quarantined
        for report in reports:
            assert _report_bytes(report) == reference
        counters = obs.get_registry().snapshot()
        [(name, value)] = [
            (n, v)
            for n, v in counters.items()
            if n.startswith("service.snapshot_quarantined")
        ]
        assert value == 1.0

    def test_warm_start_report_equals_cold_reference(self):
        request = CampaignRequest(
            name="warm-ok",
            target=PROB_TARGET,
            num_segments=2,
            seed=33,
            warm_start=True,
            kwargs=dict(PROB_KWARGS),
        )
        reference = _serial_bytes(request)

        async def run():
            service = CampaignService(workers=1)
            service.start()
            report = await service.submit(request)
            await service.drain()
            return report

        assert _report_bytes(asyncio.run(run())) == reference

    def test_worker_death_strikes_attributed_snapshot(self):
        library = SnapshotLibrary(capacity=2, quarantine_threshold=2)
        assert not library.strike("k")
        assert library.strike("k")
        assert "k" in library.quarantined

        class _World:
            name = "w"
            released = False

            def release(self):
                self.released = True

        assert library.acquire("k", _World) is None  # quarantined: cold boot

    def test_lru_eviction_bounds_live_worlds(self):
        released = []

        def world(name):
            class _World:
                def release(self):
                    released.append(name)

            w = _World()
            w.name = name
            return w

        library = SnapshotLibrary(capacity=2)
        library.acquire("a", lambda: world("a"))
        library.acquire("b", lambda: world("b"))
        library.acquire("a", lambda: world("a2"))  # refresh a's recency
        library.acquire("c", lambda: world("c"))
        assert released == ["b"]
        assert library.keys == ("a", "c")

    def test_warm_start_without_factory_is_typed(self):
        async def run():
            service = CampaignService(workers=1)
            service.start()
            with pytest.raises(ServiceError):
                await service.submit(_request(warm_start=True))
            await service.drain()

        asyncio.run(run())


class TestProtocol:
    def test_request_round_trips_over_the_wire(self):
        request = _request(
            name="wire", segments=2, seed=5, tenant="t", priority=3,
            deadline_s=9.0, config={"a": 1},
        )
        assert CampaignRequest.from_wire(request.to_wire()) == request

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown request field"):
            CampaignRequest.from_wire({**_request().to_wire(), "bogus": 1})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServiceError, match="missing required"):
            CampaignRequest.from_wire({"name": "x"})

    def test_admission_error_retyped_client_side(self):
        from repro.service.protocol import error_payload, raise_from_done

        payload = error_payload(AdmissionError("no room", reason="queue-full"))
        with pytest.raises(AdmissionError) as excinfo:
            raise_from_done(payload)
        assert excinfo.value.reason == "queue-full"

    def test_bad_target_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            _request(target="not-a-reference")


class TestOverloadDemo:
    def test_overload_demo_is_deterministic_and_degrades_typed(self):
        summary = run_overload_demo(tenants=20, segments=1, workers=2)
        obs.reset()
        again = run_overload_demo(tenants=20, segments=1, workers=2)
        assert summary == again
        outcomes = summary["outcomes"]
        assert outcomes.get("rejected:queue-full", 0) > 0
        assert outcomes.get("rejected:shed", 0) > 0
        assert outcomes.get("rejected:deadline-missed", 0) > 0
        assert outcomes.get("completed", 0) > 0
        assert summary["worker_restarts"] == 2


class TestSocketServer:
    def test_submit_over_socket_matches_serial_and_drains_clean(self):
        request = _request(name="sock", segments=3, seed=17)
        reference = json.loads(_serial_bytes(request))
        ready = threading.Event()
        port_box = {}

        def run_server():
            service = CampaignService(workers=2)

            def on_ready(port):
                port_box["port"] = port
                ready.set()

            asyncio.run(serve(service, port=0, ready_cb=on_ready))

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert ready.wait(10)
        port = port_box["port"]
        assert send_op("127.0.0.1", port, "ping")["pong"] is True
        report, progress = submit_over_socket("127.0.0.1", port, request)
        assert report == reference
        assert [p["completed"] for p in progress] == [1, 2, 3]
        assert send_op("127.0.0.1", port, "drain")["drained"] is True
        thread.join(10)
        assert not thread.is_alive()
