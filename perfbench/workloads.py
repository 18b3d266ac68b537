"""The benchmark's workloads: inputs, set-up, one unit of work, checks.

Every workload makes its inputs from the benchmark seed with its own
:class:`random.Random`, so the simulator receives only generated
values (segment seeds, an arrival schedule, a repeat pattern) and the
same seed always yields the same inputs.

Closed-loop workloads have one client that sends its next request when
the previous one returns. ``service_tenants`` is an open loop: requests
are due on a fixed schedule whether or not the service keeps up, and
each is timed from its due time.

An untraced closed-loop pass runs a fixed number of requests, sized to
take about ``--seconds`` at the commit that introduced this benchmark,
and the open loop a fixed schedule; so a seed always attempts the same
inputs, and the count of failed ones depends on the code alone.

Each unit returns the simulated results that go into the run digest and
the invariants it broke; an invariant failure marks the run incorrect,
an exception from the simulator marks the unit failed.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from measure import Digest, HostProbe, canonical
from spans import SpanLog

from repro.errors import AdmissionError, ReproError, SanitizerError

#: Seed of the warm-up work done during set-up; never a measured input.
SETUP_SEED = 0

#: Probabilistic-trial arguments of ``stock_cold`` and ``service_tenants``:
#: the ``campaign`` case of ``repro bench``, whose profile the roadmap
#: cites (about 21k flips in 8-16 bursts per segment). With this spray
#: size most segments run their whole hammer budget, so segment cost
#: depends little on whether the attack succeeds.
TRIAL_KWARGS = {"spray_mappings": 8, "max_rounds": 1}

#: A closed-loop pass runs at least this many requests, so the tail
#: percentile has ten latency samples beyond it.
MIN_SAMPLES = 11

Window = Tuple[float, float]


@dataclass
class Unit:
    """Outcome of one closed-loop request."""

    record: Any
    #: ``time.perf_counter`` windows of the segments it timed; None when
    #: the request was one segment.
    segments: Optional[List[Window]] = None
    #: Segments completed, when ``segments`` is given.
    completed: int = 0
    attempted: int = 1
    failed: int = 0
    problems: List[str] = field(default_factory=list)


@dataclass
class PassResult:
    """Everything one measured pass produced."""

    segment_s: List[float] = field(default_factory=list)
    completed_segments: int = 0
    #: Request latency. A closed loop's client has no request distinct
    #: from its unit of work, so there it repeats ``segment_s``.
    request_s: List[float] = field(default_factory=list)
    #: The same samples in ref units (see :class:`measure.HostProbe`),
    #: when the pass was probed.
    segment_ref: List[float] = field(default_factory=list)
    request_ref: List[float] = field(default_factory=list)
    #: Time the program was working, the denominator of throughput: the
    #: closed loop's calls, the open loop's time with a request in flight
    #: (its wall time is fixed by the arrival schedule).
    busy_s: float = 0.0
    busy_ref: float = 0.0
    #: Probe time taken out of the open loop's ``busy_s``.
    probe_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    records: List[Any] = field(default_factory=list)
    wall_s: float = 0.0
    units: int = 0
    #: Wall time of each closed-loop call, successful or not.
    call_s: List[float] = field(default_factory=list)
    generator_lag_s: List[float] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Each timed set-up before the pass, in seconds and in refs.
    setup_s: List[float] = field(default_factory=list)
    setup_ref: List[float] = field(default_factory=list)

    def digest(self, count: int) -> str:
        digest = Digest()
        for record in self.records[:count]:
            digest.add(record)
        return digest.hexdigest()

    def add_segment(self, window: Window, probe: Optional[HostProbe]) -> None:
        seconds, refs = _measure(window, probe)
        self.segment_s.append(seconds)
        if probe is not None:
            self.segment_ref.append(refs)


def _measure(window: Window, probe: Optional[HostProbe]) -> Tuple[float, float]:
    """(seconds, refs) of a window; refs is 0 when nothing probed it."""
    if probe is None:
        return window[1] - window[0], 0.0
    return probe.measure(*window)


def _measure_setup(window: Window, before: float, probe: HostProbe) -> Tuple[float, float]:
    """(seconds, refs) of a set-up, against probe bursts right before
    (``before``, its mean probe time) and right after it."""
    seconds, _ = probe.measure(*window)
    return seconds, seconds / statistics.fmean((before, probe.burst()))


def _union(windows: List[Window]) -> List[Window]:
    """The disjoint windows covering the same time as ``windows``."""
    merged: List[Window] = []
    for began, ended in sorted(windows):
        if merged and began <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], ended))
        else:
            merged.append((began, ended))
    return merged


def seed_stream(workload: str, seed: int) -> Iterator[int]:
    """Endless 32-bit segment seeds derived from the benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(32)


class ClosedLoop:
    """One client, one request in flight; subclasses define a request."""

    name = ""
    why = ""
    loop = "closed loop, one client"
    #: Requests whose results the golden digest covers.
    digest_units = 8
    #: Requests per second an untraced pass was seen to run on a 2 vCPU
    #: Xeon at the commit that introduced this benchmark; sizes the pass.
    units_per_s = 1.0
    #: Nominal requests per second of a traced run (untraced + traced
    #: pass), used only to size the traced passes.
    trace_units_per_s = 1.0
    #: Whether the benchmark opens each segment's root span itself.
    bench_root_span = True
    #: Extra traced entry points (beyond :data:`layers.ENTRY_POINTS`).
    extra_entry_points: Tuple[Tuple[str, str, Any], ...] = ()

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, seed: int) -> Unit:
        raise NotImplementedError

    def trace_units(self, seconds: float) -> int:
        return max(self.digest_units, int(seconds * self.trace_units_per_s / 2 + 0.5))

    def units_for(self, seconds: float) -> int:
        """Requests of an untraced pass: ``seconds`` at :attr:`units_per_s`."""
        return max(MIN_SAMPLES, self.digest_units, round(seconds * self.units_per_s))

    def measure(self, seed: int, seconds: float, setups: int, probe: HostProbe) -> PassResult:
        """Set up ``setups`` times (timed), then run :meth:`units_for` requests."""
        times, refs = [], []
        for _ in range(setups):
            before = probe.burst()
            began = time.perf_counter()
            self.setup()
            took, ref = _measure_setup((began, time.perf_counter()), before, probe)
            times.append(took)
            refs.append(ref)
        result = self.run(seed, self.units_for(seconds), probe=probe)
        result.setup_s, result.setup_ref = times, refs
        return result

    def run_prefix(
        self,
        seed: int,
        units: int,
        log: Optional[SpanLog] = None,
        on_start: Any = None,
        probe: Optional[HostProbe] = None,
    ) -> PassResult:
        """Set up, call ``on_start``, then run exactly ``units`` requests."""
        self.setup()
        if on_start is not None:
            on_start()
        return self.run(seed, units, log=log, probe=probe)

    def coverage(self, window: Any, result: PassResult) -> Tuple[float, float, int]:
        """(covered s, wall s, units) of a traced pass: segment root spans."""
        covered, wall = window.coverage("segment")
        return covered, wall, window.calls("segment")

    def _call(self, seed: int) -> Unit:
        try:
            return self.request(seed)
        except SanitizerError as exc:
            record = {"error": type(exc).__name__, "seed": seed}
            return Unit(record=record, failed=1, problems=[str(exc)])
        except ReproError as exc:
            return Unit(record={"error": type(exc).__name__, "seed": seed}, failed=1)

    def run(
        self,
        seed: int,
        units: int,
        log: Optional[SpanLog] = None,
        probe: Optional[HostProbe] = None,
    ) -> PassResult:
        """Run exactly ``units`` requests; with ``probe``, also in refs."""
        result = PassResult()
        start = time.perf_counter()
        for segment_seed in itertools.islice(seed_stream(self.name, seed), units):
            began = time.perf_counter()
            if log is not None and self.bench_root_span:
                with log.span("segment"):
                    unit = self._call(segment_seed)
            else:
                unit = self._call(segment_seed)
            call = (began, time.perf_counter())
            took, refs = _measure(call, probe)
            result.units += 1
            result.call_s.append(took)
            result.busy_s += took
            result.busy_ref += refs
            if unit.segments is None:
                if not unit.failed:
                    result.add_segment(call, probe)
                    result.completed_segments += 1
            else:
                for window in unit.segments:
                    result.add_segment(window, probe)
                result.completed_segments += unit.completed
            result.attempted += unit.attempted
            result.failed += unit.failed
            result.problems.extend(unit.problems)
            result.records.append(unit.record)
        result.wall_s = time.perf_counter() - start
        result.request_s, result.request_ref = list(result.segment_s), list(result.segment_ref)
        return result


class StockCold(ClosedLoop):
    name = "stock_cold"
    why = (
        "closed loop, 1 client: serial run_probabilistic_trials (spray 8, as repro bench's "
        "campaign case) on the stock 16 MiB kernel, cold boot per segment, no memo or snapshot"
    )
    units_per_s = 12.0
    trace_units_per_s = 3.0

    def setup(self) -> None:
        from repro.perf.parallel import run_probabilistic_trials

        run_probabilistic_trials(1, seed=SETUP_SEED, workers=1, **TRIAL_KWARGS)

    def request(self, seed: int) -> Unit:
        from repro.perf.parallel import run_probabilistic_trials

        report = run_probabilistic_trials(1, seed=seed, workers=1, **TRIAL_KWARGS)
        problems = []
        for result in report.results():
            if "error" in result:
                continue
            if result["outcome"] not in ("success", "budget-exhausted", "failed"):
                problems.append(f"stock trial {seed}: unexpected outcome {result['outcome']}")
            if result["hammer_rounds"] < 1 or result["ptes_checked"] < 1:
                problems.append(f"stock trial {seed}: no hammer round or no PTE checked")
        return Unit(record=report.to_dict(), failed=len(report.failed), problems=problems)


class _Stamps:
    """A campaign time source that keeps every reading.

    :class:`~repro.faults.campaign.CampaignRunner` reads its time source
    once when it starts and once before each segment while a wall-clock
    budget is set, so the readings count the segments it started.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def __call__(self) -> float:
        now = time.perf_counter()
        self.readings.append(now)
        return now


class ChaosArmed(ClosedLoop):
    """One request is one rotation of the three chaos segment kinds.

    Throughput counts every segment; latency is sampled on the Algorithm 1
    segments alone. That kind is the armed scalar hammer path and about
    85% of a rotation (about 2 s on a 2 vCPU Xeon). A probabilistic
    segment takes 0.06-0.3 s when the attack succeeds early and about
    0.55 s when it runs its budget, about 40/60, and a Monte Carlo one
    0.05 s; medians over all segments, or over whole rotations, fall
    between these modes and jumped by 9-36% between seeds.
    """

    name = "chaos_armed"
    why = (
        "closed loop, 1 client: serial chaos rotation (probabilistic, Algorithm 1 with "
        "ptp-exhaust, Monte Carlo), faults and sanitizers armed, scalar paths; latency of "
        "the Algorithm 1 segments"
    )
    digest_units = 1
    #: About 0.3 rotations per second: up to ``--seconds`` 36, a pass is
    #: MIN_SAMPLES rotations.
    units_per_s = 0.3
    #: Set-ups (and imports) per untraced run, fewer than the others'
    #: five: each runs a chaos segment, and the pass alone takes about
    #: four times the others' at ``--seconds`` 10.
    setup_repeats = 3
    trace_units_per_s = 0.1
    bench_root_span = False
    extra_entry_points = (("repro.faults.scenarios:run_chaos_segment", "segment", None),)
    #: Segments per request: one full rotation of the three kinds.
    ROTATION = 3
    #: Index of the Algorithm 1 segment within a rotation.
    TIMED_SEGMENT = 1
    #: A wall-clock budget no run reaches; it only makes the runner read
    #: its time source before every segment.
    UNREACHED_WALL_S = 1e9

    def setup(self) -> None:
        from repro.faults.scenarios import run_chaos_campaign

        run_chaos_campaign(SETUP_SEED, num_segments=1)

    def request(self, seed: int) -> Unit:
        # run_chaos_campaign(seed, num_segments=3) with workers=1 is exactly
        # build_chaos_runner(...).run(); the runner is built here only to
        # hand it a time source that brackets each segment.
        from repro.faults.campaign import CampaignBudget
        from repro.faults.scenarios import build_chaos_runner, segment_kind

        assert segment_kind(self.TIMED_SEGMENT) == "algorithm1"
        stamps = _Stamps()
        runner = build_chaos_runner(
            seed,
            num_segments=self.ROTATION,
            budget=CampaignBudget(max_wall_s=self.UNREACHED_WALL_S),
            time_source=stamps,
        )
        readings = stamps.readings
        try:
            report = runner.run()
        except ReproError as exc:
            completed = len(readings) - 2
            windows = list(zip(readings[1:], readings[2:]))
            problems = [str(exc)] if isinstance(exc, SanitizerError) else []
            record = {"error": type(exc).__name__, "seed": seed, "segment": completed}
            timed = windows[self.TIMED_SEGMENT : self.TIMED_SEGMENT + 1]
            return Unit(record, timed, completed, attempted=completed + 1, failed=1, problems=problems)
        windows = list(zip(readings[1:], readings[2:] + [time.perf_counter()]))
        problems = []
        for result in report.results():
            if "error" in result:
                continue
            if result.get("sanitizer_violations", 0):
                problems.append(f"chaos {seed}: {result['sanitizer_violations']} sanitizer violations")
            if result["kind"] == "algorithm1" and result["outcome"] == "success":
                problems.append(f"chaos {seed}: Algorithm 1 succeeded on a CTA kernel")
        timed = [windows[self.TIMED_SEGMENT]] if self.TIMED_SEGMENT in report.completed else []
        return Unit(
            record=report.to_dict(),
            segments=timed,
            completed=len(report.completed),
            attempted=self.ROTATION,
            failed=len(report.failed),
            problems=problems,
        )


class CtaPaperscale(ClosedLoop):
    name = "cta_paperscale"
    why = (
        "closed loop, 1 client: run_paperscale_campaign at fresh seeds on a 2 GiB CTA "
        "kernel (128 KiB rows, N=512); live Algorithm 1 over ZONE_PTP plus templating"
    )
    units_per_s = 11.0
    trace_units_per_s = 4.0
    #: Fields of PaperScaleReport that are simulated (the *_s fields other
    #: than the modelled sweep time are host wall-clock and stay out).
    SIMULATED = (
        "total_bytes",
        "hammer_rounds",
        "flips_induced",
        "pointer_observations",
        "monotonic_observations",
        "algorithm1_outcome",
        "templating_outcome",
        "full_sweep_modeled_s",
        "resident_rows",
        "resident_bytes",
    )

    def setup(self) -> None:
        from repro.perf.paperscale import run_paperscale_campaign

        run_paperscale_campaign(seed=SETUP_SEED)

    def request(self, seed: int) -> Unit:
        from repro.perf.paperscale import run_paperscale_campaign

        report = run_paperscale_campaign(seed=seed)
        record = {name: getattr(report, name) for name in self.SIMULATED}
        problems = []
        if report.algorithm1_outcome == "success":
            problems.append(f"paperscale {seed}: Algorithm 1 succeeded on CTA")
        # "failed" is templating's verdict when no flip it found lands in a
        # PTE frame field; with usable templates CTA must report "blocked".
        if report.templating_outcome not in ("blocked", "failed"):
            problems.append(
                f"paperscale {seed}: templating reported {report.templating_outcome} on CTA"
            )
        # Pointer monotonicity is not checked here: the campaign's flip
        # statistics (p_with_leak=0.998) let 0.2% of flips go 0 -> 1, which
        # can raise a pointer. The monotonic count is in the digest; the
        # idealised-cell invariant is checked by chaos_armed's sanitizer.
        return Unit(record=record, problems=problems)


@dataclass(frozen=True)
class Arrival:
    """One scheduled request of the open loop."""

    index: int
    due_s: float
    name: str
    seed: int
    tenant: str
    repeat: bool


class ServiceTenants:
    name = "service_tenants"
    #: Requests per second, evenly spaced: half the service's capacity
    #: (11 requests/s on a 2 vCPU Xeon) at the commit that introduced this
    #: benchmark, as ``capacity.py`` measured it
    #: (``baselines/service-capacity.json``). The service is then about
    #: half busy. In that sweep the median request hardly waited up to 75%
    #: busy, so a host a third slower still measures the service more than
    #: its queue, while a run holds about 40 fresh requests.
    RATE_PER_S = 5.5
    #: Share of requests that repeat an earlier (name, seed) pair: every
    #: fourth request, with the pair drawn from the seeded generator. A
    #: chosen mix (no request trace exists to take it from) that leaves
    #: most requests fresh.
    REPEAT_SHARE = 0.25
    #: The tenant count of ``repro bench``'s service_multi_tenant_memo case.
    TENANTS = 8
    #: One segment per request: a request's latency is then one segment
    #: plus its wait, and a run holds twice the request samples it would
    #: with two segments at the same load.
    SEGMENTS_PER_REQUEST = 1
    TARGET = "repro.perf.parallel:probabilistic_trial"
    digest_units = 8
    extra_entry_points: Tuple[Tuple[str, str, Any], ...] = ()

    def __init__(self, rate_per_s: float = RATE_PER_S) -> None:
        self.rate_per_s = rate_per_s
        self.loop = f"open loop, {rate_per_s:g} requests/s, repeat share {self.REPEAT_SHARE:g}"
        self.why = (
            f"open loop, {rate_per_s:g} req/s (1/2 of capacity), {self.REPEAT_SHARE:.0%} repeats "
            f"(chosen), {self.TENANTS} tenants (as repro bench): probabilistic_trial into one "
            "inline CampaignService, shared memo, warm start; latency of fresh requests"
        )

    def schedule(self, seed: int, seconds: float) -> List[Arrival]:
        rng = random.Random(f"{self.name}:{seed}")
        fresh: List[Tuple[str, int]] = []
        arrivals = []
        every = round(1 / self.REPEAT_SHARE)
        for index in range(max(1, int(seconds * self.rate_per_s))):
            repeat = index % every == every - 1
            if repeat:
                name, campaign_seed = rng.choice(fresh)
            else:
                name, campaign_seed = f"campaign-{len(fresh):04d}", rng.getrandbits(32)
                fresh.append((name, campaign_seed))
            tenant = f"tenant-{rng.randrange(self.TENANTS)}"
            arrivals.append(
                Arrival(index, index / self.rate_per_s, name, campaign_seed, tenant, repeat)
            )
        return arrivals

    def trace_units(self, seconds: float) -> int:
        return max(self.digest_units, int(seconds / 2 * self.rate_per_s))

    def measure(self, seed: int, seconds: float, setups: int, probe: HostProbe) -> PassResult:
        """Set up ``setups`` times (timed), then serve ``seconds`` of arrivals."""

        async def body() -> PassResult:
            service, times, refs = await self._timed_setups(setups, probe)
            try:
                result = await self._pass(service, self.schedule(seed, seconds), probe)
            finally:
                await service.drain()
            result.setup_s, result.setup_ref = times, refs
            return result

        return self._run_loop(body)

    def run_prefix(
        self,
        seed: int,
        units: int,
        log: Optional[SpanLog] = None,
        on_start: Any = None,
        probe: Optional[HostProbe] = None,
    ) -> PassResult:
        """Set up, call ``on_start``, then serve the first ``units`` arrivals."""
        arrivals = self.schedule(seed, (units + 0.5) / self.rate_per_s)[:units]

        async def body() -> PassResult:
            service, _, _ = await self._timed_setups(1)
            if on_start is not None:
                on_start()
            try:
                return await self._pass(service, arrivals, probe)
            finally:
                await service.drain()

        return self._run_loop(body)

    def coverage(self, window: Any, result: PassResult) -> Tuple[float, float, int]:
        """(covered s, busy s, requests): top-level spans over busy time,
        both with the probes that ran inside them."""
        return window.top_level_s(), result.busy_s + result.probe_s, result.units

    def _request(self, arrival: Arrival) -> Any:
        from repro.service.protocol import CampaignRequest

        return CampaignRequest(
            name=arrival.name,
            target=self.TARGET,
            num_segments=self.SEGMENTS_PER_REQUEST,
            seed=arrival.seed,
            tenant=arrival.tenant,
            warm_start=True,
            kwargs=dict(TRIAL_KWARGS),
        )

    async def _setup(self) -> Any:
        """A started service whose snapshot and memo are warm."""
        from repro.perf.memo import SegmentMemo
        from repro.service.protocol import CampaignRequest
        from repro.service.server import CampaignService

        service = CampaignService(memo=SegmentMemo())
        service.start()
        await service.submit(
            CampaignRequest(
                name="warmup",
                target=self.TARGET,
                num_segments=1,
                seed=SETUP_SEED,
                warm_start=True,
                kwargs=dict(TRIAL_KWARGS),
            )
        )
        return service

    async def _timed_setups(
        self, count: int, probe: Optional[HostProbe] = None
    ) -> Tuple[Any, List[float], List[float]]:
        times, refs = [], []
        service = None
        for _ in range(count):
            if service is not None:
                await service.drain()
            before = probe.burst() if probe is not None else 0.0
            began = time.perf_counter()
            service = await self._setup()
            window = (began, time.perf_counter())
            took, ref = _measure(window, None) if probe is None else _measure_setup(window, before, probe)
            times.append(took)
            refs.append(ref)
        return service, times, refs

    async def _pass(
        self, service: Any, arrivals: List[Arrival], probe: Optional[HostProbe] = None
    ) -> PassResult:
        """Serve ``arrivals`` on schedule; with ``probe``, also in refs.

        The generator busy-waits for each due time instead of sleeping.
        On a shared host a vCPU left idle is descheduled and resumes
        slowly: with sleeps between requests, the wall time of the same
        seed's segments moved by up to 15% between runs while their CPU
        time held within 3%. The inline service works while a request is
        in flight, so its busy time is the union of those windows.

        Latency samples come from fresh requests only. A repeat is served
        from the memo in a few milliseconds; with a quarter of the samples
        near zero, the medians would sit where fresh latencies are sparse
        and jump with the mix of each seed's campaigns. Repeats still count
        in throughput, and their latency is in ``notes``.
        """
        result = PassResult()
        completions: List[Tuple[float, float, bool]] = []  # (segment done, request issued, repeat)
        requests: List[Tuple[float, float, float, bool]] = []  # (due, issued, done, repeat)
        computed: Dict[Tuple[str, int], str] = {}
        reports: Dict[int, Any] = {}

        async def serve(arrival: Arrival, due: float) -> None:
            issued = time.perf_counter()

            def progress(event: Dict[str, Any]) -> None:
                completions.append((time.perf_counter(), issued, arrival.repeat))

            try:
                report = await service.submit(self._request(arrival), progress_cb=progress)
            except AdmissionError as exc:
                result.failed += 1
                reports[arrival.index] = {"refused": exc.reason}
                requests.append((due, issued, time.perf_counter(), arrival.repeat))
                return
            requests.append((due, issued, time.perf_counter(), arrival.repeat))
            body = report.to_dict()
            reports[arrival.index] = body
            result.completed_segments += len(report.completed)
            if report.failed:
                result.failed += 1
            key = (arrival.name, arrival.seed)
            text = canonical(body)
            if key in computed and computed[key] != text:
                result.problems.append(
                    f"request {arrival.index} ({arrival.name}, {arrival.seed}): repeated "
                    "report differs from the first report for the same (name, seed)"
                )
            computed.setdefault(key, text)

        start = time.perf_counter()
        tasks = []
        for arrival in arrivals:
            due = start + arrival.due_s
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            result.generator_lag_s.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(serve(arrival, due)))
        await asyncio.gather(*tasks)
        result.wall_s, _ = _measure((start, time.perf_counter()), probe)
        previous = start
        for done, issued, repeat in sorted(completions):
            if not repeat:
                result.add_segment((max(previous, issued), done), probe)
            previous = done
        for window in _union([(issued, done) for _, issued, done, _ in requests]):
            took, refs = _measure(window, probe)
            result.busy_s += took
            result.busy_ref += refs
            result.probe_s += window[1] - window[0] - took
        repeat_s = []
        for due, _, done, repeat in requests:
            seconds, refs = _measure((due, done), probe)
            if repeat:
                repeat_s.append(seconds)
                continue
            result.request_s.append(seconds)
            if probe is not None:
                result.request_ref.append(refs)
        result.units = len(arrivals)
        result.attempted = len(arrivals)
        result.records = [reports[index] for index in sorted(reports)]
        memo = service.memo
        result.notes = {
            "memo_hits": memo.hits,
            "memo_misses": memo.misses,
            "repeat_request_p50_s": statistics.median(repeat_s) if repeat_s else None,
        }
        return result

    def _run_loop(self, coro_fn: Any) -> Any:
        """Run ``coro_fn()`` on a fresh event loop."""
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(coro_fn())
        finally:
            loop.close()
            # Kernels materialized from snapshots pin the shared memory
            # with numpy views; free them before the snapshots go away.
            gc.collect()
