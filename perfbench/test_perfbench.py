"""Tests of the benchmark's own arithmetic and plumbing.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import repro.service.server  # noqa: E402,F401  (imported here, not inside a timed request)
import workloads  # noqa: E402
from measure import MIN_PROBES, HostProbe, InsufficientSamples, quartiles, tail  # noqa: E402
from spans import Patcher, SpanLog, reduce_spans  # noqa: E402


# -- self time ------------------------------------------------------------------
def test_self_time_subtracts_only_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    names = ["root", "a", "b", "c"]
    summary = reduce_spans(
        names,
        np.array([0, 1, 2, 3]),
        np.array([-1, 0, 1, 0]),
        np.array([0.0, 1.0, 2.0, 5.0]),
        np.array([10.0, 4.0, 3.0, 9.0]),
    )
    assert summary.self_s("root") == pytest.approx(3.0)
    assert summary.self_s("a") == pytest.approx(2.0)
    assert summary.self_s("b") == pytest.approx(1.0)
    assert summary.self_s("c") == pytest.approx(4.0)
    assert summary.coverage("root") == pytest.approx((7.0, 10.0))
    assert summary.top_level_s() == pytest.approx(10.0)


def test_self_time_adds_up_per_name_and_windows_rebase_parents(monkeypatch):
    clock = iter(float(t) for t in range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    log = SpanLog()
    with log.span("setup"):
        pass  # [0, 1]
    first = log.span_count()
    for _ in range(2):
        with log.span("segment"):  # [2, 7], then [8, 13]
            with log.span("dram.hammer"):  # [3, 6]
                with log.span("faults.dispatch"):  # [4, 5]
                    pass
    everything = log.reduce()
    window = log.reduce(first=first)
    assert everything.calls("setup") == 1 and window.calls("setup") == 0
    assert window.calls("segment") == 2
    assert window.self_s("segment") == pytest.approx(2 * 2.0)
    assert window.self_s("dram.hammer") == pytest.approx(2 * 2.0)
    assert window.self_s("faults.dispatch") == pytest.approx(2 * 1.0)
    assert window.coverage("segment") == pytest.approx((6.0, 10.0))


def test_open_spans_refuse_to_reduce():
    log = SpanLog()
    log.open(log.name_id("dangling"))
    with pytest.raises(RuntimeError):
        log.reduce()


# -- tail percentile ------------------------------------------------------------
def test_tail_keeps_ten_samples_beyond():
    chosen = tail([float(v) for v in range(1, 101)])
    assert chosen["value"] == 90.0
    assert chosen["percentile"] == pytest.approx(90.0)
    assert chosen["samples"] == 100 and chosen["beyond"] == 10


def test_tail_with_eleven_samples_is_the_smallest():
    chosen = tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert chosen["value"] == 1.0 and chosen["beyond"] == 10


def test_tail_steps_below_ties():
    chosen = tail([1.0] * 5 + [2.0] * 3 + [3.0] * 10)
    assert chosen["value"] == 2.0 and chosen["beyond"] == 10
    assert chosen["percentile"] == pytest.approx(100 * 8 / 18)


@pytest.mark.parametrize("values", [[1.0] * 10, [1.0] * 30, list(map(float, range(10)))])
def test_tail_refuses_without_ten_samples_beyond(values):
    with pytest.raises(InsufficientSamples):
        tail(values)


def test_quartiles_match_statistics_quantiles():
    q = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q["q1"], q["median"], q["q3"]) == (2.75, 5.5, 8.25)
    assert q["spread"] == pytest.approx(5.5 / 5.5)


# -- host probe ------------------------------------------------------------------
def _probe(starts, durations):
    probe = HostProbe()
    probe.starts, probe.durations = list(starts), list(durations)
    return probe


def test_probe_window_takes_out_probe_time_and_divides_by_its_mean():
    # Probes at 0.0, 0.1, ..., 1.9 s; the second half of them twice as slow.
    starts = [i / 10 for i in range(20)]
    probe = _probe(starts, [0.001] * 10 + [0.002] * 10)
    assert probe.stolen_s(1.0, 2.0) == pytest.approx(10 * 0.002)
    seconds, refs = probe.measure(1.0, 2.0)
    assert seconds == pytest.approx(1.0 - 0.02)
    assert refs == pytest.approx(0.98 / 0.002)


def test_probe_widens_short_windows_to_the_nearest_probes():
    starts = [i / 10 for i in range(30)]
    probe = _probe(starts, [float(i) for i in range(30)])
    # A window holding only the probe at 1.5 s averages the 10 around it.
    assert probe.ref_s(1.45, 1.55) == pytest.approx(sum(range(10, 20)) / 10)
    # At the ends of the run the window stays inside the probes taken.
    assert probe.ref_s(-1.0, 0.0) == pytest.approx(sum(range(MIN_PROBES)) / MIN_PROBES)
    assert probe.ref_s(9.0, 9.5) == pytest.approx(sum(range(20, 30)) / 10)


def test_probe_samples_while_entered_and_stops_after():
    with HostProbe(interval_s=0.01) as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    taken = len(probe.durations)
    assert taken >= 5 and all(d > 0 for d in probe.durations)
    time.sleep(0.05)
    assert len(probe.durations) == taken
    # A burst is recorded with the rest.
    assert probe.burst() > 0 and len(probe.durations) == taken + 10


def test_end_to_end_takes_throughput_over_busy_time_and_setup_in_ref():
    import run

    result = workloads.PassResult(
        segment_s=[0.1, 0.2, 0.3], request_s=[0.2, 0.4], segment_ref=[1.0, 2.0, 3.0],
        request_ref=[2.0, 4.0], completed_segments=6,
        wall_s=10.0, busy_s=3.0, busy_ref=30.0,
        setup_s=[0.5, 0.3, 0.4], setup_ref=[5.0, 1.5, 2.0],
    )
    imports = ([0.2, 0.1, 0.3], [2.0, 1.0, 3.0])
    values, details = run.end_to_end(result, imports, 0.1, _probe([0.0], [0.1]))
    assert values["segments_per_s"] == pytest.approx(2.0)
    assert values["segments_per_ref"] == pytest.approx(0.2)
    # Median import 0.2 s plus median set-up 0.4 s.
    assert values["setup_s"] == pytest.approx(0.6)
    # The same in refs: median(2, 1, 3) + median(5, 1.5, 2).
    assert values["setup_ref"] == pytest.approx(2.0 + 2.0)
    assert "this run's own 0.6 s" in details["setup_s"]


def test_time_imports_uses_a_fresh_interpreter_each_time():
    import run

    times, refs = run.time_imports(2)
    assert len(times) == len(refs) == 2
    assert all(t > 0 for t in times + refs)


def test_union_merges_overlapping_windows():
    windows = [(3.0, 4.0), (0.0, 1.0), (0.5, 2.0), (2.0, 2.5)]
    assert workloads._union(windows) == [(0.0, 2.5), (3.0, 4.0)]


# -- fixed work per pass ----------------------------------------------------------
def test_closed_loop_pass_size_is_fixed_by_its_seconds():
    stock, chaos = workloads.StockCold(), workloads.ChaosArmed()
    assert stock.units_for(12) == round(12 * stock.units_per_s)
    # Never fewer requests than the tail percentile needs.
    assert chaos.units_for(12) == stock.units_for(0.5) == workloads.MIN_SAMPLES


def test_probed_pass_gives_every_sample_in_refs_too():
    stock = workloads.StockCold()
    with HostProbe(interval_s=0.01) as probe:
        result = stock.run(6, units=2, probe=probe)
    assert (result.units, result.attempted) == (2, 2)
    assert len(result.segment_ref) == len(result.segment_s) == result.completed_segments
    assert result.busy_ref > 0 and result.request_ref == result.segment_ref


def test_chaos_times_the_algorithm1_segment_of_each_rotation():
    chaos = workloads.ChaosArmed()
    result = chaos.run(2, units=1)
    assert not result.problems
    assert (result.attempted, result.failed, result.completed_segments) == (3, 0, 3)
    # Algorithm 1 is most of the rotation, but not all of it.
    (rotation,) = result.call_s
    assert 0.5 * rotation < result.segment_s[0] < rotation
    assert result.request_s == result.segment_s


# -- open loop accounting --------------------------------------------------------
class _InlineService:
    """Blocks the event loop for ``busy_s`` per request, like inline mode."""

    def __init__(self, busy_s: float):
        self.busy_s = busy_s
        self.memo = SimpleNamespace(hits=0, misses=0)

    async def submit(self, request, progress_cb=None):
        time.sleep(self.busy_s)
        progress_cb({})
        return SimpleNamespace(completed={0: {}}, failed={}, to_dict=lambda: {"name": request.name})


def test_open_loop_times_requests_from_their_due_time():
    service_tenants = workloads.ServiceTenants()
    arrivals = [
        workloads.Arrival(i, due, f"c{i}", i, "tenant-0", False)
        for i, due in enumerate((0.0, 0.05, 0.1))
    ]
    busy = 0.2
    result = service_tenants._run_loop(
        lambda: service_tenants._pass(_InlineService(busy), arrivals)
    )
    lag = result.generator_lag_s
    assert lag[0] == pytest.approx(0.0, abs=0.03)
    # The generator was stuck behind the first request's inline work.
    assert lag[1] == pytest.approx(busy - 0.05, abs=0.05)
    assert lag[2] == pytest.approx(busy - 0.1, abs=0.05)
    latency = sorted(result.request_s)
    # Request k finishes after k + 1 services; its clock started when due.
    for k, due in enumerate((0.0, 0.05, 0.1)):
        assert latency[k] == pytest.approx((k + 1) * busy - due, abs=0.06)
    assert result.segment_s == pytest.approx([busy] * 3, abs=0.05)
    assert result.busy_s == pytest.approx(3 * busy, abs=0.1)
    # Throughput is taken over busy time, which the schedule does not fix.
    assert result.busy_s < result.wall_s + 1e-9
    assert result.attempted == 3 and result.failed == 0


def test_open_loop_samples_latency_from_fresh_requests_only():
    service_tenants = workloads.ServiceTenants()
    arrivals = [
        workloads.Arrival(0, 0.0, "c0", 0, "tenant-0", False),
        workloads.Arrival(1, 0.1, "c0", 0, "tenant-1", True),
    ]
    result = service_tenants._run_loop(
        lambda: service_tenants._pass(_InlineService(0.05), arrivals)
    )
    # The repeat still completes a segment and counts as busy time.
    assert result.completed_segments == 2 and result.busy_s == pytest.approx(0.1, abs=0.04)
    assert len(result.request_s) == len(result.segment_s) == 1
    assert result.notes["repeat_request_p50_s"] == pytest.approx(0.05, abs=0.04)


def test_schedule_is_seeded_and_repeats_earlier_pairs():
    service_tenants = workloads.ServiceTenants()
    first = service_tenants.schedule(7, 40)
    assert first == service_tenants.schedule(7, 40)
    assert first != service_tenants.schedule(8, 40)
    assert len(first) == int(40 * service_tenants.rate_per_s)
    seen = set()
    for arrival in first:
        pair = (arrival.name, arrival.seed)
        assert arrival.repeat == (pair in seen)
        seen.add(pair)
    assert sum(a.repeat for a in first) == int(len(first) * service_tenants.REPEAT_SHARE)


# -- digests ---------------------------------------------------------------------
@pytest.mark.parametrize("workload", [workloads.StockCold(), workloads.CtaPaperscale()])
def test_same_seed_runs_have_equal_digests(workload):
    first = workload.run(3, units=2)
    again = workload.run(3, units=2)
    other = workload.run(4, units=2)
    assert not first.problems and not again.problems
    assert first.digest(2) == again.digest(2)
    assert first.digest(2) != other.digest(2)


# -- tracing plumbing ------------------------------------------------------------
def test_patcher_traces_every_binding_and_restores_them():
    import repro.attacks.escalation as escalation
    import repro.attacks.probabilistic as probabilistic

    original = escalation.find_self_references
    log = SpanLog()
    with Patcher(log) as patcher:
        patcher.wrap("repro.attacks.escalation:find_self_references", "attacks.check")
        assert probabilistic.find_self_references is escalation.find_self_references
        assert escalation.find_self_references is not original
    assert escalation.find_self_references is original
    assert probabilistic.find_self_references is original


def test_traced_pass_matches_untraced_results(tmp_path):
    stock = workloads.StockCold()
    plain = stock.run(5, units=1)
    log = SpanLog()
    with Patcher(log) as patcher:
        for reference, name, observer in layers.ENTRY_POINTS:
            patcher.wrap(reference, name, observer)
        traced = stock.run(5, units=1, log=log)
    assert plain.digest(1) == traced.digest(1)
    summary = log.reduce()
    covered, wall = summary.coverage("segment")
    assert covered / wall > 0.9
    assert summary.calls("dram.hammer") > 0 and summary.calls("kernel.boot") == 1
    log.save(str(tmp_path / "spans.npz"))
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["starts"]) == log.span_count()
    assert list(saved["names"]) == log.names


# -- catalogue -------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    catalogue = {spec.name: spec for spec in layers.END_TO_END + layers.PER_LAYER}
    for entry in bench["end_to_end"] + bench["per_layer"]:
        spec = catalogue[entry["name"]]
        assert (entry["unit"], entry["better"]) == (spec.unit, spec.better)
    listed = {e["name"] for e in bench["end_to_end"]}
    assert {"setup_s", "peak_rss_mib"} <= listed
    setup = next(e for e in bench["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in bench["end_to_end"])
    known = {"stock_cold", "chaos_armed", "cta_paperscale", "service_tenants"}
    assert {w["name"] for w in bench["workloads"]} <= known
