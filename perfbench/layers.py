"""What the traced pass wraps, and the metrics it reports per layer.

Layer names follow the ``repro`` package. Each traced entry point is a
public function or method; its span name is the layer metric's prefix.
Counts the simulator already keeps (``rowhammer.*``, ``tlb.*``,
``mmu.walks``, ``faults.injected``, ``memo.*``, ``campaign.*``,
``service.*``) are read from the ``repro.obs`` registry, not counted
again here. The registry has no equivalent for these, so the wrappers
tally them: bursts with a flip (``dram.hammer.productive_ratio``), the
resident DRAM of an attacked kernel, sprayed pages, PTEs checked and
checks that found a self-reference, ``faults.events`` (calls into the
fault plane's dispatch, fired or not), ``payload.compile.calls`` and the
service's queue wait.

:data:`END_TO_END` and :data:`PER_LAYER` are the metric catalogue; each
per-layer entry records which end-to-end metric it should move on which
workload (a claim to check, not a measurement). ``BENCHMARK.json`` lists
the end-to-end metrics it gates and the per-layer metrics all its
workloads exercise, with the same units and directions; a run prints
every metric here and puts the listed ones in its JSON line.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from measure import InsufficientSamples, tail
from spans import Observer, SpanLog, SpanSummary


class MetricSpec(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""
    on: str = ""


END_TO_END: Tuple[MetricSpec, ...] = (
    MetricSpec("segments_per_s", "1/s", "higher"),
    MetricSpec("segment_p50_s", "s", "lower"),
    MetricSpec("segment_tail_s", "s", "lower"),
    MetricSpec("request_p50_s", "s", "lower"),
    MetricSpec("request_tail_s", "s", "lower"),
    MetricSpec("setup_s", "s", "lower"),
    MetricSpec("peak_rss_mib", "MiB", "lower"),
    # The timings above in refs of the host probe (measure.py).
    MetricSpec("setup_ref", "ref", "lower"),
    MetricSpec("segments_per_ref", "1/ref", "higher"),
    MetricSpec("segment_p50_ref", "ref", "lower"),
    MetricSpec("segment_tail_ref", "ref", "lower"),
    MetricSpec("request_p50_ref", "ref", "lower"),
    MetricSpec("request_tail_ref", "ref", "lower"),
)

_SEG = "segments_per_s"
PER_LAYER: Tuple[MetricSpec, ...] = (
    MetricSpec("dram.hammer.self_s", "s", "lower", _SEG, "stock_cold, cta_paperscale, chaos_armed"),
    MetricSpec("dram.hammer.calls", "count", "lower", _SEG, "stock_cold, cta_paperscale"),
    MetricSpec("dram.flips", "count", "lower", _SEG, "stock_cold, cta_paperscale"),
    MetricSpec("dram.hammer.productive_ratio", "ratio", "higher", _SEG, "stock_cold, cta_paperscale"),
    MetricSpec("dram.resident_mib", "MiB", "lower", "peak_rss_mib", "cta_paperscale"),
    MetricSpec("faults.events", "count", "lower", _SEG, "chaos_armed"),
    MetricSpec("faults.injected", "count", "lower", _SEG, "chaos_armed"),
    MetricSpec("faults.dispatch.self_s", "s", "lower", _SEG, "chaos_armed"),
    MetricSpec("faults.campaign.retries", "count", "lower", "failed_fraction", "chaos_armed"),
    MetricSpec("faults.campaign.failed", "count", "lower", "failed_fraction", "chaos_armed"),
    MetricSpec("kernel.boot.self_s", "s", "lower", "setup_s, segment_p50_s", "every workload; stock_cold"),
    MetricSpec("kernel.spray.self_s", "s", "lower", _SEG, "stock_cold"),
    MetricSpec("kernel.spray.pages", "count", "lower", _SEG, "stock_cold"),
    MetricSpec("kernel.walk.self_s", "s", "lower", _SEG, "cta_paperscale, stock_cold"),
    MetricSpec("kernel.walk.walks", "count", "lower", _SEG, "cta_paperscale, stock_cold"),
    MetricSpec("kernel.tlb.hit_ratio", "ratio", "higher", _SEG, "cta_paperscale, stock_cold"),
    MetricSpec("payload.compile.self_s", "s", "lower", "nothing (sentinel)", "every workload"),
    MetricSpec("payload.compile.calls", "count", "lower", "nothing (sentinel)", "every workload"),
    MetricSpec("attacks.run.self_s", "s", "lower", _SEG, "stock_cold, cta_paperscale"),
    MetricSpec("attacks.check.self_s", "s", "lower", _SEG, "stock_cold"),
    MetricSpec("attacks.check.ptes", "count", "lower", _SEG, "stock_cold"),
    MetricSpec("attacks.check.hit_ratio", "ratio", "higher", _SEG, "stock_cold"),
    MetricSpec("attacks.escalate.self_s", "s", "lower", _SEG, "stock_cold"),
    MetricSpec("attacks.template.self_s", "s", "lower", _SEG, "cta_paperscale"),
    MetricSpec("sanitize.check.self_s", "s", "lower", "segments_per_s, segment_tail_s", "chaos_armed"),
    MetricSpec("verify.payload.self_s", "s", "lower", "segments_per_s, segment_tail_s", "chaos_armed"),
    MetricSpec("analysis.montecarlo.self_s", "s", "lower", "segments_per_s, segment_tail_s", "chaos_armed"),
    MetricSpec("perf.snapshot.capture_s", "s", "lower", "setup_s", "service_tenants"),
    MetricSpec("perf.snapshot.attach.self_s", "s", "lower", "request_p50_s", "service_tenants"),
    MetricSpec("memo.key.self_s", "s", "lower", "request_p50_s", "service_tenants"),
    MetricSpec("memo.lookup.self_s", "s", "lower", "request_p50_s", "service_tenants"),
    MetricSpec("memo.store.self_s", "s", "lower", "request_p50_s", "service_tenants"),
    MetricSpec("memo.hit_ratio", "ratio", "higher", "request_p50_s", "service_tenants"),
    MetricSpec("memo.bytes", "bytes", "lower", "request_p50_s", "service_tenants"),
    MetricSpec("obs.export.self_s", "s", "lower", _SEG, "every workload"),
    MetricSpec("obs.merge.self_s", "s", "lower", _SEG, "every workload"),
    MetricSpec("service.segment.self_s", "s", "lower", "request_p50_s", "service_tenants"),
    MetricSpec("service.queue_wait_p50_s", "s", "lower", "request_tail_s", "service_tenants"),
    MetricSpec("service.queue_wait_tail_s", "s", "lower", "request_tail_s", "service_tenants"),
    MetricSpec("service.generator_lag_p50_s", "s", "lower", "request_tail_s", "service_tenants"),
    MetricSpec("service.generator_lag_tail_s", "s", "lower", "request_tail_s", "service_tenants"),
    MetricSpec("service.shed", "count", "lower", "request_tail_s", "service_tenants"),
    MetricSpec("trace.coverage", "ratio", "higher", "none (trace quality)", "every workload"),
    MetricSpec("trace.overhead", "ratio", "lower", "none (trace cost)", "every workload"),
)


# -- observers: tallies only a wrapper can see ---------------------------------
def _burst(log: SpanLog, args: tuple, kwargs: dict, outcome: Any) -> None:
    log.tally("dram.bursts")
    if outcome.flip_count:
        log.tally("dram.productive_bursts")


def _attack_done(log: SpanLog, args: tuple, kwargs: dict, result: Any) -> None:
    """Record the resident DRAM of the kernel the attack just ran on."""
    module = args[0].kernel.module
    resident = module.resident_rows * module.geometry.row_bytes
    log.tallies["dram.resident_bytes"] = max(log.tallies.get("dram.resident_bytes", 0.0), resident)


def _pages(log: SpanLog, args: tuple, kwargs: dict, result: Any) -> None:
    pages = result[1] if isinstance(result, tuple) else result
    log.tally("kernel.spray.pages", 1 if isinstance(pages, int) else len(pages))


def _checked(log: SpanLog, args: tuple, kwargs: dict, references: Any) -> None:
    vas = args[2] if len(args) > 2 else kwargs["sprayed_vas"]
    log.tally("attacks.check.ptes", len(vas))
    if references:
        log.tally("attacks.check.hits")


def _enqueued(log: SpanLog, args: tuple, kwargs: dict, result: Any) -> None:
    now = time.perf_counter()
    for payload in args[1].payloads:
        log.marks[id(payload)] = now


def _dispatched(log: SpanLog, args: tuple, kwargs: dict, result: Any) -> None:
    enqueued = log.marks.pop(id(args[1]), None)
    if enqueued is not None:
        log.samples.setdefault("service.queue_wait_s", []).append(
            time.perf_counter() - enqueued
        )


#: (``"module:Qual.attr"``, span name, observer). Observers run only for
#: the outermost call of a span name, so nested calls are not counted twice.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[Observer]], ...] = (
    ("repro.kernel.kernel:Kernel.__init__", "kernel.boot", None),
    ("repro.kernel.kernel:Kernel.mmap_touch_many", "kernel.spray", _pages),
    ("repro.kernel.kernel:Kernel.touch_many", "kernel.spray", _pages),
    ("repro.kernel.kernel:Kernel.mmap", "kernel.spray", None),
    ("repro.kernel.kernel:Kernel.touch", "kernel.spray", _pages),
    ("repro.kernel.mmu:Mmu.translate_many", "kernel.walk", None),
    ("repro.kernel.mmu:Mmu.load_many", "kernel.walk", None),
    ("repro.kernel.mmu:Mmu.translate", "kernel.walk", None),
    ("repro.kernel.mmu:Mmu.load", "kernel.walk", None),
    ("repro.dram.rowhammer:RowHammerModel.hammer", "dram.hammer", _burst),
    ("repro.dram.rowhammer:RowHammerModel.hammer_double_sided", "dram.hammer", _burst),
    ("repro.faults:FaultPlane.dispatch", "faults.dispatch", None),
    ("repro.payload.compiler:compile_program", "payload.compile", None),
    ("repro.attacks.escalation:find_self_references", "attacks.check", _checked),
    ("repro.attacks.escalation:attempt_escalation", "attacks.escalate", None),
    ("repro.attacks.probabilistic:ProbabilisticPteAttack.run", "attacks.run", _attack_done),
    ("repro.attacks.probabilistic:ProbabilisticPteAttack.execute", "attacks.run", _attack_done),
    ("repro.attacks.algorithm1:CtaBruteForceAttack.run", "attacks.run", _attack_done),
    ("repro.attacks.templating:TemplatingAttack.run", "attacks.template", _attack_done),
    ("repro.sanitize:SanitizerSuite.dispatch", "sanitize.check", None),
    ("repro.sanitize:SanitizerSuite.check_now", "sanitize.check", None),
    ("repro.verify:payload_verdict_summary", "verify.payload", None),
    ("repro.analysis.montecarlo:simulate_exploitable_ptes", "analysis.montecarlo", None),
    ("repro.perf.snapshot:SimulatorSnapshot.capture", "perf.snapshot.capture", None),
    ("repro.perf.snapshot:SimulatorSnapshot.materialize", "perf.snapshot.attach", None),
    ("repro.perf.memo.runtime:SegmentMemo.payload_key", "memo.key", _dispatched),
    ("repro.perf.memo.runtime:SegmentMemo.campaign_key", "memo.key", None),
    ("repro.perf.memo.runtime:SegmentMemo.lookup", "memo.lookup", None),
    ("repro.perf.memo.runtime:SegmentMemo.store", "memo.store", None),
    ("repro.obs.metrics:Registry.export_state", "obs.export", None),
    ("repro.obs.metrics:Registry.merge_state", "obs.merge", None),
    ("repro.perf.parallel:run_segment_task", "service.segment", None),
    ("repro.service.supervisor:WorkerPool.submit_job", "service.enqueue", _enqueued),
)


def _counter(registry: Any, name: str, **labels: str) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    if not labels:
        return float(metric.total())
    wanted = set(labels.items())
    return float(sum(v for key, v in metric.series().items() if wanted <= set(key)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_and_tail(samples: List[float]) -> Tuple[float, float]:
    """Median and tail; the maximum stands in when too few samples exist."""
    if not samples:
        return 0.0, 0.0
    try:
        return statistics.median(samples), tail(samples)["value"]
    except InsufficientSamples:
        return statistics.median(samples), max(samples)


def layer_metrics(
    summary: SpanSummary,
    log: SpanLog,
    registry: Any,
    *,
    units: int,
    coverage: Tuple[float, float],
    overhead: float,
    capture_s: float,
    generator_lag: List[float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced pass.

    Times and counts are per completed unit (segment for the closed
    loops, request for the open loop), so passes of different length
    compare; ratios are unnormalised; ``capture_s`` is the snapshot
    capture time of the traced pass's set-up.
    """
    per = 1.0 / units
    tallies = log.tallies
    hits = _counter(registry, "memo.hits")
    lookups = hits + _counter(registry, "memo.misses", reason="absent")
    tlb_hits = _counter(registry, "tlb.hits")
    queue_p50, queue_tail = _median_and_tail(log.samples.get("service.queue_wait_s", []))
    lag_p50, lag_tail = _median_and_tail(generator_lag)
    memo_bytes = registry.get("memo.bytes")
    values = {
        "dram.hammer.calls": _counter(registry, "rowhammer.hammers") * per,
        "dram.flips": _counter(registry, "rowhammer.flips") * per,
        "dram.hammer.productive_ratio": _ratio(
            tallies.get("dram.productive_bursts", 0.0), tallies.get("dram.bursts", 0.0)
        ),
        "dram.resident_mib": tallies.get("dram.resident_bytes", 0.0) / 2**20,
        "faults.events": summary.calls("faults.dispatch") * per,
        "faults.injected": _counter(registry, "faults.injected") * per,
        "faults.campaign.retries": _counter(registry, "campaign.retries") * per,
        "faults.campaign.failed": _counter(registry, "campaign.segments", status="failed") * per,
        "kernel.spray.pages": tallies.get("kernel.spray.pages", 0.0) * per,
        "kernel.walk.walks": _counter(registry, "mmu.walks") * per,
        "kernel.tlb.hit_ratio": _ratio(tlb_hits, tlb_hits + _counter(registry, "tlb.misses")),
        "payload.compile.calls": summary.calls("payload.compile") * per,
        "attacks.check.ptes": tallies.get("attacks.check.ptes", 0.0) * per,
        "attacks.check.hit_ratio": _ratio(
            tallies.get("attacks.check.hits", 0.0), summary.calls("attacks.check")
        ),
        "perf.snapshot.capture_s": capture_s,
        "memo.hit_ratio": _ratio(hits, lookups),
        "memo.bytes": float(memo_bytes.value(tier="memory")) if memo_bytes is not None else 0.0,
        "service.queue_wait_p50_s": queue_p50,
        "service.queue_wait_tail_s": queue_tail,
        "service.generator_lag_p50_s": lag_p50,
        "service.generator_lag_tail_s": lag_tail,
        "service.shed": (
            _counter(registry, "service.shed") + _counter(registry, "service.rejected")
        ) * per,
        "trace.coverage": _ratio(*coverage),
        "trace.overhead": overhead,
    }
    for spec in PER_LAYER:
        if spec.name.endswith(".self_s"):
            values[spec.name] = summary.self_s(spec.name[: -len(".self_s")]) * per
    return {spec.name: values[spec.name] for spec in PER_LAYER}
