"""End-to-end campaign benchmark for the ``repro`` simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stock_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs a fixed prefix of the same inputs twice,
untraced and then with timing wrappers on each layer's public entry
points, reports the per-layer metrics and writes every span to
``perfbench/out/``. Timings are given in host seconds and in ref units
of a host probe sampled throughout the run (see ``measure.py``);
``BENCHMARK.json`` gates the ref figures, which host speed drift does
not move, and the raw ``setup_s``. Every run checks the
simulated results (invariants, and the digest of the first requests
against ``golden.json`` for the seeds recorded there) and prints one
line per metric followed by a JSON summary as the last line. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: Where traced runs write their span logs (ignored by git).
SPANS = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-ups (and imports) per untraced run; ``setup_s`` reports their
#: medians. ``chaos_armed``, whose set-up runs a whole chaos segment and
#: whose pass is the longest, sets up fewer times (see its class).
SETUP_REPEATS = 5

#: The simulator modules a run imports before it sets up.
MODULES = (
    "repro.faults.scenarios",
    "repro.perf.memo",
    "repro.perf.paperscale",
    "repro.perf.parallel",
    "repro.service.server",
)

#: Times the import of MODULES in a fresh interpreter, then a probe burst
#: (argv: src, perfbench, modules); prints both.
_IMPORT_TIMER = """import importlib, statistics, sys, time
sys.path[:0] = sys.argv[1:3]
began = time.perf_counter()
for module in sys.argv[3:]:
    importlib.import_module(module)
took = time.perf_counter() - began
import measure
measure.burst(1)  # untimed: the first probe pays for lazy imports
print(took, statistics.fmean(probe for _, probe in measure.burst()))
"""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full run report (JSON) here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_simulator() -> float:
    """Import the simulator from ``src/``; returns the import time."""
    began = time.perf_counter()
    sys.path.insert(0, str(SRC))
    for module in MODULES:
        importlib.import_module(module)
    return time.perf_counter() - began


def time_imports(count: int) -> Tuple[List[float], List[float]]:
    """Import the simulator ``count`` times, each in a fresh interpreter.

    Returns each import time in seconds and in refs of a probe burst the
    child ran right after its import (the parent's probes sample another
    CPU than the child's). An import happens once per process, so
    repeating it needs processes.
    """
    times, refs = [], []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(HERE), *MODULES],
            capture_output=True, text=True, check=True, timeout=120,
        )
        took, probe_s = map(float, child.stdout.split()[-2:])
        times.append(took)
        refs.append(took / probe_s)
    return times, refs


def workload_table() -> Dict[str, Any]:
    from workloads import ChaosArmed, CtaPaperscale, ServiceTenants, StockCold

    return {w.name: w for w in (StockCold(), ChaosArmed(), CtaPaperscale(), ServiceTenants())}


# -- passes -----------------------------------------------------------------
def traced_run(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced then traced pass over the same fixed prefix of inputs.

    Each pass sets up first; the traced pass's span window, tallies and
    obs counters start only once its set-up is done. Both passes are
    probed, so the tracing overhead compares their busy time in refs;
    span times include the probes that ran inside them (1-2%).
    """
    from layers import ENTRY_POINTS
    from measure import HostProbe
    from spans import Patcher, SpanLog

    from repro import obs

    units = workload.trace_units(seconds)
    log = SpanLog()
    window = {}

    def start_window() -> None:
        window["first_span"] = log.span_count()
        log.clear_tallies()
        obs.get_registry().reset()

    with HostProbe() as probe:
        plain = workload.run_prefix(seed, units, probe=probe)
        with Patcher(log) as patcher:
            for reference, name, observer in ENTRY_POINTS + tuple(workload.extra_entry_points):
                patcher.wrap(reference, name, observer)
            traced = workload.run_prefix(seed, units, log=log, on_start=start_window, probe=probe)
    return {
        "plain": plain,
        "traced": traced,
        "log": log,
        "first_span": window["first_span"],
        "registry": obs.get_registry(),
    }


# -- metrics ----------------------------------------------------------------
def end_to_end(
    result: Any, imports: Tuple[List[float], List[float]], first_import_s: float, probe: Any
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of a measured pass.

    Throughput is completed segments per second of ``busy_s`` (the
    program's working time, see :class:`workloads.PassResult`).
    ``setup_s`` is the median import (``imports``: seconds and refs,
    from :func:`time_imports`) plus the median set-up; ``setup_ref`` is
    the same in refs.
    """
    from measure import InsufficientSamples, tail

    import_s, import_ref = imports
    setup_s = statistics.median(import_s) + statistics.median(result.setup_s)
    setup_ref = statistics.median(import_ref) + statistics.median(result.setup_ref)
    values: Dict[str, float] = {
        "segments_per_s": result.completed_segments / result.busy_s,
        "segment_p50_s": statistics.median(result.segment_s),
        "request_p50_s": statistics.median(result.request_s),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "segments_per_ref": result.completed_segments / result.busy_ref,
        "segment_p50_ref": statistics.median(result.segment_ref),
        "request_p50_ref": statistics.median(result.request_ref),
        "setup_ref": setup_ref,
    }
    details: Dict[str, Any] = {
        "setup_runs_s": result.setup_s,
        "setup_runs_ref": result.setup_ref,
        "setup_s": f"median of {len(result.setup_s)}; this run's own {first_import_s + result.setup_s[0]:.4g} s",
        "import_s": import_s,
        "import_ref": import_ref,
        "first_import_s": first_import_s,
        "completed_segments": result.completed_segments,
        "segment_samples": len(result.segment_s),
        "requests": len(result.request_s),
        "wall_s": result.wall_s,
        "busy_s": result.busy_s,
        "busy_ratio": result.busy_s / result.wall_s,
        "ref_s": statistics.median(probe.durations),
        "probes": len(probe.durations),
    }
    for metric, samples in (
        ("segment_tail_s", result.segment_s),
        ("request_tail_s", result.request_s),
        ("segment_tail_ref", result.segment_ref),
        ("request_tail_ref", result.request_ref),
    ):
        try:
            chosen = tail(samples)
        except InsufficientSamples as exc:
            details[metric] = str(exc)
            continue
        values[metric] = chosen["value"]
        details[metric] = chosen
    if result.generator_lag_s:
        details["generator_lag_p50_s"] = statistics.median(result.generator_lag_s)
    if result.call_s:
        details["call_p50_s"] = statistics.median(result.call_s)
    return values, details


def per_layer(workload: Any, out: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from layers import layer_metrics

    plain, traced, log = out["plain"], out["traced"], out["log"]
    everything = log.reduce()
    window = log.reduce(first=out["first_span"])
    covered, wall, units = workload.coverage(window, traced)
    coverage = (covered, wall)
    overhead = traced.busy_ref / plain.busy_ref - 1.0 if plain.busy_ref else 0.0
    values = layer_metrics(
        window,
        log,
        out["registry"],
        units=max(1, units),
        coverage=coverage,
        overhead=overhead,
        capture_s=everything.total_s("perf.snapshot.capture"),
        generator_lag=traced.generator_lag_s,
    )
    details = {
        "units": units,
        "untraced_busy_s": plain.busy_s,
        "traced_busy_s": traced.busy_s,
        "untraced_busy_ref": plain.busy_ref,
        "traced_busy_ref": traced.busy_ref,
        "spans": log.span_count(),
        "covered_s": coverage[0],
        "root_wall_s": coverage[1],
    }
    return values, details


# -- checks -----------------------------------------------------------------
def golden_check(workload: Any, seed: int, result: Any) -> Tuple[Optional[str], List[str]]:
    """Digest of the first requests; a problem if it disagrees with golden.json."""
    count = workload.digest_units
    if len(result.records) < count:
        return None, [f"only {len(result.records)} of the {count} digest requests completed"]
    digest = result.digest(count)
    expected = json.loads(GOLDEN.read_text()).get("digests", {}).get(workload.name, {}).get(str(seed))
    if expected is not None and expected != digest:
        return digest, [
            f"digest of the first {count} requests is {digest}, golden.json records {expected}"
        ]
    return digest, []


def listed_metrics(key: str) -> List[str]:
    return [entry["name"] for entry in json.loads(BENCHMARK.read_text())[key]]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    import_s = load_simulator()
    from layers import END_TO_END, PER_LAYER
    from measure import HostProbe, fingerprint

    workloads = workload_table()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    problems: List[str] = []
    if args.trace:
        out = traced_run(workload, args.seed, args.seconds)
        result = out["traced"]
        values, details = per_layer(workload, out)
        specs = PER_LAYER
        listed = listed_metrics("per_layer")
        plain_digest = out["plain"].digest(out["plain"].units)
        if plain_digest != result.digest(result.units):
            problems.append("traced results differ from untraced results on the same inputs")
        problems.extend(out["plain"].problems)
        SPANS.mkdir(exist_ok=True)
        spans_file = SPANS / f"spans-{workload.name}-seed{args.seed}.npz"
        out["log"].save(str(spans_file))
        details["spans_file"] = str(spans_file)
    else:
        with HostProbe() as probe:
            setups = getattr(workload, "setup_repeats", SETUP_REPEATS)
            imports = time_imports(setups)
            result = workload.measure(args.seed, args.seconds, setups, probe)
        if not result.segment_s:
            print(f"perfbench: no segment of {workload.name} completed", file=sys.stderr)
            return 1
        values, details = end_to_end(result, imports, import_s, probe)
        specs = END_TO_END
        listed = listed_metrics("end_to_end")
    digest, golden_problems = golden_check(workload, args.seed, result)
    problems.extend(result.problems)
    problems.extend(golden_problems)

    machine = fingerprint()
    print(f"# perfbench {workload.name} ({workload.loop}) seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    units = {spec.name: spec.unit for spec in specs}
    for name in units:
        shown = f"{values[name]:.6g}" if name in values else "n/a"
        extra = details.get(name)
        note = ""
        if isinstance(extra, dict):
            note = f"  (p{extra['percentile']:.1f} of {extra['samples']} samples, {extra['beyond']} beyond)"
        elif isinstance(extra, str):
            note = f"  ({extra})"
        print(f"{name:32s} {shown:>14s} {units[name]}{note}")
    failed_fraction = result.failed / result.attempted if result.attempted else 0.0
    print(f"{'failed_fraction':32s} {failed_fraction:>14.6g} ratio  ({result.failed} of {result.attempted})")
    print(f"{'digest':32s} {digest or 'n/a'}  (first {workload.digest_units} requests)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    correct = not problems
    summary = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in listed if name in values
        },
    }
    if args.report:
        report = {
            "workload": workload.name,
            "loop": workload.loop,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
            "should_move": {
                spec.name: {"metric": spec.moves, "on": spec.on} for spec in specs if spec.moves
            },
            "details": details,
            "digest": digest,
            "failed_fraction": failed_fraction,
            "problems": problems,
            "notes": result.notes,
            "summary": summary,
        }
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True, default=str))
    print(json.dumps(summary))
    return 0 if correct else 1


def stop_helpers() -> None:
    """Stop the shared-memory resource tracker the snapshots started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        if "repro" in sys.modules:
            stop_helpers()
