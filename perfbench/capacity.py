"""Measure the capacity of ``service_tenants``'s service with a rate sweep.

Usage, from the root of a checkout::

    python3 perfbench/capacity.py --rates 2,4,6,8,12,16,24 --seconds 10 \
        --summary perfbench/baselines/service-capacity.json

Serves the ``service_tenants`` arrival schedule (same repeat share,
tenants and request shape) at each rate in turn and reports, per rate,
the requests completed per wall second, the event loop's busy share and
the requests completed per busy second. Below saturation the first
follows the offered rate and the busy share grows with it; at saturation
the busy share nears 1 and throughput stops growing. Requests per busy
second estimate capacity at any load. ``ServiceTenants.RATE_PER_S`` is
half the capacity this sweep measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import run


def sweep_point(rate: float, seed: int, seconds: float) -> Dict[str, Any]:
    from measure import HostProbe
    from workloads import ServiceTenants

    with HostProbe() as probe:
        result = ServiceTenants(rate).measure(seed, seconds, 1, probe)
    completed = result.attempted - result.failed
    return {
        "offered_per_s": rate,
        "completed_per_s": completed / result.wall_s,
        "busy_ratio": result.busy_s / result.wall_s,
        "completed_per_busy_s": completed / result.busy_s,
        # Fresh requests only, as in the benchmark's own figure.
        "request_p50_s": statistics.median(result.request_s),
        "requests": result.attempted,
        "failed": result.failed,
        "memo_hits": result.notes.get("memo_hits"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="2,4,6,8,12,16,24")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--summary", help="write the sweep (JSON) here")
    args = parser.parse_args(argv)
    run.load_simulator()
    from measure import fingerprint

    points = []
    for rate in (float(r) for r in args.rates.split(",")):
        point = sweep_point(rate, args.seed, args.seconds)
        points.append(point)
        print(
            f"offered {rate:6.2f}/s  completed {point['completed_per_s']:6.2f}/s  "
            f"busy {point['busy_ratio']:5.1%}  per busy s {point['completed_per_busy_s']:6.2f}  "
            f"request p50 {point['request_p50_s']:.3f} s",
            flush=True,
        )
    capacity = statistics.median(p["completed_per_busy_s"] for p in points)
    print(f"capacity (median requests per busy second): {capacity:.2f}/s")
    if args.summary:
        summary = {
            "machine": fingerprint(),
            "seed": args.seed,
            "seconds": args.seconds,
            "points": points,
            "capacity_per_s": capacity,
        }
        Path(args.summary).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        run.stop_helpers()
