"""Run the benchmark over many seeds and summarise run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 --summary perfbench/out/spread.json
    python3 perfbench/spread.py --seeds 11-20 \
        --compare perfbench/baselines/trace0-seeds1-10.json

Runs ``perfbench/run.py`` once per (workload, seed), one process at a
time, and reports per metric the median, the quartiles and their
distance as a share of the median (the spread), next to the bound in
``BENCHMARK.json``. A spread above a third of its bound is flagged, as
is (with ``--compare``) a median that is worse than the compared
summary's by more than the bound. The summary records the machine
fingerprint, so a later reader can tell which hardware a baseline came
from.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from measure import fingerprint, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int, out: Path) -> Optional[Dict[str, Any]]:
    """The run's full report (every metric it printed), or None (after
    printing its output) if it failed."""
    report = out / f"{workload}-seed{seed}-trace{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--report", str(report),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"!! {workload} seed {seed} exited {completed.returncode}:")
        print(completed.stdout + completed.stderr)
        return None
    return json.loads(report.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--summary", help="write the summary JSON here")
    parser.add_argument("--compare", help="summary JSON whose medians to compare against")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    previous = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary: Dict[str, Any] = {
        "machine": fingerprint(),
        "seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    flagged = 0
    for workload in args.workloads.split(","):
        outcomes = {seed: run_one(workload, seed, args.seconds, args.trace, out) for seed in seeds}
        runs = [run for run in outcomes.values() if run is not None]
        failed_runs = [seed for seed, run in outcomes.items() if run is None]
        flagged += bool(failed_runs)
        if not runs:
            continue
        stats = summarize(run["metrics"] for run in runs)
        summary["workloads"][workload] = {
            "attempted": sum(run["summary"]["attempted"] for run in runs),
            "failed": sum(run["summary"]["failed"] for run in runs),
            "failed_runs": failed_runs,
            "metrics": stats,
        }
        print(f"== {workload} ({len(runs)} runs)")
        for name, entry in stats.items():
            bound = bounds.get(name)
            flags = []
            if bound is not None and entry["spread"] > bound / 3:
                flags.append(f"spread above {bound / 3:.3f}")
            if previous and bound is not None:
                old = previous["workloads"].get(workload, {}).get("metrics", {}).get(name)
                if old:
                    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                    change = entry["median"] / old["median"] - 1.0
                    worse = change if better == "lower" else -change
                    entry["change_vs_compared"] = change
                    if worse > bound:
                        flags.append(f"median {change:+.1%} vs compared")
            flagged += bool(flags)
            print(
                f"  {name:30s} median {entry['median']:<12.6g} q1 {entry['q1']:<12.6g} "
                f"q3 {entry['q3']:<12.6g} spread {entry['spread']:.4f}"
                + (f"  bound {bound}" if bound is not None else "")
                + ("  <-- " + "; ".join(flags) if flags else "")
            )
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
