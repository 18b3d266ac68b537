"""Record the golden digests that ``run.py`` checks its results against.

Usage, from the root of a checkout::

    python3 perfbench/golden.py

For every workload and each recorded seed (the seed behind the
committed baseline and a held-out seed), runs the first
``digest_units`` requests and writes the digest of their simulated
results to ``golden.json``. A run with one of these seeds whose digest
differs is an incorrect run. Re-record only when a change is meant to
alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

import run

#: The seed behind the first run of ``baselines/trace0-seeds1-10.json``,
#: and one never used while the benchmark was tuned.
BASELINE_SEED = 1
HELD_OUT_SEED = 1001


def digest_of(workload: Any, seed: int) -> str:
    count = workload.digest_units
    result = workload.run_prefix(seed, count)
    if result.problems:
        raise SystemExit(f"{workload.name} seed {seed}: {result.problems}")
    return result.digest(count)


def main() -> int:
    run.load_simulator()
    digests: Dict[str, Dict[str, str]] = {}
    for name, workload in run.workload_table().items():
        digests[name] = {
            str(seed): digest_of(workload, seed) for seed in (BASELINE_SEED, HELD_OUT_SEED)
        }
        print(name, digests[name], flush=True)
    golden = {"baseline_seed": BASELINE_SEED, "held_out_seed": HELD_OUT_SEED, "digests": digests}
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        run.stop_helpers()
