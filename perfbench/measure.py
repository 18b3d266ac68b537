"""Statistics shared by the benchmark runner and the spread tool.

Timings are summarised as a median plus a *tail*: the highest
percentile that still has at least :data:`TAIL_BEYOND` samples strictly
above it, reported with that percentile and the sample count so a
reader can tell how much data stands behind the number.

Host speed on a shared machine drifts by tens of percent within a
second and by up to twice within minutes, so timings are also reported
in *ref* units. A :class:`HostProbe` times a fixed piece of Python and
numpy work (which does not touch the simulator) ten times a second from
a timer signal, between the simulator's own bytecodes, for as long as a
run measures. A sample is divided by the mean probe time over its own
window, so a slower host raises the sample and the probe alike and
leaves the ref figure put, while a faster simulator lowers it. Probe
time is taken out of every sample it interrupted. A set-up or import,
too short to hold many timer probes, is divided instead by a burst of
probes run right next to it (:func:`burst`).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Samples that must lie strictly beyond a reported tail value.
TAIL_BEYOND = 10

#: Seconds between two host probes.
PROBE_INTERVAL_S = 0.1

#: A window with fewer probes than this borrows the nearest ones around it.
MIN_PROBES = 10

#: Probes in a burst.
BURST_PROBES = 10


class InsufficientSamples(ValueError):
    """Too few samples for a percentile that has ten samples beyond it."""


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Dict[str, float]:
    """Highest-percentile value with at least ``beyond`` samples above it.

    Returns ``{"value", "percentile", "samples", "beyond"}``: ``value`` is
    the k-th smallest sample (1-based k), ``percentile`` is ``100 * k / n``
    and ``beyond`` counts the samples strictly greater than ``value``.
    Ties push the choice down until the count holds.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - beyond - 1
    while index >= 0 and n - bisect.bisect_right(ordered, ordered[index]) < beyond:
        index -= 1
    if index < 0:
        raise InsufficientSamples(
            f"{n} samples cannot give a percentile with {beyond} samples beyond it"
        )
    value = ordered[index]
    return {
        "value": value,
        "percentile": 100.0 * (index + 1) / n,
        "samples": n,
        "beyond": n - bisect.bisect_right(ordered, value),
    }


def _probe_work() -> int:
    """The probe's fixed work: 1-2 ms of dict and numpy code on a 2 vCPU Xeon."""
    rng = np.random.default_rng(12345)
    values = rng.integers(0, 1 << 20, size=2000)
    buckets: Dict[int, int] = {}
    for index, value in enumerate(values.tolist()):
        buckets[value & 0xFFF] = buckets.get(value & 0xFFF, 0) + index
    unique = np.unique(values & 0xFFFF)
    mixed = np.sort(values) ^ (values >> 3)
    return len(buckets) + int(unique.size) + int(mixed[0])


def burst(count: int = BURST_PROBES) -> List[Tuple[float, float]]:
    """(start, seconds) of ``count`` probes run back to back, now."""
    probes = []
    for _ in range(count):
        began = time.perf_counter()
        _probe_work()
        probes.append((began, time.perf_counter() - began))
    return probes


class HostProbe:
    """Samples host speed every :data:`PROBE_INTERVAL_S` while entered.

    A ``SIGALRM`` interval timer runs :func:`_probe_work` in the main
    thread and records when each probe began and how long it took. A
    signal that arrives while a probe runs is dropped. Only one probe may
    be entered at a time, from the main thread.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous: Any = None
        self._probing = False

    def _probe(self, signum: int, frame: Any) -> None:
        if self._probing:
            return
        self._probing = True
        try:
            began = time.perf_counter()
            _probe_work()
            self.starts.append(began)
            self.durations.append(time.perf_counter() - began)
        finally:
            self._probing = False

    def __enter__(self) -> "HostProbe":
        _probe_work()  # untimed: the first call pays for lazy imports
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def burst(self) -> float:
        """Mean probe time of a :func:`burst` run now (and recorded)."""
        self._probing = True
        try:
            probes = burst()
        finally:
            self._probing = False
        for began, took in probes:
            self.starts.append(began)
            self.durations.append(took)
        return statistics.fmean(took for _, took in probes)

    def _window(self, began: float, ended: float) -> Tuple[int, int]:
        return (
            bisect.bisect_left(self.starts, began),
            bisect.bisect_left(self.starts, ended),
        )

    def stolen_s(self, began: float, ended: float) -> float:
        """Seconds spent probing between ``began`` and ``ended``."""
        low, high = self._window(began, ended)
        return sum(self.durations[low:high])

    def ref_s(self, began: float, ended: float) -> float:
        """Mean probe time over the window, widened to :data:`MIN_PROBES`."""
        low, high = self._window(began, ended)
        if high - low < MIN_PROBES:
            low = max(0, (low + high - MIN_PROBES) // 2)
            high = min(len(self.durations), low + MIN_PROBES)
            low = max(0, high - MIN_PROBES)
        if high <= low:
            raise RuntimeError("no host probe has run yet")
        return statistics.fmean(self.durations[low:high])

    def measure(self, began: float, ended: float) -> Tuple[float, float]:
        """(seconds, refs) of a window, both net of probe time."""
        seconds = ended - began - self.stolen_s(began, ended)
        return seconds, seconds / self.ref_s(began, ended)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and IQR as a share of the median.

    Uses :func:`statistics.quantiles` with ``n=4`` (the exclusive method),
    the same arithmetic the acceptance check applies to repeated runs.
    """
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "runs": len(values),
    }


def canonical(obj: Any) -> str:
    """Canonical JSON used for digests (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


class Digest:
    """Running sha256 over the canonical JSON of simulated results."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.items = 0

    def add(self, obj: Any) -> None:
        self._hash.update(canonical(obj).encode("utf-8"))
        self._hash.update(b"\n")
        self.items += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, Any]:
    """Machine and toolchain identity recorded beside every report."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def summarize(runs: Iterable[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, float]]:
    """Per-metric quartiles across runs of ``{"metric": {"value": x}}``."""
    by_metric: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for metrics in runs:
        for name, entry in metrics.items():
            by_metric.setdefault(name, []).append(float(entry["value"]))
            units[name] = entry.get("unit", "")
    return {
        name: {"unit": units[name], **quartiles(values)}
        for name, values in sorted(by_metric.items())
    }
