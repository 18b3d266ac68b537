"""The end-to-end benchmark's hooks into the simulator still hold.

``perfbench/`` drives the simulator through a few public functions and
traces it by wrapping entry points named as ``"module:Qual.attr"``
strings. A refactor that renames or moves one of them leaves the
benchmark with unusable output rather than a failing test, so these
checks pin the names here. They read ``perfbench/`` and change nothing
in it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.faults.campaign import CampaignBudget
from repro.faults.scenarios import build_chaos_runner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``layers``, ``spans`` and ``run`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import run
        import spans

        yield layers, spans, run
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolves(spans, reference: str) -> bool:
    """Whether ``spans.Patcher.wrap`` would find ``reference``.

    A class attribute must be in the owner's own ``__dict__``; a module
    function must be an attribute of its module.
    """
    owner_ref, _, attr = reference.rpartition(".")
    if ":" not in owner_ref:
        owner_ref, _, attr = reference.partition(":")
    try:
        owner = spans.resolve(owner_ref)
    except (ImportError, AttributeError):
        return False
    if isinstance(owner, type):
        return attr in owner.__dict__
    return callable(getattr(owner, attr, None))


def test_every_traced_entry_point_resolves(perfbench):
    layers, spans, run = perfbench
    references = [reference for reference, _, _ in layers.ENTRY_POINTS]
    for workload in run.workload_table().values():
        references += [reference for reference, _, _ in workload.extra_entry_points]
    assert references
    assert [ref for ref in references if not _resolves(spans, ref)] == []


def test_chaos_runner_reads_its_clock_once_plus_once_per_segment():
    """``chaos_armed`` builds its latency windows from these readings."""
    readings = []

    def clock():
        readings.append(len(readings))
        return float(len(readings))

    segments = 2
    runner = build_chaos_runner(
        3,
        num_segments=segments,
        budget=CampaignBudget(max_wall_s=1e9),
        time_source=clock,
    )
    report = runner.run()
    assert len(report.completed) + len(report.failed) == segments
    assert len(readings) == 1 + segments
