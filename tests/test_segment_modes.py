"""One campaign, every way to run it: the byte-identity mode matrix.

A campaign's report, checkpoint and obs registry must be the same bytes
however its segments run — inline or pooled engine, inline or process
service, warm-started from a snapshot, computed or replayed from a
memory or disk memo. Each fixed target below runs once inline and cold
(the reference), then once under every other mode, and the three
artifacts are compared. ``memo.*`` and ``service.*`` metrics count the
cache and the service themselves, so they are set aside.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro import obs
from repro.faults.campaign import CampaignRunner
from repro.perf.memo import SegmentMemo, build_memo
from repro.service import CampaignRequest, CampaignService
from repro.units import MIB

SRC = Path(__file__).resolve().parents[1] / "src"


@dataclass(frozen=True)
class Case:
    name: str
    target: str
    segments: int
    seed: int
    kwargs: Dict[str, Any]
    config: Dict[str, Any]


CASES = {
    "montecarlo": Case(
        "mc-matrix",
        "repro.perf.parallel:montecarlo_trial",
        3,
        11,
        {"total_bytes": 64 * MIB, "ptp_bytes": MIB},
        {},
    ),
    "probabilistic": Case(
        "prob-matrix",
        "repro.perf.parallel:probabilistic_trial",
        2,
        23,
        {"spray_mappings": 6, "max_rounds": 1},
        {"spray_mappings": 6},
    ),
    # Segment 0 of the chaos rotation: the probabilistic attack with its
    # own seeded fault plane and the sanitizers armed.
    "chaos": Case(
        "chaos",
        "repro.faults.scenarios:run_chaos_segment",
        1,
        5,
        {"policy": "fail-hard", "smoke": True},
        {"policy": "fail-hard", "smoke": True},
    ),
}

#: (report JSON, checkpoint bytes or None, registry without memo/service).
Artifacts = Tuple[str, Optional[bytes], Dict[str, Any]]


def _stripped(state: Dict[str, Any]) -> Dict[str, Any]:
    def keep(name: str) -> bool:
        return not name.startswith(("memo.", "service."))

    out: Dict[str, Any] = {
        family: {name: data for name, data in state[family].items() if keep(name)}
        for family in ("counters", "gauges", "histograms")
    }
    out["trace"] = [event for event in state["trace"] if keep(event[0])]
    return out


def _in_fresh_registry(fn) -> Tuple[Any, Dict[str, Any]]:
    previous = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        result = fn()
    finally:
        obs.set_registry(previous)
    return result, _stripped(registry.export_state())


def _engine(
    case: Case,
    checkpoint: Path,
    *,
    workers: int = 1,
    memo: Optional[SegmentMemo] = None,
    extra_kwargs: Optional[Dict[str, Any]] = None,
) -> Artifacts:
    def run():
        return CampaignRunner(
            case.name,
            case.target,
            case.segments,
            seed=case.seed,
            config=case.config,
            kwargs={**case.kwargs, **(extra_kwargs or {})},
            workers=workers,
            checkpoint_path=checkpoint,
            memo=memo,
        ).run()

    report, state = _in_fresh_registry(run)
    return json.dumps(report.to_dict(), sort_keys=True), checkpoint.read_bytes(), state


def _service(case: Case, mode: str) -> Artifacts:
    request = CampaignRequest(
        name=case.name,
        target=case.target,
        num_segments=case.segments,
        seed=case.seed,
        kwargs=dict(case.kwargs),
        config=dict(case.config),
    )

    async def submit():
        service = CampaignService(workers=2, mode=mode)
        service.start()
        try:
            return await service.submit(request)
        finally:
            await service.drain()

    report, state = _in_fresh_registry(lambda: asyncio.run(submit()))
    return json.dumps(report.to_dict(), sort_keys=True), None, state


def _warm_kwargs(case: Case) -> Tuple[Dict[str, Any], List[Any]]:
    """Segment kwargs attaching to a captured world, plus the snapshots."""
    if case.target.endswith(":probabilistic_trial"):
        from repro.perf.parallel import capture_trial_snapshot

        snapshot = capture_trial_snapshot(spray_mappings=case.kwargs["spray_mappings"])
        return {"snapshot": snapshot.name}, [snapshot]
    if case.target.endswith(":run_chaos_segment"):
        from repro.faults.scenarios import _stock_kernel
        from repro.perf.snapshot import SimulatorSnapshot

        snapshot = SimulatorSnapshot.capture(_stock_kernel)
        return {"snapshot_names": {"probabilistic": snapshot.name}}, [snapshot]
    raise AssertionError(f"{case.target} has no warm-start world")


def _populate_in_second_process(case: Case, memo_dir: Path) -> None:
    script = (
        "import json, sys\n"
        "from repro.faults.campaign import CampaignRunner\n"
        "from repro.perf.memo import build_memo\n"
        "case = json.loads(sys.argv[1])\n"
        "CampaignRunner(case['name'], case['target'], case['segments'],"
        " seed=case['seed'], config=case['config'], kwargs=case['kwargs'],"
        " memo=build_memo(sys.argv[2])).run()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", script, json.dumps(asdict(case)), str(memo_dir)],
        env=env,
        check=True,
        timeout=600,
    )


def _mode(mode: str, case: Case, tmp_path: Path) -> Artifacts:
    checkpoint = tmp_path / f"{mode}.json"
    if mode == "engine-pool":
        return _engine(case, checkpoint, workers=2)
    if mode in ("service-inline", "service-process"):
        return _service(case, mode.split("-")[1])
    if mode == "warm-start":
        extra, snapshots = _warm_kwargs(case)
        try:
            return _engine(case, checkpoint, extra_kwargs=extra)
        finally:
            for snapshot in snapshots:
                snapshot.release()
    if mode == "memo-cold":
        memo = SegmentMemo()
        artifacts = _engine(case, checkpoint, memo=memo)
        assert (memo.hits, memo.misses) == (0, case.segments)
        return artifacts
    if mode == "memo-warm":
        memo = SegmentMemo()
        _engine(case, tmp_path / "populate.json", memo=memo)
        artifacts = _engine(case, checkpoint, memo=memo)
        assert (memo.hits, memo.misses) == (case.segments, case.segments)
        return artifacts
    if mode == "disk-memo-second-process":
        _populate_in_second_process(case, tmp_path / "memo")
        memo = build_memo(str(tmp_path / "memo"))
        artifacts = _engine(case, checkpoint, memo=memo)
        assert (memo.hits, memo.misses) == (case.segments, 0)
        return artifacts
    raise AssertionError(f"unknown mode {mode}")


MODES = (
    "engine-pool",
    "service-inline",
    "service-process",
    "warm-start",
    "memo-cold",
    "memo-warm",
    "disk-memo-second-process",
)

@pytest.fixture(scope="module")
def references(tmp_path_factory) -> Dict[str, Artifacts]:
    """The inline cold engine run of every case."""
    directory = tmp_path_factory.mktemp("references")
    return {
        case_id: _engine(case, directory / f"{case_id}.json")
        for case_id, case in CASES.items()
    }


#: Every (case, mode) pair but warm start of the Monte Carlo target,
#: which boots no world to capture.
PAIRS = [
    (case_id, mode)
    for case_id in sorted(CASES)
    for mode in MODES
    if not (case_id == "montecarlo" and mode == "warm-start")
]


@pytest.mark.parametrize(("case_id", "mode"), PAIRS)
def test_mode_matches_inline_cold_reference(case_id, mode, tmp_path, references):
    reference = references[case_id]
    report, checkpoint, registry = _mode(mode, CASES[case_id], tmp_path)
    assert report == reference[0]
    if checkpoint is not None:
        assert checkpoint == reference[1]
    assert registry == reference[2]


def test_references_do_real_work(references):
    """The matrix compares runs that did real work: every segment
    completed, and the armed chaos segment's fault plane fired."""
    for case_id, case in CASES.items():
        report = json.loads(references[case_id][0])
        assert report["segments"]["completed"] == case.segments
    assert json.loads(references["chaos"][0])["fault_totals"]
