"""Crash-safe campaign running: budgets, retries, checkpoint/resume.

The central claim under test: a campaign killed mid-run and resumed from
its checkpoint produces *exactly* the report an uninterrupted run would
have — same per-segment results, same retry accounting — because every
(segment, attempt) pair derives its seed statelessly from the campaign
seed.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.errors import ConfigurationError, KernelError, TransientFaultError
from repro.faults.campaign import (
    CampaignBudget,
    CampaignRunner,
    read_checkpoint,
)
from repro.rng import derive_seed, make_rng
from repro.service import CampaignRequest, CampaignService


def flaky_segment_fn(fail_attempts=(0,)):
    """A deterministic segment body that fails its first N attempts.

    Segment 1 raises TransientFaultError on the attempts listed in
    ``fail_attempts`` (an attempt is numbered by the earlier calls for
    its index); every segment returns a result derived only from its
    seed, so reruns and resumes reproduce it bit-for-bit.
    """
    calls = {}

    def segment(index, seed):
        attempt = calls.get(index, 0)
        calls[index] = attempt + 1
        if index == 1 and attempt in fail_attempts:
            raise TransientFaultError("injected turbulence", fault="test")
        rng = make_rng(seed)
        return {
            "index": index,
            "draw": int(rng.integers(0, 1_000_000)),
            "faults": {"test": 1} if index == 1 else {},
        }

    return segment


def kernel_error_trial(index, seed):
    """Segment 1 raises a non-retryable error; the others succeed."""
    if index == 1:
        raise KernelError(f"segment {index} broke")
    return {"index": index, "seed": seed, "faults": {}}


class TestBudget:
    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignBudget(max_segments=0)
        with pytest.raises(ConfigurationError):
            CampaignBudget(max_wall_s=0)

    def test_segment_budget_interrupts(self, tmp_path):
        runner = CampaignRunner(
            "t",
            flaky_segment_fn(()),
            num_segments=5,
            seed=3,
            budget=CampaignBudget(max_segments=2),
            checkpoint_path=tmp_path / "ck.json",
        )
        report = runner.run()
        assert report.interrupted
        assert len(report.completed) == 2
        assert report.remaining == 3

    def test_wall_clock_budget_interrupts(self):
        clock = iter([0.0, 0.0, 100.0, 200.0, 300.0])
        runner = CampaignRunner(
            "t",
            flaky_segment_fn(()),
            num_segments=5,
            seed=3,
            budget=CampaignBudget(max_wall_s=50.0),
            time_source=lambda: next(clock),
        )
        report = runner.run()
        assert report.interrupted
        assert len(report.completed) == 1


class TestRetries:
    def test_transient_fault_retried_with_backoff(self):
        runner = CampaignRunner(
            "t",
            flaky_segment_fn((0, 1)),
            num_segments=3,
            seed=3,
            max_retries=3,
            backoff_base_s=0.5,
        )
        report = runner.run()
        assert not report.interrupted and not report.failed
        assert report.completed[1]["attempts"] == 3
        assert report.retries == 2
        assert report.backoff_wait_s == 1.5
        counter = obs.get_registry().counter("campaign.retries")
        assert counter.value(campaign="t") == 2

    def test_retries_exhausted_marks_segment_failed(self):
        runner = CampaignRunner(
            "t",
            flaky_segment_fn((0, 1, 2)),
            num_segments=3,
            seed=3,
            max_retries=2,
        )
        report = runner.run()
        assert report.failed[1]["error_type"] == "TransientFaultError"
        assert report.failed[1]["attempts"] == 3
        assert len(report.completed) == 2
        assert not report.interrupted  # terminal failure, not a budget stop
        assert report.results()[1] == {"error": "TransientFaultError"}

    def test_retry_attempt_gets_fresh_derived_seed(self):
        seeds = []

        def segment(index, seed):
            seeds.append((index, seed))
            if len(seeds) == 1:
                raise TransientFaultError("again", fault="test")
            return {}

        CampaignRunner("t", segment, num_segments=1, seed=9, max_retries=1).run()
        assert seeds[0][1] == derive_seed(9, 0, 0)
        assert seeds[1][1] == derive_seed(9, 0, 1)
        assert seeds[0][1] != seeds[1][1]


class TestNonRetryableErrors:
    """Errors outside the retry taxonomy are not segment failures."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_propagate_out_of_the_engine(self, workers):
        runner = CampaignRunner(
            "t",
            "tests.test_campaign_runner:kernel_error_trial",
            num_segments=3,
            seed=4,
            workers=workers,
        )
        with pytest.raises(KernelError, match="segment 1 broke"):
            runner.run()

    def test_service_records_a_failed_segment(self):
        request = CampaignRequest(
            name="t",
            target="tests.test_campaign_runner:kernel_error_trial",
            num_segments=3,
            seed=4,
        )

        async def submit():
            service = CampaignService(workers=2)
            service.start()
            try:
                return await service.submit(request)
            finally:
                await service.drain()

        report = asyncio.run(submit())
        assert sorted(report.completed) == [0, 2]
        assert report.failed == {
            1: {"attempts": 1, "error": "segment 1 broke", "error_type": "KernelError"}
        }


class TestCheckpointResume:
    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        kwargs = dict(num_segments=4, seed=11, max_retries=2)
        baseline = CampaignRunner(
            "t", flaky_segment_fn((0,)), **kwargs
        ).run()

        path = tmp_path / "ck.json"
        partial = CampaignRunner(
            "t",
            flaky_segment_fn((0,)),
            budget=CampaignBudget(max_segments=2),  # the "kill"
            checkpoint_path=path,
            **kwargs,
        ).run()
        assert partial.interrupted and len(partial.completed) == 2

        resumed = CampaignRunner(
            "t",
            flaky_segment_fn((0,)),
            checkpoint_path=path,
            **kwargs,
        ).run(resume=True)
        assert not resumed.interrupted
        assert resumed.to_dict() == baseline.to_dict()

    def test_checkpoint_written_atomically_per_segment(self, tmp_path):
        path = tmp_path / "ck.json"
        CampaignRunner(
            "t",
            flaky_segment_fn(()),
            num_segments=2,
            seed=5,
            checkpoint_path=path,
        ).run()
        data = read_checkpoint(path)
        assert set(data["completed"]) == {"0", "1"}
        assert not path.with_name(path.name + ".tmp").exists()

    def test_resume_without_checkpoint_path_rejected(self):
        runner = CampaignRunner("t", flaky_segment_fn(()), num_segments=1)
        with pytest.raises(ConfigurationError):
            runner.run(resume=True)

    def test_resume_identity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        CampaignRunner(
            "t", flaky_segment_fn(()), num_segments=2, seed=5, checkpoint_path=path
        ).run()
        other = CampaignRunner(
            "t", flaky_segment_fn(()), num_segments=2, seed=6, checkpoint_path=path
        )
        with pytest.raises(ConfigurationError):
            other.run(resume=True)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_checkpoint(path)
        path.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_checkpoint(path)
        path.write_text(json.dumps({"version": 1}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_checkpoint(path)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_checkpoint(tmp_path / "absent.json")


class TestReport:
    def test_fault_totals_sum_completed_segments(self):
        report = CampaignRunner(
            "t", flaky_segment_fn(()), num_segments=3, seed=2
        ).run()
        assert report.fault_totals() == {"test": 1}

    def test_to_dict_is_json_serialisable_and_stable(self):
        first = CampaignRunner(
            "t", flaky_segment_fn(()), num_segments=3, seed=2
        ).run()
        second = CampaignRunner(
            "t", flaky_segment_fn(()), num_segments=3, seed=2
        ).run()
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
