"""Content-addressed segment memoization: the byte-identity contract.

A cache hit must be indistinguishable from recomputation — reports, obs
totals, checkpoint bytes — whether the fault plane is armed or not;
the stores must survive crashes and account their budgets; and sampled
integrity verification must catch a tampered entry.
"""

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults, obs
from repro.errors import AdmissionError, ConfigurationError, MemoIntegrityError
from repro.perf.memo import (
    DiskMemoStore,
    InMemoryMemoStore,
    SegmentKey,
    SegmentMemo,
    ambient_fault_digest,
    build_memo,
    canonical_json,
)
from repro.faults.campaign import CampaignRunner
from repro.perf.parallel import run_probabilistic_trials
from repro.service import CampaignRequest, CampaignService
from repro.units import MIB

MC_TARGET = "repro.perf.parallel:montecarlo_trial"
MC_KWARGS = {"total_bytes": 64 * MIB, "ptp_bytes": MIB}


def _mc_run(memo=None, workers=1, segments=3, seed=11, name="memo-camp"):
    """A cheap, deterministic campaign (no kernel boot per segment)."""
    return CampaignRunner(
        name=name,
        target=MC_TARGET,
        num_segments=segments,
        seed=seed,
        kwargs=dict(MC_KWARGS),
        workers=workers,
        memo=memo,
    ).run()


def _isolated(fn):
    """Run ``fn`` against a fresh obs registry; return (result, state)."""
    previous = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        result = fn()
    finally:
        obs.set_registry(previous)
    return result, registry.export_state()


def _ex_memo(state):
    """An exported obs state with the memo.* metric families stripped."""
    stripped = dict(state)
    for family in ("counters", "gauges", "histograms"):
        stripped[family] = {
            name: data
            for name, data in state[family].items()
            if not name.startswith("memo.")
        }
    return stripped


def _key(**overrides):
    fields = dict(
        config_digest="c" * 64,
        snapshot_digest="",
        payload_digest="",
        seed=42,
        attempt=0,
        fault_digest="",
    )
    fields.update(overrides)
    return SegmentKey(**fields)


class TestSegmentKey:
    def test_digest_deterministic(self):
        assert _key().digest() == _key().digest()

    def test_digest_sensitive_to_every_field(self):
        base = _key().digest()
        assert _key(seed=43).digest() != base
        assert _key(attempt=1).digest() != base
        assert _key(fault_digest="f" * 64).digest() != base
        assert _key(config_digest="d" * 64).digest() != base
        assert _key(snapshot_digest="s" * 64).digest() != base
        assert _key(payload_digest="p" * 64).digest() != base


class TestAmbientFaultPolicy:
    def test_disarmed_plane_keys_as_empty(self):
        assert ambient_fault_digest() == ""

    def test_dispatch_level_plane_keys_by_schedule(self):
        faults.install(["worker-crash:p=1,max=2"], seed=5)
        digest = ambient_fault_digest()
        assert digest not in ("", None)
        # Same seed + specs -> same digest; different seed -> different.
        faults.set_plane(faults.FaultPlane())
        faults.install(["worker-crash:p=1,max=2"], seed=5)
        assert ambient_fault_digest() == digest
        faults.set_plane(faults.FaultPlane())
        faults.install(["worker-crash:p=1,max=2"], seed=6)
        assert ambient_fault_digest() != digest

    def test_segment_internal_plane_forces_bypass(self):
        faults.install(["dram-read-error:p=0.5"], seed=3)
        assert ambient_fault_digest() is None


class TestSerialByteIdentity:
    def test_hit_equals_recompute_reports_and_obs(self):
        reference, ref_state = _isolated(lambda: _mc_run().to_dict())
        memo = SegmentMemo()
        cold, cold_state = _isolated(lambda: _mc_run(memo=memo).to_dict())
        assert (memo.misses, memo.stores, memo.hits) == (3, 3, 0)
        warm, warm_state = _isolated(lambda: _mc_run(memo=memo).to_dict())
        assert memo.hits == 3
        assert cold == reference
        assert warm == reference
        # Obs totals (counters, gauges, traces) match the uncached run
        # exactly once the consulting process's memo.* metrics are set
        # aside — cached obs_state carries none of them.
        assert _ex_memo(cold_state) == _ex_memo(ref_state)
        assert _ex_memo(warm_state) == _ex_memo(ref_state)

    def test_memo_metrics_recorded_in_consulting_registry(self):
        memo = SegmentMemo()
        _mc_run(memo=memo)
        _mc_run(memo=memo)
        snapshot = obs.get_registry().snapshot()
        assert any(name.startswith("memo.hits") for name in snapshot)
        assert any(name.startswith("memo.misses") for name in snapshot)
        assert any(name.startswith("memo.stores") for name in snapshot)

    def test_probabilistic_trials_memoized(self):
        """The kernel-booting trial campaign through the serial runner."""

        def run(memo=None):
            return run_probabilistic_trials(
                2, seed=99, workers=1, spray_mappings=8, max_rounds=1,
                memo=memo,
            ).to_dict()

        reference, _ = _isolated(run)
        memo = SegmentMemo()
        cold, _ = _isolated(lambda: run(memo))
        warm, _ = _isolated(lambda: run(memo))
        assert cold == reference
        assert warm == reference
        assert memo.hits == 2


class TestChaosFaultPlaneArmed:
    def test_armed_chaos_segments_replay_identical_fault_records(self, tmp_path):
        """Chaos segments install their own seeded plane, so the whole
        fault schedule is a pure function of the segment seed already in
        the key — cached hits replay identical fault messages and the
        checkpoint files stay byte-identical."""
        from repro.faults.scenarios import run_chaos_campaign

        def run(memo, checkpoint):
            return run_chaos_campaign(
                seed=5,
                num_segments=3,
                smoke=True,
                checkpoint_path=str(checkpoint),
                memo=memo,
            ).to_dict()

        reference, _ = _isolated(lambda: run(None, tmp_path / "ref.json"))
        memo = SegmentMemo()
        cold, _ = _isolated(lambda: run(memo, tmp_path / "cold.json"))
        warm, _ = _isolated(lambda: run(memo, tmp_path / "warm.json"))
        assert cold == reference
        assert warm == reference
        assert memo.hits == 3
        # Aggregated fault firing counts survived the cache round-trip.
        assert warm["fault_totals"] == reference["fault_totals"]
        assert warm["fault_totals"]  # the armed segments really fired
        ref_bytes = (tmp_path / "ref.json").read_bytes()
        assert (tmp_path / "cold.json").read_bytes() == ref_bytes
        assert (tmp_path / "warm.json").read_bytes() == ref_bytes


def _service_wave(memo, tenants=3, segments=3):
    """One service lifetime: a fresh crash-injecting plane, N tenants
    submitting the identical campaign, drain."""
    faults.set_plane(faults.FaultPlane())
    faults.install(["worker-crash:p=1,max=2"], seed=5)

    async def run():
        service = CampaignService(workers=2, memo=memo)
        service.start()
        reports = []
        for index in range(tenants):
            request = CampaignRequest(
                name="memo-svc",
                target=MC_TARGET,
                num_segments=segments,
                seed=1234,
                tenant=f"team-{index}",
                kwargs=dict(MC_KWARGS),
            )
            reports.append(await service.submit(request))
        await service.drain()
        return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]

    return asyncio.run(run())


class TestServiceSharedMemo:
    def test_crash_faults_byte_identical_across_tenants_and_waves(self):
        reference = _service_wave(None)
        assert len(set(reference)) == 1  # byte-identity across tenants
        memo = SegmentMemo()
        first = _service_wave(memo)
        assert first == reference
        # Only the first tenant computed: 3 segments missed, 6 hit.
        assert (memo.misses, memo.hits) == (3, 6)
        second = _service_wave(memo)  # a fresh service, same shared memo
        assert second == reference
        assert memo.hits == 6 + 9  # every wave-two segment was a hit

    def test_shed_jobs_never_poison_the_cache(self):
        """A request rejected at admission leaves no cache entries."""
        memo = SegmentMemo()

        async def run():
            service = CampaignService(workers=1, memo=memo)
            # Pool intentionally never started: shed everything via drain.
            service.admission.begin_drain()
            request = CampaignRequest(
                name="memo-shed",
                target=MC_TARGET,
                num_segments=2,
                seed=7,
                kwargs=dict(MC_KWARGS),
            )
            with pytest.raises(AdmissionError):
                await service.submit(request)

        asyncio.run(run())
        assert (memo.stores, memo.hits, memo.misses) == (0, 0, 0)

    def test_segment_internal_ambient_plane_bypasses(self):
        """An ambient plane that can reach segment internals disables
        the cache entirely — compute runs uncached, nothing is stored,
        and the report still matches the no-memo run."""
        faults.install(["dram-read-error:p=0.5"], seed=3)
        reference, _ = _isolated(lambda: _mc_run().to_dict())
        memo = SegmentMemo()
        report, _ = _isolated(lambda: _mc_run(memo=memo).to_dict())
        assert report == reference
        assert (memo.hits, memo.stores, memo.misses) == (0, 0, 0)
        assert memo.bypasses == 3


class TestDiskStore:
    def test_recovery_sweeps_partials_and_truncated_entries(self, tmp_path):
        store = DiskMemoStore(tmp_path)
        store.put("a" * 16, b'{"ok": true}')
        # A writer that died mid-publish plus an externally truncated
        # entry; reopening sweeps the first, reading drops the second.
        (tmp_path / "deadbeef.tmp").write_bytes(b"partial")
        (tmp_path / ("b" * 16 + ".json")).write_bytes(b"")
        reopened = DiskMemoStore(tmp_path)
        assert reopened.recovered_partials == 1
        assert not (tmp_path / "deadbeef.tmp").exists()
        assert reopened.get("b" * 16) is None
        assert not (tmp_path / ("b" * 16 + ".json")).exists()
        assert reopened.get("a" * 16) == b'{"ok": true}'

    def test_append_only_put_is_idempotent(self, tmp_path):
        store = DiskMemoStore(tmp_path)
        store.put("c" * 16, b"first")
        store.put("c" * 16, b"first")
        assert store.stats()["entries"] == 1
        assert store.get("c" * 16) == b"first"

    def test_malformed_digest_rejected(self, tmp_path):
        store = DiskMemoStore(tmp_path)
        for bad in ("", "../escape", "a/b", "a.b"):
            with pytest.raises(ConfigurationError):
                store.get(bad)

    def test_gc_prunes_oldest_first(self, tmp_path):
        import os

        store = DiskMemoStore(tmp_path)
        for index in range(4):
            digest = str(index) * 16
            store.put(digest, b"x" * 100)
            os.utime(store.directory / f"{digest}.json", (index, index))
        result = store.gc(max_bytes=250)
        assert result["removed"] == 2
        assert result["freed_bytes"] == 200
        assert store.get("0" * 16) is None
        assert store.get("1" * 16) is None
        assert store.get("3" * 16) == b"x" * 100


class TestMemoryStore:
    def test_lru_eviction_accounting(self):
        store = InMemoryMemoStore(max_bytes=250)
        for index in range(3):
            store.put(str(index) * 16, b"x" * 100)
        assert store.evictions == 1
        assert store.total_bytes == 200
        assert len(store) == 2
        assert store.get("0" * 16) is None  # oldest went first
        # A get refreshes recency: entry 1 survives the next eviction.
        assert store.get("1" * 16) is not None
        store.put("3" * 16, b"x" * 100)
        assert store.get("1" * 16) is not None
        assert store.get("2" * 16) is None

    def test_oversized_blob_refused_not_stored(self):
        store = InMemoryMemoStore(max_bytes=10)
        store.put("a" * 16, b"x" * 11)
        assert store.get("a" * 16) is None
        assert store.total_bytes == 0
        assert store.evictions == 0

    def test_rewrite_replaces_accounting(self):
        store = InMemoryMemoStore(max_bytes=250)
        store.put("a" * 16, b"x" * 100)
        store.put("a" * 16, b"x" * 50)
        assert store.total_bytes == 50
        assert len(store) == 1


class TestVerifySampling:
    def test_should_verify_deterministic(self):
        memo = SegmentMemo(verify_fraction=0.5)
        digest = _key().digest()
        first = memo._should_verify(digest)
        assert all(
            memo._should_verify(digest) == first for _ in range(5)
        )
        assert SegmentMemo()._should_verify(digest) is False
        assert SegmentMemo(verify_fraction=1.0)._should_verify(digest)

    def test_tampered_entry_raises_integrity_error(self, tmp_path):
        memo = build_memo(str(tmp_path))
        _isolated(lambda: _mc_run(memo=memo))
        assert memo.stores == 3
        # Tamper every published entry (valid JSON, wrong content) —
        # exactly what --memo-verify sampling exists to catch.
        for path in tmp_path.glob("*.json"):
            outcome = json.loads(path.read_bytes())
            outcome["record"]["attempts"] = 99
            path.write_bytes(canonical_json(outcome).encode("utf-8"))
        verifying = build_memo(str(tmp_path), verify_fraction=1.0)
        with pytest.raises(MemoIntegrityError) as excinfo:
            _isolated(lambda: _mc_run(memo=verifying))
        assert excinfo.value.key  # the offending digest travels out
        assert verifying.verified >= 1

    def test_clean_entries_pass_full_verification(self, tmp_path):
        memo = build_memo(str(tmp_path))
        reference, _ = _isolated(lambda: _mc_run(memo=memo).to_dict())
        verifying = build_memo(str(tmp_path), verify_fraction=1.0)
        report, _ = _isolated(lambda: _mc_run(memo=verifying).to_dict())
        assert report == reference
        assert verifying.verified == 3
        assert verifying.hits == 3


class TestPooledWorkers:
    def test_shared_disk_store_second_run_all_hits(self, tmp_path):
        reference, _ = _isolated(lambda: _mc_run(workers=2).to_dict())
        cold_memo = build_memo(str(tmp_path))
        cold, _ = _isolated(
            lambda: _mc_run(memo=cold_memo, workers=2).to_dict()
        )
        assert cold == reference
        # A fresh memory tier over the same directory: every segment
        # must come back from disk without recomputation.
        warm_memo = build_memo(str(tmp_path))
        warm, _ = _isolated(
            lambda: _mc_run(memo=warm_memo, workers=2).to_dict()
        )
        assert warm == reference
        assert (warm_memo.hits, warm_memo.misses) == (3, 0)

    def test_failed_outcomes_are_not_cached(self):
        memo = SegmentMemo()
        outcome = {"index": 0, "ok": False, "record": {}, "obs_state": {}}
        roundtrip = memo.store(_key(), outcome, campaign="x")
        assert roundtrip == json.loads(canonical_json(outcome))
        assert memo.stores == 0
        assert memo.lookup(_key(), campaign="x") is None


class TestSourceSalt:
    def test_edited_package_misses_every_lookup(self, tmp_path):
        """The key salt digests the package sources: after any edit, a
        rerun against the old ``--memo-dir`` recomputes everything."""
        original = Path(__file__).resolve().parents[1] / "src"
        edited = tmp_path / "src"
        shutil.copytree(
            original / "repro",
            edited / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        scenarios = edited / "repro" / "faults" / "scenarios.py"
        source = scenarios.read_text(encoding="utf-8")
        assert 'result["kind"] = kind' in source
        scenarios.write_text(
            source.replace('result["kind"] = kind', 'result["kind"] = str(kind)'),
            encoding="utf-8",
        )
        memo_dir = tmp_path / "memo"

        def chaos(src):
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "chaos", "--smoke",
                 "--segments", "1", "--memo-dir", str(memo_dir)],
                env=dict(os.environ, PYTHONPATH=str(src)),
                capture_output=True,
                text=True,
                timeout=600,
                check=True,
            )
            match = re.search(r"memo: (\d+) hits, (\d+) misses", completed.stdout)
            assert match, completed.stdout
            return int(match.group(1)), int(match.group(2))

        assert chaos(original) == (0, 1)
        assert chaos(original) == (1, 0)  # the salt is stable per source tree
        assert chaos(edited) == (0, 1)
