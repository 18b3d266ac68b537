"""Seeded equivalence of the batched VM pipeline vs the scalar reference.

The batched entry points (`Mmu.translate_many` / `load_many` /
`store_many`, `Kernel.touch_many` / `mmap_touch_many`,
`DramModule.read_many`) promise *observational equivalence* with a
per-address scalar loop: identical results, identical TLB hit / miss /
eviction counts, identical obs totals, and the same exception at the
same access. These tests build two identical worlds, drive one through
each path, and compare everything.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import faults, obs, sanitize
from repro.errors import OutOfMemoryError, PageFaultError, ProcessError, ReproError
from repro.faults.injectors import FaultSpec
from repro.kernel.cta import CtaConfig
from repro.kernel.gfp import GFP_USER
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.pagetable import PageTableEntry
from repro.sanitize import Sanitizer
from repro.units import MIB, PAGE_SHIFT, PAGE_SIZE

from .conftest import SMALL_BANKS, SMALL_ROW


def _kernel(tlb_capacity: int = 1536, total_bytes: int = 32 * MIB) -> Kernel:
    return Kernel(
        KernelConfig(
            total_bytes=total_bytes,
            row_bytes=SMALL_ROW,
            num_banks=SMALL_BANKS,
            cell_interleave_rows=32,
            tlb_capacity=tlb_capacity,
        )
    )


BASE = 0x0000_7100_0000


def _mapped_world(tlb_capacity: int = 1536, regions: int = 4, pages: int = 8):
    """A kernel with ``regions`` touched mappings; returns (kernel, proc, vas)."""
    kernel = _kernel(tlb_capacity=tlb_capacity)
    process = kernel.create_process()
    vas = []
    for region in range(regions):
        base = BASE + region * (64 * PAGE_SIZE)
        vma = kernel.mmap(process, pages * PAGE_SIZE, address=base)
        for page in range(pages):
            va = vma.start + page * PAGE_SIZE
            kernel.touch(process, va, write=True)
            vas.append(va)
    return kernel, process, vas


def _tlb_counts(kernel: Kernel):
    tlb = kernel.tlb
    return (tlb.hits, tlb.misses, tlb.evictions)


#: Frontier-walker instrumentation recorded only on the fast path
#: (mmu._walk_many) — documented as outside the batched/scalar
#: equivalence contract; every other obs series must still match.
WALKER_INSTRUMENTATION = frozenset(
    {"mmu.walk.frontier_batches", "mmu.walk.levels", "dram.resident_rows"}
)


def _strip_walker_instrumentation(state):
    return {
        family: (
            {
                name: data
                for name, data in entries.items()
                if name not in WALKER_INSTRUMENTATION
            }
            if isinstance(entries, dict)
            else entries
        )
        for family, entries in state.items()
    }


class TestTranslateManyEquivalence:
    def test_results_and_counters_match_scalar(self):
        batched_k, bp, vas = _mapped_world()
        scalar_k, sp, svas = _mapped_world()
        assert vas == svas
        addresses = np.asarray(vas, dtype=np.int64)
        for write in (False, True):
            got = batched_k.mmu.translate_many(
                bp.cr3, addresses, pid=bp.pid, write=write
            )
            want = scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, write=write, slow_reference=True
            )
            assert np.array_equal(got, want)
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)
        assert batched_k.mmu.walk_count == scalar_k.mmu.walk_count

    def test_eviction_interleaving_at_tiny_capacity(self):
        """With capacity < working set every pass evicts; the batched pass
        must reproduce the scalar loop's exact hit/miss/eviction stream."""
        batched_k, bp, vas = _mapped_world(tlb_capacity=5, regions=2, pages=6)
        scalar_k, sp, _ = _mapped_world(tlb_capacity=5, regions=2, pages=6)
        addresses = np.asarray(vas, dtype=np.int64)
        for _ in range(3):
            got = batched_k.mmu.translate_many(bp.cr3, addresses, pid=bp.pid)
            want = scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, slow_reference=True
            )
            assert np.array_equal(got, want)
            assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)

    def test_obs_totals_match_scalar(self):
        previous = obs.get_registry()
        try:
            obs.set_registry(obs.Registry())
            batched_k, bp, vas = _mapped_world(tlb_capacity=7)
            addresses = np.asarray(vas, dtype=np.int64)
            batched_k.mmu.translate_many(bp.cr3, addresses, pid=bp.pid)
            batched_state = obs.get_registry().export_state()

            obs.set_registry(obs.Registry())
            scalar_k, sp, _ = _mapped_world(tlb_capacity=7)
            scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, slow_reference=True
            )
            scalar_state = obs.get_registry().export_state()
        finally:
            obs.set_registry(previous)
        assert (
            _strip_walker_instrumentation(batched_state)
            == _strip_walker_instrumentation(scalar_state)
        )
        # The frontier instrumentation exists on the batched side only.
        assert "mmu.walk.frontier_batches" in batched_state["counters"]
        assert "mmu.walk.frontier_batches" not in scalar_state["counters"]

    def test_fault_message_matches_scalar(self):
        batched_k, bp, vas = _mapped_world()
        scalar_k, sp, _ = _mapped_world()
        addresses = np.asarray(vas + [BASE + 512 * 64 * PAGE_SIZE], dtype=np.int64)
        with pytest.raises(PageFaultError) as batched_exc:
            batched_k.mmu.translate_many(bp.cr3, addresses, pid=bp.pid)
        with pytest.raises(PageFaultError) as scalar_exc:
            scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, slow_reference=True
            )
        assert str(batched_exc.value) == str(scalar_exc.value)
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)


class TestLoadStoreManyEquivalence:
    def test_load_many_matches_scalar_loads(self):
        batched_k, bp, vas = _mapped_world()
        scalar_k, sp, _ = _mapped_world()
        addresses = np.asarray(vas, dtype=np.int64)
        payload = b"\xa5" * 16
        batched_k.mmu.store_many(bp.cr3, addresses, payload, pid=bp.pid)
        scalar_k.mmu.store_many(
            sp.cr3, addresses, payload, pid=sp.pid, slow_reference=True
        )
        got = list(batched_k.mmu.load_many(bp.cr3, addresses, 32, pid=bp.pid))
        want = list(
            scalar_k.mmu.load_many(
                sp.cr3, addresses, 32, pid=sp.pid, slow_reference=True
            )
        )
        assert got == want
        assert got[0][:16] == payload
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)
        assert batched_k.module.read_count == scalar_k.module.read_count
        assert batched_k.module.write_count == scalar_k.module.write_count

    def test_store_many_per_address_payloads(self):
        kernel, process, vas = _mapped_world(regions=1, pages=4)
        addresses = np.asarray(vas, dtype=np.int64)
        payloads = [bytes([i]) * 8 for i in range(len(vas))]
        kernel.mmu.store_many(process.cr3, addresses, payloads, pid=process.pid)
        contents = kernel.mmu.load_many(process.cr3, addresses, 8, pid=process.pid)
        assert list(contents) == payloads

    def test_read_many_matches_scalar_reads(self, module):
        module.fill_row(0, 0x11)
        module.fill_row(2, 0x33)
        addrs = np.asarray(
            [0, 8, SMALL_ROW - 4, 2 * SMALL_ROW, 3 * SMALL_ROW - 1], dtype=np.int64
        )
        got = module.read_many(addrs, 8)
        baseline = module.read_count
        want = [module.read(int(a), 8) for a in addrs]
        assert got == want
        # Equal counting: the batch charged one read per element too.
        assert module.read_count - baseline == baseline


class TestTouchManyEquivalence:
    def test_touch_many_matches_scalar_touch_loop(self):
        batched_k = _kernel()
        scalar_k = _kernel()
        bp = batched_k.create_process()
        sp = scalar_k.create_process()
        length = 24 * PAGE_SIZE
        bvma = batched_k.mmap(bp, length, address=BASE)
        svma = scalar_k.mmap(sp, length, address=BASE)
        vas = bvma.start + PAGE_SIZE * np.arange(24, dtype=np.int64)
        got = batched_k.touch_many(bp, vas, write=True)
        want = [scalar_k.touch(sp, int(va), write=True) for va in vas]
        assert got == want
        assert svma.start == bvma.start
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)
        assert batched_k.stats.demand_faults == scalar_k.stats.demand_faults
        assert batched_k.mmu.walk_count == scalar_k.mmu.walk_count

    def test_mmap_touch_many_oom_contract(self):
        """OOM mid-batch leaves the VMA mapped and reports the completed
        prefix, exactly like a scalar mmap + touch loop."""
        kernel = _kernel(total_bytes=8 * MIB)
        process = kernel.create_process()
        length = 4096 * PAGE_SIZE  # 16 MiB of pages in an 8 MiB module
        with pytest.raises(OutOfMemoryError) as excinfo:
            kernel.mmap_touch_many(process, length, address=BASE, write=True)
        exc = excinfo.value
        touched = getattr(exc, "touched", None)
        vma = getattr(exc, "vma", None)
        assert touched and vma is not None
        assert vma.start == BASE
        assert any(v.start == BASE for v in process.vmas)
        # The completed prefix must be real, translatable mappings.
        redo = kernel.mmu.translate_many(
            process.cr3,
            vma.start + PAGE_SIZE * np.arange(len(touched), dtype=np.int64),
            pid=process.pid,
        )
        assert list(redo) == list(touched)

    def test_touch_many_slow_reference_identical(self):
        batched_k = _kernel()
        scalar_k = _kernel()
        bp = batched_k.create_process()
        sp = scalar_k.create_process()
        bvma = batched_k.mmap(bp, 8 * PAGE_SIZE, address=BASE)
        scalar_k.mmap(sp, 8 * PAGE_SIZE, address=BASE)
        vas = bvma.start + PAGE_SIZE * np.arange(8, dtype=np.int64)
        got = batched_k.touch_many(bp, vas, write=True)
        want = scalar_k.touch_many(sp, vas, write=True, slow_reference=True)
        assert got == want
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)


class TestArmedFaultPlaneFallback:
    def test_batched_entry_points_replay_faults_like_scalar(self):
        """With per-access fault schedules armed, the batched entry points
        must select the scalar path, so the same seed replays the same
        fault firings as an explicit slow_reference run."""

        def run(slow_reference: bool):
            kernel = _kernel()
            process = kernel.create_process()
            plane = faults.install(
                [
                    FaultSpec("tlb-stale", probability=0.2, max_fires=6),
                    FaultSpec("dram-read-error", probability=5e-4, max_fires=2),
                ],
                seed=321,
                kernel=kernel,
            )
            vma = kernel.mmap(process, 16 * PAGE_SIZE, address=BASE)
            vas = vma.start + PAGE_SIZE * np.arange(16, dtype=np.int64)
            pas = kernel.touch_many(
                process, vas, write=True, slow_reference=slow_reference
            )
            contents = []
            for _ in range(4):
                contents.append(
                    list(
                        kernel.mmu.load_many(
                            process.cr3, vas, 16, pid=process.pid,
                            slow_reference=slow_reference,
                        )
                    )
                )
            counts = dict(plane.counts)
            faults.uninstall()
            return pas, contents, counts, _tlb_counts(kernel)

        auto = run(slow_reference=False)
        explicit = run(slow_reference=True)
        assert auto == explicit
        assert sum(auto[2].values()) > 0, "schedule never fired; test is vacuous"


class TestBuddyFreeBlocksIncremental:
    @staticmethod
    def _ground_truth(buddy):
        """Recompute free-list occupancy from the sets themselves."""
        return {order: len(blocks) for order, blocks in buddy._free_lists.items()}

    def test_counts_match_recomputed_ground_truth(self):
        from repro.kernel.buddy import BuddyAllocator

        buddy = BuddyAllocator(start_pfn=0, end_pfn=256)
        rng = np.random.default_rng(7)
        held = []
        for _ in range(200):
            assert buddy.free_blocks_by_order() == self._ground_truth(buddy)
            if held and (len(held) > 12 or rng.random() < 0.4):
                pfn, order = held.pop(int(rng.integers(len(held))))
                buddy.free_pages_block(pfn, order)
            else:
                order = int(rng.integers(0, 4))
                try:
                    held.append((buddy.alloc_pages(order), order))
                except OutOfMemoryError:
                    pass
        for pfn, order in held:
            buddy.free_pages_block(pfn, order)
        assert buddy.free_blocks_by_order() == self._ground_truth(buddy)
        assert buddy.free_pages == 256


# -- touch_many against the scalar touch loop, on generated layouts ---------

REGION = 512 * PAGE_SIZE

#: Events whose order and payload the batched path must reproduce.
RECORDED_EVENTS = (
    "buddy.prepare_alloc",
    "buddy.alloc",
    "buddy.free",
    "kernel.page_alloc",
    "kernel.page_free",
    "mmu.translate",
)


class _EventRecorder(Sanitizer):
    """Records every VM event with its payload, objects named by role."""

    name = "event_recorder"
    events = RECORDED_EVENTS

    def __init__(self) -> None:
        self.seen = []

    def handle(self, event, ctx):
        fields = []
        for key, value in sorted(ctx.items()):
            if key == "allocator":
                value = value.name
            elif key in ("kernel", "mmu"):
                continue
            fields.append((key, value))
        self.seen.append((event, tuple(fields)))


def _layout_kernel(cta: bool, multilevel: bool, policy: str, tlb_capacity: int) -> Kernel:
    return Kernel(
        KernelConfig(
            total_bytes=8 * MIB,
            row_bytes=SMALL_ROW,
            num_banks=SMALL_BANKS,
            cell_interleave_rows=32,
            tlb_capacity=tlb_capacity,
            cta=(
                CtaConfig(
                    ptp_bytes=MIB, multilevel=multilevel,
                    restrict_indicator_zeros=True,
                )
                if cta
                else None
            ),
            profile_cells=False,
            ptp_exhaustion_policy=policy,
        )
    )


@st.composite
def _touch_scenarios(draw):
    """A kernel recipe, a mapping layout, and one touch_many batch."""
    cta = draw(st.booleans())
    recipe = {
        "cta": cta,
        "multilevel": cta and draw(st.booleans()),
        "policy": draw(
            st.sampled_from(["fail-hard", "reclaim-retry", "screened-fallback"])
        ),
        "tlb_capacity": draw(st.sampled_from([1536, 1536, 1536, 12])),
    }
    mapping = st.one_of(
        # An anonymous VMA, possibly read-only.
        st.tuples(
            st.just("anon"), st.integers(0, 3), st.integers(0, 500),
            st.integers(1, 12), st.sampled_from([True, True, True, False]),
        ),
        # Single-page VMAs side by side, as templating maps its buffer.
        st.tuples(
            st.just("single"), st.integers(0, 3), st.integers(0, 500),
            st.integers(1, 12),
        ),
        # A shared-file mapping, as the spray maps its file.
        st.tuples(
            st.just("file"), st.integers(0, 3), st.integers(0, 500),
            st.integers(1, 4), st.integers(0, 1), st.integers(0, 4),
        ),
    )
    layout = draw(st.lists(mapping, min_size=1, max_size=6))
    pretouch = draw(st.lists(st.integers(0, 10_000), max_size=8))
    unmap = draw(st.lists(st.integers(0, 10_000), max_size=1))
    # (page pick, is a hole, byte offset): holes are one access in 80.
    batch = draw(
        st.lists(
            st.tuples(
                st.integers(0, 10_000), st.integers(0, 79).map(lambda x: x == 37),
                st.integers(0, PAGE_SIZE - 1),
            ),
            min_size=6,
            max_size=48,
        )
    )
    hog = draw(
        st.one_of(
            st.none(),
            st.tuples(st.sampled_from(["user", "ptp"]), st.integers(0, 4)),
        )
    )
    return recipe, layout, pretouch, unmap, batch, draw(st.booleans()), hog


@st.composite
def _evicting_scenarios(draw):
    """A small TLB filled by earlier touches, then a batch that overflows it."""
    recipe = {
        "cta": draw(st.booleans()),
        "multilevel": False,
        "policy": "fail-hard",
        "tlb_capacity": draw(st.integers(1, 12)),
    }
    layout = [("anon", 0, 0, 24, True), ("single", 1, 0, draw(st.integers(1, 8)))]
    pretouch = draw(st.lists(st.integers(0, 10_000), max_size=24))
    batch = draw(
        st.lists(
            st.tuples(
                st.integers(0, 10_000), st.just(False), st.integers(0, PAGE_SIZE - 1)
            ),
            min_size=8,
            max_size=64,
        )
    )
    return recipe, layout, pretouch, [], batch, draw(st.booleans()), None


def _build_world(recipe, layout, pretouch, unmap, batch, hog):
    """Boot a kernel, map ``layout``, pre-touch, unmap; returns the batch VAs."""
    kernel = _layout_kernel(**recipe)
    process = kernel.create_process()
    files = [kernel.create_file(8 * PAGE_SIZE), kernel.create_file(4 * PAGE_SIZE)]
    vmas = []
    for spec in layout:
        kind, region, page = spec[0], spec[1], spec[2]
        base = BASE + region * REGION + page * PAGE_SIZE
        try:
            if kind == "anon":
                vmas.append(
                    kernel.mmap(process, spec[3] * PAGE_SIZE, writable=spec[4], address=base)
                )
            elif kind == "single":
                for k in range(spec[3]):
                    vmas.append(
                        kernel.mmap(process, PAGE_SIZE, address=base + k * PAGE_SIZE)
                    )
            else:
                vmas.append(
                    kernel.mmap(
                        process, spec[3] * PAGE_SIZE, backing=files[spec[4]],
                        file_page_offset=spec[5], address=base,
                    )
                )
        except ProcessError:  # overlapping mapping: skipped identically on both sides
            continue
    if not vmas:
        vmas.append(kernel.mmap(process, PAGE_SIZE, address=BASE + 5 * REGION))
    pages = [vma.start + k * PAGE_SIZE for vma in vmas for k in range(vma.num_pages)]
    # Holes: a never-mapped region, and a page next to mapped ones.
    holes = [BASE + 6 * REGION, BASE + 4 * REGION + 7 * PAGE_SIZE]
    for pick in pretouch:
        try:
            kernel.touch(process, pages[pick % len(pages)])
        except ReproError:
            continue
    for pick in unmap:
        vma = vmas.pop(pick % len(vmas))
        kernel.munmap(process, vma)
        holes.append(vma.start)
        if not vmas:
            vmas.append(kernel.mmap(process, PAGE_SIZE, address=BASE + 5 * REGION))
    pages = [vma.start + k * PAGE_SIZE for vma in vmas for k in range(vma.num_pages)]
    if hog is not None:
        kind, leave = hog
        zones = (
            kernel.layout.zonelist_for(GFP_USER, 0)
            if kind == "user"
            else [z for z in kernel.layout.zones if z.zone_id.name == "PTP"]
        )
        for zone in zones:
            allocator = kernel.allocator_for_zone(zone)
            allocator.alloc_pages_many(max(allocator.free_pages - leave, 0))
    vas = np.asarray(
        [
            (holes[pick % len(holes)] if hole else pages[pick % len(pages)])
            + offset
            for pick, hole, offset in batch
        ],
        dtype=np.int64,
    )
    return kernel, process, vas


def _observe(kernel, touched, recorder, registry):
    """Everything the equivalence contract covers, as comparable values."""
    tlb = kernel.tlb
    dram = kernel.module
    state = _strip_walker_instrumentation(registry.export_state())
    return {
        "touched": touched,
        "buddy": [
            (
                zone.name,
                {order: sorted(blocks) for order, blocks in alloc._free_lists.items()},
                sorted(alloc._allocated.items()),
                alloc.alloc_calls, alloc.split_count, alloc.coalesce_count,
                alloc.failed_allocs,
            )
            for zone, alloc in kernel._allocators
        ],
        "page_db": [
            (pfn, frame.use, frame.owner_pid, frame.pt_level, frame.order)
            for pfn, frame in kernel.page_db._frames.items()
        ],
        "dram": {
            row: hashlib.sha256(data.tobytes()).hexdigest()
            for row, data in dram._rows.items()
        },
        "dram_writes": dram.write_count,
        "tlb": (
            dict(tlb._slot_of), list(tlb._key_of), list(tlb._free), tlb._fresh,
            tlb._pids.tolist(), tlb._vpns.tolist(), tlb._pfns.tolist(),
            tlb._flag_bits.tolist(), tlb._stamps.tolist(), tlb._clock,
            tlb.hits, tlb.misses, tlb.evictions, tlb.flushes,
        ),
        "walks": kernel.mmu.walk_count,
        "stats": asdict(kernel.stats),
        "files": [dict(f.frames) for f in kernel._files.values()],
        "obs": pickle.dumps(state),
        "events": recorder.seen if recorder is not None else None,
    }


def _run_side(build, batched: bool, sanitized: bool):
    """Build a world with ``build()``, touch its batch, observe everything."""
    obs.set_registry(obs.Registry())
    sanitize.set_suite(sanitize.SanitizerSuite())
    kernel, process, vas, write = build()
    recorder = None
    if sanitized:
        sanitize.install(kernel)
        recorder = sanitize.get_suite().register(_EventRecorder())
    registry = obs.Registry()
    obs.set_registry(registry)
    results = []
    outcome = None
    try:
        if batched:
            results = kernel.touch_many(process, vas, write=write)
        else:
            for va in vas.tolist():
                results.append(kernel.touch(process, va, write=write))
    except ReproError as exc:  # the contract: same type, text and prefix
        touched = getattr(exc, "touched", None) if batched else (
            list(results) if isinstance(exc, OutOfMemoryError) else None
        )
        outcome = (type(exc), str(exc), touched)
    finally:
        sanitize.set_suite(sanitize.SanitizerSuite())
    return _observe(kernel, outcome or results, recorder, registry)


def _assert_equivalent(build, sanitized: bool) -> None:
    want = _run_side(build, batched=False, sanitized=sanitized)
    got = _run_side(build, batched=True, sanitized=sanitized)
    for key in want:
        assert got[key] == want[key], key


def _scenario(scenario):
    """A builder for one drawn (or hand-written) scenario tuple."""
    recipe, layout, pretouch, unmap, batch, write, hog = scenario

    def build():
        kernel, process, vas = _build_world(
            recipe, layout, pretouch, unmap, batch, hog
        )
        return kernel, process, vas, write

    return build


class TestTouchManyMatchesScalarLoop:
    """Generated layouts: every observable equals a scalar ``touch`` loop."""

    @given(_touch_scenarios(), st.booleans())
    def test_generated_layouts(self, scenario, sanitized):
        _assert_equivalent(_scenario(scenario), sanitized)

    @given(_evicting_scenarios())
    def test_generated_tlb_evictions(self, scenario):
        _assert_equivalent(_scenario(scenario), sanitized=False)

    @pytest.mark.parametrize("sanitized", [False, True])
    @pytest.mark.parametrize(
        "scenario",
        [
            # Templating's landing pad: 256 single-page VMAs in one region,
            # written by an untrusted process on a hardened CTA kernel.
            (
                {"cta": True, "multilevel": True, "policy": "fail-hard",
                 "tlb_capacity": 1536},
                [("single", 1, 0, 256)], [], [],
                [(k, False, 0) for k in range(256)], True, None,
            ),
            # Out of memory mid-batch: every user zone runs dry in turn,
            # with indicator rejections in each.
            (
                {"cta": True, "multilevel": False, "policy": "fail-hard",
                 "tlb_capacity": 1536},
                [("anon", 0, 0, 12, True), ("anon", 1, 3, 12, True)], [], [],
                [(k, False, 8) for k in range(24)], True, ("user", 3),
            ),
            # ZONE_PTP dry: the region's page table comes from reclaiming
            # an emptied one, which flushes the TLB mid-batch.
            (
                {"cta": True, "multilevel": False, "policy": "reclaim-retry",
                 "tlb_capacity": 1536},
                [("anon", 0, 0, 4, True), ("anon", 2, 0, 8, True),
                 ("anon", 3, 0, 2, True)],
                [0, 1, 2, 3, 12, 13], [0],
                [(8, False, 0)] + [(k % 8, False, 0) for k in range(12)]
                + [(8, False, 0), (9, False, 0)],
                False, ("ptp", 0),
            ),
            # Two mappings of one uncached file in one region: the second
            # mapping's pages share the frames the first one's faults take.
            (
                {"cta": False, "multilevel": False, "policy": "fail-hard",
                 "tlb_capacity": 1536},
                [("file", 0, 0, 4, 0, 0), ("file", 0, 10, 4, 0, 1)], [], [],
                [(k, False, 0) for k in (0, 4, 1, 5, 2, 6, 3, 7)], True, None,
            ),
            # A TLB too small for the batch: inserts evict, and pages the
            # batch evicted and then re-reads go through touch.
            (
                {"cta": False, "multilevel": False, "policy": "fail-hard",
                 "tlb_capacity": 4},
                [("anon", 0, 0, 6, True), ("file", 1, 0, 4, 0, 0)], [1, 7], [],
                [(k, False, 0) for k in range(10)] * 2, False, None,
            ),
        ],
        ids=["templating", "oom", "ptp-reclaim", "shared-file", "tiny-tlb"],
    )
    def test_directed_layouts(self, scenario, sanitized):
        _assert_equivalent(_scenario(scenario), sanitized)

    @pytest.mark.parametrize("sanitized", [False, True])
    def test_aliased_page_table(self, sanitized):
        """A corrupted PD entry makes two regions share one page table:
        faulting a page of one maps the same slot for the other, so the
        second access is no longer a fault."""

        def build():
            kernel = _layout_kernel(
                cta=False, multilevel=False, policy="fail-hard", tlb_capacity=1536
            )
            process = kernel.create_process()
            first, second = BASE, BASE + REGION
            for base in (first, second):
                kernel.mmap(process, 4 * PAGE_SIZE, address=base)
                kernel.touch(process, base + 3 * PAGE_SIZE)
            kernel.tlb.flush()
            table = kernel.leaf_pte_address(process, first) & ~(PAGE_SIZE - 1)
            pd_entry = kernel.pd_entry_address(process, second)
            kernel.module.write_u64(
                pd_entry,
                PageTableEntry.make(table >> PAGE_SHIFT, user=True).encode(),
            )
            pages = [0, 1, 2, 0, 1, 2]
            vas = np.asarray(
                [base + page * PAGE_SIZE for page in pages for base in (first, second)],
                dtype=np.int64,
            )
            return kernel, process, vas, True

        _assert_equivalent(build, sanitized)

    def test_level_confused_tables_are_not_a_tree(self):
        """A PD entry pointing back at its own PD makes the walk read the
        PD as a page table: the plan must not trust that walk."""
        kernel = _layout_kernel(
            cta=False, multilevel=False, policy="fail-hard", tlb_capacity=1536
        )
        process = kernel.create_process()
        first, second = BASE, BASE + REGION
        for base in (first, second):
            kernel.mmap(process, 4 * PAGE_SIZE, address=base)
            kernel.touch(process, base)
        vpns = np.asarray([first >> PAGE_SHIFT, second >> PAGE_SHIFT], dtype=np.int64)

        def tree_ok() -> bool:
            visited = []
            kernel.mmu._walk_many(process.cr3, vpns, visited)
            return kernel._tables_form_tree(visited)

        assert tree_ok()
        pd_entry = kernel.pd_entry_address(process, second)
        pd = pd_entry & ~(PAGE_SIZE - 1)
        kernel.module.write_u64(
            pd_entry, PageTableEntry.make(pd >> PAGE_SHIFT, user=True).encode()
        )
        assert not tree_ok()


class TestTouchManyCallBudget:
    """A deterministic work count for the batched fault path.

    Counts Python calls into ``repro`` functions (via ``sys.setprofile``)
    while ``touch_many`` demand-faults 256 single-page VMAs on a CTA
    kernel, the shape of templating's landing pad. Comprehension code objects are skipped, so
    Python 3.12's inlined comprehensions (PEP 709) count like 3.10's.
    The per-page loop this path replaced made 77,770 such calls here
    (304 per page); the batched path makes 2,205 (8.6 per page, mostly
    the buddy split and page-frame records each page still needs).
    """

    #: Committed budget: calls per faulted page. Lower it when a change
    #: removes work; a change that needs more must say why.
    CALLS_PER_PAGE = 10
    PAGES = 256

    def _count_calls(self) -> int:
        import os
        import sys

        import repro

        root = os.path.dirname(repro.__file__)
        kernel = Kernel(
            KernelConfig(
                total_bytes=8 * MIB,
                row_bytes=SMALL_ROW,
                num_banks=SMALL_BANKS,
                cell_interleave_rows=32,
                cta=CtaConfig(ptp_bytes=MIB, multilevel=True),
                profile_cells=False,
            )
        )
        process = kernel.create_process()
        base = BASE + REGION
        for page in range(self.PAGES):
            kernel.mmap(process, PAGE_SIZE, address=base + page * PAGE_SIZE)
        vas = base + PAGE_SIZE * np.arange(self.PAGES, dtype=np.int64)
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                code = frame.f_code
                if code.co_filename.startswith(root) and not code.co_name.startswith("<"):
                    calls += 1

        sys.setprofile(profile)
        try:
            kernel.touch_many(process, vas, write=True)
        finally:
            sys.setprofile(None)
        assert kernel.stats.demand_faults == self.PAGES
        return calls

    def test_faulting_single_page_vmas_stays_within_budget(self):
        self._count_calls()  # warm-up: imports, decode caches
        calls = self._count_calls()
        assert calls <= self.CALLS_PER_PAGE * self.PAGES, (
            f"{calls} calls ({calls / self.PAGES:.1f} per page) exceed the "
            f"budget of {self.CALLS_PER_PAGE} per page"
        )
