"""Workload execution and CTA-overhead measurement.

Runs a :class:`~repro.perf.workloads.WorkloadProfile` against a simulated
kernel, exercising exactly the paths the 18-line patch touches: page
allocation (including ``pte_alloc_one``), demand faults, table walks,
and mmap/munmap churn. Wall-clock time over the kernel-operation sequence
is the overhead metric, mirroring how Table 4 compares stock and CTA
kernels on identical workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.kernel.cta import CtaConfig
from repro.kernel.kernel import Kernel, KernelConfig
from repro.perf.workloads import WorkloadProfile
from repro.units import MIB, PAGE_SIZE


#: Base VA for workload mappings, clear of the default mmap region.
WORKLOAD_BASE = 0x0000_7000_0000

#: Virtual stride between workload regions (one page table each).
REGION_STRIDE = 2 * MIB


@dataclass
class PerfResult:
    """Measured outcome of one workload run.

    ``metrics`` holds the :mod:`repro.obs` default-registry series that
    changed during the run, as deltas (see :func:`metric_deltas`) — the
    denominators behind the wall-clock number: buddy churn, TLB traffic,
    walk counts, per-zone allocations.
    """

    workload: str
    cta_enabled: bool
    elapsed_s: float
    page_allocs: int
    pte_allocs: int
    demand_faults: int
    tlb_hit_rate: float
    page_table_bytes: int
    metrics: Dict[str, float] = field(default_factory=dict)


def metric_deltas(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Non-zero per-series change between two registry snapshots.

    Gauges report their final value change; histogram ``.min``/``.max``
    series are dropped (a delta of an extremum is meaningless).
    """
    deltas: Dict[str, float] = {}
    for name, value in after.items():
        if name.endswith(".min") or name.endswith(".max"):
            continue
        change = value - before.get(name, 0.0)
        if change:
            deltas[name] = change
    return deltas


def make_perf_kernel(cta: bool, total_bytes: int = 64 * MIB) -> Kernel:
    """A kernel sized for perf runs, with or without the defense.

    ``profile_cells`` is off: the one-time boot profiling is not part of
    steady-state performance (the paper runs it once per module, offline).
    """
    config = KernelConfig(
        total_bytes=total_bytes,
        row_bytes=64 * 1024,
        num_banks=4,
        cell_interleave_rows=32,
        cta=CtaConfig(ptp_bytes=4 * MIB) if cta else None,
        profile_cells=False,
    )
    return Kernel(config)


def _page_vas(vma, num_pages: int) -> np.ndarray:
    """The VA of each of the first ``num_pages`` pages of a VMA."""
    return vma.start + PAGE_SIZE * np.arange(num_pages, dtype=np.int64)


def run_workload(
    kernel: Kernel, profile: WorkloadProfile, process=None
) -> PerfResult:
    """Execute one workload iteration; returns timing and counters.

    The map/fault, access-sweep, and churn phases run through the batched
    VM pipeline (:meth:`Kernel.mmap_touch_many`, :meth:`Mmu.load_many`),
    which falls back to the per-page loops by itself when the fault plane
    is armed.
    """
    if process is None:
        process = kernel.create_process()
    allocs_before = kernel.stats.page_allocs
    pte_before = kernel.stats.pte_allocs
    faults_before = kernel.stats.demand_faults
    obs_before = obs.get_registry().snapshot()

    start = time.perf_counter()
    regions = []
    # Phase 1: map and fault in the working set.
    for region in range(profile.mapped_regions):
        base = WORKLOAD_BASE + region * REGION_STRIDE
        length = profile.pages_per_region * PAGE_SIZE
        vma, _ = kernel.mmap_touch_many(process, length, address=base, write=True)
        regions.append(vma)
    # Phase 2: access sweeps (translation pressure).
    for _ in range(profile.access_passes):
        for vma in regions:
            kernel.mmu.load_many(
                process.cr3,
                _page_vas(vma, profile.pages_per_region),
                8,
                pid=process.pid,
            )
    # Phase 3: map/unmap churn (allocator pressure).
    churn_base = WORKLOAD_BASE + profile.mapped_regions * REGION_STRIDE
    for cycle in range(profile.map_unmap_cycles):
        base = churn_base + (cycle % 8) * REGION_STRIDE
        try:
            vma, _ = kernel.mmap_touch_many(
                process, 4 * PAGE_SIZE, address=base, write=True
            )
            kernel.munmap(process, vma)
        except OutOfMemoryError:
            break
    # Teardown.
    for vma in regions:
        kernel.munmap(process, vma)
    elapsed = time.perf_counter() - start

    return PerfResult(
        workload=profile.name,
        cta_enabled=kernel.cta_enabled,
        elapsed_s=elapsed,
        page_allocs=kernel.stats.page_allocs - allocs_before,
        pte_allocs=kernel.stats.pte_allocs - pte_before,
        demand_faults=kernel.stats.demand_faults - faults_before,
        tlb_hit_rate=kernel.tlb.hit_rate,
        page_table_bytes=kernel.page_table_bytes(process.pid),
        metrics=metric_deltas(obs_before, obs.get_registry().snapshot()),
    )


def compare_cta_overhead(
    profile: WorkloadProfile,
    repeats: int = 3,
    total_bytes: int = 64 * MIB,
) -> float:
    """Relative CTA overhead for one workload (Table 4 cell).

    Runs the workload ``repeats`` times on a stock kernel and on a CTA
    kernel (fresh kernel per run to avoid cross-run state), taking the
    best time of each — the standard benchmark-noise reduction — and
    returns ``(cta - stock) / stock``.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    stock_best: Optional[float] = None
    cta_best: Optional[float] = None
    for _ in range(repeats):
        stock_result = run_workload(make_perf_kernel(cta=False, total_bytes=total_bytes), profile)
        cta_result = run_workload(make_perf_kernel(cta=True, total_bytes=total_bytes), profile)
        if stock_best is None or stock_result.elapsed_s < stock_best:
            stock_best = stock_result.elapsed_s
        if cta_best is None or cta_result.elapsed_s < cta_best:
            cta_best = cta_result.elapsed_s
    return (cta_best - stock_best) / stock_best
