"""The paper's Algorithm 1: brute-force RowHammer attack against CTA.

Tailored to a system already running CTA (Section 5)::

    for each physical page below the low water mark:
        fill ZONE_PTP with PTEs pointing to that page          (1)
        for each row r in ZONE_PTP:
            hammer r                                            (2)
            check PTEs in r's victim rows for self-reference    (3)

Step (2) is possible even though the attacker cannot map ZONE_PTP: by
repeatedly accessing a virtual address whose translation's PTE lives in
row ``r`` (flushing the TLB each time), the MMU's walk activates row
``r`` — the PTE rows hammer themselves.

The attack succeeds only if a flip makes some PTE's PTP-indicator bits all
'1'. In true-cells nearly every flip is ``1 -> 0``, so the pointer moves
*down*, away from ZONE_PTP — the No Self-Reference Theorem in action. The
run therefore also records the monotonicity evidence used by the Figure 5
benchmark: every corrupted pointer value vs its original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import obs, sanitize
from repro.attacks.base import AttackOutcome, AttackResult
from repro.attacks.escalation import attempt_escalation, find_self_references
from repro.attacks.spray import spray_page_tables
from repro.attacks.timing import AttackTimingModel
from repro.dram.rowhammer import RowHammerModel
from repro.errors import AttackError
from repro.kernel.kernel import Kernel
from repro.kernel.pagetable import PageTableEntry
from repro.kernel.process import Process
from repro.payload import (
    PayloadContext,
    PayloadProgram,
    compile_program,
    hammer_sweep,
    iter_steps,
)
from repro.units import PAGE_SHIFT, PTE_SIZE


@dataclass
class PointerObservation:
    """A PTE frame pointer before and after hammering (Figure 5 data)."""

    pte_physical_address: int
    original_pfn: int
    corrupted_pfn: int

    @property
    def monotonic(self) -> bool:
        """True when the corruption did not increase the pointer."""
        return self.corrupted_pfn <= self.original_pfn


@dataclass
class CtaBruteForceAttack:
    """Algorithm 1 runner.

    ``kernel`` must have CTA enabled (the algorithm is defined in terms of
    ZONE_PTP). The full sweep over every page below the mark is priced by
    the timing model; the live simulation runs ``max_target_pages``
    iterations of the outer loop.
    """

    kernel: Kernel
    hammer: RowHammerModel
    timing: AttackTimingModel = AttackTimingModel()
    observations: List[PointerObservation] = field(default_factory=list)
    #: Hammer programs this instance compiled and executed, in order.
    executed_payloads: List[PayloadProgram] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.kernel.cta_enabled:
            raise AttackError("Algorithm 1 targets a CTA kernel; none configured")

    def run(
        self,
        attacker: Process,
        max_target_pages: int = 4,
        spray_mappings: int = 48,
    ) -> AttackResult:
        """Run the (truncated) brute force; returns outcome and accounting."""
        obs.inc("attack.attempts", kind="algorithm1")
        kernel = self.kernel
        result = AttackResult(outcome=AttackOutcome.BUDGET_EXHAUSTED)
        ptp_rows = self._zone_ptp_rows()
        if not ptp_rows:
            result.outcome = AttackOutcome.BLOCKED
            result.detail = "ZONE_PTP is empty"
            return self._finish(result)

        # The ZONE_PTP sweep is one compiled payload, re-executed per
        # target page; the TLB flush per burst is attack bookkeeping
        # between its pending steps.
        program = hammer_sweep("algorithm1-ptp-sweep", ptp_rows)
        self.executed_payloads.append(program)
        compiled = compile_program(program)
        context = PayloadContext(hammer=self.hammer)

        for target_page in range(max_target_pages):
            # Step (1): fill ZONE_PTP with PTEs pointing at one physical page.
            spray = spray_page_tables(
                kernel, attacker, spray_mappings, target_pfn_value=target_page
            )
            result.modeled_time_s += self.timing.fill_s
            before = self._snapshot_ptes(attacker)

            # Steps (2)+(3): hammer each ZONE_PTP row, then check PTEs.
            for burst in iter_steps(compiled, context):
                outcome = burst.perform()
                result.hammer_rounds += 1
                result.flips_induced += outcome.flip_count
                result.modeled_time_s += self.timing.hammer_row_s
                kernel.tlb.flush()
            self._record_observations(before)

            references = find_self_references(kernel, attacker, spray.mapped_vas)
            result.ptes_checked += len(spray.mapped_vas)
            result.modeled_time_s += len(spray.mapped_vas) * self.timing.check_pte_s
            if references:
                report = attempt_escalation(kernel, attacker, references[0])
                if report.achieved:
                    result.outcome = AttackOutcome.SUCCESS
                    result.corrupted_vas = [r.virtual_address for r in references]
                    result.escalated_pid = attacker.pid
                    result.detail = report.detail
                    return self._finish(result)

            # Tear the spray down before the next target page.
            for vma in list(attacker.vmas):
                if vma.start in set(spray.mapped_vas):
                    kernel.munmap(attacker, vma)

        result.detail = (
            f"no exploitable PTE after {max_target_pages} target pages; "
            f"{self._monotonic_summary()}"
        )
        return self._finish(result)

    def _finish(self, result: AttackResult) -> AttackResult:
        """Record the terminal outcome and monotonicity evidence."""
        obs.inc("attack.outcomes", kind="algorithm1", outcome=result.outcome.value)
        monotonic = sum(1 for o in self.observations if o.monotonic)
        obs.inc("attack.pointer_observations", monotonic, monotonic="true")
        obs.inc(
            "attack.pointer_observations",
            len(self.observations) - monotonic,
            monotonic="false",
        )
        sanitize.notify(
            "attack.campaign",
            kernel=self.kernel,
            hammer=self.hammer,
            kind="algorithm1",
            outcome=result.outcome.value,
        )
        return result

    def full_sweep_modeled_time_s(self) -> float:
        """What the complete Algorithm 1 sweep would cost on real hardware."""
        policy = self.kernel.cta_policy
        if policy is None:
            raise AttackError("Algorithm 1 requires a CTA kernel")
        total = self.kernel.module.geometry.total_bytes
        ptp = policy.config.ptp_bytes
        return self.timing.worst_case_s(total, ptp)

    # -- internals ------------------------------------------------------------
    def _zone_ptp_rows(self) -> List[int]:
        """Global DRAM rows covered by the PTP sub-zones."""
        geometry = self.kernel.module.geometry
        rows: List[int] = []
        policy = self.kernel.cta_policy
        if policy is None:
            raise AttackError("Algorithm 1 requires a CTA kernel")
        for start, end in policy.true_cell_ranges:
            first = start // geometry.row_bytes
            last = (end + geometry.row_bytes - 1) // geometry.row_bytes
            rows.extend(range(first, last))
        return sorted(set(rows))

    def _read_table_words(self, base: int) -> List[int]:
        """All 512 raw PTE words of the table at ``base``.

        One zero-copy :meth:`DramModule.u64_view` gather per table on the
        fast path; the per-entry ``read_u64`` loop is kept for armed
        fault planes (per-read schedules must see every access) and for
        geometries where a table straddles a row.
        """
        module = self.kernel.module
        slots = 4096 // PTE_SIZE
        if not module.fault_plane_armed:
            view = module.u64_view(base, slots)
            if view is not None:
                return view.tolist()
        return [module.read_u64(base + slot * PTE_SIZE) for slot in range(slots)]

    def _snapshot_ptes(self, attacker: Process) -> List[Tuple[int, int]]:
        """(pte_physical_address, raw_value) of every live attacker PTE."""
        snapshot: List[Tuple[int, int]] = []
        for pt_pfn in self.kernel.page_table_pfns(attacker.pid):
            base = pt_pfn << PAGE_SHIFT
            for slot, raw in enumerate(self._read_table_words(base)):
                if raw & 1:  # present entries only
                    snapshot.append((base + slot * PTE_SIZE, raw))
        return snapshot

    def _record_observations(self, before: List[Tuple[int, int]]) -> None:
        armed = self.kernel.module.fault_plane_armed
        module = self.kernel.module
        current_words: Dict[int, List[int]] = {}
        for address, original_raw in before:
            if armed:
                # Reference path: one read per recorded PTE, in order, so
                # per-read fault schedules replay exactly.
                current_raw = module.read_u64(address)
            else:
                base = address & ~0xFFF
                words = current_words.get(base)
                if words is None:
                    words = current_words[base] = self._read_table_words(base)
                current_raw = words[(address - base) // PTE_SIZE]
            if current_raw == original_raw:
                continue
            self.observations.append(
                PointerObservation(
                    pte_physical_address=address,
                    original_pfn=PageTableEntry.decode(original_raw).pfn,
                    corrupted_pfn=PageTableEntry.decode(current_raw).pfn,
                )
            )

    def _monotonic_summary(self) -> str:
        total = len(self.observations)
        monotonic = sum(1 for o in self.observations if o.monotonic)
        return f"{monotonic}/{total} corrupted pointers moved monotonically down"
