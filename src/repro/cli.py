"""Command-line front end: regenerate any of the paper's tables/figures.

Usage::

    python -m repro table1          # attack catalogue
    python -m repro table2          # security analysis (Pf=1e-4)
    python -m repro table3          # pessimistic security analysis
    python -m repro table4          # CTA performance overhead
    python -m repro fig3            # live privilege-escalation demo
    python -m repro fig5            # monotonic-pointer demonstration
    python -m repro anticell        # low-water-mark-only ablation
    python -m repro capacity        # Section 6.2 capacity accounting
    python -m repro headline        # abstract's headline numbers
    python -m repro stats --trace 5 # demo attack + observability dump
    python -m repro lint            # static contract checks (RL001..RL009)
    python -m repro payload validate p.json          # check a payload program
    python -m repro payload run --builtin sweep      # execute one on a demo world
    python -m repro check --sanitize# attack demo under runtime sanitizers
    python -m repro chaos --smoke   # fault-injection campaign (deterministic)
    python -m repro chaos --smoke --workers 4        # same results, fanned out
    python -m repro chaos --smoke --memo --memo-dir memo_cache  # cached re-runs
    python -m repro bench --quick   # hot-path microbenchmarks
    python -m repro resume --checkpoint chaos.json   # continue a killed run
    python -m repro serve --port 7341 --faults worker-crash:p=1,max=2
    python -m repro serve --port 7341 --memo-dir memo_cache  # cross-tenant cache
    python -m repro submit --port 7341 --segments 4 --json  # vs --serial --json
    python -m repro memo stats --dir memo_cache      # on-disk cache accounting
    python -m repro memo gc --dir memo_cache --max-bytes 1000000

All errors raised by the simulator derive from
:class:`repro.errors.ReproError`; the CLI catches the family at the top
level and exits with status 2 and a one-line message instead of a
traceback (capacity exhaustion gets its own ``capacity exhausted:``
prefix so operators can tell "out of room" from "misconfigured").
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import CapacityError, ConfigurationError, ReproError
from repro.units import format_duration


def _seed(text: str) -> int:
    """argparse ``type=`` for ``--seed``: a non-negative integer.

    Raises :class:`ConfigurationError` (not ``ValueError``) so argparse
    lets it propagate to :func:`main`'s taxonomy handler — a bad seed
    exits 2 with a clean one-line message, not an argparse traceback.
    """
    try:
        value = int(text, 0)
    except ValueError:
        raise ConfigurationError(f"seed {text!r} is not an integer") from None
    if value < 0:
        raise ConfigurationError(f"seed must be non-negative, got {value}")
    return value


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.attacks.registry import KNOWN_ATTACKS

    print(f"{'Technique':38s} {'Victim Data':12s} {'Attack':42s} {'Platform':8s}")
    for record in KNOWN_ATTACKS:
        print(
            f"{record.reference:38s} {record.victim_data:12s} "
            f"{record.attack_class:42s} {record.platform:8s}"
        )
    return 0


def _print_security_rows(rows, paper) -> None:
    print(
        f"{'Configuration':30s} {'E[exploitable]':>15s} {'paper':>12s} "
        f"{'attack (days)':>14s} {'paper':>8s}"
    )
    for row in rows:
        expected_paper, days_paper = paper[row.label]
        print(
            f"{row.label:30s} {row.expected_exploitable:15.4g} {expected_paper:12.4g} "
            f"{row.attack_time_days:14.1f} {days_paper:8.1f}"
        )


def _cmd_table2(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import PAPER_TABLE2, paper_table2

    _print_security_rows(paper_table2(), PAPER_TABLE2)
    return 0


def _cmd_table3(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import PAPER_TABLE3, paper_table3

    _print_security_rows(paper_table3(), PAPER_TABLE3)
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.perf.report import format_report, table4_report

    rows = table4_report(repeats=args.repeats)
    print(format_report(rows))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro import build_protected_system, build_stock_system
    from repro.attacks import ProbabilisticPteAttack
    from repro.dram.rowhammer import FlipStatistics, RowHammerModel

    stats = FlipStatistics(p_vulnerable=3e-2, p_with_leak=0.5)
    stock = build_stock_system()
    hammer = RowHammerModel(stock.module, stats, seed=args.seed)
    result = ProbabilisticPteAttack(kernel=stock, hammer=hammer).run(
        stock.create_process(), spray_mappings=96, max_rounds=3
    )
    print(f"stock kernel:     {result.outcome.value:18s} {result.detail}")

    protected = build_protected_system()
    hammer2 = RowHammerModel(protected.module, stats, seed=args.seed)
    result2 = ProbabilisticPteAttack(kernel=protected, hammer=hammer2).run(
        protected.create_process(), spray_mappings=96, max_rounds=3
    )
    print(f"CTA kernel:       {result2.outcome.value:18s} {result2.detail}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro import build_protected_system
    from repro.attacks import CtaBruteForceAttack
    from repro.dram.rowhammer import FlipStatistics, RowHammerModel

    kernel = build_protected_system()
    hammer = RowHammerModel(
        kernel.module, FlipStatistics(p_vulnerable=3e-2, p_with_leak=0.998), seed=args.seed
    )
    attack = CtaBruteForceAttack(kernel=kernel, hammer=hammer)
    result = attack.run(kernel.create_process(), max_target_pages=3)
    monotonic = sum(1 for o in attack.observations if o.monotonic)
    print(f"Algorithm 1 on CTA kernel: {result.outcome.value}")
    print(f"corrupted PTE pointers observed: {len(attack.observations)}")
    print(f"moved monotonically downward:    {monotonic}")
    print("full-sweep modeled attack time:  "
          f"{format_duration(attack.full_sweep_modeled_time_s())}")
    return 0


def _cmd_anticell(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import PAPER_ANTICELL, anticell_ablation

    result = anticell_ablation()
    print("low-water-mark-only (anti-cell ZONE_PTP) ablation, 8GB/32MB:")
    print(
        f"  expected exploitable PTEs: {result.expected_exploitable:10.1f}"
        f"   (paper {PAPER_ANTICELL.expected_exploitable})"
    )
    print(
        f"  expected attack time:      {result.attack_time_hours:10.1f} h"
        f" (paper {PAPER_ANTICELL.attack_time_hours} h)"
    )
    return 0


def _cmd_capacity(_args: argparse.Namespace) -> int:
    from repro.analysis.capacity import capacity_sweep

    best, worst = capacity_sweep()
    print("Section 6.2 effective-capacity accounting (8GB, 32MB ZONE_PTP):")
    print(f"  best case loss:  {best.loss_percent:6.2f}%")
    print(f"  worst case loss: {worst.loss_percent:6.2f}%  (paper: 0.78%)")
    return 0


def _cmd_headline(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import headline_numbers

    numbers = headline_numbers()
    print("abstract headline claims, recomputed:")
    print(f"  one vulnerable system in: {numbers['systems_per_vulnerable']:12.3g}"
          "   (paper: 2.04e5)")
    print(f"  attack time on it:        {numbers['attack_time_days']:12.1f} days"
          " (paper: 231)")
    print(f"  slowdown vs 20s attack:   {numbers['slowdown_vs_20s']:12.3g}x"
          "  (paper: ~1e6)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a demo hammer campaign and dump the collected metrics.

    Exercises every instrumented layer — spray (buddy/zones), hammer
    (DRAM flips), walk/check (MMU+TLB), refresh — then prints the
    default registry as a text table (default) or JSON (``--json``).
    ``--trace N`` appends the last N trace events.
    """
    from repro import build_stock_system, obs
    from repro.attacks import ProbabilisticPteAttack
    from repro.dram.refresh import RefreshScheduler
    from repro.dram.rowhammer import FlipStatistics, RowHammerModel

    obs.reset()
    kernel = build_stock_system()
    hammer = RowHammerModel(
        kernel.module, FlipStatistics(p_vulnerable=3e-2, p_with_leak=0.5), seed=args.seed
    )
    result = ProbabilisticPteAttack(kernel=kernel, hammer=hammer).run(
        kernel.create_process(), spray_mappings=48, max_rounds=2
    )
    refresh = RefreshScheduler(total_rows=kernel.module.geometry.total_rows)
    refresh.advance(0.064)
    refresh.refresh_all()

    # Translation-pressure sweep through the batched VM pipeline: a
    # working set larger than the TLB, swept twice, so the capacity
    # (``tlb.evictions``) and re-fill behaviour show up in the table.
    import numpy as np
    from repro.units import PAGE_SIZE
    sweeper = kernel.create_process()
    vma, _ = kernel.mmap_touch_many(
        sweeper, (kernel.tlb.capacity + 512) * PAGE_SIZE, write=True
    )
    sweep_vas = vma.start + PAGE_SIZE * np.arange(vma.num_pages, dtype=np.int64)
    for _ in range(2):
        kernel.mmu.translate_many(sweeper.cr3, sweep_vas, pid=sweeper.pid)
    kernel.munmap(sweeper, vma)

    # Static-verifier pass so the verify.* contract counters surface in
    # the table: one config model-check plus one payload verification.
    from repro.payload import builtin_payload
    from repro.verify import (
        AddressSpaceModel,
        named_config,
        verify_config,
        verify_payload,
    )
    cta_config = named_config("cta")
    verify_config(cta_config, subject="cta")
    verify_payload(
        builtin_payload("sweep"), AddressSpaceModel.from_config(cta_config)
    )

    # Campaign-service pass: a small deterministic overload scenario so
    # the service.* contract counters (admitted / rejected / shed /
    # worker_restarts / deadline_missed) surface in the table.
    from repro.service import run_overload_demo

    run_overload_demo(tenants=12, segments=1, seed=args.seed, workers=2)

    # Segment-memoization pass: the same tiny campaign twice through one
    # shared cache, so the memo.* contract counters (hits / misses /
    # stores / bytes) surface in the table with real values.
    from repro.faults.campaign import CampaignRunner
    from repro.perf.memo import SegmentMemo

    memo = SegmentMemo()
    for _ in range(2):
        CampaignRunner(
            "stats-memo-demo",
            "repro.perf.parallel:montecarlo_trial",
            2,
            seed=args.seed,
            kwargs={"total_bytes": 64 * 1024 * 1024, "ptp_bytes": 1024 * 1024},
            memo=memo,
        ).run()

    registry = obs.get_registry()
    if args.json:
        print(registry.to_json())
    else:
        print(f"demo attack outcome: {result.outcome.value}")
        print(registry.format_table())
    if args.trace:
        print(f"\nlast {args.trace} trace events "
              f"({len(registry.trace)} retained, {registry.trace.dropped} dropped):")
        for event in registry.trace.events(last=args.trace):
            print(f"  {event.format()}")
    return 0


def _cmd_vm(args: argparse.Namespace) -> int:
    from repro.dram.cells import CellTypeMap
    from repro.dram.geometry import DramGeometry
    from repro.dram.module import DramModule
    from repro.kernel import Hypervisor
    from repro.units import MIB, PAGE_SIZE

    geometry = DramGeometry(total_bytes=64 * MIB, row_bytes=16 * 1024, num_banks=2)
    host = DramModule(geometry, CellTypeMap.interleaved(geometry, period_rows=64))
    hypervisor = Hypervisor(host, hypervisor_zone_bytes=8 * MIB)
    for _ in range(args.guests):
        vm = hypervisor.create_guest(data_bytes=8 * MIB, ptp_bytes=MIB)
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 4 * PAGE_SIZE)
        vm.kernel.write_virtual(process, vma.start, b"vm data")
        print(f"VM {vm.vm_id}: data {vm.host_data_range[0]:#x}.."
              f"{vm.host_data_range[1]:#x}, PTP slice {vm.host_ptp_range[0]:#x}.."
              f"{vm.host_ptp_range[1]:#x}")
    hypervisor.verify_isolation()
    print("cross-VM CTA isolation verified (Section 7)")
    return 0


def _cmd_ecc(args: argparse.Namespace) -> int:
    from repro.dram.cells import CellTypeMap
    from repro.dram.ecc import DecodeStatus, EccWordStore
    from repro.dram.geometry import DramGeometry
    from repro.dram.module import DramModule
    from repro.dram.rowhammer import FlipStatistics, RowHammerModel
    from repro.units import MIB

    geometry = DramGeometry(total_bytes=2 * MIB, row_bytes=16 * 1024, num_banks=2)
    module = DramModule(geometry, CellTypeMap.interleaved(geometry, period_rows=8))
    store = EccWordStore(module, base_address=16 * 1024)
    for value in range(512):
        store.store((value % 256) * 0x0101_0101_0101_0101)
    hammer = RowHammerModel(
        module, FlipStatistics(p_vulnerable=8e-2, p_with_leak=0.6), seed=args.seed
    )
    for aggressor in range(5):
        hammer.hammer(aggressor)
    counts = {}
    for result in store.scrub_all():
        counts[result.status] = counts.get(result.status, 0) + 1
    print("SECDED under heavy hammering (512 words):")
    for status in DecodeStatus:
        print(f"  {status.value:24s} {counts.get(status, 0)}")
    print("ECC corrects singles but multi-flip words escape — ECC is not a "
          "RowHammer defense (Section 2.3).")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo's AST rule pack; non-zero exit when findings exist."""
    import json

    from repro.sanitize.lint import RULES, run_lint

    findings = run_lint(args.paths or None)
    if args.json:
        print(json.dumps(
            [
                {"rule": f.rule, "path": f.path, "line": f.line, "message": f.message}
                for f in findings
            ],
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            by_rule = {}
            for finding in findings:
                by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
            summary = ", ".join(
                f"{count}x {rule} ({RULES[rule]})" for rule, count in sorted(by_rule.items())
            )
            print(f"\n{len(findings)} finding(s): {summary}")
        else:
            print("repro lint: no findings")
    return 1 if findings else 0


def _payload_world(seed: int):
    """A small seeded DRAM world for standalone payload execution."""
    from repro.dram.cells import CellTypeMap
    from repro.dram.geometry import DramGeometry
    from repro.dram.module import DramModule
    from repro.dram.refresh import RefreshScheduler
    from repro.dram.rowhammer import FlipStatistics, RowHammerModel
    from repro.payload import PayloadContext
    from repro.units import MIB

    geometry = DramGeometry(total_bytes=8 * MIB, row_bytes=16 * 1024, num_banks=2)
    module = DramModule(geometry, CellTypeMap.interleaved(geometry, period_rows=8))
    for row in range(64):
        module.fill_row(row, 0xFF)
    hammer = RowHammerModel(
        module,
        FlipStatistics(p_vulnerable=2e-3, p_with_leak=0.9),
        seed=seed,
    )
    refresh = RefreshScheduler(total_rows=geometry.total_rows)
    return PayloadContext(hammer=hammer, module=module, refresh=refresh)


def _load_payload(args: argparse.Namespace):
    """The program named by --builtin or read from the positional file."""
    from pathlib import Path

    from repro.errors import PayloadError
    from repro.payload import PayloadProgram, builtin_payload, validate_program

    if args.builtin:
        return builtin_payload(args.builtin)
    if not args.file:
        raise PayloadError("give a payload file or --builtin NAME")
    text = Path(args.file).read_text(encoding="utf-8")
    return validate_program(PayloadProgram.from_json(text))


def _cmd_payload_run(args: argparse.Namespace) -> int:
    """Execute one payload on a self-contained demo world."""
    import json

    from repro.payload import run, slow_reference

    program = _load_payload(args)
    context = _payload_world(args.seed)
    executor = slow_reference if args.slow_reference else run
    result = executor(program, context)
    if args.json:
        print(json.dumps(
            {
                "name": result.name,
                "digest": result.digest,
                "bursts": result.bursts,
                "activations": result.activations,
                "reads": result.reads,
                "writes": result.writes,
                "nop_cycles": result.nop_cycles,
                "flips_induced": result.flips_induced,
                "read_digest": result.read_digest,
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    mode = "slow-reference" if args.slow_reference else "compiled"
    print(f"payload {result.name} ({result.digest}) executed [{mode}]")
    print(f"  bursts          {result.bursts}")
    print(f"  activations     {result.activations}")
    print(f"  reads / writes  {result.reads} / {result.writes}")
    print(f"  flips induced   {result.flips_induced}")
    if result.reads:
        print(f"  read digest     {result.read_digest}")
    return 0


def _cmd_payload_validate(args: argparse.Namespace) -> int:
    """Parse, validate, and compile a payload; report its shape."""
    from repro.payload import compile_program

    program = _load_payload(args)
    compiled = compile_program(program)
    print(
        f"payload {program.name} ({program.digest()}) is valid: "
        f"{len(compiled.steps)} compiled step(s), "
        f"{compiled.total_activations} activation(s), "
        f"{compiled.total_accesses} access(es)"
    )
    return 0


def _print_verdict_report(report, args: argparse.Namespace) -> int:
    """Render a verification report; map the overall verdict to an exit.

    Exit 0 for SAFE (and UNKNOWN without ``--strict``), 1 for UNSAFE —
    with the witness printed — and UNKNOWN under ``--strict``. Malformed
    input never reaches here: it raises and exits 2 through the main
    error handler.
    """
    from repro.verify import Verdict

    if args.json:
        print(report.to_json())
    else:
        print(report.format_text())
    if report.overall is Verdict.UNSAFE:
        return 1
    if report.overall is Verdict.UNKNOWN and args.strict:
        return 1
    return 0


def _cmd_verify_payload(args: argparse.Namespace) -> int:
    """Statically verify a payload program against a named config.

    The payload is parsed but deliberately *not* pre-validated: the
    ACT/PRE discipline is one of the verdicts, not an input error.
    """
    from pathlib import Path

    from repro.errors import PayloadError
    from repro.payload import PayloadProgram, builtin_payload
    from repro.verify import (
        DEFAULT_FLIP_THRESHOLD,
        AddressSpaceModel,
        named_config,
        verify_payload,
    )

    if args.builtin:
        program = builtin_payload(args.builtin)
    elif args.file:
        text = Path(args.file).read_text(encoding="utf-8")
        program = PayloadProgram.from_json(text)
    else:
        raise PayloadError("give a payload file or --builtin NAME")
    model = AddressSpaceModel.from_config(named_config(args.config))
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_FLIP_THRESHOLD
    )
    report = verify_payload(
        program, model, threshold=threshold, subject=program.name
    )
    return _print_verdict_report(report, args)


def _cmd_verify_config(args: argparse.Namespace) -> int:
    """Model-check a named kernel configuration's CTA layout."""
    from repro.verify import named_config, verify_config

    report = verify_config(named_config(args.config), subject=args.config)
    return _print_verdict_report(report, args)


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the attack demo end-to-end, optionally under runtime sanitizers.

    Stage 1 attacks a stock kernel (the attack should succeed or at least
    run without tripping any invariant); stage 2 attacks a CTA kernel with
    idealized true-cells, where the monotonicity and no-self-reference
    sanitizers must stay silent — the paper's theorem, enforced live.

    Stage 2 uses the Section 7 multi-level sub-zones: with a single
    ZONE_PTP, a downward flip in an *intermediate* entry can redirect it
    to a different page table inside the zone, and the level confusion
    (a PD read as a PT) opens a self-reference window the sanitizer
    rightly flags. Per-level zones remove that reinterpretation, which is
    exactly the structural argument the multilevel extension makes.
    """
    from repro import build_protected_system, build_stock_system, obs, sanitize
    from repro.attacks import CtaBruteForceAttack, ProbabilisticPteAttack
    from repro.dram.rowhammer import FlipStatistics, RowHammerModel

    # Stage 1: stock kernel (buddy + zone sanitizers only; no CTA checkers).
    obs.reset()
    sanitize.reset()
    stock = build_stock_system()
    hammer = RowHammerModel(
        stock.module, FlipStatistics(p_vulnerable=3e-2, p_with_leak=0.5), seed=args.seed
    )
    if args.sanitize:
        sanitize.install(stock, hammer=hammer)
    result = ProbabilisticPteAttack(kernel=stock, hammer=hammer).run(
        stock.create_process(), spray_mappings=48, max_rounds=2
    )
    stock_checks = sanitize.get_suite().checks
    print(f"stock kernel:   {result.outcome.value:18s} "
          f"({stock_checks} sanitizer checks, 0 violations)")

    # Stage 2: CTA kernel with idealized true-cells (p_with_leak=1.0): every
    # flip in ZONE_PTP moves pointers down, so the monotonicity sanitizer
    # must never fire.
    obs.reset()
    sanitize.reset()
    protected = build_protected_system(multilevel=True)
    hammer2 = RowHammerModel(
        protected.module,
        FlipStatistics(p_vulnerable=3e-2, p_with_leak=1.0),
        seed=args.seed,
    )
    if args.sanitize:
        sanitize.install(protected, hammer=hammer2)
    result2 = ProbabilisticPteAttack(kernel=protected, hammer=hammer2).run(
        protected.create_process(), spray_mappings=48, max_rounds=2
    )
    attack = CtaBruteForceAttack(kernel=protected, hammer=hammer2)
    result3 = attack.run(protected.create_process(), max_target_pages=1, spray_mappings=24)
    protected.verify_cta_rules()
    if args.sanitize:
        sanitize.get_suite().check_now()
    cta_checks = sanitize.get_suite().checks
    print(f"CTA kernel:     {result2.outcome.value:18s} "
          f"({cta_checks} sanitizer checks, 0 violations)")
    print(f"Algorithm 1:    {result3.outcome.value:18s} "
          f"({len(attack.observations)} pointer corruptions, all monotonic)")
    if args.sanitize:
        print("sanitizers: all invariants held (buddy heap, zone containment, "
              "monotonicity, no-self-reference)")
    sanitize.reset()
    return 0


def _print_campaign_report(report, as_json: bool) -> int:
    """Render a campaign report; returns the CLI exit status.

    Exit 0 when everything recorded so far succeeded (including a partial
    budget-interrupted run — the checkpoint holds the completed work) and
    1 when any segment terminally failed.
    """
    import json

    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for index, result in enumerate(report.results()):
            if result is None:
                print(f"  segment {index}: pending")
            elif "error" in result:
                print(f"  segment {index}: FAILED ({result['error']})")
            else:
                summary = ", ".join(
                    f"{key}={result[key]}"
                    for key in ("outcome", "flips", "exploitable",
                                "security_downgrades", "sanitizer_violations")
                    if key in result
                )
                print(f"  segment {index}: {result.get('kind', '?')} ok ({summary})")
        totals = report.fault_totals()
        fired = {name: count for name, count in totals.items() if count}
        print(f"faults injected: {sum(totals.values())} "
              f"({', '.join(f'{k}={v}' for k, v in fired.items()) or 'none fired'})")
        print(f"segments: {len(report.completed)} completed, "
              f"{len(report.failed)} failed, {report.remaining} remaining; "
              f"{report.retries} retries "
              f"({report.backoff_wait_s:.2f}s backoff)")
        if report.interrupted:
            print("campaign interrupted — rerun with `repro resume "
                  "--checkpoint <path>` to continue")
    return 1 if report.failed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the standard fault-injection campaign (see repro.faults).

    Deterministic for a fixed seed: two identical invocations produce
    identical fault counts, segment results and metric tables. ``--smoke``
    shrinks each segment for CI; ``--max-segments`` stops early with a
    resumable checkpoint. ``--memo`` (optionally with ``--memo-dir`` for
    a cross-run on-disk tier) replays previously computed segments from
    the content-addressed cache, byte-identically.
    """
    from repro import faults, obs, sanitize
    from repro.faults.campaign import CampaignBudget
    from repro.faults.scenarios import run_chaos_campaign

    obs.reset()
    sanitize.reset()
    faults.reset()
    budget = None
    if args.max_segments is not None:
        budget = CampaignBudget(max_segments=args.max_segments)
    memo = None
    if args.memo or args.memo_dir:
        from repro.perf.memo import build_memo

        memo = build_memo(args.memo_dir, verify_fraction=args.memo_verify)
    report = run_chaos_campaign(
        args.seed,
        num_segments=args.segments,
        policy=args.policy,
        smoke=args.smoke,
        checkpoint_path=args.checkpoint,
        budget=budget,
        workers=args.workers,
        warm_start=args.warm_start,
        memo=memo,
    )
    status = _print_campaign_report(report, args.json)
    if not args.json:
        if memo is not None:
            print(
                f"memo: {memo.hits} hits, {memo.misses} misses, "
                f"{memo.stores} stores, {memo.bypasses} bypasses, "
                f"{memo.verified} verified"
            )
        print()
        print(obs.get_registry().format_table())
    return status


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the hot-path microbenchmarks and write ``BENCH_hotpath.json``.

    ``--baseline`` turns the run into a CI gate: exit 1 when any case's
    ops/s falls below the committed baseline divided by
    ``--max-regression``.
    """
    from repro.perf.bench import bench_main

    return bench_main(
        quick=args.quick,
        output=args.output,
        baseline=args.baseline,
        max_regression=args.max_regression,
    )


def _cmd_resume(args: argparse.Namespace) -> int:
    """Continue a chaos campaign from its checkpoint file.

    The campaign's identity (seed, segment count, policy, smoke mode) is
    read back from the checkpoint, so the merged result is exactly what an
    uninterrupted run would have produced.
    """
    from repro import faults, obs, sanitize
    from repro.faults.campaign import read_checkpoint
    from repro.faults.scenarios import build_chaos_runner

    data = read_checkpoint(args.checkpoint)
    if data["name"] != "chaos":
        raise ConfigurationError(
            f"checkpoint {args.checkpoint} records campaign {data['name']!r}; "
            "repro resume only handles 'chaos' campaigns"
        )
    config = data["config"]
    obs.reset()
    sanitize.reset()
    faults.reset()
    runner = build_chaos_runner(
        data["seed"],
        num_segments=data["num_segments"],
        policy=config.get("policy", "fail-hard"),
        smoke=config.get("smoke", True),
        checkpoint_path=args.checkpoint,
    )
    report = runner.run(resume=True)
    status = _print_campaign_report(report, args.json)
    if not args.json:
        print()
        print(obs.get_registry().format_table())
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived campaign service until a client sends drain.

    Deterministic fault schedules (``--faults``) are installed before
    the first request, so injected worker crashes / hangs / snapshot
    corruption replay identically across invocations with one seed.
    """
    import asyncio

    from repro import faults, obs
    from repro.service import AdmissionPolicy, CampaignService
    from repro.service.server import serve

    obs.reset()
    faults.reset()
    if args.faults:
        faults.install(args.faults, seed=args.seed)
    policy = AdmissionPolicy(
        max_active=args.max_active, tenant_cap=args.tenant_cap
    )
    memo = None
    if args.memo_dir:
        from repro.perf.memo import build_memo

        memo = build_memo(args.memo_dir, verify_fraction=args.memo_verify)
    service = CampaignService(
        workers=args.workers,
        policy=policy,
        mode=args.mode,
        max_requeues=args.max_requeues,
        segment_timeout_s=args.segment_timeout,
        memo=memo,
    )

    def ready(port: int) -> None:
        print(f"repro service listening on {args.host}:{port}", flush=True)

    asyncio.run(serve(service, host=args.host, port=args.port, ready_cb=ready))
    print("repro service drained; all admitted campaigns completed", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one campaign to a running service (or run it serially).

    ``--serial`` bypasses the service entirely and runs the identical
    campaign inline through the campaign engine — the reference a service
    report must match byte-for-byte, which is exactly how the CI smoke
    job uses it: ``repro submit --json`` vs ``repro submit --serial
    --json`` must print identical bytes.
    """
    import json

    from repro.service import CampaignRequest, submit_over_socket

    request = CampaignRequest(
        name=args.name,
        target=args.target,
        num_segments=args.segments,
        seed=args.seed,
        tenant=args.tenant,
        priority=args.priority,
        deadline_s=args.deadline,
        max_retries=args.max_retries,
        warm_start=args.warm_start,
        kwargs=json.loads(args.kwargs),
        config=json.loads(args.config),
    )
    if args.serial:
        from repro import obs
        from repro.faults.campaign import CampaignRunner

        obs.reset()
        report_dict = CampaignRunner(
            request.name,
            request.target,
            request.num_segments,
            seed=request.seed,
            config=request.config,
            kwargs=request.kwargs,
            max_retries=request.max_retries,
        ).run().to_dict()
    else:
        report_dict, progress = submit_over_socket(
            args.host, args.port, request, timeout_s=args.timeout
        )
        if not args.json:
            for event in progress:
                print(
                    f"  progress: {event.get('completed')}/{event.get('total')}"
                )
    if args.json:
        print(json.dumps(report_dict, indent=2, sort_keys=True))
    else:
        segments = report_dict["segments"]
        print(
            f"campaign {report_dict['name']} (seed {report_dict['seed']}): "
            f"{segments['completed']} completed, {segments['failed']} failed, "
            f"{segments['remaining']} remaining"
        )
    return 1 if report_dict["segments"]["failed"] else 0


def _cmd_memo_stats(args: argparse.Namespace) -> int:
    """Report the on-disk memo store's entry/byte accounting."""
    import json

    from repro.perf.memo import DiskMemoStore

    store = DiskMemoStore(args.dir)
    info = store.stats()
    info["recovered_partials"] = store.recovered_partials
    if args.json:
        print(json.dumps(
            {"directory": str(store.directory), **info}, indent=2, sort_keys=True
        ))
    else:
        print(f"memo store {store.directory}:")
        print(f"  entries            {info['entries']}")
        print(f"  total bytes        {info['total_bytes']}")
        print(f"  partials recovered {info['recovered_partials']}")
    return 0


def _cmd_memo_gc(args: argparse.Namespace) -> int:
    """Prune the on-disk memo store down to a byte budget (oldest first)."""
    import json

    from repro.perf.memo import DiskMemoStore

    store = DiskMemoStore(args.dir)
    result = store.gc(args.max_bytes)
    if args.json:
        print(json.dumps(
            {"directory": str(store.directory), **result}, indent=2, sort_keys=True
        ))
    else:
        print(
            f"memo gc {store.directory}: removed {result['removed']} "
            f"entr{'y' if result['removed'] == 1 else 'ies'} "
            f"({result['freed_bytes']} bytes); {result['entries']} remain "
            f"({result['total_bytes']} bytes <= {args.max_bytes})"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's tables and figures."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="catalogue of published attacks").set_defaults(func=_cmd_table1)
    subparsers.add_parser("table2", help="security analysis, Pf=1e-4").set_defaults(func=_cmd_table2)
    subparsers.add_parser("table3", help="pessimistic security analysis").set_defaults(func=_cmd_table3)
    t4 = subparsers.add_parser("table4", help="CTA performance overhead")
    t4.add_argument("--repeats", type=int, default=3)
    t4.set_defaults(func=_cmd_table4)
    fig3 = subparsers.add_parser("fig3", help="live privilege-escalation demo")
    fig3.add_argument("--seed", type=_seed, default=1)
    fig3.set_defaults(func=_cmd_fig3)
    fig5 = subparsers.add_parser("fig5", help="monotonic-pointer demonstration")
    fig5.add_argument("--seed", type=_seed, default=1)
    fig5.set_defaults(func=_cmd_fig5)
    subparsers.add_parser("anticell", help="anti-cell ZONE_PTP ablation").set_defaults(func=_cmd_anticell)
    subparsers.add_parser("capacity", help="capacity-loss accounting").set_defaults(func=_cmd_capacity)
    subparsers.add_parser("headline", help="abstract headline numbers").set_defaults(func=_cmd_headline)
    vm = subparsers.add_parser("vm", help="Section 7 virtual-machine support demo")
    vm.add_argument(
        "--guests", type=int, default=3,
        help="guest VMs to boot (enough of them exhausts ZONE_HYPERVISOR)",
    )
    vm.set_defaults(func=_cmd_vm)
    stats = subparsers.add_parser(
        "stats", help="run a demo attack and dump observability metrics"
    )
    stats.add_argument("--seed", type=_seed, default=1)
    stats.add_argument("--json", action="store_true", help="emit metrics as JSON")
    stats.add_argument(
        "--trace", type=int, default=0, metavar="N",
        help="also print the last N trace events",
    )
    stats.set_defaults(func=_cmd_stats)
    ecc = subparsers.add_parser("ecc", help="SECDED-vs-RowHammer demo")
    ecc.add_argument("--seed", type=_seed, default=13)
    ecc.set_defaults(func=_cmd_ecc)
    lint = subparsers.add_parser(
        "lint", help="run the repo-specific static contract checks"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    lint.add_argument("--json", action="store_true", help="emit findings as JSON")
    lint.set_defaults(func=_cmd_lint)
    payload = subparsers.add_parser(
        "payload", help="validate or execute declarative hammer payloads"
    )
    payload_sub = payload.add_subparsers(dest="payload_command", required=True)
    payload_run = payload_sub.add_parser(
        "run", help="execute a payload on a self-contained demo DRAM world"
    )
    payload_run.add_argument(
        "file", nargs="?", default=None,
        help="payload program as JSON (omit with --builtin)",
    )
    payload_run.add_argument(
        "--builtin", default=None, metavar="NAME",
        help="run a builtin demo payload (sweep, aligned, readback, template)",
    )
    payload_run.add_argument("--seed", type=_seed, default=1)
    payload_run.add_argument(
        "--slow-reference", action="store_true",
        help="execute via the interpreter oracle instead of the compiler",
    )
    payload_run.add_argument("--json", action="store_true", help="emit the result as JSON")
    payload_run.set_defaults(func=_cmd_payload_run)
    payload_validate = payload_sub.add_parser(
        "validate", help="parse, validate, and compile a payload program"
    )
    payload_validate.add_argument(
        "file", nargs="?", default=None,
        help="payload program as JSON (omit with --builtin)",
    )
    payload_validate.add_argument(
        "--builtin", default=None, metavar="NAME",
        help="validate a builtin demo payload",
    )
    payload_validate.set_defaults(func=_cmd_payload_validate)
    verify = subparsers.add_parser(
        "verify", help="statically verify payloads and CTA configurations"
    )
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    verify_payload = verify_sub.add_parser(
        "payload", help="abstract-interpret a payload against a config"
    )
    verify_payload.add_argument(
        "file", nargs="?", default=None,
        help="payload program as JSON (omit with --builtin)",
    )
    verify_payload.add_argument(
        "--builtin", default=None, metavar="NAME",
        help="verify a builtin demo payload (sweep, aligned, readback, template)",
    )
    verify_payload.add_argument(
        "--config", default="cta", metavar="NAME",
        help="named config providing the address-space model "
        "(stock, cta, cta-multilevel, cta-anticell; default: %(default)s)",
    )
    verify_payload.add_argument(
        "--threshold", type=int, default=None,
        help="per-window flip threshold (default: the model's)",
    )
    verify_payload.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    verify_payload.add_argument(
        "--strict", action="store_true",
        help="treat UNKNOWN verdicts as failures (exit 1)",
    )
    verify_payload.set_defaults(func=_cmd_verify_payload)
    verify_config = verify_sub.add_parser(
        "config", help="model-check a kernel configuration's CTA layout"
    )
    verify_config.add_argument(
        "--config", default="cta", metavar="NAME",
        help="named config to check "
        "(stock, cta, cta-multilevel, cta-anticell; default: %(default)s)",
    )
    verify_config.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    verify_config.add_argument(
        "--strict", action="store_true",
        help="treat UNKNOWN verdicts as failures (exit 1)",
    )
    verify_config.set_defaults(func=_cmd_verify_config)
    check = subparsers.add_parser(
        "check", help="run the attack demo under runtime invariant sanitizers"
    )
    check.add_argument("--seed", type=_seed, default=1)
    check.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime sanitizer suite during the demo",
    )
    check.set_defaults(func=_cmd_check)
    chaos = subparsers.add_parser(
        "chaos", help="run the deterministic fault-injection campaign"
    )
    chaos.add_argument("--seed", type=_seed, default=1)
    chaos.add_argument(
        "--smoke", action="store_true",
        help="small fast segments (the CI gate configuration)",
    )
    chaos.add_argument(
        "--policy", default="fail-hard",
        choices=("fail-hard", "reclaim-retry", "screened-fallback"),
        help="ZONE_PTP exhaustion policy for the CTA segments",
    )
    chaos.add_argument(
        "--segments", type=int, default=6,
        help="total campaign segments (rotating scenario kinds)",
    )
    chaos.add_argument(
        "--max-segments", type=int, default=None, metavar="N",
        help="budget: stop after N segments this run (checkpoint keeps the rest)",
    )
    chaos.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write resumable campaign state to PATH after every segment",
    )
    chaos.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan segments out across N worker processes (same results as "
        "serial for the same seed; 1 = serial reference path)",
    )
    chaos.add_argument(
        "--warm-start", action="store_true",
        help="boot the segment worlds once into a shared-memory snapshot "
        "and attach copy-on-write per segment (identical results, less "
        "per-segment setup)",
    )
    chaos.add_argument(
        "--memo", action="store_true",
        help="memoize segment results in-process (content-addressed cache; "
        "identical segments replay byte-identically)",
    )
    chaos.add_argument(
        "--memo-dir", default=None, metavar="PATH",
        help="back the memo with an on-disk store at PATH (implies --memo; "
        "shared across runs and workers)",
    )
    chaos.add_argument(
        "--memo-verify", type=float, default=0.0, metavar="FRACTION",
        help="recompute this fraction of cache hits and fail on divergence "
        "(default: %(default)s)",
    )
    chaos.add_argument("--json", action="store_true", help="emit the report as JSON")
    chaos.set_defaults(func=_cmd_chaos)
    bench = subparsers.add_parser(
        "bench", help="hot-path microbenchmarks (vectorized vs scalar)"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller iteration counts (the CI smoke configuration)",
    )
    bench.add_argument(
        "--output", default="BENCH_hotpath.json", metavar="PATH",
        help="where to write the JSON report (default: %(default)s)",
    )
    bench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed baseline to gate against; exit 1 on regression",
    )
    bench.add_argument(
        "--max-regression", type=float, default=2.0, metavar="FACTOR",
        help="allowed slowdown vs the baseline before failing (default: %(default)s)",
    )
    bench.set_defaults(func=_cmd_bench)
    resume = subparsers.add_parser(
        "resume", help="continue a chaos campaign from its checkpoint"
    )
    resume.add_argument("--checkpoint", required=True, metavar="PATH")
    resume.add_argument("--json", action="store_true", help="emit the report as JSON")
    resume.set_defaults(func=_cmd_resume)
    serve = subparsers.add_parser(
        "serve", help="run the long-lived campaign service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed when ready)")
    serve.add_argument("--workers", type=int, default=2,
                       help="supervised worker count")
    serve.add_argument("--mode", choices=("inline", "process"), default="inline",
                       help="segment execution mode (inline is deterministic)")
    serve.add_argument("--max-requeues", type=int, default=2,
                       help="re-enqueues per segment after worker deaths")
    serve.add_argument("--segment-timeout", type=float, default=None,
                       help="per-segment hang timeout in process mode (seconds)")
    serve.add_argument("--max-active", type=int, default=64,
                       help="admission cap on concurrent admitted requests")
    serve.add_argument("--tenant-cap", type=int, default=4,
                       help="admission cap per tenant")
    serve.add_argument("--faults", action="append", default=[], metavar="SPEC",
                       help="fault spec, e.g. worker-crash:p=1,max=2 (repeatable)")
    serve.add_argument("--seed", type=_seed, default=0,
                       help="seed for the injected fault schedules")
    serve.add_argument("--memo-dir", default=None, metavar="PATH",
                       help="share a content-addressed segment-result cache "
                       "across tenants, backed on disk at PATH")
    serve.add_argument("--memo-verify", type=float, default=0.0,
                       metavar="FRACTION",
                       help="recompute this fraction of cache hits and fail "
                       "on divergence (default: %(default)s)")
    serve.set_defaults(func=_cmd_serve)
    submit = subparsers.add_parser(
        "submit", help="submit one campaign to a running service"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=0)
    submit.add_argument("--name", default="cli-campaign")
    submit.add_argument("--target",
                        default="repro.perf.parallel:montecarlo_trial",
                        help="'module:qualname' segment callable")
    submit.add_argument("--segments", type=int, default=4)
    submit.add_argument("--seed", type=_seed, default=0)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--deadline", type=float, default=None,
                        help="relative deadline in seconds")
    submit.add_argument("--max-retries", type=int, default=3)
    submit.add_argument("--warm-start", action="store_true",
                        help="attach segments to a library snapshot")
    submit.add_argument("--kwargs", default="{}", metavar="JSON",
                        help="segment kwargs as a JSON object")
    submit.add_argument("--config", default="{}", metavar="JSON",
                        help="campaign config as a JSON object")
    submit.add_argument("--timeout", type=float, default=120.0,
                        help="client-side socket timeout (seconds)")
    submit.add_argument("--serial", action="store_true",
                        help="run serially in-process (byte-identity reference)")
    submit.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    submit.set_defaults(func=_cmd_submit)
    memo = subparsers.add_parser(
        "memo", help="inspect or prune the on-disk segment-result cache"
    )
    memo_sub = memo.add_subparsers(dest="memo_command", required=True)
    memo_stats = memo_sub.add_parser(
        "stats", help="entry and byte accounting for a memo directory"
    )
    memo_stats.add_argument("--dir", required=True, metavar="PATH",
                            help="memo store directory (as given to --memo-dir)")
    memo_stats.add_argument("--json", action="store_true",
                            help="emit the accounting as JSON")
    memo_stats.set_defaults(func=_cmd_memo_stats)
    memo_gc = memo_sub.add_parser(
        "gc", help="prune oldest entries until the store fits a byte budget"
    )
    memo_gc.add_argument("--dir", required=True, metavar="PATH",
                         help="memo store directory (as given to --memo-dir)")
    memo_gc.add_argument("--max-bytes", type=int, required=True,
                         help="target on-disk size after pruning")
    memo_gc.add_argument("--json", action="store_true",
                         help="emit the gc summary as JSON")
    memo_gc.set_defaults(func=_cmd_memo_gc)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CapacityError as exc:
        print(f"repro: capacity exhausted: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
