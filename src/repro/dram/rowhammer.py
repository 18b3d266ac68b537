"""Statistical RowHammer fault model.

The paper's security analysis (Section 5) rests on three published
parameters measured in large-scale DRAM studies [19, 37]:

- ``Pf`` — probability that a given bit is *vulnerable* (flippable) at all,
  observed around ``1e-4`` across a wide range of modules;
- ``P(1->0)`` / ``P(0->1)`` — conditional direction of a vulnerable bit's
  flip. In true-cells 99.8% of flips are ``1->0`` and only 0.2% go the other
  way (residual circuit effects such as voltage coupling); anti-cells mirror
  this.

We reproduce that structure exactly: each DRAM row owns a lazily-sampled,
frozen set of vulnerable bits, each with a fixed flip direction drawn from
the cell-type-conditioned statistics. Hammering an aggressor row disturbs
its physically adjacent victim rows; every vulnerable victim bit whose
current value matches its flip source changes to its flip target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs, sanitize
from repro.dram.cells import CellType
from repro.dram.module import DramModule
from repro.errors import ConfigurationError, ReproError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class FlipStatistics:
    """RowHammer bit-flip statistics (paper Section 5 parameters).

    ``p_vulnerable`` is ``Pf``. ``p_with_leak`` is the probability that a
    vulnerable bit flips in the cell's natural leak direction (``1->0`` for
    true-cells); ``1 - p_with_leak`` flips against it.
    """

    p_vulnerable: float = 1e-4
    p_with_leak: float = 0.998

    def __post_init__(self) -> None:
        if not 0 <= self.p_vulnerable <= 1:
            raise ConfigurationError("p_vulnerable must be in [0, 1]")
        if not 0 <= self.p_with_leak <= 1:
            raise ConfigurationError("p_with_leak must be in [0, 1]")

    @property
    def p_against_leak(self) -> float:
        """Probability a vulnerable bit flips against the leak direction."""
        return 1.0 - self.p_with_leak

    @classmethod
    def paper_default(cls) -> "FlipStatistics":
        """Table 2 parameters: Pf = 1e-4, P(0->1) = 0.2% in true-cells."""
        return cls(p_vulnerable=1e-4, p_with_leak=0.998)

    @classmethod
    def paper_pessimistic(cls) -> "FlipStatistics":
        """Table 3 parameters: Pf = 5e-4, P(0->1) = 0.5% in true-cells."""
        return cls(p_vulnerable=5e-4, p_with_leak=0.995)


@dataclass(frozen=True)
class BitFlip:
    """One observed flip: absolute address/bit plus old and new values."""

    address: int
    bit: int
    old: int
    new: int

    @property
    def direction(self) -> Tuple[int, int]:
        """``(old, new)`` pair."""
        return (self.old, self.new)


@dataclass
class HammerOutcome:
    """Result of hammering one aggressor row."""

    aggressor_row: int
    victim_rows: Tuple[int, ...]
    flips: List[BitFlip] = field(default_factory=list)
    activations: int = 0

    @property
    def flip_count(self) -> int:
        """Total flips induced."""
        return len(self.flips)

    def flips_in_row(self, row: int, row_bytes: int) -> List[BitFlip]:
        """Flips landing in global row ``row``."""
        base = row * row_bytes
        return [f for f in self.flips if base <= f.address < base + row_bytes]


@dataclass(frozen=True)
class _VulnerableBit:
    """A frozen manufacturing defect: row-relative bit that can flip one way."""

    bit_position: int  # row-relative: byte_index * 8 + bit
    from_value: int
    to_value: int


class RowHammerModel:
    """Applies statistical RowHammer disturbances to a :class:`DramModule`.

    Parameters
    ----------
    module:
        Target module (must carry a cell-type map).
    stats:
        Flip statistics (Pf and direction split).
    seed:
        RNG seed; the vulnerable-bit map is deterministic given the seed.
    activation_probability:
        Probability that a sufficient hammer burst actually triggers each
        vulnerable bit. 1.0 models the paper's worst case (an attacker who
        hammers until flips saturate).
    refresh_rate_multiplier:
        Effect of the increased-refresh countermeasure: at multiplier ``m``
        each vulnerable bit's trigger probability is divided by ``m``
        (fewer activations fit in a refresh window). The paper notes even
        high rates give no guarantee — the model keeps probability > 0.
    slow_reference:
        Run the scalar per-bit disturb path, the test oracle. The batched
        path runs otherwise, armed fault plane or not, and consumes the
        RNG streams identically, so both produce bit-identical outcomes
        for the same seed — equivalence tests and ``repro bench`` rely on
        this flag for the reference side. When a ``dram.read`` injector
        listens, the batched path resolves its schedule once per victim
        row (:meth:`repro.faults.FaultPlane.skip_quiet`) and sends only
        the access it fires on through :meth:`DramModule.read_bit`.
    """

    def __init__(
        self,
        module: DramModule,
        stats: Optional[FlipStatistics] = None,
        seed: SeedLike = None,
        activation_probability: float = 1.0,
        refresh_rate_multiplier: float = 1.0,
        slow_reference: bool = False,
    ):
        if module.cell_map is None:
            raise ConfigurationError("RowHammerModel requires a module with a cell map")
        if not 0 < activation_probability <= 1:
            raise ConfigurationError("activation_probability must be in (0, 1]")
        if refresh_rate_multiplier < 1:
            raise ConfigurationError("refresh_rate_multiplier must be >= 1")
        self._module = module
        # Per-instance default: a module-level default instance would be
        # shared by every model constructed without explicit stats.
        self._stats = stats if stats is not None else FlipStatistics.paper_default()
        self._rng = make_rng(seed)
        self._activation_probability = activation_probability / refresh_rate_multiplier
        self._vulnerable: Dict[int, Tuple[_VulnerableBit, ...]] = {}
        # Vulnerable-bit sets mirrored as numpy arrays (positions/from/to)
        # for the vectorized disturb path; rebuilt lazily per row.
        self._vulnerable_arrays: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._slow_reference = bool(slow_reference)
        #: Total hammer invocations (for attack-time accounting).
        self.hammer_count = 0

    @property
    def stats(self) -> FlipStatistics:
        """Flip statistics in force."""
        return self._stats

    @property
    def module(self) -> DramModule:
        """The module being disturbed."""
        return self._module

    # -- vulnerable-bit map -------------------------------------------------
    def vulnerable_bits(self, row: int) -> Tuple[_VulnerableBit, ...]:
        """The frozen vulnerable-bit set of ``row`` (sampled on first use).

        The sampling itself lives in :meth:`_vulnerable_row_arrays`; this
        tuple view is materialized lazily for the scalar disturb path and
        tests — at paper-scale rows (a million bits each) building tens of
        thousands of dataclass instances per first-touched row dominated
        Algorithm 1's live runtime.
        """
        cached = self._vulnerable.get(row)
        if cached is not None:
            return cached
        positions, from_values, to_values = self._vulnerable_row_arrays(row)
        frozen = tuple(
            _VulnerableBit(position, from_value, to_value)
            for position, from_value, to_value in zip(
                positions.tolist(), from_values.tolist(), to_values.tolist()
            )
        )
        self._vulnerable[row] = frozen
        return frozen

    def seed_vulnerable_bits(self, row: int, bits: Sequence[Tuple[int, int, int]]) -> None:
        """Override the vulnerable-bit map of ``row`` (testing hook).

        ``bits`` is a sequence of ``(bit_position, from_value, to_value)``.
        """
        self._vulnerable[row] = tuple(
            sorted(
                (_VulnerableBit(int(p), int(f), int(t)) for p, f, t in bits),
                key=lambda b: b.bit_position,
            )
        )
        self._vulnerable_arrays.pop(row, None)

    def _vulnerable_row_arrays(
        self, row: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, from_values, to_values)`` arrays for ``row``.

        This is the primary vulnerable-bit store, sampled vectorized on
        first touch and sorted by bit position. The RNG stream is
        bit-identical to the historical scalar sampler: one ``binomial``,
        one ``choice``, then one ``random(count)`` — a numpy Generator
        fills an array draw from the same stream as ``count`` scalar
        ``random()`` calls, the equivalence the vectorized disturb path
        already depends on. Seeded rows (:meth:`seed_vulnerable_bits`)
        mirror their tuple instead of sampling.
        """
        cached = self._vulnerable_arrays.get(row)
        if cached is not None:
            return cached
        seeded = self._vulnerable.get(row)
        if seeded is not None:
            n = len(seeded)
            cached = (
                np.fromiter((b.bit_position for b in seeded), dtype=np.int64, count=n),
                np.fromiter((b.from_value for b in seeded), dtype=np.uint8, count=n),
                np.fromiter((b.to_value for b in seeded), dtype=np.uint8, count=n),
            )
            self._vulnerable_arrays[row] = cached
            return cached
        row_bits = self._module.geometry.row_bytes * 8
        count = int(self._rng.binomial(row_bits, self._stats.p_vulnerable))
        if count:
            positions = np.asarray(
                self._rng.choice(row_bits, size=count, replace=False),
                dtype=np.int64,
            )
        else:
            positions = np.zeros(0, dtype=np.int64)
        cell_type = self._module.cell_map.type_of_row(row)
        leak_from, leak_to = cell_type.leak_direction
        with_leak = self._rng.random(count) < self._stats.p_with_leak
        from_values = np.where(with_leak, leak_from, leak_to).astype(np.uint8)
        to_values = np.where(with_leak, leak_to, leak_from).astype(np.uint8)
        order = np.argsort(positions)
        cached = (positions[order], from_values[order], to_values[order])
        self._vulnerable_arrays[row] = cached
        return cached

    # -- hammering ----------------------------------------------------------
    def hammer(self, aggressor_row: int, activations: int = 2_000_000) -> HammerOutcome:
        """Hammer one aggressor row; disturb its physical neighbors.

        ``activations`` is bookkeeping only (attack-time accounting); flip
        occurrence is governed by the statistical model.
        """
        victims = self._module.geometry.neighbors(aggressor_row)
        return self._disturb(aggressor_row, victims, activations)

    def hammer_double_sided(
        self, victim_row: int, activations: int = 2_000_000
    ) -> HammerOutcome:
        """Classic double-sided hammer: activate both neighbors of ``victim_row``.

        Only ``victim_row`` itself is disturbed (both aggressors bracket it),
        which is the Project Zero tool's configuration [32].
        """
        neighbors = self._module.geometry.neighbors(victim_row)
        if len(neighbors) < 2:
            raise ConfigurationError(
                f"row {victim_row} lacks two same-bank neighbors for double-sided hammer"
            )
        outcome = self._disturb(neighbors[0], (victim_row,), activations)
        outcome.aggressor_row = victim_row  # report the targeted victim's hammer site
        return outcome

    def _disturb(
        self, aggressor_row: int, victims: Tuple[int, ...], activations: int
    ) -> HammerOutcome:
        self.hammer_count += 1
        obs.inc("rowhammer.hammers")
        obs.inc("rowhammer.activations", activations)
        outcome = HammerOutcome(
            aggressor_row=aggressor_row, victim_rows=victims, activations=activations
        )
        if self._slow_reference:
            self._disturb_scalar(outcome, victims)
        else:
            self._disturb_vectorized(outcome, victims)
        obs.observe("rowhammer.flips_per_hammer", outcome.flip_count)
        obs.trace(
            "rowhammer.hammer",
            aggressor=aggressor_row,
            victims=len(victims),
            flips=outcome.flip_count,
            activations=activations,
        )
        sanitize.notify("rowhammer.hammer", hammer=self, module=self._module, outcome=outcome)
        return outcome

    def _disturb_scalar(self, outcome: HammerOutcome, victims: Tuple[int, ...]) -> None:
        """Legacy per-bit reference path (fault-plane hooks fire per access)."""
        row_bytes = self._module.geometry.row_bytes
        for victim in victims:
            base = victim * row_bytes
            cell = self._module.cell_map.type_of_row(victim).value
            for vuln in self.vulnerable_bits(victim):
                if self._activation_probability < 1.0:
                    if self._rng.random() >= self._activation_probability:
                        continue
                byte_index, bit = divmod(vuln.bit_position, 8)
                address = base + byte_index
                current = self._module.read_bit(address, bit)  # repro-lint: ignore[RL007] — reference path
                if current == vuln.from_value:
                    self._module.write_bit(address, bit, vuln.to_value)  # repro-lint: ignore[RL007] — reference path
                    outcome.flips.append(
                        BitFlip(address=address, bit=bit, old=current, new=vuln.to_value)
                    )
                    obs.inc(  # repro-lint: ignore[RL007] — reference path
                        "rowhammer.flips",
                        direction=f"{current}to{vuln.to_value}",
                        cell=cell,
                    )

    def _disturb_vectorized(
        self, outcome: HammerOutcome, victims: Tuple[int, ...]
    ) -> None:
        """Batched disturb: one masked compare + one flip write per victim row.

        Consumes the RNG streams exactly like :meth:`_disturb_scalar` (one
        uniform draw per vulnerable bit, in bit-position order, only when
        ``activation_probability < 1``; one schedule draw per ``dram.read``
        event) so outcomes are bit-identical. A read error raised by an
        injector leaves the module, the hammer RNG and the ``rowhammer.flips``
        totals where the scalar loop leaves them.
        """
        module = self._module
        row_bytes = module.geometry.row_bytes
        probability = self._activation_probability
        listening = module.read_faults_armed
        flip_totals: Dict[Tuple[str, str], int] = {}
        try:
            for victim in victims:
                positions, from_values, to_values = self._vulnerable_row_arrays(victim)
                if positions.size == 0:
                    continue
                error: Optional[ReproError] = None
                if listening:
                    flip_mask, error = self._scheduled_flip_mask(
                        victim, positions, from_values
                    )
                else:
                    current = module.read_bits(victim, positions)
                    flip_mask = current == from_values
                    if probability < 1.0:
                        flip_mask &= self._rng.random(positions.size) < probability
                if flip_mask.any():
                    flip_positions = positions[flip_mask]
                    flip_targets = to_values[flip_mask]
                    module.apply_bit_flips(victim, flip_positions, flip_targets)
                    base = victim * row_bytes
                    cell = module.cell_map.type_of_row(victim).value
                    addresses = (base + (flip_positions >> 3)).tolist()
                    bits = (flip_positions & 7).tolist()
                    old_values = from_values[flip_mask].tolist()
                    new_values = flip_targets.tolist()
                    for address, bit, old, new in zip(addresses, bits, old_values, new_values):
                        outcome.flips.append(BitFlip(address=address, bit=bit, old=old, new=new))
                        key = (f"{old}to{new}", cell)
                        flip_totals[key] = flip_totals.get(key, 0) + 1
                if error is not None:
                    raise error
        finally:
            # One aggregated obs update per (direction, cell) series instead
            # of one inc per flip; totals match the scalar path exactly, also
            # when a read error cuts the disturb short.
            for (direction, cell), count in sorted(flip_totals.items()):
                obs.inc("rowhammer.flips", count, direction=direction, cell=cell)  # repro-lint: ignore[RL007] — aggregated

    def _scheduled_flip_mask(
        self, victim: int, positions: np.ndarray, from_values: np.ndarray
    ) -> Tuple[np.ndarray, Optional[ReproError]]:
        """Flip mask of one victim row while a ``dram.read`` injector listens.

        Makes the accesses of :meth:`_disturb_scalar`: one ``dram.read``
        per activated bit, in bit-position order. Each run of reads at
        which no injector fires is skipped past in one schedule draw and
        read with one :meth:`DramModule.read_bits`; the read an injector
        fires on goes through :meth:`DramModule.read_bit`. When that read
        raises, the mask covers only the bits read before it, the
        activation draws are rewound to where the scalar loop stopped, and
        the exception is returned for the caller to raise once those flips
        are applied.
        """
        module = self._module
        rng = self._rng
        probability = self._activation_probability
        if probability < 1.0:
            draw_state = rng.bit_generator.state
            active = np.flatnonzero(rng.random(positions.size) < probability)
        else:
            active = np.arange(positions.size)
        reads = positions[active]
        total = int(reads.size)
        current = np.empty(total, dtype=np.uint8)
        plane = faults.get_plane()
        base = victim * module.geometry.row_bytes
        done = 0
        error: Optional[ReproError] = None
        while done < total:
            quiet = plane.skip_quiet("dram.read", total - done)
            if quiet:
                current[done : done + quiet] = module.read_bits(
                    victim, reads[done : done + quiet]
                )
                # read_bits counts one read; these were ``quiet`` accesses.
                module.read_count += quiet - 1
                done += quiet
            if done < total:
                position = int(reads[done])
                try:
                    current[done] = module.read_bit(base + (position >> 3), position & 7)  # repro-lint: ignore[RL007] — the one access an injector fires on
                except ReproError as exc:  # re-raised by the caller
                    error = exc
                    break
                done += 1
        flip_mask = np.zeros(positions.size, dtype=bool)
        read = active[:done]
        flip_mask[read] = current[:done] == from_values[read]
        if error is not None and probability < 1.0:
            rng.bit_generator.state = draw_state
            rng.random(int(active[done]) + 1)
        return flip_mask, error

    # -- statistics helpers ---------------------------------------------------
    def expected_flips_per_row(self, cell_type: CellType, stored_value: int) -> float:
        """Expected flips in a victim row holding all-``stored_value`` data.

        Used by tests to check the model against the closed-form rates:
        a row of 1s in true-cells flips at ``Pf * p_with_leak`` per bit.
        """
        row_bits = self._module.geometry.row_bytes * 8
        leak_from, _ = cell_type.leak_direction
        if stored_value == leak_from:
            per_bit = self._stats.p_vulnerable * self._stats.p_with_leak
        else:
            per_bit = self._stats.p_vulnerable * self._stats.p_against_leak
        return row_bits * per_bit * self._activation_probability
