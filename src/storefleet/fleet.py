"""Store and fleet primitives with single-step dynamics.

Conventions used throughout the package:

* Levels and capacities are measured as *servable energy*: the energy a
  store can still deliver, with all round-trip losses booked when energy
  enters the store.  Published storage tables often use a split
  convention instead, where input and output each carry an efficiency of
  sqrt(eta); under that convention capacities and levels appear larger
  by a factor eta ** -0.5.  ``convention_factor`` gives that factor and
  ``convert_convention`` maps stores between the two;
  everything else in the package works in servable-energy terms.
* Time steps are one hour, so a rate in MW held for one step transfers
  the same number of MWh.  Positive rates charge, negative rates
  discharge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

# Absolute slack (MWh / MW) applied to floating-point feasibility checks.
# Chosen so that rounding accumulated over multi-decade hourly runs never
# trips a spurious violation, while real constraint breaches still do.
SLACK = 1e-6


class FleetError(Exception):
    """Base class for store/fleet errors."""


class NonPositiveDimension(FleetError):
    """A capacity or power that must be strictly positive is not."""


class EfficiencyOutOfRange(FleetError):
    """Round-trip efficiency outside the half-open interval (0, 1]."""


class NotEquivalent(FleetError):
    """Stores cannot be merged: efficiencies or shape ratios differ."""


class _BoundViolation(FleetError):
    def __init__(self, message: str, time_index: int | None = None, store: int | None = None):
        super().__init__(message)
        self.time_index = time_index
        self.store = store


class CapacityViolation(_BoundViolation):
    """A store level left [0, capacity]."""


class RateViolation(_BoundViolation):
    """A signed rate left [-output_power, efficiency * input_power]."""


class LossConvention(Enum):
    """How round-trip losses are booked against the store level.

    INPUT_SIDE: level = energy the store can still deliver; all losses
    charged at input time (the package-internal convention).

    SPLIT_SQRT: input and output each lose sqrt(efficiency); capacities
    and levels are larger by efficiency ** -0.5 (the convention used for
    reported store sizes).
    """

    INPUT_SIDE = "input"
    SPLIT_SQRT = "split"


@dataclass(frozen=True)
class StoreSpec:
    """One storage technology: capacity, power ratings and efficiency.

    capacity_mwh is servable energy (INPUT_SIDE convention) unless the
    caller is explicitly holding a SPLIT_SQRT description to convert.
    output_power_mw bounds the discharge rate; input_power_mw bounds the
    rate at which external energy may be drawn for charging (the store
    gains efficiency * draw).  Infinite power ratings are allowed to
    model unconstrained stores.
    """

    name: str
    capacity_mwh: float
    output_power_mw: float
    input_power_mw: float
    efficiency: float

    def max_charge_rate_mw(self, level_mwh: float) -> float:
        """Largest feasible positive rate: min(eta * Q, headroom)."""
        return min(self.efficiency * self.input_power_mw, self.capacity_mwh - level_mwh)

    def max_input_draw_mw(self, level_mwh: float) -> float:
        """Largest external draw this step: min(Q, headroom / eta)."""
        return min(self.input_power_mw, (self.capacity_mwh - level_mwh) / self.efficiency)

    def max_discharge_rate_mw(self, level_mwh: float) -> float:
        """Largest feasible discharge magnitude: min(P, level)."""
        return min(self.output_power_mw, level_mwh)


def validate_spec(spec: StoreSpec) -> None:
    """Raise unless all StoreSpec invariants hold.

    Capacity must be finite and strictly positive; power ratings strictly
    positive (infinity allowed); efficiency in (0, 1].
    """
    if not (spec.capacity_mwh > 0.0) or math.isinf(spec.capacity_mwh) or math.isnan(spec.capacity_mwh):
        raise NonPositiveDimension(
            f"store {spec.name!r}: capacity_mwh must be finite and > 0, got {spec.capacity_mwh}"
        )
    for field, value in (("output_power_mw", spec.output_power_mw), ("input_power_mw", spec.input_power_mw)):
        if not (value > 0.0) or math.isnan(value):
            raise NonPositiveDimension(f"store {spec.name!r}: {field} must be > 0, got {value}")
    if not (0.0 < spec.efficiency <= 1.0):
        raise EfficiencyOutOfRange(
            f"store {spec.name!r}: efficiency must lie in (0, 1], got {spec.efficiency}"
        )


def validate_fleet(fleet: Sequence[StoreSpec]) -> None:
    if not fleet:
        raise FleetError("fleet must contain at least one store")
    for spec in fleet:
        validate_spec(spec)


@dataclass(frozen=True)
class FleetState:
    """Current servable-energy levels, one per store, plus a step counter."""

    levels_mwh: tuple[float, ...]
    time_index: int = 0


def full_state(fleet: Sequence[StoreSpec], time_index: int = 0) -> FleetState:
    """State with every store at capacity (the default starting point)."""
    return FleetState(tuple(s.capacity_mwh for s in fleet), time_index)


def validate_state(state: FleetState, fleet: Sequence[StoreSpec]) -> None:
    if len(state.levels_mwh) != len(fleet):
        raise FleetError(
            f"state has {len(state.levels_mwh)} levels for {len(fleet)} stores"
        )
    for i, (level, spec) in enumerate(zip(state.levels_mwh, fleet)):
        if not (-SLACK <= level <= spec.capacity_mwh + SLACK):
            raise CapacityViolation(
                f"store {i} level {level} outside [0, {spec.capacity_mwh}]",
                time_index=state.time_index,
                store=i,
            )


@dataclass(frozen=True)
class StepDecision:
    """Signed per-store rates for one step plus the resulting imbalance.

    At most one of spill_mwh / unserved_mwh may be nonzero: a step either
    has surplus left over or demand left over, never both.
    """

    rates_mw: tuple[float, ...]
    spill_mwh: float = 0.0
    unserved_mwh: float = 0.0

    def __post_init__(self):
        if self.spill_mwh < -SLACK or self.unserved_mwh < -SLACK:
            raise ValueError("spill and unserved energy must be nonnegative")
        if self.spill_mwh > SLACK and self.unserved_mwh > SLACK:
            raise ValueError("a step cannot both spill and leave demand unserved")


def imbalance(re_mw: float, rates_mw: Sequence[float], efficiencies: Sequence[float]) -> float:
    """Residual energy minus what the rates account for.

    Discharges count at face value; charges count as the external draw
    rate / efficiency.  Positive result = spilled surplus, negative =
    unserved demand.
    """
    u = re_mw
    for r, eta in zip(rates_mw, efficiencies):
        if r < 0.0:
            u -= r
        else:
            u -= r / eta
    return u


def apply_step(state: FleetState, decision: StepDecision, fleet: Sequence[StoreSpec]) -> FleetState:
    """Advance one hour: levels_mwh[i] += rates_mw[i].

    Raises RateViolation / CapacityViolation (with slack SLACK) if the
    decision is outside the feasible box.  Levels landing within slack of
    a bound are clamped onto it so that long runs cannot drift outside
    [0, capacity] through rounding.
    """
    if len(decision.rates_mw) != len(fleet):
        raise FleetError(f"decision has {len(decision.rates_mw)} rates for {len(fleet)} stores")
    new_levels = []
    for i, (spec, level, rate) in enumerate(zip(fleet, state.levels_mwh, decision.rates_mw)):
        if rate < -spec.output_power_mw - SLACK or rate > spec.efficiency * spec.input_power_mw + SLACK:
            raise RateViolation(
                f"hour {state.time_index}: store {i} rate {rate} outside [-{spec.output_power_mw}, "
                f"{spec.efficiency * spec.input_power_mw}]",
                time_index=state.time_index,
                store=i,
            )
        new_level = level + rate
        if new_level < -SLACK or new_level > spec.capacity_mwh + SLACK:
            raise CapacityViolation(
                f"hour {state.time_index}: store {i} level {new_level} outside [0, {spec.capacity_mwh}]",
                time_index=state.time_index,
                store=i,
            )
        new_levels.append(min(max(new_level, 0.0), spec.capacity_mwh))
    return FleetState(tuple(new_levels), state.time_index + 1)


def merge_equivalent(stores: Sequence[StoreSpec], rel_tol: float = 1e-9) -> StoreSpec:
    """Collapse stores with equal efficiency and shape into one.

    Stores sharing their efficiency and their capacity-to-power ratios
    (capacity/output_power and capacity/input_power) behave, under
    pro-rata operation, exactly like a single store with summed
    dimensions.  Raises NotEquivalent if the shapes differ beyond
    rel_tol.
    """
    if not stores:
        raise NotEquivalent("cannot merge an empty list of stores")
    base = stores[0]
    for spec in stores[1:]:
        if not math.isclose(spec.efficiency, base.efficiency, rel_tol=rel_tol):
            raise NotEquivalent(
                f"efficiencies differ: {base.name!r}={base.efficiency}, {spec.name!r}={spec.efficiency}"
            )
        for ratio_name, a, b in (
            ("capacity/output_power", base.capacity_mwh / base.output_power_mw,
             spec.capacity_mwh / spec.output_power_mw),
            ("capacity/input_power", base.capacity_mwh / base.input_power_mw,
             spec.capacity_mwh / spec.input_power_mw),
        ):
            if not math.isclose(a, b, rel_tol=rel_tol):
                raise NotEquivalent(
                    f"{ratio_name} ratios differ: {base.name!r}={a}, {spec.name!r}={b}"
                )
    return StoreSpec(
        name="+".join(s.name for s in stores),
        capacity_mwh=sum(s.capacity_mwh for s in stores),
        output_power_mw=sum(s.output_power_mw for s in stores),
        input_power_mw=sum(s.input_power_mw for s in stores),
        efficiency=base.efficiency,
    )


def convention_factor(
    efficiency: float, from_convention: LossConvention, to_convention: LossConvention
) -> float:
    """What a capacity or level in one convention is multiplied by to give another.

    INPUT_SIDE to SPLIT_SQRT is efficiency ** -0.5, the reverse
    efficiency ** 0.5, and within one convention 1.0.
    """
    if from_convention is to_convention:
        return 1.0
    if to_convention is LossConvention.SPLIT_SQRT:
        return efficiency ** -0.5
    return efficiency ** 0.5


def convert_convention(
    spec: StoreSpec,
    level_mwh: float,
    from_convention: LossConvention,
    to_convention: LossConvention,
) -> tuple[StoreSpec, float]:
    """Re-express a store's capacity and level under another convention.

    Both are multiplied by ``convention_factor``.  Power ratings and the
    efficiency itself are unchanged.  Round-trips are identities.
    """
    if from_convention is to_convention:
        return spec, level_mwh
    factor = convention_factor(spec.efficiency, from_convention, to_convention)
    return replace(spec, capacity_mwh=spec.capacity_mwh * factor), level_mwh * factor
