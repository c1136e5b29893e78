"""The value types a scenario is parsed into, and the cost table.

Prices, the reliability standard, the sizing options, the synthetic
generator's knobs and the trace errors are plain values that every CLI
command parses, whether or not it runs an array layer.  They live here,
apart from numpy, so that a command imports numpy, ``engine``,
``traces`` or ``sizing`` only when it runs them: ``size --no-optimize``
prices its stores with ``cost_report`` and never imports numpy.
``sizing`` and ``traces`` import these names back, so
``sizing.StorePrices is params.StorePrices``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import fields
from typing import Sequence

from .fleet import LossConvention, StoreSpec, convention_factor, frozen_dataclass, is_number
from .policies import ValueParams

# Dollars per $bn and kWh (kW) per MWh (MW): applied once, at the costing
# boundary, so unit bugs cannot creep into the optimisation loops.
_KWH_PER_MWH = 1e3
_USD_PER_BN = 1e9

HOURS_PER_YEAR = 8760
MAX_SYNTH_YEARS = 1000.0


class Infeasible(Exception):
    """No dimension within the searched range meets the standard."""


@frozen_dataclass
class StorePrices:
    """Unit prices for one technology (USD per kWh / kW).

    Each must be a finite number >= 0; anything else raises ValueError.
    """

    capacity_usd_per_kwh: float
    output_power_usd_per_kw: float
    input_power_usd_per_kw: float

    def __post_init__(self):
        for field in fields(self):
            price = getattr(self, field.name)
            if not (is_number(price) and 0.0 <= price < math.inf):
                raise ValueError(f"prices must be finite and nonnegative, got {field.name}={price!r}")


@frozen_dataclass
class StoreCost:
    """Cost breakdown for one store, USD."""

    capacity_usd: float
    output_power_usd: float
    input_power_usd: float

    @property
    def total_usd(self) -> float:
        return self.capacity_usd + self.output_power_usd + self.input_power_usd


@frozen_dataclass
class CostBreakdown:
    per_store: tuple[StoreCost, ...]

    @property
    def total_usd(self) -> float:
        return sum(c.total_usd for c in self.per_store)


def fleet_cost(
    dims_split: Sequence[tuple[float, float, float]],
    prices: Sequence[StorePrices],
) -> CostBreakdown:
    """Price a fleet from (capacity_mwh, output_mw, input_mw) triples.

    Dimensions must already be in the split-efficiency convention the
    prices assume.
    """
    if len(dims_split) != len(prices):
        raise ValueError(f"{len(dims_split)} dimension triples for {len(prices)} price rows")
    per_store = []
    for (capacity_mwh, output_mw, input_mw), price in zip(dims_split, prices):
        per_store.append(
            StoreCost(
                capacity_usd=capacity_mwh * _KWH_PER_MWH * price.capacity_usd_per_kwh,
                output_power_usd=output_mw * _KWH_PER_MWH * price.output_power_usd_per_kw,
                input_power_usd=input_mw * _KWH_PER_MWH * price.input_power_usd_per_kw,
            )
        )
    return CostBreakdown(tuple(per_store))


@frozen_dataclass
class ReliabilityStandard:
    """Maximum tolerated average unserved energy, GWh per year.

    A number >= 0, where infinity means no limit; anything else raises ValueError.
    """

    max_unserved_gwh_per_year: float

    def __post_init__(self):
        limit = self.max_unserved_gwh_per_year
        if not (is_number(limit) and limit >= 0.0):
            raise ValueError(f"reliability standard must be a nonnegative number, got {limit!r}")

    def allowance_mwh(self, years: float) -> float:
        return self.max_unserved_gwh_per_year * 1e3 * years


def _nonempty_list(value, item_ok) -> bool:
    # An array can only exist once numpy is loaded, so an unloaded numpy
    # need not be imported to rule one out.
    numpy = sys.modules.get("numpy")
    kinds = (list, tuple) if numpy is None else (list, tuple, numpy.ndarray)
    return isinstance(value, kinds) and len(value) > 0 and all(map(item_ok, value))


def parse_decay_grid(grid) -> tuple:
    """Check a decay-rate grid and return it with each list sorted.

    A grid is one flat list of candidate rates shared by every store, or
    one list per store position: list i applies to store i, and lists
    beyond the fleet's size go unused.  Rates follow ValueParams's rule
    (finite, >= 0).  Raises ValueError for anything else, an empty grid
    or list included.
    """
    if _nonempty_list(grid, is_number):
        return tuple(sorted(ValueParams(grid).lambdas_per_hour))
    if _nonempty_list(grid, lambda rates: _nonempty_list(rates, is_number)):
        return tuple(parse_decay_grid(rates) for rates in grid)
    raise ValueError(f"lambda_grid must be a nonempty list of decay rates or of such lists, got {grid!r}")


@frozen_dataclass
class SizingOptions:
    """Search-resolution knobs for the dimension optimisers.

    q_grid_lo_factor, e_tol_mwh and p_tol_mw must be finite and > 0;
    q_grid_points and p_grid_points integers >= 1.  lambda_grid is either
    one flat tuple of candidate decay rates shared by every store, or one
    tuple per store position (long store first, then companions in
    candidate order); it is checked and stored by ``parse_decay_grid``.
    Bad fields raise ValueError.
    """

    q_grid_points: int = 32
    q_grid_lo_factor: float = 0.1  # times mean positive residual energy
    e_tol_mwh: float = 1.0
    p_tol_mw: float = 100.0
    # Output-power candidates explored above the feasible minimum when
    # companion stores are present (1 = pin at the minimum).  A single
    # store always pins: beyond its minimum, extra output power buys
    # nothing that capacity cannot.  With companions that logic fails:
    # a long store pinned at minimum power may need far more capacity to
    # keep the companion charged through droughts.
    p_grid_points: int = 1
    lambda_grid: tuple = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)
    long_store_name: str = "long"

    def __post_init__(self):
        for name in ("q_grid_lo_factor", "e_tol_mwh", "p_tol_mw"):
            value = getattr(self, name)
            if not (is_number(value) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        for name in ("q_grid_points", "p_grid_points"):
            value = getattr(self, name)
            if not (is_number(value) and isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.long_store_name, str):
            raise ValueError(f"long_store_name must be a string, got {self.long_store_name!r}")
        object.__setattr__(self, "lambda_grid", parse_decay_grid(self.lambda_grid))


def _split_dims(fleet: Sequence[StoreSpec]) -> list[tuple[float, float, float]]:
    to_split = (LossConvention.INPUT_SIDE, LossConvention.SPLIT_SQRT)
    return [
        (s.capacity_mwh * convention_factor(s.efficiency, *to_split), s.output_power_mw,
         s.input_power_mw)
        for s in fleet
    ]


def cost_report(
    fleet: Sequence[StoreSpec], prices: Sequence[StorePrices], mode: str,
    convention: LossConvention,
) -> dict:
    """JSON-ready dimension and cost table of servable-energy stores.

    Laid out as published tables are: capacities are given in
    ``convention``, by way of the split convention the prices assume, and
    every cost and the total come from one ``fleet_cost`` breakdown.
    """
    dims = _split_dims(fleet)
    breakdown = fleet_cost(dims, prices)
    rows = []
    for s, (split_capacity, _, _), cost in zip(fleet, dims, breakdown.per_store):
        capacity = split_capacity * convention_factor(
            s.efficiency, LossConvention.SPLIT_SQRT, convention
        )
        rows.append({
            "name": s.name,
            "efficiency": s.efficiency,
            "capacity_mwh": capacity,
            "capacity_twh": capacity / 1e6,
            "output_power_mw": s.output_power_mw,
            "output_power_gw": s.output_power_mw / 1e3,
            "input_power_mw": s.input_power_mw,
            "input_power_gw": s.input_power_mw / 1e3,
            "cost_capacity_bn_usd": cost.capacity_usd / _USD_PER_BN,
            "cost_output_power_bn_usd": cost.output_power_usd / _USD_PER_BN,
            "cost_input_power_bn_usd": cost.input_power_usd / _USD_PER_BN,
            "cost_total_bn_usd": cost.total_usd / _USD_PER_BN,
        })
    total_usd = breakdown.total_usd
    return {
        "mode": mode,
        "convention": convention.value,
        "stores": rows,
        "total_cost_bn_usd": total_usd / _USD_PER_BN,
        "total_cost_usd": total_usd,
    }


class TraceError(Exception):
    """Base class for trace ingestion/synthesis errors."""


class ParseError(TraceError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class SchemaError(TraceError):
    pass


class NonFiniteValue(TraceError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class DegenerateInput(TraceError):
    pass


class InvalidParams(TraceError):
    pass


class InsufficientData(TraceError):
    pass


@frozen_dataclass
class SynthParams:
    """Knobs for the synthetic demand/generation generator.

    A stand-in for multi-year reanalysis-based series: demand carries
    diurnal, weekly and seasonal cycles on a constant base; wind is an
    AR(1)-modulated nonnegative series (persistent over days, so calm
    and windy spells last); solar is a clipped daytime profile peaking in
    summer.  Deterministic for a given seed.

    Every field must be a finite number and ``seed`` an integer >= 0;
    ``years`` must cover at least one hour and at most ``MAX_SYNTH_YEARS``
    (which bounds the arrays' length), ``solar_share`` lie in
    [0, 1], ``ar_coeff`` satisfy |a| < 1, ``base_demand_mw`` be > 0 and
    the noise and cycle amplitudes >= 0.  Bad fields raise InvalidParams.
    """

    years: float = 1.0
    seed: int = 0
    base_demand_mw: float = 1000.0
    diurnal_amp: float = 0.15
    seasonal_amp: float = 0.25
    weekly_amp: float = 0.06
    ar_coeff: float = 0.995
    noise_sd: float = 0.08
    solar_share: float = 0.2

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (is_number(value) and -math.inf < value < math.inf):
                raise InvalidParams(f"{field.name} must be a finite number, got {value!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise InvalidParams(f"seed must be an integer >= 0, got {self.seed!r}")
        # round(years * 8760) >= 1, without rounding a value too large for an int.
        if not self.years * HOURS_PER_YEAR > 0.5:
            raise InvalidParams("years must cover at least one hour")
        if self.years > MAX_SYNTH_YEARS:
            raise InvalidParams(f"years must be at most {MAX_SYNTH_YEARS:g}, got {self.years!r}")
        if not 0.0 <= self.solar_share <= 1.0:
            raise InvalidParams(f"solar_share must lie in [0, 1], got {self.solar_share}")
        if not abs(self.ar_coeff) < 1.0:
            raise InvalidParams(f"ar_coeff must satisfy |a| < 1, got {self.ar_coeff}")
        if self.noise_sd < 0.0 or self.base_demand_mw <= 0.0:
            raise InvalidParams("noise_sd must be >= 0 and base_demand_mw > 0")
        if min(self.diurnal_amp, self.seasonal_amp, self.weekly_amp) < 0.0:
            raise InvalidParams("cycle amplitudes must be nonnegative")
