"""Reliability checks and dimension optimisation.

Prices are quoted per kWh of capacity and per kW of power, applied to
dimensions expressed in the split-efficiency convention (the convention
storage cost tables use).  Internally all optimisation runs in
servable-energy terms and converts at the costing boundary.  The cost
model (``fleet_cost``, ``cost_report``) and the option and price types
live in ``params``, which needs no numpy, and are imported here.

The minimal single store (``min_single_store_capacity``) is exact; the
power and capacity searches of the optimisers bisect to a tolerance.
Their reliability checks stop simulating a candidate as soon as its
cumulative unserved energy exceeds the standard's allowance.

``optimize_fleet`` is the one sizing search: one loop over grid entry,
decay-rate combo, output power and input power, one best total, one
bound and one final simulation of the winner.  A corner of that loop
(an output power and an input power) costs at least its price at zero
capacity, and its price grows with capacity, so a corner is skipped
when that price already reaches the best total found so far, and its
capacity bisection is abandoned once the lower end of its bracket
prices at or above that total.  Such a corner could only return a total
no lower than the best, and only a strictly cheaper one replaces the
best, so the bound changes no answer: it only saves the simulations of
corners that cannot win.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .engine import SimResult, _load_hourloop, _run_values, simulate, trace_values
from .fleet import FleetError, FleetState, LossConvention, StoreSpec, convention_factor, is_number
from .params import (
    _KWH_PER_MWH,
    HOURS_PER_YEAR,
    CostBreakdown,
    Infeasible,
    ReliabilityStandard,
    SizingOptions,
    StoreCost,
    StorePrices,
    _split_dims,
    cost_report,
    fleet_cost,
    parse_decay_grid,
)
from .policies import Policy, ValueParams


def check_reliability(result: SimResult, years: float, standard: ReliabilityStandard) -> bool:
    """True iff total unserved energy averaged per year meets the standard."""
    if years <= 0.0:
        raise ValueError("years must be positive")
    return result.total_unserved_mwh <= standard.allowance_mwh(years)


def _bisect_min(
    feasible, lo: float, hi: float, tol: float, give_up: float = math.inf
) -> float | None:
    """Smallest feasible value of a monotone predicate, to within tol.

    Assumes feasible(hi) is True and values below the returned one
    (beyond tol) are infeasible.  The returned point itself has been
    evaluated feasible.  Returns None as soon as the lower end of the
    bracket reaches ``give_up``: the answer always lies strictly above
    it, so a caller that only wants answers below ``give_up`` stops
    there.  Until then the bracket and its midpoints are those of an
    unbounded search.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between: a tiny tol would loop forever
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
            if lo >= give_up:
                return None
    return hi


def _efficiency(efficiency) -> float:
    """``efficiency`` as a float; ValueError unless it is a number in (0, 1]."""
    if not (is_number(efficiency) and 0.0 < efficiency <= 1.0):
        raise ValueError(f"efficiency must lie in (0, 1], got {efficiency!r}")
    # A numpy float32 would make the Python loops round in single precision.
    return float(efficiency)


def _sequent_peak(values: list[float], efficiency: float) -> tuple[float, float]:
    """The backward sequent-peak pass: (max need, need at hour 0).

    ``need`` is the level an hour must start with to serve every later
    hour: a deficit hour adds its demand, a surplus hour credits
    efficiency x surplus down to zero.
    """
    # Plain floats on purpose: the numpy cumulative-sum form of this
    # recursion rounds differently and can come out a few nMWh short,
    # which the forward check's 1e-9 slack does not forgive.
    need = 0.0
    peak = 0.0
    for re in reversed(values):
        if re < 0.0:
            need -= re
        else:
            need = max(0.0, need - efficiency * re)
        if need > peak:
            peak = need
    return peak, need


def _shortfall(values: list[float], efficiency: float, capacity: float, initial: float) -> float:
    """Largest hourly shortfall beyond 1e-9 MWh of a greedy store with unconstrained power.

    0.0 means the store serves every deficit hour.  The level is followed
    on below zero past a shortfall, so raising both capacity and initial
    level by the returned amount lifts the whole trajectory by it.
    """
    level = initial
    worst = 0.0
    for re in values:
        if re >= 0.0:
            level = min(level + efficiency * re, capacity)
        else:
            if level < -re - 1e-9 and -re - level > worst:
                worst = -re - level
            level += re
    return worst


# Repairs of a sequent-peak store that the forward check finds short:
# 10-year traces at a 35 GW base need up to 3.
_MAX_REPAIRS = 8


def min_single_store_capacity(
    trace, efficiency: float, tol_mwh: float = 1.0
) -> tuple[float, float]:
    """Smallest store (and then smallest initial fill) that serves everything.

    Power ratings are unconstrained; the store charges greedily.  Returns
    (capacity, initial_level) in servable-energy MWh such that the greedy
    trajectory never leaves demand unserved.  The answer is exact, not
    bracketed: one backward pass (the sequent-peak recursion,
    ``_sequent_peak``) gives the level ``need`` each hour must start with
    to serve every later hour.  The capacity is max(need) and the initial
    level need at hour 0.  ``tol_mwh`` is accepted for callers that still
    pass it and no longer bounds the answer.

    The answer is checked by a forward greedy pass (``_shortfall``)
    before it is returned.  Where rounding left it a few ulps short,
    capacity and initial level are raised by the shortfall that pass
    found and checked again; if that still falls short, they are raised
    by at least one ulp of the capacity, up to ``_MAX_REPAIRS`` repairs
    in all.  FleetError is raised if those still fail, and for an empty
    trace or a NaN or infinite trace hour; ValueError for an efficiency
    that is not a number in (0, 1].  Starting at the returned initial
    level is enough, so starting full is too: the greedy trajectory is
    monotone in the starting level.

    Both passes run in the compiled module (``engine._load_hourloop``),
    whose ports of the two Python loops give the same bits; where it
    cannot be built or loaded, the Python loops run.
    """
    values = _run_values(trace)
    efficiency = _efficiency(efficiency)
    lib = _load_hourloop()
    if lib is None:
        hours = values.tolist()
        peak, need = _sequent_peak(hours, efficiency)
        shortfall = functools.partial(_shortfall, hours, efficiency)
    else:
        values = np.ascontiguousarray(values)
        out = np.empty(2)
        lib.sequent_peak(len(values), values.ctypes.data, efficiency, out.ctypes.data)
        peak, need = out.tolist()
        shortfall = functools.partial(lib.shortfall, len(values), values.ctypes.data, efficiency)
    short = shortfall(peak, need)
    repairs = 0
    while short > 0.0:
        if repairs == _MAX_REPAIRS:
            raise FleetError(
                f"sequent-peak store ({peak} MWh, initial {need} MWh) fails the forward check"
            )
        # The first repair adds the shortfall found.  Past about 2.5e7 MWh
        # one ulp of the store exceeds the check's 1e-9 MWh slack, so that
        # sum can round back to the store it started from: later repairs
        # add at least one ulp.
        step = short if repairs == 0 else max(short, math.ulp(peak))
        peak += step
        need += step
        repairs += 1
        short = shortfall(peak, need)
    return peak, need


def _years(values: np.ndarray) -> float:
    return len(values) / HOURS_PER_YEAR


def _meets_standard(
    fleet: Sequence[StoreSpec],
    trace,
    lambdas: Sequence[float],
    standard: ReliabilityStandard,
    initial: FleetState | None = None,
) -> bool:
    # Cumulative unserved energy never falls, so the run may stop as soon
    # as it exceeds the allowance: the standard is lost by then.
    years = _years(trace_values(trace))
    result = simulate(fleet, trace, Policy.value(lambdas), initial=initial,
                      unserved_limit_mwh=standard.allowance_mwh(years))
    return check_reliability(result, years, standard)


def min_required_output_power(
    trace,
    fleet: Sequence[StoreSpec],
    standard: ReliabilityStandard,
    lambdas: Sequence[float] | None = None,
    tol_mw: float = 100.0,
) -> float:
    """Smallest output power of ``fleet[0]`` meeting the standard.

    The other stores are held as given, and ``fleet[0]``'s own output
    power is ignored; its capacity and input power should be set
    effectively unconstrained by the caller so that output power is the
    only binding resource.  The search checks the peak demand, then
    zero, then bisects between them to ``tol_mw``.  Raises Infeasible if
    even output power equal to the peak demand cannot meet the standard,
    ValueError for an empty fleet, and FleetError for an empty trace or a
    NaN or infinite trace hour.
    """
    if not fleet:
        raise ValueError("fleet must contain at least one store")
    values = _run_values(trace)
    if lambdas is None:
        lambdas = [0.0] * len(fleet)
    peak_demand = float(np.max(np.maximum(0.0, -values), initial=0.0))
    if peak_demand == 0.0:
        return 0.0

    def feasible(power_mw: float) -> bool:
        # Output power must stay strictly positive.
        first = replace(fleet[0], output_power_mw=max(power_mw, 1e-9))
        return _meets_standard([first, *fleet[1:]], trace, lambdas, standard)

    if not feasible(peak_demand):
        raise Infeasible(
            f"standard unmet even with output power {peak_demand} MW (the peak demand)"
        )
    if feasible(0.0):
        return 0.0
    return _bisect_min(feasible, 0.0, peak_demand, tol_mw)


def _lambda_combos(grid, n_stores: int) -> list[tuple[float, ...]]:
    """Decay-rate combos for n stores, in lexicographic order.

    For a single store the decay rate cannot change any decision, so one
    representative combo (the smallest rate) suffices.
    """
    grid = parse_decay_grid(grid)
    if isinstance(grid[0], float):
        grid = (grid,) * n_stores
    elif len(grid) < n_stores:
        raise ValueError(f"{len(grid)} per-store decay grids for {n_stores} stores")
    if n_stores == 1:
        return [(grid[0][0],)]
    return list(itertools.product(*grid[:n_stores]))


@dataclass(frozen=True)
class SizingResult:
    """Optimiser output: the sized fleet, its cost and achieved reliability.

    ``fleet`` holds the servable-energy stores that were simulated;
    ``total_cost_usd`` is their price on split-convention dimensions.
    """

    fleet: tuple[StoreSpec, ...]
    total_cost_usd: float
    annual_unserved_gwh: float
    lambdas_per_hour: tuple[float, ...]
    served_external_mwh: tuple[float, ...]


def _q_grid(values: np.ndarray, options: SizingOptions) -> list[float]:
    positive = values[values > 0.0]
    if len(positive) == 0:
        return [1e-9]
    hi = float(np.max(positive))
    lo = max(options.q_grid_lo_factor * float(np.mean(positive)), 1e-9)
    if options.q_grid_points <= 1 or lo >= hi:
        return [hi]
    ratio = (hi / lo) ** (1.0 / (options.q_grid_points - 1))
    return [lo * ratio**k for k in range(options.q_grid_points)]


def price_stores(fleet: Sequence[StoreSpec], prices: Sequence[StorePrices]) -> float:
    """Total cost, USD, of servable-energy stores priced on split-convention dimensions."""
    return fleet_cost(_split_dims(fleet), prices).total_usd


def tune_lambdas(
    fleet: Sequence[StoreSpec],
    trace,
    lambda_grid: Sequence[float] | Sequence[Sequence[float]],
    initial: FleetState | None = None,
) -> ValueParams:
    """Exhaustive grid search for the decay rates minimising unserved energy.

    ``lambda_grid`` is read by ``parse_decay_grid``: one list of candidate
    values shared by all stores or one list per store position.  A single
    store gets one combo, since its decisions do not depend on its decay
    rate.  Ties go to the lexicographically smallest vector.
    """
    best: tuple[float, ...] | None = None
    best_ue = math.inf
    for combo in _lambda_combos(lambda_grid, len(fleet)):
        # A run that passes the best total so far cannot win: stop it there.
        ue = simulate(fleet, trace, Policy.value(combo), initial=initial,
                      unserved_limit_mwh=best_ue).total_unserved_mwh
        if ue < best_ue:
            best_ue = ue
            best = combo
    assert best is not None
    return ValueParams(best)


def optimize_single_store(
    trace,
    prices: StorePrices,
    standard: ReliabilityStandard,
    efficiency: float,
    options: SizingOptions | None = None,
) -> SizingResult:
    """Cheapest single store meeting the standard: ``optimize_fleet`` with no companion.

    Output power is fixed at its feasible minimum (unserved energy is
    nonincreasing in every dimension, and output power is priced whatever
    its value, so no cheaper feasible output power exists); capacity is
    then minimised for each candidate input power and the cheapest
    (capacity, input power) pair wins.
    """
    options = options or SizingOptions()
    return optimize_fleet(
        trace, {options.long_store_name: prices}, standard, [()], efficiency, options
    )


def optimize_fleet(
    trace,
    costs: Mapping[str, StorePrices],
    standard: ReliabilityStandard,
    secondary_grid: Sequence[Sequence[StoreSpec]],
    efficiency_long: float,
    options: SizingOptions | None = None,
) -> SizingResult:
    """Cheapest (long store + fixed companions) configuration on a grid.

    Each grid entry fixes the dimensions of zero or more companion stores
    (servable-energy convention).  Prices are looked up by store name,
    and every entry's prices and decay-rate combos are checked before
    the first simulation.  One loop then dimensions the long store for
    every entry and every decay-rate combination on the grid.  Its
    output power is pinned at its feasible minimum first
    (``min_required_output_power`` with capacity and input power
    effectively unconstrained); with companions and ``p_grid_points`` >
    1, powers up to the peak demand are tried as well.  For each output
    power and each input power on a geometric grid (a corner), the
    capacity is bisected down to the smallest value meeting the
    standard.  The first strictly cheapest corner overall wins, and one
    full simulation of it gives the result.  Decay rates are searched on
    cost, not tuned on unserved energy alone: serving the fast cycles
    from an efficient companion shrinks the long store's capacity long
    before it shows up in unserved energy.

    One bound, the cheapest total so far, cuts short the corners that
    cannot beat it.  A corner's price is ``cost0``, its price at zero
    capacity, plus a capacity term that grows with capacity.  So the
    corner is skipped, with no simulation, when the bound is at most
    ``cost0``, and its bisection is abandoned once the lower end of its
    bracket prices at the bound or more, since the answer lies strictly
    above that end.  That end is found in closed form with a margin of
    1e-12 of the bound, which covers the rounding of the price sum; a
    zero capacity price never abandons.  Corners that can win keep the
    brackets and midpoints of an unbounded search, so the bound changes
    no answer.  Raises ValueError, before anything else, for an
    ``efficiency_long`` that is not a number in (0, 1], FleetError for an
    empty trace or a NaN or infinite trace hour, and Infeasible if nothing
    on the grid meets the standard.
    """
    efficiency_long = _efficiency(efficiency_long)
    options = options or SizingOptions()
    if len(secondary_grid) == 0:
        raise ValueError("secondary grid must be nonempty (use [()] for no companion store)")
    long_name = options.long_store_name
    if long_name not in costs:
        raise KeyError(f"no prices for long store {long_name!r}")
    entries = []
    for secondary in secondary_grid:
        secondary = tuple(secondary)
        for s in secondary:
            if s.name not in costs:
                raise KeyError(f"no prices for store {s.name!r}")
        all_prices = [costs[long_name], *(costs[s.name] for s in secondary)]
        entries.append(
            (secondary, all_prices, _lambda_combos(options.lambda_grid, 1 + len(secondary)))
        )

    values = _run_values(trace)
    years = _years(values)
    demand = np.maximum(0.0, -values)
    total_demand = float(np.sum(demand))
    if total_demand <= standard.allowance_mwh(years):
        nothing = StoreSpec(long_name, 0.0, 0.0, 0.0, efficiency_long)
        return SizingResult(fleet=(nothing,), total_cost_usd=0.0, annual_unserved_gwh=0.0,
                            lambdas_per_hour=(0.0,), served_external_mwh=(0.0,))
    peak_demand = float(np.max(demand, initial=0.0))
    capacity_big = max(total_demand, 1.0)
    input_big = max(float(np.max(values, initial=0.0)), 1.0)
    q_values = _q_grid(values, options)
    # USD per servable MWh of long-store capacity, as price_stores charges it.
    capacity_usd_per_mwh = _KWH_PER_MWH * costs[long_name].capacity_usd_per_kwh * (
        convention_factor(efficiency_long, LossConvention.INPUT_SIDE, LossConvention.SPLIT_SQRT)
    )

    best_cost = math.inf
    best = None  # (fleet, decay rates) of the cheapest corner so far
    for secondary, all_prices, combos in entries:
        def build(capacity, output_mw, input_mw):
            return [StoreSpec(long_name, capacity, output_mw, input_mw, efficiency_long), *secondary]

        for lambdas in combos:
            # The bracket must let the long store cover the peak alone:
            # companion stores can be empty at the worst hour, so their
            # power is no substitute for long-store power there.
            try:
                p_min = max(min_required_output_power(
                    trace, build(capacity_big, 1e-9, input_big), standard, lambdas,
                    options.p_tol_mw
                ), 1e-9)
            except Infeasible:
                continue
            if secondary and options.p_grid_points > 1 and peak_demand > p_min:
                k = options.p_grid_points
                p_values = [p_min + (peak_demand - p_min) * j / (k - 1) for j in range(k)]
            else:
                p_values = [p_min]

            for p_long in p_values:
                for q in q_values:
                    give_up = math.inf
                    if best_cost < math.inf:
                        cost0 = price_stores(build(0.0, p_long, q), all_prices)
                        if best_cost <= cost0:
                            continue
                        if capacity_usd_per_mwh > 0.0:
                            give_up = (best_cost * (1.0 + 1e-12) - cost0) / capacity_usd_per_mwh

                    def feasible_capacity(capacity):
                        return _meets_standard(
                            build(max(capacity, 1e-9), p_long, q), trace, lambdas, standard
                        )

                    # The top is checked only after a bisection that was not
                    # abandoned: the same corners pass, with fewer runs.
                    e_min = _bisect_min(
                        feasible_capacity, 0.0, capacity_big, options.e_tol_mwh, give_up
                    )
                    if e_min is None or not feasible_capacity(capacity_big):
                        continue
                    fleet = build(max(e_min, 1e-9), p_long, q)
                    cost = price_stores(fleet, all_prices)
                    if cost < best_cost:
                        best_cost = cost
                        best = (fleet, lambdas)
    if best is None:
        raise Infeasible("no configuration on the secondary grid meets the standard")

    fleet, lambdas = best
    result = simulate(fleet, trace, Policy.value(lambdas))
    return SizingResult(
        fleet=tuple(fleet),
        total_cost_usd=best_cost,
        annual_unserved_gwh=result.total_unserved_mwh / years / 1e3,
        lambdas_per_hour=tuple(float(x) for x in lambdas),
        served_external_mwh=tuple(float(x) for x in result.served_external_mwh),
    )
