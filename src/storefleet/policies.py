"""Non-anticipatory scheduling policies.

A ``Policy`` maps the current store levels and this hour's residual
energy (generation minus demand, MW) to a StepDecision.  All three kinds
are greedy: whenever energy would otherwise spill every store charges as
hard as it can, and whenever demand would otherwise go unserved every
store discharges as hard as it can.

* ``value`` ranks stores by marginal-value derivatives
  v = exp(-lambda * level / output_power), computed once from the
  pre-step levels: surplus hours fill stores in descending eta * v,
  deficit hours discharge in ascending v.  After the external
  allocation it moves energy between stores (cross-charging) while that
  is worth the round-trip loss.  With the imbalance pinned at its greedy
  minimum, the step objective sum(v[i] * rate[i]) is maximised exactly.
* ``ggddf`` (greatest discharge duration first) discharges stores in
  descending level / output_power, so energy is never stranded in a
  single slow store while others sit empty, and charges in descending
  (capacity - level) / output_power; no cross-charging.
* ``grtef`` charges and discharges the most efficient stores first; no
  cross-charging.

``Policy.raw_step(fleet)`` binds the one plain-float step kernel
(``_step_kernel``), cross-charging included, to a fleet: it unpacks the
per-store constants once, and simulation loops call the bound step
millions of times.  ``Policy.decide`` runs the same kernel for one hour.
The kernel is the specification of ``engine.simulate``'s compiled hour
loop (``_hourloop.c``), which repeats its float operations in C.
"""

from __future__ import annotations

import math
from typing import Sequence

from .fleet import FleetState, StepDecision, StoreSpec, frozen_dataclass, is_number

# Guard against zero-progress float transfers in the cross-charging loop.
_EPS = 1e-12


@frozen_dataclass
class ValueParams:
    """Per-store decay rates (per hour): finite numbers >= 0, kept as floats; else ValueError."""

    lambdas_per_hour: tuple[float, ...]

    def __post_init__(self):
        try:
            lambdas = tuple(self.lambdas_per_hour)
        except TypeError:  # no sequence at all
            lambdas = None
        # An infinite rate would make v = exp(-inf * 0) NaN for an empty store.
        if lambdas is None or not all(is_number(lam) and 0.0 <= lam < math.inf for lam in lambdas):
            raise ValueError(f"decay rates must be finite numbers >= 0, got {self.lambdas_per_hour!r}")
        object.__setattr__(self, "lambdas_per_hour", tuple(map(float, lambdas)))


def _step_kernel(fleet: Sequence[StoreSpec], kind: str, lambdas=()):
    """Bind one (levels, re) -> (rates, spill, unserved) step for a policy kind.

    Every policy fills stores greedily in its priority order: surplus
    hours draw up to min(budget, Q, headroom / eta) per store, deficit
    hours discharge up to min(demand, P, level).  The value policy then
    cross-charges: it repeatedly pairs the eligible supplier with the
    lowest v against the eligible receiver with the highest eta * v and
    transfers as much as either side allows, while
    v[supplier] < eta[receiver] * v[receiver] (the transfer gains value
    despite the round-trip loss).  Each full transfer saturates one
    side, so the loop ends within 2 * n transfers.  Spill or unserved
    energy is the imbalance left over, summed in store order.

    Priority orders sort store indices by a key, highest first unless
    noted; ``sorted(..., reverse=True)`` keeps index order among equal
    keys, as a ``(-key, index)`` sort would:

    * value: eta * v when charging, v lowest first when discharging,
      with v = exp(-lambda * level / output_power) from the pre-step
      levels;
    * ggddf: (capacity - level) / output_power when charging,
      level / output_power when discharging;
    * grtef: eta, both ways (fixed, so sorted once here).

    One store has nothing to rank or cross-charge.  The per-store lists
    are unpacked from the fleet and the closure built once per
    simulation; it keeps this hour's values and keys in lists it
    overwrites every call, so it must not be shared between threads.
    """
    n = len(fleet)
    capacity = [s.capacity_mwh for s in fleet]
    out_power = [s.output_power_mw for s in fleet]
    in_power = [s.input_power_mw for s in fleet]
    eta = [s.efficiency for s in fleet]
    max_charge = [s.efficiency * s.input_power_mw for s in fleet]
    inv_out = [0.0 if math.isinf(p) else 1.0 / p for p in out_power]
    stores = range(n)
    value = kind == "value" and n > 1
    fixed_order = None
    if n == 1:
        fixed_order = (0,)
    elif kind == "grtef":
        fixed_order = tuple(sorted(stores, key=eta.__getitem__, reverse=True))
    neg_lambdas = [-lam for lam in lambdas]
    v = [1.0] * n
    key = [0.0] * n
    by_v = v.__getitem__
    by_key = key.__getitem__
    exp = math.exp
    inf = math.inf
    eps = _EPS

    def step(levels, re):
        if value:
            for i in stores:
                v[i] = exp(neg_lambdas[i] * levels[i] * inv_out[i])
        rates = [0.0] * n
        if re >= 0.0:
            if fixed_order is not None:
                order = fixed_order
            else:
                if value:
                    for i in stores:
                        key[i] = eta[i] * v[i]
                else:
                    for i in stores:
                        key[i] = (capacity[i] - levels[i]) * inv_out[i]
                order = sorted(stores, key=by_key, reverse=True)
            budget = re
            for i in order:
                if budget <= 0.0:
                    break
                e = eta[i]
                draw = (capacity[i] - levels[i]) / e
                q = in_power[i]
                if q < draw:
                    draw = q
                if budget < draw:
                    draw = budget
                if draw > 0.0:
                    rates[i] = e * draw
                    budget -= draw
        else:
            if fixed_order is not None:
                order = fixed_order
            elif value:
                order = sorted(stores, key=by_v)
            else:
                for i in stores:
                    key[i] = levels[i] * inv_out[i]
                order = sorted(stores, key=by_key, reverse=True)
            demand = -re
            for i in order:
                if demand <= 0.0:
                    break
                d = levels[i]
                p = out_power[i]
                if p < d:
                    d = p
                if demand < d:
                    d = demand
                if d > 0.0:
                    rates[i] = -d
                    demand -= d
        if value:
            transfers = 0
            while True:
                supplier = None
                sv = inf
                for i in stores:
                    r = rates[i]
                    if r <= 0.0 and r + out_power[i] > eps and levels[i] + r > eps and v[i] < sv:
                        supplier = i
                        sv = v[i]
                if supplier is None:
                    break
                receiver = None
                best_priority = -inf
                for j in stores:
                    if j == supplier:
                        continue
                    r = rates[j]
                    if r >= 0.0 and max_charge[j] - r > eps and capacity[j] - levels[j] - r > eps:
                        priority = eta[j] * v[j]
                        if priority > best_priority:
                            best_priority = priority
                            receiver = j
                if receiver is None or not sv < best_priority:
                    break
                eta_r = eta[receiver]
                x = min(
                    levels[supplier] + rates[supplier],
                    out_power[supplier] + rates[supplier],
                    (capacity[receiver] - levels[receiver] - rates[receiver]) / eta_r,
                    in_power[receiver] - rates[receiver] / eta_r,
                )
                if x <= eps:
                    break
                rates[supplier] -= x
                rates[receiver] += eta_r * x
                transfers += 1
                assert transfers <= 2 * n, "cross-charging failed to terminate"
        u = re
        for i in stores:
            r = rates[i]
            if r < 0.0:
                u -= r
            else:
                u -= r / eta[i]
        # max(u, 0.0) + 0.0 and max(-u, 0.0) + 0.0, without a builtin call.
        if re >= 0.0:
            return rates, (0.0 if u < 0.0 else u) + 0.0, 0.0
        u = -u
        return rates, 0.0, (0.0 if u < 0.0 else u) + 0.0

    return step


def _check_lambdas(lambdas, n: int) -> None:
    if len(lambdas) != n:
        raise ValueError(f"{len(lambdas)} decay rates for {n} stores")


def value_derivatives(
    state: FleetState, fleet: Sequence[StoreSpec], params: ValueParams
) -> list[float]:
    """Marginal worth of one more stored MWh, per store.

    v[i] = exp(-lambda[i] * level[i] / output_power[i]); always in (0, 1]
    and decreasing in the level, so emptier (or slower-to-refill) stores
    look more valuable to top up and fuller ones are discharged first.
    """
    _check_lambdas(params.lambdas_per_hour, len(fleet))
    inv_out = [0.0 if math.isinf(spec.output_power_mw) else 1.0 / spec.output_power_mw for spec in fleet]
    return [
        math.exp(-lam * s * inv)
        for lam, s, inv in zip(params.lambdas_per_hour, state.levels_mwh, inv_out)
    ]


@frozen_dataclass
class Policy:
    """Dispatchable policy choice: 'value' (with params), 'ggddf' or 'grtef'."""

    kind: str
    params: ValueParams | None = None

    _KINDS = ("value", "ggddf", "grtef")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "value" and self.params is None:
            raise ValueError("value policy requires ValueParams")

    @classmethod
    def value(cls, lambdas_per_hour: Sequence[float]) -> "Policy":
        return cls("value", ValueParams(lambdas_per_hour))

    @classmethod
    def ggddf(cls) -> "Policy":
        return cls("ggddf")

    @classmethod
    def grtef(cls) -> "Policy":
        return cls("grtef")

    def decide(self, state: FleetState, re_mw: float, fleet: Sequence[StoreSpec]) -> StepDecision:
        """This hour's decision for ``fleet`` at ``state``."""
        rates, spill, unserved = self.raw_step(fleet)(state.levels_mwh, re_mw)
        return StepDecision(tuple(rates), spill_mwh=spill, unserved_mwh=unserved)

    def decay_rates(self, fleet: Sequence[StoreSpec]) -> tuple[float, ...]:
        """The value policy's decay rates, one per store of ``fleet``; () for the others.

        Raises ValueError when their count does not match the fleet.
        """
        if self.kind != "value":
            return ()
        lambdas = self.params.lambdas_per_hour
        _check_lambdas(lambdas, len(fleet))
        return lambdas

    def raw_step(self, fleet: Sequence[StoreSpec]):
        """Bind a (levels, re) -> (rates, spill, unserved) closure for one fleet."""
        return _step_kernel(fleet, self.kind, self.decay_rates(fleet))
