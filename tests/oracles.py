"""Independent oracles and random-instance generators for the test suite.

Everything here is deliberately written without reusing the package's
allocation logic: vertex enumeration and grid search for the per-step
linear programme, a split-efficiency-units twin of the value scheduler,
exhaustive capacity search, and random feasible / greedy schedule
generators.  ``record_search`` logs what the sizing search did, so
tests can see which corners it skipped or abandoned.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from storefleet.fleet import StoreSpec


def greedy_min_spill_unserved(levels, fleet, re_mw):
    """The smallest spill / unserved any feasible decision can leave."""
    if re_mw >= 0.0:
        draw_cap = sum(
            min(f.input_power_mw, (f.capacity_mwh - s) / f.efficiency)
            for f, s in zip(fleet, levels)
        )
        return max(0.0, re_mw - draw_cap), 0.0
    serve_cap = sum(min(f.output_power_mw, s) for f, s in zip(fleet, levels))
    return 0.0, max(0.0, -re_mw - serve_cap)


def vertex_lp_max(levels, fleet, v, re_mw, u_target):
    """Exact maximum of sum(v[i] * r[i]) with the imbalance pinned.

    Splits each rate into a charge part c in [0, min(eta*Q, E-s)] and a
    discharge part d in [0, min(P, s)]; the feasible set is a box cut by
    one hyperplane sum(c/eta) - sum(d) = re - u_target, so every vertex
    has at most one variable strictly between its bounds.  Enumerates all
    such basic solutions (splitting never beats a pure rate because
    eta <= 1, so the optimum value is unchanged).
    """
    n = len(fleet)
    hi = [min(f.efficiency * f.input_power_mw, f.capacity_mwh - s) for f, s in zip(fleet, levels)]
    hi += [min(f.output_power_mw, s) for f, s in zip(fleet, levels)]
    coef = [1.0 / f.efficiency for f in fleet] + [-1.0] * n
    obj = list(v) + [-x for x in v]
    target = re_mw - u_target
    best = -math.inf
    for free in range(2 * n):
        others = [k for k in range(2 * n) if k != free]
        for pattern in itertools.product((0, 1), repeat=2 * n - 1):
            acc = 0.0
            vals = [0.0] * (2 * n)
            for k, bit in zip(others, pattern):
                if bit:
                    vals[k] = hi[k]
                    acc += coef[k] * hi[k]
            x = (target - acc) / coef[free]
            tol = 1e-9 * max(1.0, abs(hi[free]))
            if x < -tol or x > hi[free] + tol:
                continue
            vals[free] = min(max(x, 0.0), hi[free])
            value = sum(o * z for o, z in zip(obj, vals))
            if value > best:
                best = value
    return best


def grid_lp_max(levels, fleet, v, re_mw, u_target, points=201, rounds=4):
    """Brute-force grid search (with refinement) for the same LP, <= 2 stores.

    For one store the imbalance constraint determines the rate directly.
    For two, the first store's rate is swept on a grid; the second is
    solved from the constraint (the imbalance contribution is strictly
    increasing in the rate, so the solve is unique).  The grid is then
    narrowed around the best point.
    """
    if len(fleet) == 1:
        f = fleet[0]
        lo = -min(f.output_power_mw, levels[0])
        hi = min(f.efficiency * f.input_power_mw, f.capacity_mwh - levels[0])
        budget = re_mw - u_target
        r = f.efficiency * budget if budget >= 0.0 else budget
        if not lo - 1e-9 <= r <= hi + 1e-9:
            return -math.inf
        return v[0] * min(max(r, lo), hi)

    assert len(fleet) == 2
    f0, f1 = fleet
    lo0 = -min(f0.output_power_mw, levels[0])
    hi0 = min(f0.efficiency * f0.input_power_mw, f0.capacity_mwh - levels[0])
    lo1 = -min(f1.output_power_mw, levels[1])
    hi1 = min(f1.efficiency * f1.input_power_mw, f1.capacity_mwh - levels[1])

    span_lo, span_hi = lo0, hi0
    best = -math.inf
    best_r0 = None
    for _ in range(rounds):
        for r0 in np.linspace(span_lo, span_hi, points):
            contrib0 = r0 if r0 < 0.0 else r0 / f0.efficiency
            budget = re_mw - u_target - contrib0
            r1 = f1.efficiency * budget if budget >= 0.0 else budget
            if not lo1 - 1e-9 <= r1 <= hi1 + 1e-9:
                continue
            r1 = min(max(r1, lo1), hi1)
            value = v[0] * r0 + v[1] * r1
            if value > best:
                best = value
                best_r0 = r0
        if best_r0 is None:
            break
        width = (span_hi - span_lo) / (points - 1)
        span_lo = max(lo0, best_r0 - 2 * width)
        span_hi = min(hi0, best_r0 + 2 * width)
    return best


def simulate_split_twin(fleet, initial_levels, values, lambdas):
    """Value-policy run tracked natively in split-efficiency units.

    Takes the same servable-energy fleet description as the package but
    converts to split units up front (level sigma = s / sqrt(eta),
    capacity E / sqrt(eta)) and runs the whole policy arithmetic there:
    drawing x MW adds sqrt(eta) * x to sigma, delivering d MW removes
    d / sqrt(eta).  Returns (spill, unserved) series in external MWh.
    """
    n = len(fleet)
    roots = [math.sqrt(f.efficiency) for f in fleet]
    caps = [f.capacity_mwh / rt for f, rt in zip(fleet, roots)]
    sigma = [s / rt for s, rt in zip(initial_levels, roots)]
    spill_seq, unserved_seq = [], []
    eps = 1e-12
    for re in values:
        re = float(re)
        v = [
            math.exp(-lam * (rt * sg) / f.output_power_mw) if not math.isinf(f.output_power_mw) else 1.0
            for lam, rt, sg, f in zip(lambdas, roots, sigma, fleet)
        ]
        rho = [0.0] * n
        if re >= 0.0:
            order = sorted(range(n), key=lambda i: (-fleet[i].efficiency * v[i], i))
            rem = re
            for i in order:
                draw = min(rem, fleet[i].input_power_mw, (caps[i] - sigma[i]) / roots[i])
                if draw > 0.0:
                    rho[i] = roots[i] * draw
                    rem -= draw
        else:
            order = sorted(range(n), key=lambda i: (v[i], i))
            rem = -re
            for i in order:
                d = min(rem, fleet[i].output_power_mw, roots[i] * sigma[i])
                if d > 0.0:
                    rho[i] = -d / roots[i]
                    rem -= d
        while True:
            supplier = None
            for i in range(n):
                delivered_headroom = fleet[i].output_power_mw + roots[i] * rho[i]
                if (
                    rho[i] <= 0.0
                    and delivered_headroom > eps
                    and sigma[i] + rho[i] > eps
                    and (supplier is None or v[i] < v[supplier])
                ):
                    supplier = i
            if supplier is None:
                break
            receiver, best_prio = None, -math.inf
            for j in range(n):
                if j == supplier:
                    continue
                if (
                    rho[j] >= 0.0
                    and roots[j] * fleet[j].input_power_mw - rho[j] > eps
                    and caps[j] - sigma[j] - rho[j] > eps
                ):
                    prio = fleet[j].efficiency * v[j]
                    if prio > best_prio:
                        best_prio = prio
                        receiver = j
            if receiver is None or not v[supplier] < best_prio:
                break
            i, j = supplier, receiver
            x = min(
                roots[i] * (sigma[i] + rho[i]),
                fleet[i].output_power_mw + roots[i] * rho[i],
                (caps[j] - sigma[j] - rho[j]) / roots[j],
                fleet[j].input_power_mw - rho[j] / roots[j],
            )
            if x <= eps:
                break
            rho[i] -= x / roots[i]
            rho[j] += roots[j] * x
        u = re
        for i in range(n):
            if rho[i] < 0.0:
                u -= roots[i] * rho[i]
            else:
                u -= rho[i] / roots[i]
        if re >= 0.0:
            spill_seq.append(max(u, 0.0))
            unserved_seq.append(0.0)
        else:
            spill_seq.append(0.0)
            unserved_seq.append(max(-u, 0.0))
        for i in range(n):
            sigma[i] = min(max(sigma[i] + rho[i], 0.0), caps[i])
    return np.asarray(spill_seq), np.asarray(unserved_seq)


def brute_min_capacity(values, efficiency, e_step, s_step):
    """Exhaustive 2-D grid search for the smallest workable single store."""

    def feasible(capacity, initial):
        level = initial
        for re in values:
            if re >= 0.0:
                level = min(level + efficiency * re, capacity)
            else:
                if level < -re - 1e-9:
                    return False
                level += re
        return True

    total_demand = sum(max(0.0, -re) for re in values)
    if total_demand <= 0.0:
        return 0.0, 0.0
    e_grid = np.arange(0.0, total_demand + e_step, e_step)
    e_min = None
    for capacity in e_grid:
        if feasible(capacity, capacity):
            e_min = float(capacity)
            break
    assert e_min is not None
    for initial in np.arange(0.0, e_min + s_step, s_step):
        if feasible(e_min, float(initial)):
            return e_min, float(initial)
    return e_min, e_min


def random_fleet(rng, n, infinite_output=False, infinite_input=False, name_prefix="s"):
    specs = []
    for i in range(n):
        specs.append(
            StoreSpec(
                name=f"{name_prefix}{i}",
                capacity_mwh=float(rng.uniform(5.0, 200.0)),
                output_power_mw=math.inf if infinite_output else float(rng.uniform(1.0, 50.0)),
                input_power_mw=math.inf if infinite_input else float(rng.uniform(1.0, 50.0)),
                efficiency=float(rng.uniform(0.3, 1.0)),
            )
        )
    return specs


def random_levels(rng, fleet):
    return tuple(float(rng.uniform(0.0, f.capacity_mwh)) for f in fleet)


def random_lambdas(rng, n):
    return tuple(float(rng.uniform(0.0, 0.2)) for _ in range(n))


def random_trace_values(rng, steps, scale=60.0):
    return rng.uniform(-scale, scale, steps)


def _try_cross_charge(rng, fleet, levels, rates):
    """Randomly move energy between stores without touching the imbalance."""
    n = len(fleet)
    candidates_i = [
        i
        for i in range(n)
        if rates[i] <= 0.0
        and rates[i] + fleet[i].output_power_mw > 1e-9
        and levels[i] + rates[i] > 1e-9
    ]
    candidates_j = [
        j
        for j in range(n)
        if rates[j] >= 0.0
        and fleet[j].efficiency * fleet[j].input_power_mw - rates[j] > 1e-9
        and fleet[j].capacity_mwh - levels[j] - rates[j] > 1e-9
    ]
    pairs = [(i, j) for i in candidates_i for j in candidates_j if i != j]
    if not pairs:
        return
    i, j = pairs[rng.integers(len(pairs))]
    x_max = min(
        levels[i] + rates[i],
        fleet[i].output_power_mw + rates[i],
        (fleet[j].capacity_mwh - levels[j] - rates[j]) / fleet[j].efficiency,
        fleet[j].input_power_mw - rates[j] / fleet[j].efficiency,
    )
    x = float(rng.uniform(0.0, x_max))
    rates[i] -= x
    rates[j] += fleet[j].efficiency * x


def random_feasible_rates(rng, fleet, initial_levels, values, cross_prob=0.3, full_prob=0.0):
    """A feasible but generally wasteful schedule (withholds, cross-charges).

    With probability ``full_prob`` an hour is served in full instead:
    each store in turn takes all it can of what is left of the surplus or
    deficit, and only then may a cross-charge follow.  Such an hour is
    exactly balanced, so once a rewrite of earlier hours has lowered the
    level its cross-charge draws on, or raised the level of the store it
    charges, the clipped row overdraws or overserves.
    """
    n = len(fleet)
    levels = list(initial_levels)
    rows = []
    for re in values:
        re = float(re)
        rates = [0.0] * n
        order = list(rng.permutation(n))
        full = full_prob > 0.0 and rng.uniform() < full_prob
        if re >= 0.0:
            budget = re
            for i in order:
                cap = min(budget, fleet[i].max_input_draw_mw(levels[i]))
                if cap <= 0.0:
                    continue
                x = cap if full else float(rng.uniform(0.0, cap))
                rates[i] = fleet[i].efficiency * x
                budget -= x
        else:
            budget = -re
            for i in order:
                cap = min(budget, fleet[i].max_discharge_rate_mw(levels[i]))
                if cap <= 0.0:
                    continue
                d = cap if full else float(rng.uniform(0.0, cap))
                rates[i] = -d
                budget -= d
        if rng.uniform() < cross_prob:
            _try_cross_charge(rng, fleet, levels, rates)
        rows.append(list(rates))
        levels = [
            min(max(levels[i] + rates[i], 0.0), fleet[i].capacity_mwh) for i in range(n)
        ]
    return np.asarray(rows)


def random_greedy_rates(rng, fleet, initial_levels, values, cross_prob=0.2):
    """A greedy (but randomly ordered) schedule: never withholds when forced."""
    n = len(fleet)
    levels = list(initial_levels)
    rows = []
    for re in values:
        re = float(re)
        rates = [0.0] * n
        order = list(rng.permutation(n))
        if re >= 0.0:
            caps = [fleet[i].max_input_draw_mw(levels[i]) for i in range(n)]
            if sum(caps) <= re:
                for i in range(n):
                    rates[i] = fleet[i].efficiency * caps[i]
            else:
                budget = re
                for i in order:
                    x = min(budget, caps[i])
                    rates[i] = fleet[i].efficiency * x
                    budget -= x
        else:
            caps = [fleet[i].max_discharge_rate_mw(levels[i]) for i in range(n)]
            if sum(caps) <= -re:
                for i in range(n):
                    rates[i] = -caps[i]
            else:
                budget = -re
                for i in order:
                    d = min(budget, caps[i])
                    rates[i] = -d
                    budget -= d
        if rng.uniform() < cross_prob:
            _try_cross_charge(rng, fleet, levels, rates)
        rows.append(list(rates))
        levels = [
            min(max(levels[i] + rates[i], 0.0), fleet[i].capacity_mwh) for i in range(n)
        ]
    return np.asarray(rows)


def record_search(monkeypatch) -> list[str]:
    """Log the long-store search's steps, in order, while the test runs.

    Events: "call" per (grid entry, decay combo), logged as its
    ``min_required_output_power`` search starts, "cost0" per corner
    priced at zero long-store capacity, "check" per reliability check (a
    ``simulate`` with an unserved limit), "final" per full ``simulate``
    and "abandon" per capacity bisection given up.
    """
    from storefleet import sizing

    events: list[str] = []

    def logged(name, before=None, after=None):
        original = getattr(sizing, name)

        def wrapper(*args, **kwargs):
            event = before and before(*args, **kwargs)
            if event:
                events.append(event)
            result = original(*args, **kwargs)
            if after is not None and after(result):
                events.append("abandon")
            return result

        monkeypatch.setattr(sizing, name, wrapper)

    logged("min_required_output_power", before=lambda *a, **k: "call")
    logged("price_stores",
           before=lambda fleet, prices: "cost0" if fleet[0].capacity_mwh == 0.0 else None)
    logged("simulate", before=lambda *a, **k: "check" if "unserved_limit_mwh" in k else "final")
    logged("_bisect_min", after=lambda result: result is None)
    return events


def search_calls(events: list[str]) -> list[list[str]]:
    """The recorded events split per (grid entry, decay combo)."""
    calls: list[list[str]] = []
    for event in events:
        if event == "call":
            calls.append([])
        else:
            calls[-1].append(event)
    return calls


def skipped_corners(call: list[str]) -> int:
    """Corners of one call priced at zero capacity and then never simulated."""
    return sum(
        event == "cost0" and (i + 1 == len(call) or call[i + 1] != "check")
        for i, event in enumerate(call)
    )
