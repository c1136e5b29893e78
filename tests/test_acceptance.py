"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.

Criterion 1 prices the printed dimensions of the published cost tables with
`fleet_cost` and compares each cell with print.  Three cells of the
three-store table at 30% overcapacity cannot be reproduced from their own
row: the Li-ion store prints an input rating of 2.0 GW, and 2.0 GW at
180 $/kW is 0.36 $bn, but the row prints 0.2 $bn.  The store total
(computed 0.86, printed 0.7) and the grand total (computed 176.0, printed
175.8) inherit the gap.  The arithmetic is not at fault: every other cell
of all seven rows reproduces to within print rounding, and the same
180 $/kW input price reproduces the printed 2.7, 3.6 and 0.4 $bn Li-ion
input costs of the other rows.  The printed costs agree with each other
(144.76 + 30.38 + 0.5 + 0.2 = 175.84) and fit an input rating of about
0.83-1.4 GW, so either the printed 2.0 GW dimension or the printed 0.2 $bn
cost is a misprint; the source does not settle which.  Those three cells
are listed in `COST_TABLE_ERRATA` and checked against the value recomputed
from the printed dimensions; the printed table itself is kept verbatim.
"""

import math
import time

import numpy as np
import pytest

from storefleet.engine import (
    PolicyTrace,
    greedify,
    lower_bound_unserved,
    simulate,
    unserved_series,
    verify_feasible,
    verify_greedy,
)
from storefleet.fleet import FleetState, StoreSpec, full_state, imbalance, merge_equivalent
from storefleet.policies import Policy, ValueParams, value_derivatives
from storefleet.sizing import (
    ReliabilityStandard,
    SizingOptions,
    StorePrices,
    fleet_cost,
    min_single_store_capacity,
    optimize_fleet,
    optimize_single_store,
)
from storefleet.traces import SynthParams, scale_to_overcapacity, synthesize

from oracles import (
    brute_min_capacity,
    greedy_min_spill_unserved,
    grid_lp_max,
    random_feasible_rates,
    random_fleet,
    random_greedy_rates,
    random_lambdas,
    random_levels,
    random_trace_values,
    simulate_split_twin,
    vertex_lp_max,
)

HYDROGEN = StorePrices(0.8, 429.0, 858.0)
ACAES = StorePrices(9.0, 200.0, 200.0)
LIION = StorePrices(100.0, 0.0, 180.0)


def _report(number, name, ok, started, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance criterion {number} ({name}): {status} in {elapsed:.1f}s{suffix}")


# --------------------------------------------------------------------------
# Criterion 1: cost arithmetic regression against the published tables.
# --------------------------------------------------------------------------

# (dims in split convention: MWh, MW, MW), prices, printed per-component
# costs and per-store totals ($bn), then the printed grand total.
COST_TABLE_CASES = [
    (
        "single_long_30pct",
        [((120.4e6, 115.9e3, 80.0e3), HYDROGEN, (96.3, 49.7, 68.6), 214.7)],
        214.7,
    ),
    (
        "long_medium_30pct",
        [
            ((72.8e6, 96.2e3, 53.3e3), HYDROGEN, (58.2, 41.3, 45.7), 145.2),
            ((2.5e6, 21.0e3, 21.1e3), ACAES, (22.5, 4.2, 4.2), 30.9),
        ],
        176.2,
    ),
    (
        "long_medium_25pct",
        [
            ((79.3e6, 81.0e3, 57.5e3), HYDROGEN, (63.4, 34.7, 49.3), 147.5),
            ((4.5e6, 40.0e3, 40.0e3), ACAES, (40.5, 8.0, 8.0), 56.5),
        ],
        204.0,
    ),
    (
        "long_short_30pct",
        [
            ((101.2e6, 115.9e3, 77.5e3), HYDROGEN, (81.0, 49.7, 66.5), 197.2),
            ((0.085e6, 15.0e3, 15.0e3), LIION, (8.5, 0.0, 2.7), 11.2),
        ],
        208.4,
    ),
    (
        "long_short_25pct",
        [
            ((136.8e6, 112.0e3, 77.5e3), HYDROGEN, (109.4, 48.0, 66.5), 224.0),
            ((0.2e6, 20.0e3, 20.0e3), LIION, (20.0, 0.0, 3.6), 23.6),
        ],
        247.6,
    ),
    (
        "three_store_30pct",  # three misprinted cells: see COST_TABLE_ERRATA
        [
            ((72.2e6, 96.2e3, 53.3e3), HYDROGEN, (57.8, 41.3, 45.7), 144.8),
            ((2.44e6, 21.0e3, 21.1e3), ACAES, (22.0, 4.2, 4.2), 30.4),
            ((0.005e6, 2.0e3, 2.0e3), LIION, (0.5, 0.0, 0.2), 0.7),
        ],
        175.8,
    ),
    (
        "three_store_25pct",
        [
            ((78.9e6, 81.0e3, 57.5e3), HYDROGEN, (63.1, 34.7, 49.3), 147.2),
            ((4.25e6, 40.0e3, 40.4e3), ACAES, (38.2, 8.0, 8.1), 54.3),
            ((0.010e6, 2.05e3, 2.05e3), LIION, (1.0, 0.0, 0.4), 1.4),
        ],
        202.9,
    ),
]


# Printed cells that the arithmetic cannot reproduce from their own printed
# dimensions (see the module docstring).  Each is checked against the value
# recomputed from those dimensions instead of print.  An entry whose printed
# value the arithmetic does reproduce is stale and fails the test, so this
# list cannot grow to hide a fault in `fleet_cost`.
# (case, store index or None for the grand total, cell):
#     (printed $bn, recomputed $bn, reason)
COST_TABLE_ERRATA = {
    ("three_store_30pct", 2, "input_power"): (
        0.2, 0.36, "printed 2.0 GW input rating x 180 $/kW is 0.36 $bn",
    ),
    ("three_store_30pct", 2, "store_total"): (
        0.7, 0.86, "0.5 + 0.0 + 0.36 $bn with the recomputed input-power cost",
    ),
    ("three_store_30pct", None, "grand_total"): (
        175.8, 176.0, "144.76 + 30.38 + 0.86 $bn with the recomputed Li-ion total",
    ),
}


def _cost_cells(stores, grand_total):
    """Yield (store index, cell, computed $bn, printed $bn) for one table row."""
    breakdown = fleet_cost([s[0] for s in stores], [s[1] for s in stores])
    for idx, (_, _, components, store_total) in enumerate(stores):
        got = breakdown.per_store[idx]
        yield idx, "capacity", got.capacity_usd / 1e9, components[0]
        yield idx, "output_power", got.output_power_usd / 1e9, components[1]
        yield idx, "input_power", got.input_power_usd / 1e9, components[2]
        yield idx, "store_total", got.total_usd / 1e9, store_total
    yield None, "grand_total", breakdown.total_usd / 1e9, grand_total


def test_criterion_1_cost_tables():
    started = time.perf_counter()
    tolerance = 0.05
    mismatches = []
    unused_errata = set(COST_TABLE_ERRATA)
    for name, stores, grand_total in COST_TABLE_CASES:
        for idx, label, got_bn, printed_bn in _cost_cells(stores, grand_total):
            where = f"{name} {label}" if idx is None else f"{name} store {idx} {label}"
            key = (name, idx, label)
            if key not in COST_TABLE_ERRATA:
                if abs(got_bn - printed_bn) > tolerance:
                    mismatches.append(f"{where}: computed {got_bn:.4f} vs printed {printed_bn}")
                continue
            unused_errata.discard(key)
            errata_printed, recomputed, _ = COST_TABLE_ERRATA[key]
            if errata_printed != printed_bn:
                mismatches.append(
                    f"{where}: erratum records printed {errata_printed}, table prints {printed_bn}"
                )
            if abs(got_bn - recomputed) > tolerance:
                mismatches.append(
                    f"{where}: computed {got_bn:.4f} vs recomputed {recomputed} (erratum)"
                )
            if abs(got_bn - printed_bn) <= tolerance:
                mismatches.append(
                    f"{where}: computed {got_bn:.4f} matches printed {printed_bn}, "
                    "so the erratum is stale"
                )
    mismatches += [f"erratum {key} names no table cell" for key in sorted(unused_errata, key=str)]
    _report(1, "cost arithmetic regression", not mismatches, started,
            detail=f"{len(mismatches)} mismatches" if mismatches else
                   f"{len(COST_TABLE_ERRATA)} cells checked against recomputed values")
    assert not mismatches, (
        "cost regression mismatches against the printed tables (cells in "
        "COST_TABLE_ERRATA are checked against the value recomputed from the "
        "printed dimensions):\n  " + "\n  ".join(mismatches)
    )


# --------------------------------------------------------------------------
# Criterion 2: per-step LP oracle equivalence on >= 1000 random instances.
# --------------------------------------------------------------------------


def test_criterion_2_lp_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    instances = 1000
    grid_checked = 0
    for k in range(instances):
        n = 2 + k % 2
        fleet = random_fleet(rng, n)
        levels = random_levels(rng, fleet)
        re = float(rng.uniform(-120.0, 120.0))
        lambdas = random_lambdas(rng, n)
        state = FleetState(levels)
        params = ValueParams(lambdas)
        v = value_derivatives(state, fleet, params)
        decision = Policy("value", params).decide(state, re, fleet)

        spill_min, unserved_min = greedy_min_spill_unserved(levels, fleet, re)
        assert decision.spill_mwh == pytest.approx(spill_min, abs=1e-9)
        assert decision.unserved_mwh == pytest.approx(unserved_min, abs=1e-9)

        u_target = decision.spill_mwh - decision.unserved_mwh
        achieved = sum(w * r for w, r in zip(v, decision.rates_mw))
        best = vertex_lp_max(levels, fleet, v, re, u_target)
        assert achieved == pytest.approx(best, abs=1e-6), (
            f"instance {k}: objective {achieved} vs vertex oracle {best}"
        )
        if n == 2 and k % 5 == 0:
            grid_best = grid_lp_max(levels, fleet, v, re, u_target)
            assert achieved >= grid_best - 1e-6
            grid_checked += 1
    assert grid_checked >= 100
    _report(2, "per-step LP oracle equivalence", True, started,
            detail=f"{instances} instances, {grid_checked} grid-refined")


# --------------------------------------------------------------------------
# Criterion 3: greedy transform on >= 1000 random feasible schedules.
# --------------------------------------------------------------------------


def test_criterion_3_greedify():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for k in range(1000):
        n = 1 + k % 3
        steps = int(rng.integers(2, 51))
        fleet = random_fleet(rng, n)
        initial = FleetState(random_levels(rng, fleet))
        values = random_trace_values(rng, steps)
        before = PolicyTrace(
            random_feasible_rates(rng, fleet, initial.levels_mwh, values, cross_prob=0.4)
        )
        after = greedify(fleet, initial, values, before)
        verify_feasible(fleet, initial, values, after)
        verify_greedy(fleet, initial, values, after)
        ue_before = unserved_series(fleet, initial, values, before)
        ue_after = unserved_series(fleet, initial, values, after)
        assert np.all(ue_after <= ue_before + 1e-6), f"instance {k}: unserved energy grew"
    _report(3, "greedy transform sufficiency", True, started, detail="1000 schedules")


# --------------------------------------------------------------------------
# Criterion 4: efficiency-first optimality without output constraints.
# --------------------------------------------------------------------------


def test_criterion_4_grtef_dominance():
    # The optimality claim for efficiency-first scheduling holds in the
    # absence of rate constraints; both rate limits are lifted here
    # (charging is rate-limited by the input rating exactly as
    # discharging is by the output rating, and a finite input rating
    # breaks the claim: see the pinned counterexample in test_policies).
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    for k in range(100):
        n = 2 + k % 2
        fleet = random_fleet(rng, n, infinite_output=True, infinite_input=True)
        initial = FleetState(random_levels(rng, fleet))
        values = random_trace_values(rng, 50)
        grtef = simulate(fleet, values, Policy.grtef(), initial=initial)
        grtef_stored = grtef.level_traces_mwh.sum(axis=1)
        grtef_ue = grtef.total_unserved_mwh
        for _ in range(100):
            rates = random_greedy_rates(rng, fleet, initial.levels_mwh, values)
            levels = list(initial.levels_mwh)
            stored = np.empty(len(values))
            for t in range(len(values)):
                for i in range(n):
                    levels[i] = min(
                        max(levels[i] + rates[t, i], 0.0), fleet[i].capacity_mwh
                    )
                stored[t] = sum(levels)
            assert np.all(grtef_stored >= stored - 1e-6), (
                f"instance {k}: a random greedy policy stored more than "
                "efficiency-first at some hour"
            )
            rival_ue = float(
                unserved_series(fleet, initial, values, PolicyTrace(rates))[-1]
            )
            assert grtef_ue <= rival_ue + 1e-6
    _report(4, "efficiency-first dominance without output limits", True, started,
            detail="100 instances x 100 rival policies")


# --------------------------------------------------------------------------
# Criterion 5: minimal-store curve shape and exact toy values.
# --------------------------------------------------------------------------


def test_criterion_5_minimal_store_curve():
    started = time.perf_counter()
    toy = [10.0, -4.0, -4.0, -4.0]
    e1, s1 = min_single_store_capacity(toy, 1.0, tol_mwh=1e-7)
    assert (e1, s1) == (pytest.approx(12.0, abs=1e-4), pytest.approx(2.0, abs=1e-4))
    assert brute_min_capacity(toy, 1.0, 0.5, 0.5) == (12.0, 2.0)
    e2, s2 = min_single_store_capacity(toy, 0.25, tol_mwh=1e-7)
    assert (e2, s2) == (pytest.approx(12.0, abs=1e-4), pytest.approx(9.5, abs=1e-4))
    assert brute_min_capacity(toy, 0.25, 0.5, 0.5) == (12.0, 9.5)

    demand, generation = synthesize(SynthParams(years=1.0, seed=11))
    overcapacities = [round(0.05 * k, 2) for k in range(1, 11)]
    efficiencies = [0.4, 0.7, 0.9]
    tol = 0.5
    table = {}
    for oc in overcapacities:
        trace = scale_to_overcapacity(demand, generation, oc)
        for eta in efficiencies:
            table[(oc, eta)] = min_single_store_capacity(trace, eta, tol_mwh=tol)[0]
    for eta in efficiencies:
        row = [table[(oc, eta)] for oc in overcapacities]
        assert all(a > b + 2 * tol for a, b in zip(row, row[1:])), (
            f"capacity not strictly decreasing in overcapacity at efficiency {eta}: {row}"
        )
    for oc in overcapacities:
        col = [table[(oc, eta)] for eta in efficiencies]
        assert all(a >= b - 2 * tol for a, b in zip(col, col[1:])), (
            f"capacity increasing in efficiency at overcapacity {oc}: {col}"
        )
    _report(5, "minimal-store curve", True, started,
            detail=f"{len(table)} sweep points + toy oracle")


# --------------------------------------------------------------------------
# Criterion 6: a mixed fleet beats the single store on cost, with the
# companion store cycling far above its capacity share.
# --------------------------------------------------------------------------


def test_criterion_6_mixed_fleet_saving():
    started = time.perf_counter()
    params = SynthParams(
        years=2.0, seed=9, diurnal_amp=0.30, weekly_amp=0.05, seasonal_amp=0.12,
        ar_coeff=0.97, noise_sd=0.18, solar_share=0.35,
    )
    demand, generation = synthesize(params)
    trace = scale_to_overcapacity(demand, generation, 0.30)
    costs = {"long": HYDROGEN, "medium": ACAES}
    standard = ReliabilityStandard(0.35)

    single = optimize_single_store(
        trace, HYDROGEN, standard, 0.4,
        SizingOptions(q_grid_points=6, e_tol_mwh=100.0, p_tol_mw=5.0),
    )
    options = SizingOptions(
        q_grid_points=6, e_tol_mwh=100.0, p_tol_mw=5.0, p_grid_points=4,
        lambda_grid=((1e-3,), (0.01, 0.03)),
    )
    medium_grid = [
        (StoreSpec("medium", 5e3, 500.0, 500.0, 0.7),),
        (StoreSpec("medium", 10e3, 700.0, 700.0, 0.7),),
    ]
    mixed = optimize_fleet(trace, costs, standard, medium_grid, 0.4, options)

    assert mixed.total_cost_usd < single.total_cost_usd, (
        f"mixed fleet ({mixed.total_cost_usd / 1e9:.3f} $bn) not cheaper than "
        f"single store ({single.total_cost_usd / 1e9:.3f} $bn)"
    )
    long_store, medium_store = mixed.stores
    served = mixed.served_external_mwh
    served_share = served[1] / sum(served)
    capacity_share = medium_store.capacity_mwh / (
        long_store.capacity_mwh + medium_store.capacity_mwh
    )
    assert served_share > capacity_share, (
        f"medium store served share {served_share:.3f} does not exceed its "
        f"capacity share {capacity_share:.3f}"
    )
    saving_bn = (single.total_cost_usd - mixed.total_cost_usd) / 1e9
    _report(6, "mixed-fleet saving", True, started,
            detail=f"saving {saving_bn:.2f} $bn; served share {served_share:.2f} "
                   f"vs capacity share {capacity_share:.3f}")


# --------------------------------------------------------------------------
# Criterion 7: every shipped policy is feasible and greedy everywhere;
# cross-charging never coexists with spill or unserved energy.
# --------------------------------------------------------------------------


def test_criterion_7_policy_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    steps_checked = 0
    for k in range(150):
        n = 1 + k % 3
        fleet = random_fleet(rng, n)
        initial = FleetState(random_levels(rng, fleet))
        values = random_trace_values(rng, 80)
        policies = [Policy.value(random_lambdas(rng, n)), Policy.ggddf(), Policy.grtef()]
        for policy in policies:
            result = simulate(fleet, values, policy, initial=initial)
            verify_feasible(fleet, initial, values, result.policy_trace())
            verify_greedy(fleet, initial, values, result.policy_trace())
            if policy.kind != "value":
                continue
            etas = [s.efficiency for s in fleet]
            for t, re in enumerate(values):
                row = result.rates_mw[t]
                u = imbalance(float(re), row, etas)
                if re >= 0.0:
                    crossing = any(r < -1e-9 for r in row)
                    assert not (u > 1e-9 and crossing), f"cross-charge while spilling at {t}"
                else:
                    crossing = any(r > 1e-9 for r in row)
                    assert not (-u > 1e-9 and crossing), f"cross-charge while shedding at {t}"
                steps_checked += 1

    # The synthetic trace exercises long charge/discharge runs too.
    demand, generation = synthesize(SynthParams(years=0.2, seed=13))
    trace = scale_to_overcapacity(demand, generation, 0.2)
    fleet = [
        StoreSpec("long", 2e5, 600.0, 600.0, 0.4),
        StoreSpec("medium", 8e3, 400.0, 400.0, 0.7),
    ]
    for policy in (Policy.value([1e-3, 3e-2]), Policy.ggddf(), Policy.grtef()):
        result = simulate(fleet, trace, policy)
        initial = full_state(fleet)
        verify_feasible(fleet, initial, trace, result.policy_trace())
        verify_greedy(fleet, initial, trace, result.policy_trace())
    _report(7, "feasibility/greediness invariants", True, started,
            detail=f"{steps_checked} value-policy steps checked for exclusion")


# --------------------------------------------------------------------------
# Criterion 8: loss-convention and merge equivalences.
# --------------------------------------------------------------------------


def test_criterion_8_equivalences():
    started = time.perf_counter()
    rng = np.random.default_rng(113)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        fleet = random_fleet(rng, n)
        initial = FleetState(random_levels(rng, fleet))
        values = random_trace_values(rng, 80)
        lambdas = random_lambdas(rng, n)
        result = simulate(fleet, values, Policy.value(lambdas), initial=initial)
        spill_twin, unserved_twin = simulate_split_twin(
            fleet, initial.levels_mwh, values, lambdas
        )
        spill = np.diff(result.spill_cumulative_mwh, prepend=0.0)
        unserved = np.diff(result.unserved_cumulative_mwh, prepend=0.0)
        assert np.allclose(spill, spill_twin, rtol=1e-9, atol=1e-9)
        assert np.allclose(unserved, unserved_twin, rtol=1e-9, atol=1e-9)

    for _ in range(30):
        scale = float(rng.uniform(0.5, 4.0))
        eta = float(rng.uniform(0.4, 1.0))
        components = [
            StoreSpec("a", 12.0, 3.0, 2.0, eta),
            StoreSpec("b", 12.0 * scale, 3.0 * scale, 2.0 * scale, eta),
        ]
        merged = merge_equivalent(components)
        values = random_trace_values(rng, 80, scale=5.0)
        merged_result = simulate([merged], values, Policy.value([0.02]))
        weights = [c.capacity_mwh / merged.capacity_mwh for c in components]
        levels = [c.capacity_mwh for c in components]
        merged_unserved = np.diff(merged_result.unserved_cumulative_mwh, prepend=0.0)
        for t in range(len(values)):
            rate = float(merged_result.rates_mw[t, 0])
            for i, c in enumerate(components):
                levels[i] = min(max(levels[i] + weights[i] * rate, 0.0), c.capacity_mwh)
            assert sum(levels) == pytest.approx(
                merged_result.level_traces_mwh[t, 0], rel=1e-9, abs=1e-9
            )
            # Pro-rata split leaves per-store rates within their bounds.
            for i, c in enumerate(components):
                assert -c.output_power_mw - 1e-9 <= weights[i] * rate
                assert weights[i] * rate <= c.efficiency * c.input_power_mw + 1e-9
        assert merged_unserved.sum() == merged_result.total_unserved_mwh
    _report(8, "convention and merge equivalences", True, started,
            detail="60 convention twins + 30 merges")


# --------------------------------------------------------------------------
# Criterion 9: the output-power floor never exceeds simulated unserved energy.
# --------------------------------------------------------------------------


def test_criterion_9_lower_bound_dominance():
    started = time.perf_counter()
    rng = np.random.default_rng(127)
    checked = 0
    for k in range(100):
        n = 1 + k % 3
        fleet = random_fleet(rng, n)
        initial = FleetState(random_levels(rng, fleet))
        values = random_trace_values(rng, 100)
        total_power = sum(f.output_power_mw for f in fleet)
        bound = lower_bound_unserved(values, total_power)
        for policy in (Policy.value(random_lambdas(rng, n)), Policy.ggddf(), Policy.grtef()):
            result = simulate(fleet, values, policy, initial=initial)
            assert np.all(bound <= result.unserved_cumulative_mwh + 1e-6)
            checked += 1
    demand, generation = synthesize(SynthParams(years=0.5, seed=17))
    trace = scale_to_overcapacity(demand, generation, 0.25)
    fleet = [StoreSpec("long", 3e5, 700.0, 900.0, 0.4)]
    result = simulate(fleet, trace, Policy.value([1e-3]))
    bound = lower_bound_unserved(trace, 700.0)
    assert np.all(bound <= result.unserved_cumulative_mwh + 1e-6)
    _report(9, "lower-bound dominance", True, started, detail=f"{checked + 1} runs")
