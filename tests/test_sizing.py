import math
from dataclasses import replace

import numpy as np
import pytest

from storefleet import sizing
from storefleet.engine import SimResult, lower_bound_unserved, simulate
from storefleet.fleet import FleetState, LossConvention, StoreSpec
from storefleet.policies import Policy
from storefleet.sizing import (
    Infeasible,
    ReliabilityStandard,
    SizingOptions,
    StorePrices,
    check_reliability,
    cost_report,
    fleet_cost,
    min_required_output_power,
    min_single_store_capacity,
    optimize_fleet,
    optimize_single_store,
    parse_decay_grid,
    tune_lambdas,
    _bisect_min,
    _lambda_combos,
    _meets_standard,
    _shortfall,
)
from storefleet.traces import SynthParams, scale_to_overcapacity, synthesize

from oracles import (
    brute_min_capacity,
    random_fleet,
    random_lambdas,
    random_levels,
    random_trace_values,
    record_search,
    search_calls,
    skipped_corners,
)

HYDROGEN = StorePrices(0.8, 429.0, 858.0)
ACAES = StorePrices(9.0, 200.0, 200.0)
LIION = StorePrices(100.0, 0.0, 180.0)


class TestFleetCost:
    def test_single_long_store_costs(self):
        # 120.4 TWh / 115.9 GW / 80 GW hydrogen store.
        breakdown = fleet_cost([(120.4e6, 115.9e3, 80.0e3)], [HYDROGEN])
        cost = breakdown.per_store[0]
        assert cost.capacity_usd / 1e9 == pytest.approx(96.3, abs=0.05)
        assert cost.output_power_usd / 1e9 == pytest.approx(49.7, abs=0.05)
        assert cost.input_power_usd / 1e9 == pytest.approx(68.6, abs=0.05)
        assert breakdown.total_usd / 1e9 == pytest.approx(214.7, abs=0.05)

    def test_medium_store_costs(self):
        breakdown = fleet_cost([(2.5e6, 21.0e3, 21.1e3)], [ACAES])
        cost = breakdown.per_store[0]
        assert cost.capacity_usd / 1e9 == pytest.approx(22.5, abs=0.05)
        assert cost.output_power_usd / 1e9 == pytest.approx(4.2, abs=0.05)
        assert cost.input_power_usd / 1e9 == pytest.approx(4.2, abs=0.05)
        assert breakdown.total_usd / 1e9 == pytest.approx(30.9, abs=0.05)

    def test_zero_dims_cost_nothing(self):
        assert fleet_cost([(0.0, 0.0, 0.0)], [HYDROGEN]).total_usd == 0.0

    def test_linear_in_scale(self):
        dims = [(1.5e5, 2.0e3, 3.0e3)]
        base = fleet_cost(dims, [ACAES]).total_usd
        scaled = fleet_cost([(4.5e5, 6.0e3, 9.0e3)], [ACAES]).total_usd
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_total_is_sum_of_components(self):
        breakdown = fleet_cost([(1e5, 2e3, 3e3), (2e5, 1e3, 1e3)], [HYDROGEN, ACAES])
        assert breakdown.total_usd == pytest.approx(
            sum(c.total_usd for c in breakdown.per_store), rel=1e-15
        )

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError):
            StorePrices(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", range(3))
    def test_non_finite_prices_rejected(self, bad, field):
        prices = [1.0, 2.0, 3.0]
        prices[field] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StorePrices(*prices)


def _result_with_unserved(total_mwh: float) -> SimResult:
    return SimResult(
        unserved_cumulative_mwh=np.array([total_mwh]),
        spill_cumulative_mwh=np.array([0.0]),
        level_traces_mwh=np.zeros((1, 1)),
        rates_mw=np.zeros((1, 1)),
        served_external_mwh=np.zeros(1),
        cross_charged_mwh=0.0,
        final_state=FleetState((0.0,)),
    )


class TestReliabilityStandard:
    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="nonnegative"):
            ReliabilityStandard(bad)

    def test_infinite_means_no_limit(self):
        standard = ReliabilityStandard(math.inf)
        assert standard.allowance_mwh(2.0) == math.inf
        assert check_reliability(_result_with_unserved(1e12), 1.0, standard)


class TestCheckReliability:
    def test_zero_unserved_passes(self):
        assert check_reliability(_result_with_unserved(0.0), 1.0, ReliabilityStandard(24.0))

    def test_exactly_meeting_the_standard_passes(self):
        # 0.888 TWh over 37 years is exactly 24 GWh per year.
        result = _result_with_unserved(0.888e6)
        assert check_reliability(result, 37.0, ReliabilityStandard(24.0))

    def test_exceeding_fails(self):
        assert not check_reliability(_result_with_unserved(25e3), 1.0, ReliabilityStandard(24.0))


class TestMinSingleStoreCapacity:
    def test_toy_trace_lossless(self):
        e_min, s0_min = min_single_store_capacity([10.0, -4.0, -4.0, -4.0], 1.0, tol_mwh=1e-7)
        assert e_min == pytest.approx(12.0, abs=1e-4)
        assert s0_min == pytest.approx(2.0, abs=1e-4)
        oracle = brute_min_capacity([10.0, -4.0, -4.0, -4.0], 1.0, 0.5, 0.5)
        assert oracle == (12.0, 2.0)

    def test_toy_trace_lossy(self):
        e_min, s0_min = min_single_store_capacity([10.0, -4.0, -4.0, -4.0], 0.25, tol_mwh=1e-7)
        assert e_min == pytest.approx(12.0, abs=1e-4)
        assert s0_min == pytest.approx(9.5, abs=1e-4)
        oracle = brute_min_capacity([10.0, -4.0, -4.0, -4.0], 0.25, 0.5, 0.5)
        assert oracle == (12.0, 9.5)

    def test_no_deficit_needs_no_store(self):
        assert min_single_store_capacity([1.0, 2.0, 0.0], 0.7) == (0.0, 0.0)

    def test_result_is_exact(self):
        rng = np.random.default_rng(61)
        for k in range(20):
            values = rng.uniform(-30, 30, 100)
            eta = float(rng.uniform(0.3, 1.0))
            e_min, s0_min = min_single_store_capacity(values, eta)

            def feasible(capacity, initial):
                level = initial
                for re in values:
                    if re >= 0:
                        level = min(level + eta * re, capacity)
                    else:
                        if level < -re - 1e-9:
                            return False
                        level += re
                return True

            assert e_min > 0.0
            assert feasible(e_min, e_min)
            assert feasible(e_min, s0_min)
            assert not feasible(e_min - 1e-6, e_min - 1e-6)
            if s0_min > 0.0:
                assert not feasible(e_min, s0_min - 1e-6)
            if k < 4:
                step = 1.0
                brute_e, brute_s0 = brute_min_capacity(values, eta, step, step)
                assert brute_e - step <= e_min <= brute_e + 1e-9
                assert brute_s0 - step <= s0_min <= brute_s0 + 1e-9

    def test_shortfall_is_largest_beyond_slack(self):
        # Levels 4 -> -1 (1 short) -> 2 -> -4 (4 short): the level is
        # followed on below zero, and raising by 4 serves every hour.
        assert _shortfall([-5.0, 3.0, -6.0], 1.0, 10.0, 4.0) == 4.0
        assert _shortfall([-5.0, 3.0, -6.0], 1.0, 14.0, 8.0) == 0.0
        assert _shortfall([-5.0], 1.0, 10.0, 5.0 - 1e-10) == 0.0  # within the 1e-9 slack

    def test_rounding_shortfall_is_repaired(self):
        # A 2-year synthetic trace (seed 9) at overcapacity 0.1474 and
        # efficiency 0.4: the sequent-peak store, 1449077.9864164828 MWh,
        # comes out about 1.2e-9 MWh (5 ulps) short in the forward pass.
        demand, generation = synthesize(SynthParams(
            years=2.0, seed=9, diurnal_amp=0.30, weekly_amp=0.05, seasonal_amp=0.12,
            ar_coeff=0.97, noise_sd=0.18, solar_share=0.35,
        ))
        trace = scale_to_overcapacity(demand, generation, 0.1474)
        raw_peak = 1449077.9864164828
        values = trace.values_mw.tolist()
        assert _shortfall(values, 0.4, raw_peak, raw_peak) > 0.0
        e_min, s0_min = min_single_store_capacity(trace, 0.4)
        assert _shortfall(values, 0.4, e_min, s0_min) == 0.0
        assert raw_peak < e_min < raw_peak + 1e-8
        assert raw_peak < s0_min <= e_min

    def test_nonincreasing_in_efficiency(self):
        rng = np.random.default_rng(67)
        values = rng.uniform(-40, 60, 300)
        sizes = [
            min_single_store_capacity(values, eta, tol_mwh=0.01)[0] for eta in (0.4, 0.7, 0.9)
        ]
        assert sizes[0] >= sizes[1] - 0.05 >= sizes[2] - 0.10


class TestBisectMin:
    def test_tolerance_below_float_spacing_terminates(self):
        # No float lies strictly between 1.0 and its successor, so a
        # tolerance of 1e-300 cannot be met; the search stops there.
        assert _bisect_min(lambda x: x >= 1.0, 0.0, 3.0, 1e-300) == 1.0

    def test_give_up_stops_on_the_unbounded_path(self):
        def run(give_up):
            mids = []

            def feasible(x):
                mids.append(x)
                return x >= 0.3

            return _bisect_min(feasible, 0.0, 1.0, 1e-3, give_up), mids

        answer, path = run(math.inf)
        assert answer == pytest.approx(0.3, abs=1e-3)
        # 0.25 is the first lower end at or above 0.2; 0.3 is never reached.
        for give_up, last_lo in ((0.2, 0.25), (0.25, 0.25), (0.3, None)):
            stopped, mids = run(give_up)
            assert mids == path[: len(mids)]
            if last_lo is None:
                assert stopped == answer and mids == path
            else:
                assert stopped is None and mids[-1] == last_lo


class TestSizingOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("e_tol_mwh", 0.0), ("e_tol_mwh", -1.0), ("p_tol_mw", 0), ("p_tol_mw", math.inf),
            ("q_grid_lo_factor", "x"), ("q_grid_lo_factor", math.nan), ("e_tol_mwh", None),
            ("q_grid_points", 2.5), ("q_grid_points", math.inf), ("q_grid_points", 0),
            ("p_grid_points", "2"), ("p_grid_points", -1), ("long_store_name", ["long"]),
            ("lambda_grid", ()), ("lambda_grid", ((),)), ("lambda_grid", (0.1, (0.2,))),
            ("lambda_grid", (-1.0,)), ("lambda_grid", ((0.1,), (math.inf,))),
            ("lambda_grid", "0.1"), ("lambda_grid", {"long": (0.1,)}), ("lambda_grid", (None,)),
        ],
    )
    def test_bad_field_raises_value_error(self, field, value):
        with pytest.raises(ValueError, match=f"{field}|decay rates must be finite"):
            SizingOptions(**{field: value})

    def test_grid_is_stored_sorted_as_floats(self):
        assert SizingOptions(lambda_grid=[0.1, 0, 0.01]).lambda_grid == (0.0, 0.01, 0.1)
        assert SizingOptions(lambda_grid=[[0.1, 0], np.array([3, 1])]).lambda_grid == (
            (0.0, 0.1), (1.0, 3.0)
        )


class TestDecayGrid:
    def test_one_parser_for_both_searches(self):
        fleet = [StoreSpec("a", 50, 5, 5, 0.9), StoreSpec("b", 20, 10, 10, 0.5)]
        values = np.random.default_rng(79).uniform(-20, 15, 100)
        for bad in ([], [[]], [0.1, [0.2]], [-1.0]):
            with pytest.raises(ValueError):
                parse_decay_grid(bad)
            with pytest.raises(ValueError):
                tune_lambdas(fleet, values, bad)
            with pytest.raises(ValueError):
                SizingOptions(lambda_grid=bad)

    def test_extra_per_store_lists_go_unused(self):
        # List i applies to store i, as in optimize_fleet; a third list
        # for a two-store fleet is ignored.
        fleet = [StoreSpec("a", 50, 5, 5, 0.9), StoreSpec("b", 20, 10, 10, 0.5)]
        values = np.random.default_rng(79).uniform(-20, 15, 100)
        grid = [[0.03, 0.0], [0.3, 0.003]]
        assert tune_lambdas(fleet, values, grid + [[5.0]]) == tune_lambdas(fleet, values, grid)
        with pytest.raises(ValueError, match="1 per-store decay grids for 2 stores"):
            tune_lambdas(fleet, values, grid[:1])


class TestEarlyStop:
    def test_meets_standard_matches_full_run(self):
        rng = np.random.default_rng(83)
        decided = {True: 0, False: 0}
        for _ in range(40):
            fleet = random_fleet(rng, int(rng.integers(1, 4)))
            values = random_trace_values(rng, 150)
            lambdas = random_lambdas(rng, len(fleet))
            initial = FleetState(random_levels(rng, fleet))
            full = simulate(fleet, values, Policy.value(lambdas), initial=initial)
            years = len(values) / 8760.0
            # Standards around the run's own cumulative unserved energy, so
            # the run stops early, at the last hour, or not at all.
            cum = full.unserved_cumulative_mwh
            picks = [0.0, float(cum[len(cum) // 2]), full.total_unserved_mwh,
                     2.0 * full.total_unserved_mwh + 1.0]
            for allowance in picks:
                standard = ReliabilityStandard(allowance / 1e3 / years)
                expected = check_reliability(full, years, standard)
                assert _meets_standard(fleet, values, lambdas, standard, initial) == expected
                decided[expected] += 1
        assert decided[True] > 0 and decided[False] > 0


def _big_store(output_mw=1e6):
    return StoreSpec("big", 1e7, output_mw, 1e6, 1.0)


class TestMinRequiredOutputPower:
    def test_peak_demand_binds(self):
        trace = [-7.0, -3.0, 5.0, -2.0]
        p_star = min_required_output_power(
            trace, [_big_store()], ReliabilityStandard(0.0), tol_mw=1e-6
        )
        assert p_star == pytest.approx(7.0, abs=1e-4)

    def test_no_demand_needs_no_power(self):
        assert min_required_output_power([1.0, 0.0], [_big_store()], ReliabilityStandard(0.0)) == 0.0

    def test_relaxing_standard_never_raises_power(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            values = rng.uniform(-50, 20, 120)
            template = [_big_store()]
            previous = math.inf
            for gwh in (0.0, 0.5, 2.0, 10.0):
                p = min_required_output_power(
                    values, template, ReliabilityStandard(gwh), tol_mw=0.01
                )
                assert p <= previous + 0.05
                previous = p

    def test_sizes_the_first_store_and_holds_the_others(self):
        # The companion's 5 MW covers part of the 7 MW peak; the first
        # store's own output power in the fleet is ignored.
        trace = [-7.0, -3.0, 5.0, -2.0]
        companion = StoreSpec("c", 1e7, 5.0, 1e6, 1.0)
        for first in (_big_store(), _big_store(output_mw=1e-3)):
            p_star = min_required_output_power(
                trace, [first, companion], ReliabilityStandard(0.0), tol_mw=1e-6
            )
            assert p_star == pytest.approx(2.0, abs=1e-4)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one store"):
            min_required_output_power([-1.0], [], ReliabilityStandard(0.0))

    def test_energy_shortage_is_infeasible(self):
        starved = StoreSpec("small", 50.0, 1e3, 1e3, 1.0)
        with pytest.raises(Infeasible):
            min_required_output_power([-10.0] * 20, [starved], ReliabilityStandard(0.0))


def _cycle_trace(cycles=3):
    values = []
    for _ in range(cycles):
        values.append(100.0)
        values.extend([-10.0] * 10)
    return values


class TestOptimizeSingleStore:
    def test_no_deficit_gives_zero_dims(self):
        result = optimize_single_store(
            [5.0, 3.0], HYDROGEN, ReliabilityStandard(0.0), 0.4
        )
        assert result.total_cost_usd == 0.0
        assert result.fleet[0].capacity_mwh == 0.0

    def test_free_input_power_drives_q_to_grid_max(self):
        # E_min(Q) = max(100, 300 - 2Q) on the cycle trace, so with free
        # input power the cheapest corner is the largest Q on the grid.
        prices = StorePrices(0.8, 429.0, 0.0)
        options = SizingOptions(q_grid_points=8, e_tol_mwh=0.01, p_tol_mw=0.001)
        result = optimize_single_store(
            _cycle_trace(), prices, ReliabilityStandard(0.0), 1.0, options
        )
        assert result.fleet[0].input_power_mw == pytest.approx(100.0, rel=1e-9)
        assert result.fleet[0].capacity_mwh == pytest.approx(100.0, abs=0.1)

    def test_matches_exhaustive_grid_oracle(self):
        options = SizingOptions(q_grid_points=8, e_tol_mwh=0.05, p_tol_mw=0.001)
        standard = ReliabilityStandard(0.0)
        result = optimize_single_store(_cycle_trace(), HYDROGEN, standard, 1.0, options)

        values = _cycle_trace()

        def oracle_e_min(q):
            lo, hi = 0.0, 300.0

            def feasible(capacity):
                level = capacity
                for re in values:
                    if re >= 0:
                        level = min(level + min(re, q), capacity)
                    else:
                        if level < -re - 1e-9:
                            return False
                        level += re
                return True

            if not feasible(hi):
                return None
            while hi - lo > 0.01:
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            return hi

        q_grid = [
            max(0.1 * np.mean([v for v in values if v > 0]), 1e-9)
            * ((100.0 / max(0.1 * np.mean([v for v in values if v > 0]), 1e-9)) ** (k / 7))
            for k in range(8)
        ]
        best = math.inf
        p_star = 10.0
        for q in q_grid:
            e = oracle_e_min(q)
            if e is None:
                continue
            cost = fleet_cost([(e, p_star, q)], [HYDROGEN]).total_usd
            best = min(best, cost)
        assert result.total_cost_usd == pytest.approx(best, abs=2e3)
        assert result.annual_unserved_gwh == 0.0

    def test_reported_dims_meet_standard_when_resimulated(self):
        options = SizingOptions(q_grid_points=6, e_tol_mwh=0.05, p_tol_mw=0.01)
        standard = ReliabilityStandard(0.0)
        result = optimize_single_store(_cycle_trace(), HYDROGEN, standard, 0.7, options)
        # The result holds servable capacities: the report gives them in
        # the split convention, and in the input convention converts the
        # split figure back to servable energy.
        sized = result.fleet[0]
        split = sized.capacity_mwh * 0.7**-0.5
        servable = split * 0.7**0.5
        for convention, capacity in ((LossConvention.SPLIT_SQRT, split),
                                     (LossConvention.INPUT_SIDE, servable)):
            report = cost_report(result.fleet, [HYDROGEN], "single", convention)
            assert report["stores"][0]["capacity_mwh"] == capacity
            assert report["total_cost_usd"] == result.total_cost_usd
        store = StoreSpec("s", servable, sized.output_power_mw, sized.input_power_mw, 0.7)
        sim = simulate([store], _cycle_trace(), Policy.value([0.0]))
        years = len(_cycle_trace()) / 8760.0
        assert check_reliability(sim, years, standard)


class TestTuneLambdas:
    def test_single_store_ties_give_lexicographic_minimum(self):
        store = StoreSpec("s", 100.0, 10.0, 10.0, 0.8)
        params = tune_lambdas([store], [-5.0, 2.0, -4.0], [0.0, 0.01, 0.1])
        assert params.lambdas_per_hour == (0.0,)

    def test_two_store_grid_minimum_is_attained(self):
        fleet = [StoreSpec("a", 50, 5, 5, 0.9), StoreSpec("b", 20, 10, 10, 0.5)]
        rng = np.random.default_rng(73)
        values = rng.uniform(-20, 15, 200)
        grid = [0.0, 0.003, 0.03, 0.3]
        params = tune_lambdas(fleet, values, grid)
        best = simulate(fleet, values, Policy.value(params.lambdas_per_hour)).total_unserved_mwh
        for la in grid:
            for lb in grid:
                ue = simulate(fleet, values, Policy.value((la, lb))).total_unserved_mwh
                assert best <= ue + 1e-9

    def test_rate_bound_only_trace_hits_lower_bound(self):
        store = StoreSpec("s", 1e6, 6.0, 1e5, 0.9)
        values = [-10.0, 3.0, -8.0, -2.0, 4.0]
        params = tune_lambdas([store], values, [0.0, 0.01])
        assert params.lambdas_per_hour == (0.0,)
        ue = simulate([store], values, Policy.value(params.lambdas_per_hour)).total_unserved_mwh
        assert ue == pytest.approx(float(lower_bound_unserved(values, 6.0)[-1]), abs=1e-9)


class TestOptimizeFleet:
    def test_degenerate_grid_reduces_to_single_store(self):
        options = SizingOptions(q_grid_points=6, e_tol_mwh=0.05, p_tol_mw=0.01)
        standard = ReliabilityStandard(0.0)
        single = optimize_single_store(_cycle_trace(), HYDROGEN, standard, 0.7, options)
        fleet_result = optimize_fleet(
            _cycle_trace(), {"long": HYDROGEN}, standard, [()], 0.7, options
        )
        assert fleet_result.total_cost_usd == pytest.approx(single.total_cost_usd, rel=1e-12)
        assert fleet_result.fleet[0].capacity_mwh == pytest.approx(
            single.fleet[0].capacity_mwh, rel=1e-9
        )
        assert fleet_result.lambdas_per_hour == single.lambdas_per_hour

    def test_superset_grid_never_costs_more(self):
        options = SizingOptions(
            q_grid_points=5, e_tol_mwh=0.05, p_tol_mw=0.01, lambda_grid=(0.0, 0.01)
        )
        standard = ReliabilityStandard(0.0)
        medium = StoreSpec("medium", 30.0, 5.0, 5.0, 0.9)
        single = optimize_fleet(
            _cycle_trace(), {"long": HYDROGEN, "medium": ACAES}, standard, [()], 0.6, options
        )
        both = optimize_fleet(
            _cycle_trace(),
            {"long": HYDROGEN, "medium": ACAES},
            standard,
            [(), (medium,)],
            0.6,
            options,
        )
        assert both.total_cost_usd <= single.total_cost_usd + 1e-9

    def test_missing_prices_rejected(self):
        with pytest.raises(KeyError):
            optimize_fleet(_cycle_trace(), {}, ReliabilityStandard(0.0), [()], 0.5)

    @pytest.mark.parametrize("efficiency", [0.0, -0.4, 1.5, math.nan, math.inf])
    def test_efficiency_outside_unit_interval_rejected_first(self, efficiency):
        standard = ReliabilityStandard(0.0)
        with pytest.raises(ValueError, match="efficiency must lie in"):
            optimize_fleet(_cycle_trace(), {"long": HYDROGEN}, standard, [()], efficiency)
        # Before the grid and the prices are looked at.
        with pytest.raises(ValueError, match="efficiency must lie in"):
            optimize_fleet(_cycle_trace(), {}, standard, [], efficiency)


def _random_sizing_instance(rng, free_capacity: bool):
    """A small fleet search: (trace, costs, standard, grid, efficiency, options)."""
    hours = int(rng.integers(150, 300))
    values = rng.uniform(-40.0, 80.0, hours)
    deficit_mwh = float(np.sum(np.maximum(0.0, -values)))
    # Allow up to a fifth of the deficit unserved, so the standard binds.
    standard = ReliabilityStandard(
        float(rng.uniform(0.0, 0.2)) * deficit_mwh / 1e3 / (hours / 8760.0)
    )
    capacity_price = 0.0 if free_capacity else float(rng.uniform(0.5, 10.0))
    costs = {"long": StorePrices(capacity_price, float(rng.uniform(0.0, 500.0)),
                                 float(rng.uniform(0.0, 900.0)))}
    grid = [()]
    for k in range(int(rng.integers(0, 3))):
        name = f"c{k}"
        costs[name] = StorePrices(*(float(x) for x in rng.uniform(0.0, 300.0, 3)))
        grid.append((StoreSpec(name, float(rng.uniform(10.0, 300.0)), float(rng.uniform(5.0, 40.0)),
                               float(rng.uniform(5.0, 40.0)), float(rng.uniform(0.6, 0.95))),))
    if len(grid) > 1 and rng.random() < 0.5:
        # A near twin of the last companion: close totals test the bound hardest.
        twin = grid[-1][0]
        grid.append((replace(twin, capacity_mwh=twin.capacity_mwh * float(rng.uniform(0.9, 1.1))),))
    grid = [grid[i] for i in rng.permutation(len(grid))]
    companion_rates = rng.choice([0.0, 0.01, 0.1], int(rng.integers(1, 3)), replace=False)
    options = SizingOptions(
        q_grid_points=int(rng.integers(2, 4)),
        e_tol_mwh=deficit_mwh / 200.0,
        p_tol_mw=2.0,
        p_grid_points=int(rng.integers(1, 3)),
        lambda_grid=((1e-3,), tuple(float(x) for x in companion_rates)),
    )
    return values, costs, standard, grid, float(rng.uniform(0.4, 0.95)), options


def _unbounded_searches(values, costs, standard, grid, efficiency, options):
    """The fleet search with no outside bound, once per (grid entry, decay combo).

    Each search is ``optimize_fleet`` on the one entry and the one combo;
    None where it is infeasible.
    """
    results = []
    for entry in grid:
        for lambdas in _lambda_combos(options.lambda_grid, 1 + len(entry)):
            single = replace(options, lambda_grid=tuple((rate,) for rate in lambdas))
            try:
                results.append(optimize_fleet(values, costs, standard, [entry], efficiency, single))
            except Infeasible:
                results.append(None)
    return results


def _exhaustive_search(values, costs, standard, grid, efficiency, options):
    """The fleet search with no cost bound at all, written out.

    Every corner of every (grid entry, decay combo) is bisected in full,
    with the same brackets as the package's search.  Returns the total,
    the fleet and the decay rates of the first strictly cheapest
    corner, or None if no corner meets the standard.
    """
    capacity_big = max(float(np.sum(np.maximum(0.0, -values))), 1.0)
    input_big = max(float(np.max(values, initial=0.0)), 1.0)
    peak = float(np.max(np.maximum(0.0, -values), initial=0.0))
    best = None
    for entry in grid:
        prices = [costs["long"], *(costs[s.name] for s in entry)]
        for lambdas in _lambda_combos(options.lambda_grid, 1 + len(entry)):
            def fleet(capacity, output, input_):
                return [StoreSpec("long", capacity, max(output, 1e-9), input_, efficiency), *entry]

            def feasible(capacity, output, input_):
                return _meets_standard(fleet(max(capacity, 1e-9), output, input_), values,
                                       lambdas, standard)

            if not feasible(capacity_big, peak, input_big):
                continue
            p_min = 1e-9
            if not feasible(capacity_big, 0.0, input_big):
                p_min = max(_bisect_min(lambda p: feasible(capacity_big, p, input_big), 0.0, peak,
                                        options.p_tol_mw), 1e-9)
            p_values = [p_min]
            if entry and options.p_grid_points > 1 and peak > p_min:
                k = options.p_grid_points
                p_values = [p_min + (peak - p_min) * j / (k - 1) for j in range(k)]
            for p in p_values:
                for q in sizing._q_grid(values, options):
                    if not feasible(capacity_big, p, q):
                        continue
                    e = _bisect_min(lambda c: feasible(c, p, q), 0.0, capacity_big, options.e_tol_mwh)
                    total = sizing.price_stores(fleet(e, p, q), prices)
                    if best is None or total < best[0]:
                        best = (total, tuple(fleet(e, p, q)), lambdas)
    return best


def _first_strictly_cheapest(results):
    best = None
    for result in results:
        if result is not None and (best is None or result.total_cost_usd < best.total_cost_usd):
            best = result
    return best


class TestCostBound:
    def test_answers_equal_the_unbounded_search(self, monkeypatch):
        events = record_search(monkeypatch)
        rng = np.random.default_rng(2024)
        skipped = abandoned = 0
        for k in range(12):
            instance = _random_sizing_instance(rng, free_capacity=k % 3 == 0)
            expected = _first_strictly_cheapest(_unbounded_searches(*instance))
            exhaustive = _exhaustive_search(*instance)
            events.clear()
            if expected is None:
                assert exhaustive is None
                with pytest.raises(Infeasible):
                    optimize_fleet(*instance)
                continue
            result = optimize_fleet(*instance)
            assert result == expected
            assert (result.total_cost_usd, result.fleet, result.lambdas_per_hour) == exhaustive
            skipped += sum(map(skipped_corners, search_calls(events)))
            abandoned += events.count("abandon")
        # The instances must exercise both ways of cutting a corner short.
        assert skipped > 0 and abandoned > 0

    def test_searches_after_the_winner_make_fewer_simulate_calls(self, monkeypatch):
        # This draw's first search (the long store alone) wins; two searches
        # with a companion follow it.
        instance = _random_sizing_instance(np.random.default_rng(26), free_capacity=False)
        events = record_search(monkeypatch)
        unbounded = _unbounded_searches(*instance)
        checks = [call.count("check") for call in search_calls(events)]
        events.clear()
        result = optimize_fleet(*instance)
        calls = search_calls(events)
        assert result == unbounded[0] == _first_strictly_cheapest(unbounded)
        # One full simulation, of the winner, ends the whole search.
        assert events.count("final") == 1 and events[-1] == "final"
        bounded = [call.count("check") for call in calls]
        assert len(bounded) == 3 and bounded[0] == checks[0]
        assert all(b < s for b, s in zip(bounded[1:], checks[1:]))
        assert sum(map(skipped_corners, calls)) > 0 and events.count("abandon") > 0

    def test_a_tied_corner_never_replaces_the_best(self, monkeypatch):
        # Two companions alike in all but name, and free long-store
        # capacity: the second entry's corners cost exactly what the
        # first's did, so each is skipped and the first entry stays best.
        values = [80.0] * 3 + [-30.0] * 5 + [60.0] * 4 + [-25.0] * 6
        costs = {"long": StorePrices(0.0, 429.0, 858.0), "a": ACAES, "b": ACAES}
        grid = [(StoreSpec(name, 40.0, 10.0, 10.0, 0.8),) for name in ("a", "b")]
        options = SizingOptions(q_grid_points=3, e_tol_mwh=1.0, p_tol_mw=0.5, lambda_grid=(1e-3,))
        events = record_search(monkeypatch)
        result = optimize_fleet(values, costs, ReliabilityStandard(0.0), grid, 0.5, options)
        first, second = search_calls(events)
        assert [s.name for s in result.fleet] == ["long", "a"]
        assert "cost0" in second and "check" not in second[second.index("cost0"):]
        # The first entry's search, replayed under the name "b", costs the same.
        twin = optimize_fleet(values, costs, ReliabilityStandard(0.0), [grid[1]], 0.5, options)
        assert twin.total_cost_usd == result.total_cost_usd

    def test_lower_bracket_exactly_at_the_threshold_is_not_abandoned(self, monkeypatch):
        # Exact arithmetic: 1000 USD per MWh of capacity, free power, a
        # 1024 MWh capacity bracket and a bound of 512e3 USD put the
        # capacity threshold exactly on the first lower end, 512 MWh.
        # The margin that covers rounding in the price keeps the search
        # going there, until the lower end passes the threshold.  The
        # bound is the first entry's answer: the long store alone meets
        # the standard from 512 MWh on, which bisects to exactly 512 MWh.
        # With the free companion it needs 600 MWh.
        checked = []

        def meets(fleet, trace, lambdas, standard, initial=None):
            if len(fleet) == 1:
                return fleet[0].capacity_mwh >= 512.0
            checked.append(fleet[0].capacity_mwh)
            return fleet[0].capacity_mwh >= 600.0

        monkeypatch.setattr(sizing, "_meets_standard", meets)
        options = SizingOptions(q_grid_points=1, e_tol_mwh=1.0, p_tol_mw=1.0, lambda_grid=(0.0,))
        costs = {"long": StorePrices(1.0, 0.0, 0.0), "free": StorePrices(0.0, 0.0, 0.0)}
        grid = [(), (StoreSpec("free", 1.0, 1.0, 1.0, 1.0),)]
        result = optimize_fleet([-512.0, 100.0, -512.0], costs, ReliabilityStandard(0.0), grid,
                                1.0, options)
        assert result.total_cost_usd == 512e3 and [s.name for s in result.fleet] == ["long"]
        # Two power checks at full capacity, then the corner.
        assert checked[2:] == [1024.0, 512.0, 768.0, 640.0, 576.0]


class TestOneSearch:
    def test_one_full_simulation_ends_the_search(self, monkeypatch):
        # Three of this draw's five (entry, combo) searches beat the best
        # so far in turn; only the last winner is simulated in full.
        instance = _random_sizing_instance(np.random.default_rng(15), free_capacity=False)
        best = math.inf
        improvements = 0
        for result in _unbounded_searches(*instance):
            if result is not None and result.total_cost_usd < best:
                best = result.total_cost_usd
                improvements += 1
        assert improvements == 3
        events = record_search(monkeypatch)
        result = optimize_fleet(*instance)
        assert result.total_cost_usd == best
        assert events.count("final") == 1 and events[-1] == "final"

    @pytest.mark.parametrize("trace", [_cycle_trace(), [5.0, 3.0]], ids=["deficit", "no-deficit"])
    def test_grid_errors_come_before_any_simulation(self, monkeypatch, trace):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the grid was checked")

        monkeypatch.setattr(sizing, "simulate", no_simulation)
        companion = StoreSpec("medium", 40.0, 10.0, 10.0, 0.8)
        grid = [(), (companion,)]
        standard = ReliabilityStandard(0.0)
        with pytest.raises(KeyError, match="no prices for store 'medium'"):
            optimize_fleet(trace, {"long": HYDROGEN}, standard, grid, 0.5)
        short = SizingOptions(lambda_grid=((0.0, 1e-3),))
        with pytest.raises(ValueError, match="1 per-store decay grids for 2 stores"):
            optimize_fleet(trace, {"long": HYDROGEN, "medium": ACAES}, standard, grid, 0.5, short)
