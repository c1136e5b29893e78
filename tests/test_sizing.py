import math

import numpy as np
import pytest

from storefleet.engine import SimResult, lower_bound_unserved, simulate
from storefleet.fleet import FleetState, LossConvention, StoreSpec
from storefleet.policies import Policy
from storefleet.sizing import (
    Infeasible,
    ReliabilityStandard,
    SizingOptions,
    StorePrices,
    check_reliability,
    cost_report_to_dict,
    fleet_cost,
    min_required_output_power,
    min_single_store_capacity,
    optimize_fleet,
    optimize_single_store,
    parse_decay_grid,
    tune_lambdas,
    _bisect_min,
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
        assert result.stores[0].capacity_mwh == 0.0

    def test_free_input_power_drives_q_to_grid_max(self):
        # E_min(Q) = max(100, 300 - 2Q) on the cycle trace, so with free
        # input power the cheapest corner is the largest Q on the grid.
        prices = StorePrices(0.8, 429.0, 0.0)
        options = SizingOptions(q_grid_points=8, e_tol_mwh=0.01, p_tol_mw=0.001)
        result = optimize_single_store(
            _cycle_trace(), prices, ReliabilityStandard(0.0), 1.0, options
        )
        assert result.stores[0].input_power_mw == pytest.approx(100.0, rel=1e-9)
        assert result.stores[0].capacity_mwh == pytest.approx(100.0, abs=0.1)

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
        sized = result.stores[0]
        servable = sized.capacity_mwh * 0.7**0.5  # back to servable energy
        store = StoreSpec("s", servable, sized.output_power_mw, sized.input_power_mw, 0.7)
        sim = simulate([store], _cycle_trace(), Policy.value([0.0]))
        years = len(_cycle_trace()) / 8760.0
        assert check_reliability(sim, years, standard)
        # The result holds split capacities: the report gives them back
        # as they are, and in the input convention as servable energy.
        for convention, capacity in ((LossConvention.SPLIT_SQRT, sized.capacity_mwh),
                                     (LossConvention.INPUT_SIDE, servable)):
            report = cost_report_to_dict(result.stores, result.total_cost_usd, "single", convention)
            assert report["stores"][0]["capacity_mwh"] == capacity


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
        assert fleet_result.stores[0].capacity_mwh == pytest.approx(
            single.stores[0].capacity_mwh, rel=1e-9
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
