import math
import shutil
import subprocess

import numpy as np
import pytest

from storefleet import engine
from storefleet.engine import (
    InfeasibleInput,
    NotGreedy,
    OverdrawViolation,
    OverserveViolation,
    PolicyTrace,
    greedify,
    lower_bound_unserved,
    simulate,
    unserved_series,
    verify_feasible,
    verify_greedy,
    write_simulation_csv,
)
from storefleet.fleet import (
    SLACK,
    CapacityViolation,
    FleetError,
    FleetState,
    RateViolation,
    StepDecision,
    StoreSpec,
    apply_step,
    full_state,
    imbalance,
    merge_equivalent,
)
from storefleet.policies import Policy

from oracles import (
    random_feasible_rates,
    random_fleet,
    random_lambdas,
    random_levels,
    random_trace_values,
    simulate_split_twin,
)


def one_store(capacity=12.0, output=8.0, input_=10.0, eta=1.0, name="s"):
    return StoreSpec(name, capacity, output, input_, eta)


class TestSimulate:
    def test_full_store_spills(self):
        fleet = [one_store()]
        result = simulate(fleet, [1.0, 1.0], Policy.ggddf())
        assert result.total_unserved_mwh == 0.0
        assert list(result.spill_cumulative_mwh) == [1.0, 2.0]
        assert np.all(result.level_traces_mwh == 12.0)

    def test_store_drains_to_zero(self):
        fleet = [one_store()]
        for policy in (Policy.value([0.01]), Policy.ggddf(), Policy.grtef()):
            result = simulate(fleet, [-4.0, -4.0, -4.0], policy)
            assert result.total_unserved_mwh == 0.0
            assert result.final_state.levels_mwh == (0.0,)

    def test_shortfall_example(self):
        fleet = [one_store(capacity=100, output=8.0)]
        result = simulate(fleet, [-10.0], Policy.ggddf(), initial=FleetState((3.0,)))
        assert list(result.unserved_cumulative_mwh) == [7.0]

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(23)
        fleet = random_fleet(rng, 3)
        values = random_trace_values(rng, 200)
        lambdas = random_lambdas(rng, 3)
        a = simulate(fleet, values, Policy.value(lambdas))
        b = simulate(fleet, values, Policy.value(lambdas))
        assert np.array_equal(a.rates_mw, b.rates_mw)
        assert np.array_equal(a.level_traces_mwh, b.level_traces_mwh)
        assert np.array_equal(a.unserved_cumulative_mwh, b.unserved_cumulative_mwh)
        assert a.final_state == b.final_state

    def test_empty_trace_rejected(self):
        with pytest.raises(Exception):
            simulate([one_store()], [], Policy.ggddf())

    def test_custom_callable_policy(self):
        seen_hours = []

        def idle(state, re, fleet):
            seen_hours.append(state.time_index)
            return StepDecision((0.0,) * len(fleet), spill_mwh=max(re, 0.0),
                                unserved_mwh=max(-re, 0.0))

        fleet = [one_store()]
        result = simulate(fleet, [2.0, -3.0], idle, initial=FleetState((5.0,)))
        assert seen_hours == [0, 1]
        assert result.total_spill_mwh == 2.0
        assert result.total_unserved_mwh == 3.0
        assert result.final_state.levels_mwh == (5.0,)

    @pytest.mark.parametrize("count", [1, 3])
    def test_callable_policy_with_wrong_rate_count_rejected(self, count):
        def wrong(state, re, fleet):
            return StepDecision((0.0,) * count)

        fleet = [one_store(name="a"), one_store(name="b")]
        with pytest.raises(FleetError, match=f"{count} rates for 2 stores"):
            simulate(fleet, [0.0, 0.0], wrong)

    def test_served_and_cross_charge_accounting(self):
        # A discharges 15: 5 meets demand, 10 feeds B (gaining 9).
        fleet = [StoreSpec("A", 200, 50, 50, 0.4), StoreSpec("B", 10, 10, 20, 0.9)]
        initial = FleetState((100.0, 1.0))
        result = simulate(fleet, [-5.0], Policy.value([1.0, 0.1]), initial=initial)
        assert result.cross_charged_mwh == pytest.approx(10.0)
        assert result.served_external_mwh[0] == pytest.approx(5.0)
        assert result.served_external_mwh[1] == 0.0
        assert result.final_state.levels_mwh == (pytest.approx(85.0), pytest.approx(10.0))

    def test_cross_charge_on_surplus_hours_counted(self):
        # Nearly-full low-value store drains into an empty efficient one
        # even while surplus is arriving.
        fleet = [StoreSpec("A", 10, 5, 5, 0.5), StoreSpec("B", 50, 10, 2, 0.9)]
        initial = FleetState((10.0, 0.0))
        result = simulate(fleet, [0.0], Policy.value([5.0, 0.0]), initial=initial)
        assert result.cross_charged_mwh > 0.0
        assert result.total_unserved_mwh == 0.0

    def test_stopped_run_is_prefix_of_full_run(self):
        rng = np.random.default_rng(89)
        stopped_early = 0
        for _ in range(20):
            fleet = random_fleet(rng, int(rng.integers(1, 4)))
            values = random_trace_values(rng, 120)
            policy = Policy.value(random_lambdas(rng, len(fleet)))
            initial = FleetState(random_levels(rng, fleet), time_index=7)
            full = simulate(fleet, values, policy, initial=initial)
            cum = full.unserved_cumulative_mwh
            for limit in (0.0, float(cum[len(cum) // 3]), full.total_unserved_mwh):
                stopped = simulate(fleet, values, policy, initial=initial, unserved_limit_mwh=limit)
                over = np.flatnonzero(cum > limit)
                hours = int(over[0]) + 1 if len(over) else len(values)
                stopped_early += hours < len(values)
                assert np.array_equal(stopped.unserved_cumulative_mwh, cum[:hours])
                assert np.array_equal(stopped.spill_cumulative_mwh, full.spill_cumulative_mwh[:hours])
                assert np.array_equal(stopped.level_traces_mwh, full.level_traces_mwh[:hours])
                assert np.array_equal(stopped.rates_mw, full.rates_mw[:hours])
                assert stopped.final_state == FleetState(
                    tuple(full.level_traces_mwh[hours - 1]), 7 + hours
                )
                if hours == len(values):
                    assert np.array_equal(stopped.served_external_mwh, full.served_external_mwh)
                    assert stopped.cross_charged_mwh == full.cross_charged_mwh
        assert stopped_early > 0


class TestLowerBound:
    def test_power_sufficient(self):
        assert list(lower_bound_unserved([-5.0], 10.0)) == [0.0]

    def test_only_first_hour_binds(self):
        assert list(lower_bound_unserved([-15.0, -3.0], 10.0)) == [5.0, 5.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_hour_is_named(self, bad):
        # max(0, -nan - P) is NaN, which would poison every later hour.
        with pytest.raises(FleetError, match=f"trace hour 1 is {bad}"):
            lower_bound_unserved([-15.0, bad, -3.0], 10.0)

    def test_bounds_every_simulation(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            fleet = random_fleet(rng, n)
            values = random_trace_values(rng, 80)
            result = simulate(fleet, values, Policy.value(random_lambdas(rng, n)))
            bound = lower_bound_unserved(values, sum(f.output_power_mw for f in fleet))
            assert np.all(bound <= result.unserved_cumulative_mwh + 1e-6)


def _bound_probe_schedule(rng, fleet, levels, steps):
    """Rates drawn around each store's box, some past it by rate or by level.

    Each entry is a random rate up to 1.3x the bound on either side, or
    one that lands just inside or just outside the SLACK band around a
    rate bound or around a full or empty level.
    """
    levels = list(levels)
    rows = []
    for _ in range(steps):
        row = []
        for i, f in enumerate(fleet):
            kind = rng.integers(6)
            past = float(rng.choice([0.5, 1.5])) * SLACK
            if kind == 0:
                r = f.capacity_mwh - levels[i] + past
            elif kind == 1:
                r = -levels[i] - past
            elif kind == 2 and math.isfinite(f.input_power_mw):
                r = f.efficiency * f.input_power_mw + past
            elif kind == 3 and math.isfinite(f.output_power_mw):
                r = -f.output_power_mw - past
            else:
                lo = min(f.output_power_mw, f.capacity_mwh)
                hi = min(f.efficiency * f.input_power_mw, f.capacity_mwh)
                r = float(rng.uniform(-1.3 * lo, 1.3 * hi))
            row.append(r)
            levels[i] = min(max(levels[i] + r, 0.0), f.capacity_mwh)
        rows.append(row)
    return rows


def _verdict(run):
    try:
        return ("ok", run())
    except (RateViolation, CapacityViolation) as exc:
        return (type(exc), exc.time_index, exc.store)


class TestSimulateBoundCheck:
    def test_inline_check_agrees_with_apply_step(self):
        # simulate's Python loop steps each hour through apply_step's own
        # rate and level check, bound once per run; both must reject the
        # same hour and store, and give the same clamped levels when
        # nothing is violated.
        rng = np.random.default_rng(101)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 4))
            fleet = random_fleet(rng, n, infinite_output=bool(rng.random() < 0.2),
                                 infinite_input=bool(rng.random() < 0.2))
            initial = FleetState(random_levels(rng, fleet))
            steps = int(rng.integers(1, 8))
            rows = _bound_probe_schedule(rng, fleet, initial.levels_mwh, steps)
            values = random_trace_values(rng, steps)

            def replay(state, re, fleet_):
                return StepDecision(tuple(rows[state.time_index]))

            def stepped():
                state, levels = initial, []
                for row in rows:
                    state = apply_step(state, StepDecision(tuple(row)), fleet)
                    levels.append(list(state.levels_mwh))
                return levels

            got = _verdict(lambda: simulate(fleet, values, replay, initial=initial)
                           .level_traces_mwh.tolist())
            assert got == _verdict(stepped)
            seen.add(got[0])
        assert seen == {"ok", RateViolation, CapacityViolation}


_NON_FINITE = [
    ([math.nan, -1.0], 0, "nan"),
    ([1.0, -2.0, math.inf], 2, "inf"),
    ([-1.0, -math.inf, math.nan], 1, "-inf"),
]


class TestNonFiniteTrace:
    """A NaN or infinite hour is rejected by name; -0.0 is an hour like any other."""

    @pytest.mark.parametrize("values, hour, text", _NON_FINITE)
    def test_simulate_names_the_first_bad_hour(self, monkeypatch, values, hour, text):
        fleet = [one_store(capacity=10.0, output=5.0)]
        match = f"^residual-energy trace hour {hour} is {text}, not a finite number$"
        for policy in (Policy.ggddf(), Policy.value([0.1]), Policy.grtef().decide):
            with pytest.raises(FleetError, match=match):
                simulate(fleet, values, policy, unserved_limit_mwh=1.0)
            with pytest.raises(FleetError, match=match):
                _reference(monkeypatch, fleet, values, policy)

    @pytest.mark.parametrize("check", [verify_feasible, verify_greedy, unserved_series, greedify])
    @pytest.mark.parametrize("values, hour, text", _NON_FINITE)
    def test_schedule_functions_name_the_first_bad_hour(self, check, values, hour, text):
        fleet = [one_store(capacity=10.0, output=5.0)]
        rows = PolicyTrace([[-5.0] if k == 0 else [0.0] for k in range(len(values))])
        with pytest.raises(FleetError, match=f"residual-energy trace hour {hour} is {text},"):
            check(fleet, full_state(fleet), values, rows)

    def test_negative_zero_is_a_finite_hour(self, monkeypatch):
        fleet = [one_store(capacity=10.0, output=5.0)]
        values = [-0.0, -1.0]
        for policy in (Policy.ggddf(), Policy.ggddf().decide):
            assert simulate(fleet, values, policy).total_unserved_mwh == 0.0
            assert _reference(monkeypatch, fleet, values, policy).total_unserved_mwh == 0.0
        rows = PolicyTrace([[0.0], [-1.0]])
        verify_feasible(fleet, full_state(fleet), values, rows)
        verify_greedy(fleet, full_state(fleet), values, rows)
        assert unserved_series(fleet, full_state(fleet), values, rows).tolist() == [0.0, 0.0]
        assert greedify(fleet, full_state(fleet), values, rows).rates_mw.tolist() == [[0.0], [-1.0]]


class TestVerifiers:
    def test_all_zero_rates_feasible_on_surplus(self):
        fleet = [one_store()]
        verify_feasible(fleet, full_state(fleet), [1.0, 2.0], PolicyTrace([[0.0], [0.0]]))

    def test_rate_violation_reported(self):
        fleet = [StoreSpec("s", 100, 5, 4, 0.5)]
        with pytest.raises(RateViolation) as err:
            verify_feasible(fleet, FleetState((0.0,)), [5.0], PolicyTrace([[3.0]]))
        assert err.value.time_index == 0

    def test_overserve_violation_reported(self):
        fleet = [StoreSpec("s", 100, 50, 50, 1.0)]
        with pytest.raises(OverserveViolation) as err:
            verify_feasible(fleet, FleetState((50.0,)), [-5.0], PolicyTrace([[-10.0]]))
        assert err.value.time_index == 0

    def test_overdraw_violation_reported(self):
        fleet = [StoreSpec("s", 100, 50, 50, 1.0)]
        with pytest.raises(OverdrawViolation):
            verify_feasible(fleet, FleetState((0.0,)), [5.0], PolicyTrace([[6.0]]))

    def test_capacity_violation_reported(self):
        fleet = [StoreSpec("s", 10, 50, 50, 1.0)]
        with pytest.raises(CapacityViolation) as err:
            verify_feasible(fleet, FleetState((8.0,)), [5.0, 5.0], PolicyTrace([[0.0], [5.0]]))
        assert err.value.time_index == 1

    @pytest.mark.parametrize("run", ["verify_feasible", "simulate"])
    @pytest.mark.parametrize("row, error", [([5.0], CapacityViolation), ([60.0], RateViolation)])
    def test_violation_hour_is_the_schedules_own(self, row, error, run):
        # The initial state's time index does not shift the reported hour.
        fleet = [StoreSpec("s", 10, 50, 50, 1.0)]
        initial = FleetState((8.0,), time_index=7)
        rows = [[0.0], row]

        def replay(state, re, fleet_):
            return StepDecision(tuple(rows[state.time_index - 7]))

        with pytest.raises(error, match="^hour 1: store 0 ") as err:
            if run == "simulate":
                simulate(fleet, [5.0, 100.0], replay, initial=initial)
            else:
                verify_feasible(fleet, initial, [5.0, 100.0], PolicyTrace(rows))
        assert (err.value.time_index, err.value.store) == (1, 0)

    def test_withholding_is_not_greedy(self):
        fleet = [StoreSpec("s", 10, 5, 5, 1.0)]
        initial = FleetState((5.0,))
        rates = PolicyTrace([[0.0], [-1.0]])
        verify_feasible(fleet, initial, [-3.0, -1.0], rates)
        with pytest.raises(NotGreedy) as err:
            verify_greedy(fleet, initial, [-3.0, -1.0], rates)
        assert err.value.time_index == 0
        assert err.value.store == 0

    def test_policy_outputs_are_greedy_and_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            fleet = random_fleet(rng, n)
            values = random_trace_values(rng, 60)
            initial = FleetState(random_levels(rng, fleet))
            for policy in (Policy.value(random_lambdas(rng, n)), Policy.ggddf(), Policy.grtef()):
                result = simulate(fleet, values, policy, initial=initial)
                verify_feasible(fleet, initial, values, result.policy_trace())
                verify_greedy(fleet, initial, values, result.policy_trace())

    def test_empty_schedule_is_greedy(self):
        fleet = [one_store()]
        verify_greedy(fleet, full_state(fleet), np.empty(0), PolicyTrace(np.empty((0, 1))))

    @pytest.mark.parametrize("check", [verify_feasible, verify_greedy, unserved_series])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[-1.0, 0.0], [-1.0, 0.0]], "2 rate columns for 1 stores"),
            (np.empty((2, 0)), "0 rate columns for 1 stores"),
            ([[-1.0], [-1.0], [-1.0]], "3 rate rows for 2 trace hours"),
            ([[-1.0]], "1 rate rows for 2 trace hours"),
            # Past the store's 8 MW output: a RateViolation from apply_step.
            ([[-9.0], [-1.0]], "^hour 0: store 0 rate -9.0 outside"),
        ],
    )
    def test_schedule_that_does_not_fit_is_rejected(self, check, rows, message):
        fleet = [one_store()]
        with pytest.raises(FleetError, match=message):
            check(fleet, FleetState((5.0,)), [-3.0, -4.0], PolicyTrace(rows))

    @pytest.mark.parametrize("check", [verify_feasible, verify_greedy, unserved_series])
    def test_state_that_does_not_fit_is_rejected(self, check):
        fleet = [one_store()]
        with pytest.raises(FleetError, match="2 levels for 1 stores"):
            check(fleet, FleetState((5.0, 5.0)), [-3.0], PolicyTrace([[-1.0]]))
        with pytest.raises(FleetError, match="at least one store"):
            check([], FleetState(()), [-3.0], PolicyTrace(np.empty((1, 0))))


class TestGreedify:
    def test_already_greedy_is_fixed_point(self):
        rng = np.random.default_rng(37)
        fleet = random_fleet(rng, 2)
        values = random_trace_values(rng, 40)
        initial = FleetState(random_levels(rng, fleet))
        result = simulate(fleet, values, Policy.value(random_lambdas(rng, 2)), initial=initial)
        out = greedify(fleet, initial, values, result.policy_trace())
        assert np.array_equal(out.rates_mw, result.rates_mw)
        # Rounding dust inside SLACK is no reason to move a rate: hours
        # verify_greedy accepts stay to the bit.
        rng = np.random.default_rng(2027)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            fleet = random_fleet(rng, n)
            values = random_trace_values(rng, int(rng.integers(2, 201)))
            initial = FleetState(random_levels(rng, fleet))
            result = simulate(fleet, values, Policy.value(random_lambdas(rng, n)), initial=initial)
            verify_greedy(fleet, initial, values, result.policy_trace())
            out = greedify(fleet, initial, values, result.policy_trace())
            assert np.array_equal(out.rates_mw, result.rates_mw)

    def test_withholding_example_repaired(self):
        fleet = [StoreSpec("s", 10, 5, 5, 1.0)]
        initial = FleetState((5.0,))
        values = [-3.0, -1.0]
        before = PolicyTrace([[0.0], [-1.0]])
        assert list(unserved_series(fleet, initial, values, before)) == [3.0, 3.0]
        after = greedify(fleet, initial, values, before)
        assert after.rates_mw.tolist() == [[-3.0], [-1.0]]
        assert list(unserved_series(fleet, initial, values, after)) == [0.0, 0.0]
        verify_greedy(fleet, initial, values, after)

    def test_greedy_input_past_a_bound_within_slack_is_kept(self):
        # Both rows pass a level bound by less than SLACK, which the checks
        # forgive; with no hour changed, no row is clipped either.
        fleet = [StoreSpec("s", 10, 20, 20, 1.0)]
        initial = FleetState((9.0,))
        values = [1.0, -12.0]
        greedy = PolicyTrace([[1.0 + 0.5 * SLACK], [-10.0 - 0.5 * SLACK]])
        verify_greedy(fleet, initial, values, greedy)
        assert np.array_equal(greedify(fleet, initial, values, greedy).rates_mw, greedy.rates_mw)

    @pytest.mark.parametrize(
        "initial, values, rows, expected",
        [
            # Hour 0's extra discharge leaves A 2 MWh for hour 1, so B's
            # cross-charge draw is cut to what the surplus and A supply.
            ((5.0, 0.0), [-3.0, 1.0], [[0.0, 0.0], [-5.0, 6.0]], [[-3.0, 0.0], [-2.0, 3.0]]),
            # Hour 0's extra charge leaves B 5 MWh of headroom for hour 1,
            # so A's discharge beyond demand and B's charging is cut back.
            ((100.0, 0.0), [5.0, -2.0], [[0.0, 0.0], [-12.0, 10.0]], [[0.0, 5.0], [-7.0, 5.0]]),
        ],
    )
    def test_clipped_cross_charge_is_pulled_back(self, initial, values, rows, expected):
        fleet = [StoreSpec("A", 100, 50, 50, 1.0), StoreSpec("B", 10, 50, 50, 1.0)]
        initial = FleetState(initial)
        after = greedify(fleet, initial, values, PolicyTrace(rows))
        assert after.rates_mw.tolist() == expected
        verify_feasible(fleet, initial, values, after)
        verify_greedy(fleet, initial, values, after)

    def test_infeasible_input_rejected(self):
        fleet = [StoreSpec("s", 10, 5, 5, 1.0)]
        with pytest.raises(InfeasibleInput):
            greedify(fleet, FleetState((0.0,)), [-3.0], PolicyTrace([[-3.0]]))

    def test_random_schedules_improve_everywhere(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            fleet = random_fleet(rng, n)
            steps = int(rng.integers(1, 30))
            values = random_trace_values(rng, steps)
            initial = FleetState(random_levels(rng, fleet))
            rates = random_feasible_rates(rng, fleet, initial.levels_mwh, values)
            self._greedify_keeps_the_contract(fleet, initial, values, PolicyTrace(rates))

    @staticmethod
    def _greedify_keeps_the_contract(fleet, initial, values, before):
        """Rewrite ``before``; the result is feasible, greedy, no worse at any
        hour and a fixed point.  Returns both unserved-energy series."""
        after = greedify(fleet, initial, values, before)
        verify_feasible(fleet, initial, values, after)
        verify_greedy(fleet, initial, values, after)
        ue_before = unserved_series(fleet, initial, values, before)
        ue_after = unserved_series(fleet, initial, values, after)
        assert np.all(ue_after <= ue_before + 1e-6)
        again = greedify(fleet, initial, values, after)
        assert np.allclose(again.rates_mw, after.rates_mw, atol=1e-9)
        return ue_before, ue_after

    @staticmethod
    def _wasteful_schedule(rng, steps, n, cross_prob=0.4, full_prob=0.0):
        fleet = random_fleet(rng, n)
        values = random_trace_values(rng, steps)
        initial = FleetState(random_levels(rng, fleet))
        rates = random_feasible_rates(rng, fleet, initial.levels_mwh, values, cross_prob, full_prob)
        return fleet, initial, values, PolicyTrace(rates)

    def test_one_pass_work_bound(self, monkeypatch):
        # One forward pass: a fixed number of imbalance evaluations per
        # hour however many hours change, where walking every later hour
        # after each change costs hundreds per hour at this length.
        from storefleet import engine

        fleet, initial, values, before = self._wasteful_schedule(np.random.default_rng(59), 2000, 3)
        calls = []

        def counted(*args):
            calls.append(None)
            return imbalance(*args)

        monkeypatch.setattr(engine, "imbalance", counted)
        after = greedify(fleet, initial, values, before)
        changed_hours = int(np.sum(np.any(after.rates_mw != before.rates_mw, axis=1)))
        assert changed_hours > 1000
        assert len(calls) <= 4 * len(values)

    def test_long_schedules_keep_the_contract(self):
        rng = np.random.default_rng(61)
        changed = 0
        for _ in range(50):
            steps = int(rng.integers(500, 2001))
            fleet, initial, values, before = self._wasteful_schedule(rng, steps, int(rng.integers(1, 4)))
            ue_before, ue_after = self._greedify_keeps_the_contract(fleet, initial, values, before)
            changed += ue_after[-1] < ue_before[-1] - 1.0
        assert changed >= 45

    def test_random_schedules_reach_the_pull_back(self, monkeypatch):
        # Hours served in full and then cross-charged are exactly balanced,
        # so once an earlier rewrite caps their charge or floors their
        # discharge they overserve or overdraw, and only the pull-back in
        # ``_clip_to_levels`` keeps the rewritten schedule feasible.
        from storefleet import engine

        pulled = {"charge": 0, "discharge": 0}

        def counted(levels, row, re, fleet):
            clipped = [min(max(r, -level), max(s.capacity_mwh - level, 0.0))
                       for r, level, s in zip(row.tolist(), levels, fleet)]
            clip_to_levels(levels, row, re, fleet)
            if row.tolist() != clipped:
                pulled["discharge" if re < 0.0 else "charge"] += 1

        clip_to_levels = engine._clip_to_levels
        monkeypatch.setattr(engine, "_clip_to_levels", counted)
        rng = np.random.default_rng(71)
        for _ in range(200):
            steps, n = int(rng.integers(2, 60)), int(rng.integers(2, 4))
            schedule = self._wasteful_schedule(rng, steps, n, cross_prob=0.8, full_prob=0.5)
            self._greedify_keeps_the_contract(*schedule)
        assert pulled["charge"] > 0 and pulled["discharge"] > 0

    def test_discharge_modification_bounds_level_drawdown(self):
        # One withheld deficit hour; after repair the unserved saving at
        # every hour at least covers the extra energy taken from store.
        fleet = [StoreSpec("s", 10, 5, 5, 1.0)]
        initial = FleetState((10.0,))
        values = [-4.0, -4.0, -4.0]
        before = PolicyTrace([[-1.0], [-4.0], [-4.0]])
        after = greedify(fleet, initial, values, before)
        ue_before = unserved_series(fleet, initial, values, before)
        ue_after = unserved_series(fleet, initial, values, after)
        level = 10.0
        levels_before = []
        for r in before.rates_mw[:, 0]:
            level += r
            levels_before.append(level)
        level = 10.0
        levels_after = []
        for r in after.rates_mw[:, 0]:
            level += r
            levels_after.append(level)
        for t in range(3):
            saving = ue_before[t] - ue_after[t]
            drawdown = levels_before[t] - levels_after[t]
            assert saving >= drawdown - 1e-9


class TestResourceMonotonicity:
    def test_enlarging_any_dimension_never_hurts_single_store(self):
        # With one store the greedy policy is the unique optimal one, so
        # extra capacity or power can never increase unserved energy.
        import dataclasses

        rng = np.random.default_rng(43)
        for _ in range(60):
            fleet = random_fleet(rng, 1)
            values = random_trace_values(rng, 60)
            lambdas = random_lambdas(rng, 1)
            base = simulate(fleet, values, Policy.value(lambdas)).total_unserved_mwh
            for field in ("capacity_mwh", "output_power_mw", "input_power_mw"):
                grown = [
                    dataclasses.replace(fleet[0], **{field: getattr(fleet[0], field) * 1.5})
                ]
                ue = simulate(grown, values, Policy.value(lambdas)).total_unserved_mwh
                assert ue <= base + 1e-6

    def test_fixed_decay_rates_are_not_monotone_in_output_power(self):
        # Known limitation, pinned as a regression: with fixed decay
        # rates, a larger output power rescales v = exp(-lambda*s/P) and
        # reorders discharge priorities, which can cost unserved energy
        # over the horizon even though every single step stays optimal.
        # Decay rates must be retuned when dimensions change.
        import dataclasses

        rng = np.random.default_rng(2)
        fleet = random_fleet(rng, 2)
        values = random_trace_values(rng, 60)
        lambdas = random_lambdas(rng, 2)
        base = simulate(fleet, values, Policy.value(lambdas)).total_unserved_mwh
        grown = [
            dataclasses.replace(fleet[0], output_power_mw=fleet[0].output_power_mw * 1.5),
            fleet[1],
        ]
        ue = simulate(grown, values, Policy.value(lambdas)).total_unserved_mwh
        assert ue > base + 1.0


class TestEquivalences:
    def test_split_units_twin_agrees(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            fleet = random_fleet(rng, n)
            values = random_trace_values(rng, 60)
            lambdas = random_lambdas(rng, n)
            initial = FleetState(random_levels(rng, fleet))
            result = simulate(fleet, values, Policy.value(lambdas), initial=initial)
            spill_twin, unserved_twin = simulate_split_twin(
                fleet, initial.levels_mwh, values, lambdas
            )
            spill = np.diff(result.spill_cumulative_mwh, prepend=0.0)
            unserved = np.diff(result.unserved_cumulative_mwh, prepend=0.0)
            assert np.allclose(spill, spill_twin, rtol=1e-9, atol=1e-9)
            assert np.allclose(unserved, unserved_twin, rtol=1e-9, atol=1e-9)

    def test_merged_store_equals_pro_rata_components(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            base = StoreSpec("a", 10.0, 2.0, 1.0, 0.7)
            scale = float(rng.uniform(0.5, 3.0))
            other = StoreSpec("b", 10.0 * scale, 2.0 * scale, 1.0 * scale, 0.7)
            components = [base, other]
            merged = merge_equivalent(components)
            values = random_trace_values(rng, 60, scale=4.0)
            merged_result = simulate([merged], values, Policy.value([0.02]))
            weights = [c.capacity_mwh / merged.capacity_mwh for c in components]
            state = full_state(components)
            total_levels = []
            for t, re in enumerate(values):
                rate = float(merged_result.rates_mw[t, 0])
                split = StepDecision(
                    tuple(w * rate for w in weights),
                    spill_mwh=float(
                        merged_result.spill_cumulative_mwh[t]
                        - (merged_result.spill_cumulative_mwh[t - 1] if t else 0.0)
                    ),
                    unserved_mwh=float(
                        merged_result.unserved_cumulative_mwh[t]
                        - (merged_result.unserved_cumulative_mwh[t - 1] if t else 0.0)
                    ),
                )
                state = apply_step(state, split, components)
                total_levels.append(sum(state.levels_mwh))
            assert np.allclose(
                total_levels, merged_result.level_traces_mwh[:, 0], rtol=1e-9, atol=1e-9
            )


class TestCsvExport:
    def test_columns_and_roundtrip(self, tmp_path):
        fleet = [one_store(name="a"), StoreSpec("b", 5, 2, 2, 0.8)]
        values = [3.0, -4.0, 1.0]
        result = simulate(fleet, values, Policy.value([0.0, 0.0]))
        path = tmp_path / "sim.csv"
        write_simulation_csv(path, values, fleet, result)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "hour,re_mw,rate_a,rate_b,level_a,level_b,spill_cum_mwh,unserved_cum_mwh"
        assert len(rows) == 4
        parsed = [float(x) for x in rows[2].split(",")]
        assert parsed[0] == 1
        assert parsed[1] == -4.0
        assert parsed[6] == result.spill_cumulative_mwh[1]
        assert parsed[7] == result.unserved_cumulative_mwh[1]


_SIM_FIELDS = (
    "unserved_cumulative_mwh",
    "spill_cumulative_mwh",
    "level_traces_mwh",
    "rates_mw",
    "served_external_mwh",
)


def test_results_compare_and_hash_by_identity():
    # Each holds numpy arrays, whose == is element-wise: results compare
    # as the same object or not, and hash as objects do.
    from storefleet.traces import ResidualTrace, trace_stats

    fleet, values = [one_store()], [3.0, -4.0, 1.0]
    pairs = [
        (simulate(fleet, values, Policy.ggddf()), simulate(fleet, values, Policy.ggddf())),
        (PolicyTrace([[1.0]]), PolicyTrace([[1.0]])),
        (ResidualTrace.from_values(values), ResidualTrace.from_values(values)),
        (trace_stats(ResidualTrace.from_values(values), bins=2, lags=[1]),
         trace_stats(ResidualTrace.from_values(values), bins=2, lags=[1])),
    ]
    for first, second in pairs:
        assert first == first and not first != first
        assert first != second and not first == second
        assert hash(first) == hash(first) and len({first, second}) == 2


def _outputs(result):
    """A SimResult as comparable values: its arrays' shapes and bytes, the rest by repr."""
    arrays = [(getattr(result, f).shape, getattr(result, f).tobytes()) for f in _SIM_FIELDS]
    return arrays, repr(result.final_state), repr(result.cross_charged_mwh)


def _reference(monkeypatch, *args, **kwargs):
    """simulate on the Python loop: the compiled loop's handle set to None."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_hourloop", None)
        return simulate(*args, **kwargs)


def _step_compiled(fleet, values, policy, initial):
    """The compiled loop alone on fresh run arrays: its return value, then the arrays."""
    n, steps = len(fleet), len(values)
    arrays = (np.array(initial.levels_mwh), np.empty((steps, n)), np.empty((steps, n)),
              np.empty(steps), np.empty(steps), np.zeros(n), np.zeros(1))
    stepped = engine._step_compiled(engine._load_hourloop(), fleet, np.array(values), policy.kind,
                                    policy.decay_rates(fleet), math.inf, arrays)
    return (stepped, *arrays)


needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc to build the hour loop")


@needs_gcc
class TestCompiledLoop:
    def test_matches_python_loop_bit_for_bit(self, monkeypatch):
        assert engine._load_hourloop() is not None
        compiled = engine._step_compiled
        handed_back = []

        def counted(*args):
            stepped = compiled(*args)
            handed_back.append(stepped < 0)
            return stepped

        monkeypatch.setattr(engine, "_step_compiled", counted)
        rng = np.random.default_rng(1401)
        seen = set()
        for _ in range(150):
            n = int(rng.integers(1, 5))
            fleet = random_fleet(rng, n, infinite_output=bool(rng.random() < 0.2),
                                 infinite_input=bool(rng.random() < 0.2))
            initial = FleetState(random_levels(rng, fleet), time_index=int(rng.integers(0, 50)))
            values = random_trace_values(rng, int(rng.integers(1, 200)))
            values[rng.integers(len(values))] = -0.0
            for policy in (Policy.value(random_lambdas(rng, n)), Policy.ggddf(), Policy.grtef()):
                limit = (None, math.inf, float(rng.uniform(0.0, 300.0)))[rng.integers(3)]
                fast = simulate(fleet, values, policy, initial=initial, unserved_limit_mwh=limit)
                slow = _reference(monkeypatch, fleet, values, policy, initial=initial,
                                  unserved_limit_mwh=limit)
                assert _outputs(fast) == _outputs(slow), (policy.kind, n)
                seen.add((n, policy.kind, len(fast.unserved_cumulative_mwh) < len(values),
                          fast.cross_charged_mwh > 0.0))
        assert len(handed_back) == 450 and not any(handed_back)
        assert {n for n, *_ in seen} == {1, 2, 3, 4}
        assert any(stopped for *_, stopped, _ in seen)
        assert any(crossed for *_, crossed in seen)

    def test_value_loop_matches_python_where_levels_repeat(self, monkeypatch):
        # The compiled value loop recomputes a store's exp(-lambda * l / P)
        # only when its level's bits change.  Here stores sit full or empty
        # for runs of hours, a level comes back to an earlier value after
        # changing, and one store's decay rate is 0.
        fleet = [StoreSpec("a", 8.0, 4.0, 4.0, 1.0), StoreSpec("b", 40.0, 3.0, 3.0, 0.5),
                 StoreSpec("c", 6.0, 2.0, 2.0, 0.8)]
        rng = np.random.default_rng(2916)
        values = ([20.0] * 6 + [-9.0] * 4 + [-0.5, 0.5] * 3 + [-9.0] * 12 + [0.0] * 3
                  + [2.0, -2.0, 1.0, -1.0] * 3 + [9.0, -9.0] * 4
                  + rng.choice([0.0, 20.0, -20.0, -0.3, 0.3, -1.7, 2.9], 300).tolist())
        for lambdas in ([0.1, 0.0, 0.3], [0.0, 0.0, 0.0], [0.05, 2.0, 0.0], [0.9, 0.2, 0.0]):
            for initial in (full_state(fleet), FleetState((0.0, 0.0, 0.0)), FleetState((3.0, 0.0, 6.0))):
                policy = Policy.value(lambdas)
                fast = simulate(fleet, values, policy, initial=initial)
                slow = _reference(monkeypatch, fleet, values, policy, initial=initial)
                assert _outputs(fast) == _outputs(slow), (lambdas, initial)
        levels = fast.level_traces_mwh
        same = levels[1:] == levels[:-1]
        assert same.all(axis=1).sum() > 10  # hours in which no level moves
        assert (levels[:, 0] == 0.0).sum() > 3 and (levels[:, 0] == 8.0).sum() > 3
        returned = [(i, t) for i in range(3) for t in range(2, len(levels))
                    if levels[t, i] != levels[t - 1, i] and levels[t, i] in levels[:t - 1, i]
                    and 0.0 < levels[t, i] < fleet[i].capacity_mwh]
        assert returned  # an inner level the store had held before

    def test_wrong_decay_rate_count_raises_before_stepping(self, monkeypatch):
        def never(*args):
            raise AssertionError("stepped a policy that does not fit its fleet")

        monkeypatch.setattr(engine, "_hourloop", never)
        fleet = [one_store(name="a"), one_store(name="b")]
        for lambdas in ([0.1], [0.1, 0.2, 0.3]):
            with pytest.raises(ValueError, match=f"{len(lambdas)} decay rates for 2 stores"):
                simulate(fleet, [1.0, -2.0], Policy.value(lambdas))

    def test_runs_it_hands_back_replay_on_the_python_loop(self, monkeypatch):
        # An exp past overflow: math.exp raises, so the replay must too.
        fleet = [StoreSpec("a", 10.0, 1e-300, 5.0, 0.8), one_store(name="b")]
        initial = FleetState((-1e-7, 5.0))
        for run in (lambda: simulate(fleet, [-1.0], Policy.value([0.1, 0.1]), initial=initial),
                    lambda: _reference(monkeypatch, fleet, [-1.0], Policy.value([0.1, 0.1]),
                                       initial=initial)):
            with pytest.raises(OverflowError):
                run()
        # -inf * 0 makes NaN values: the ranking is the Python sort's own.
        fleet = [StoreSpec("a", 1e10, math.inf, 5.0, 0.8), StoreSpec("b", 20.0, math.inf, 5.0, 0.9)]
        values = [3.0, -4.0, 2.0]
        policy = Policy.value([1e300, 0.1])
        assert _step_compiled(fleet, values, policy, full_state(fleet))[0] == -1
        assert _outputs(simulate(fleet, values, policy)) == _outputs(
            _reference(monkeypatch, fleet, values, policy))

    def test_replay_overwrites_what_the_loop_wrote_before_handing_back(self, monkeypatch):
        # The C loop steps three hours, serving 5 MWh from store b and
        # moving both levels, before a NaN value hands the run back.
        fleet = [StoreSpec("a", 1e10, math.inf, 1e9, 0.8), StoreSpec("b", 20.0, 5.0, 5.0, 0.9)]
        values = [-3.0, -2.0, 5e8, -1.0, 2.0]
        policy = Policy.value([1e300, 0.1])
        initial = FleetState((1e8, 10.0))
        stepped, levels, *_, served, _ = _step_compiled(fleet, values, policy, initial)
        assert stepped == -1
        assert served.tolist() == [0.0, 5.0] and levels.tolist() != [1e8, 10.0]
        got = simulate(fleet, values, policy, initial=initial)
        assert _outputs(got) == _outputs(_reference(monkeypatch, fleet, values, policy,
                                                    initial=initial))
        assert got.served_external_mwh.tolist() == [1.0, 5.0]


class TestHourloopBuild:
    """Without a usable build, simulate runs the Python loop, silently."""

    @staticmethod
    def _fresh(monkeypatch, cache, source=None):
        monkeypatch.setattr(engine, "_hourloop", engine._UNLOADED)
        monkeypatch.setattr(engine, "_HOURLOOP_CACHE", cache)
        if source is not None:
            monkeypatch.setattr(engine, "_HOURLOOP_SOURCE", source)

    @staticmethod
    def _check(monkeypatch, capfd, loaded):
        rng = np.random.default_rng(1402)
        fleet = random_fleet(rng, 3)
        values = random_trace_values(rng, 120)
        initial = FleetState(random_levels(rng, fleet))
        for policy in (Policy.value(random_lambdas(rng, 3)), Policy.ggddf(), Policy.grtef()):
            got = simulate(fleet, values, policy, initial=initial)
            assert (engine._hourloop is not None) == loaded
            assert _outputs(got) == _outputs(_reference(monkeypatch, fleet, values, policy,
                                                        initial=initial))
        assert capfd.readouterr() == ("", "")

    def test_no_compiler(self, monkeypatch, capfd, tmp_path):
        self._fresh(monkeypatch, tmp_path / "cache")
        monkeypatch.setattr(shutil, "which", lambda name: None)
        self._check(monkeypatch, capfd, loaded=False)

    @needs_gcc
    def test_failed_compile(self, monkeypatch, capfd, tmp_path):
        source = tmp_path / "_hourloop.c"
        source.write_text("this is not C\n")
        self._fresh(monkeypatch, tmp_path / "cache", source)
        self._check(monkeypatch, capfd, loaded=False)
        assert list((tmp_path / "cache").iterdir()) == []

    @needs_gcc
    def test_unwritable_cache(self, monkeypatch, capfd, tmp_path):
        (tmp_path / "file").write_text("")
        self._fresh(monkeypatch, tmp_path / "file" / "__pycache__")
        self._check(monkeypatch, capfd, loaded=False)

    @needs_gcc
    def test_changed_source_gets_a_new_cache_entry(self, monkeypatch, capfd, tmp_path):
        source = tmp_path / "_hourloop.c"
        with open(engine._HOURLOOP_SOURCE, "rb") as fh:
            source.write_bytes(fh.read())
        cache = tmp_path / "cache"
        self._fresh(monkeypatch, cache, source)
        self._check(monkeypatch, capfd, loaded=True)
        first = {p.name for p in cache.iterdir()}
        assert len(first) == 1
        # The new build replaces the old one, and leaves a build in
        # progress (mkdtemp's directory) and the package's bytecode.
        kept = {"_hourloop.0badf00d.so.x1y2z3", "engine.cpython-311.pyc"}
        (cache / "_hourloop.0badf00d.so.x1y2z3").mkdir()
        (cache / "engine.cpython-311.pyc").write_bytes(b"")
        with source.open("a") as fh:
            fh.write("/* edited */\n")
        self._fresh(monkeypatch, cache)
        self._check(monkeypatch, capfd, loaded=True)
        second = {p.name for p in cache.iterdir()} - kept
        assert len(second) == 1 and second != first
        assert kept < {p.name for p in cache.iterdir()}

    def test_numpys_sampler_archive_is_in_the_cache_key(self, monkeypatch, tmp_path):
        archive = tmp_path / "libnpyrandom.a"
        monkeypatch.setattr(engine, "_NPYRANDOM_ARCHIVE", str(archive))
        builds = []
        monkeypatch.setattr(engine, "_build_hourloop", lambda *args: builds.append(args) or False)
        for content in (b"numpy 1", b"numpy 2", None):
            if content is None:
                archive.unlink()
            else:
                archive.write_bytes(content)
            self._fresh(monkeypatch, tmp_path / "cache")
            assert engine._load_hourloop() is None
        assert len({path for path, _ in builds}) == 3
        assert [linked for _, linked in builds] == [("-DSTOREFLEET_NPYRANDOM", str(archive))] * 2 + [()]

    @needs_gcc
    def test_half_written_build_is_never_loaded(self, monkeypatch, capfd, tmp_path):
        cache = tmp_path / "cache"
        self._fresh(monkeypatch, cache)

        def killed(args, **kwargs):
            # A build stopped half way: part of a library at the output name.
            out = args[args.index("-o") + 1]
            with open(out, "wb") as fh:
                fh.write(b"\x7fELF\x02\x01\x01" + bytes(100))
            raise subprocess.CalledProcessError(-9, args)

        with monkeypatch.context() as patch:
            patch.setattr(subprocess, "run", killed)
            self._check(monkeypatch, capfd, loaded=False)
        assert list(cache.iterdir()) == []
        # A later process builds its own, next to a crashed build's leftover.
        leftover = cache / "_hourloop.stale" / "_hourloop.so"
        leftover.parent.mkdir()
        leftover.write_bytes(b"\x7fELF" + bytes(10))
        self._fresh(monkeypatch, cache)
        self._check(monkeypatch, capfd, loaded=True)
        libs = [p for p in cache.iterdir() if p.is_file()]
        assert len(libs) == 1 and libs[0].suffix == ".so" and leftover.exists()
        # As readable as any new file (the umask's), for every user of the package.
        probe = tmp_path / "probe"
        probe.write_bytes(b"")
        assert libs[0].stat().st_mode & 0o444 == probe.stat().st_mode & 0o444
