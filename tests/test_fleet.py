import math

import pytest
from hypothesis import given, strategies as st

from storefleet.fleet import (
    CapacityViolation,
    EfficiencyOutOfRange,
    FleetError,
    FleetState,
    LossConvention,
    NonPositiveDimension,
    NotEquivalent,
    RateViolation,
    StepDecision,
    StoreSpec,
    apply_step,
    convention_factor,
    convert_convention,
    full_state,
    imbalance,
    is_number,
    merge_equivalent,
    validate_spec,
    validate_state,
)
from storefleet.params import ReliabilityStandard, StorePrices
from storefleet.policies import Policy, ValueParams


def make_spec(name="s", capacity=10.0, output=2.0, input_=1.0, eta=0.7):
    return StoreSpec(name, capacity, output, input_, eta)


class TestValidateSpec:
    def test_unit_store_ok(self):
        validate_spec(make_spec(capacity=1, output=1, input_=1, eta=1))

    def test_zero_efficiency_rejected(self):
        with pytest.raises(EfficiencyOutOfRange):
            validate_spec(make_spec(eta=0.0))

    def test_efficiency_above_one_rejected(self):
        with pytest.raises(EfficiencyOutOfRange):
            validate_spec(make_spec(eta=1.5))

    def test_hydrogen_scale_store_ok(self):
        # 120.4 TWh / 115.9 GW / 80 GW at 0.4 round-trip.
        validate_spec(StoreSpec("long", 120.4e6, 115.9e3, 80.0e3, 0.4))

    @pytest.mark.parametrize("field", ["capacity_mwh", "output_power_mw", "input_power_mw"])
    def test_nonpositive_dimension_rejected(self, field):
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(NonPositiveDimension):
                validate_spec(StoreSpec("s", **{
                    "capacity_mwh": 1.0, "output_power_mw": 1.0, "input_power_mw": 1.0,
                    field: bad,
                }, efficiency=0.5))

    def test_infinite_power_allowed_but_not_capacity(self):
        validate_spec(make_spec(output=math.inf, input_=math.inf))
        with pytest.raises(NonPositiveDimension):
            validate_spec(make_spec(capacity=math.inf))


# Every numeric field of the library's value types, with the error its type
# documents for a value that is not a number.
_NUMBER_FIELDS = [
    *(pytest.param(lambda x, k=k: validate_spec(make_spec(**{k: x})), FleetError, id=k)
      for k in ("capacity", "output", "input_", "eta")),
    pytest.param(lambda x: ValueParams((0.1, x)), ValueError, id="ValueParams"),
    pytest.param(lambda x: Policy.value([x]), ValueError, id="Policy.value"),
    *(pytest.param(lambda x, k=k: StorePrices(*(x if i == k else 1.0 for i in range(3))),
                   ValueError, id=f"StorePrices-{k}") for k in range(3)),
    pytest.param(ReliabilityStandard, ValueError, id="ReliabilityStandard"),
]


class TestNumberRule:
    # float(True) is 1.0 and float("1") parses, but neither is a number.
    @pytest.mark.parametrize("build,error", _NUMBER_FIELDS)
    @pytest.mark.parametrize("value", [True, "1"])
    def test_bool_or_string_raises_the_documented_error(self, build, error, value):
        assert not is_number(value)
        with pytest.raises(error):
            build(value)

    @pytest.mark.parametrize("name", [7, None, True])
    def test_store_name_must_be_a_string(self, name):
        with pytest.raises(FleetError, match="name must be a string"):
            validate_spec(make_spec(name=name))


class TestApplyStep:
    def test_charges(self):
        state = FleetState((5.0,))
        fleet = [make_spec(capacity=10, output=10, input_=10, eta=1.0)]
        new = apply_step(state, StepDecision((2.0,)), fleet)
        assert new.levels_mwh == (7.0,)
        assert new.time_index == 1

    def test_empties_exactly(self):
        state = FleetState((5.0,))
        fleet = [make_spec(capacity=10, output=10, input_=10, eta=1.0)]
        new = apply_step(state, StepDecision((-5.0,)), fleet)
        assert new.levels_mwh == (0.0,)

    def test_overfill_raises(self):
        state = FleetState((9.0,))
        fleet = [make_spec(capacity=10, output=10, input_=10, eta=1.0)]
        with pytest.raises(CapacityViolation):
            apply_step(state, StepDecision((2.0,)), fleet)

    def test_rate_bound_raises(self):
        state = FleetState((5.0,))
        fleet = [make_spec(capacity=100, output=2, input_=3, eta=0.5)]
        with pytest.raises(RateViolation):
            apply_step(state, StepDecision((2.0,)), fleet)  # eta * Q = 1.5
        with pytest.raises(RateViolation):
            apply_step(state, StepDecision((-2.5,), unserved_mwh=1.0), fleet)

    def test_dust_clamped_onto_bounds(self):
        state = FleetState((10.0 - 1e-9,))
        fleet = [make_spec(capacity=10, output=10, input_=10, eta=1.0)]
        new = apply_step(state, StepDecision((2e-9,)), fleet)
        assert new.levels_mwh == (10.0,)

    def test_violations_name_their_hour(self):
        fleet = [make_spec(capacity=10, output=2, input_=2, eta=1.0)]
        with pytest.raises(RateViolation, match="^hour 3: store 0 rate 5.0 ") as err:
            apply_step(FleetState((5.0,), time_index=3), StepDecision((5.0,)), fleet)
        assert (err.value.time_index, err.value.store) == (3, 0)
        with pytest.raises(CapacityViolation, match="^hour 4: store 0 level -1.0 ") as err:
            apply_step(FleetState((1.0,), time_index=4), StepDecision((-2.0,)), fleet)
        assert (err.value.time_index, err.value.store) == (4, 0)

    @pytest.mark.parametrize("levels", [(5.0, 5.0), ()])
    def test_state_without_one_level_per_store_raises(self, levels):
        fleet = [make_spec(capacity=10, output=10, input_=10, eta=1.0)]
        state = FleetState(levels)
        with pytest.raises(FleetError) as expected:
            validate_state(state, fleet)
        with pytest.raises(FleetError, match=f"^state has {len(levels)} levels for 1 stores$") as err:
            apply_step(state, StepDecision((2.0,)), fleet)
        assert type(err.value) is FleetError and str(err.value) == str(expected.value)


class TestImbalance:
    def test_idle(self):
        assert imbalance(0.0, [0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_charging_accounts_for_losses(self):
        assert imbalance(5.0, [2.5], [0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_cross_charging_case(self):
        assert imbalance(-5.0, [-15.0, 9.0], [0.4, 0.9]) == pytest.approx(0.0, abs=1e-12)


class TestMergeEquivalent:
    def test_two_copies(self):
        a = make_spec("a", 10, 2, 1, 0.7)
        b = make_spec("b", 10, 2, 1, 0.7)
        merged = merge_equivalent([a, b])
        assert (merged.capacity_mwh, merged.output_power_mw, merged.input_power_mw) == (20, 4, 2)
        assert merged.efficiency == 0.7

    def test_proportional_pair(self):
        merged = merge_equivalent([make_spec("a", 10, 2, 1, 0.7), make_spec("b", 30, 6, 3, 0.7)])
        assert (merged.capacity_mwh, merged.output_power_mw, merged.input_power_mw) == (40, 8, 4)

    def test_efficiency_mismatch(self):
        with pytest.raises(NotEquivalent):
            merge_equivalent([make_spec("a", 10, 2, 1, 0.7), make_spec("b", 10, 2, 1, 0.9)])

    def test_ratio_mismatch(self):
        with pytest.raises(NotEquivalent):
            merge_equivalent([make_spec("a", 10, 2, 1, 0.7), make_spec("b", 10, 4, 1, 0.7)])

    @given(st.integers(min_value=1, max_value=6))
    def test_k_copies_scale_dimensions(self, k):
        spec = make_spec("a", 12.5, 3.0, 1.5, 0.6)
        merged = merge_equivalent([spec] * k)
        assert merged.capacity_mwh == pytest.approx(12.5 * k)
        assert merged.output_power_mw == pytest.approx(3.0 * k)
        assert merged.input_power_mw == pytest.approx(1.5 * k)


class TestConvertConvention:
    def test_unity_efficiency_is_identity(self):
        spec = make_spec(eta=1.0)
        converted, level = convert_convention(
            spec, 4.0, LossConvention.INPUT_SIDE, LossConvention.SPLIT_SQRT
        )
        assert converted.capacity_mwh == spec.capacity_mwh
        assert level == 4.0

    def test_reported_hydrogen_capacity(self):
        # 76.146 TWh of servable energy reads as 120.4 TWh under the
        # split convention at 0.4 round-trip efficiency.
        spec = StoreSpec("long", 76.146e6, 115.9e3, 80.0e3, 0.4)
        converted, _ = convert_convention(
            spec, 0.0, LossConvention.INPUT_SIDE, LossConvention.SPLIT_SQRT
        )
        assert converted.capacity_mwh == pytest.approx(76.146e6 * 0.4**-0.5, rel=1e-12)
        assert converted.capacity_mwh / 1e6 == pytest.approx(120.4, abs=5e-3)
        assert converted.output_power_mw == spec.output_power_mw
        assert converted.input_power_mw == spec.input_power_mw

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1e8),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip_identity(self, eta, capacity, fill):
        spec = StoreSpec("s", capacity, 1.0, 1.0, eta)
        level = fill * capacity
        split_spec, split_level = convert_convention(
            spec, level, LossConvention.INPUT_SIDE, LossConvention.SPLIT_SQRT
        )
        back_spec, back_level = convert_convention(
            split_spec, split_level, LossConvention.SPLIT_SQRT, LossConvention.INPUT_SIDE
        )
        assert back_spec.capacity_mwh == pytest.approx(capacity, rel=1e-12)
        assert back_level == pytest.approx(level, rel=1e-12, abs=1e-12)

    def test_factor_is_the_one_conversion(self):
        # Every reported capacity goes through convention_factor: exact
        # powers of the efficiency, and 1.0 within one convention.
        inp, split = LossConvention.INPUT_SIDE, LossConvention.SPLIT_SQRT
        assert convention_factor(0.4, inp, split) == 0.4 ** -0.5
        assert convention_factor(0.4, split, inp) == 0.4 ** 0.5
        assert convention_factor(0.4, inp, inp) == convention_factor(0.4, split, split) == 1.0
        spec = StoreSpec("s", 10.0, 1.0, 1.0, 0.4)
        converted, level = convert_convention(spec, 4.0, inp, split)
        assert converted.capacity_mwh == 10.0 * 0.4 ** -0.5
        assert level == 4.0 * 0.4 ** -0.5


class TestStateAndDecision:
    def test_full_state(self):
        fleet = [make_spec("a", 10), make_spec("b", 7)]
        assert full_state(fleet).levels_mwh == (10.0, 7.0)

    def test_state_length_checked(self):
        with pytest.raises(Exception):
            validate_state(FleetState((1.0,)), [make_spec(), make_spec("b")])

    def test_level_bounds_checked(self):
        with pytest.raises(CapacityViolation):
            validate_state(FleetState((11.0,)), [make_spec(capacity=10)])

    def test_decision_cannot_both_spill_and_shed(self):
        with pytest.raises(ValueError):
            StepDecision((0.0,), spill_mwh=1.0, unserved_mwh=1.0)
        with pytest.raises(ValueError):
            StepDecision((0.0,), spill_mwh=-1.0)
