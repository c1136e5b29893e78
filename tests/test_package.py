"""The package's lazy re-exports: the same names, resolving to the same objects."""

import importlib

import pytest

import storefleet

# Every name ``storefleet`` has exported since the re-exports were laid
# down, with the module that defines it.
EXPORTS = {
    "SLACK": "fleet",
    "CapacityViolation": "fleet",
    "EfficiencyOutOfRange": "fleet",
    "FleetError": "fleet",
    "FleetState": "fleet",
    "LossConvention": "fleet",
    "NonPositiveDimension": "fleet",
    "NotEquivalent": "fleet",
    "RateViolation": "fleet",
    "StepDecision": "fleet",
    "StoreSpec": "fleet",
    "apply_step": "fleet",
    "convert_convention": "fleet",
    "full_state": "fleet",
    "imbalance": "fleet",
    "merge_equivalent": "fleet",
    "validate_spec": "fleet",
    "Policy": "policies",
    "ValueParams": "policies",
    "value_derivatives": "policies",
    "InfeasibleInput": "engine",
    "NotGreedy": "engine",
    "OverdrawViolation": "engine",
    "OverserveViolation": "engine",
    "PolicyTrace": "engine",
    "SimResult": "engine",
    "greedify": "engine",
    "lower_bound_unserved": "engine",
    "simulate": "engine",
    "verify_feasible": "engine",
    "verify_greedy": "engine",
    "CostBreakdown": "params",
    "Infeasible": "params",
    "ReliabilityStandard": "params",
    "SizingOptions": "params",
    "StorePrices": "params",
    "fleet_cost": "params",
    "SizingResult": "sizing",
    "check_reliability": "sizing",
    "min_required_output_power": "sizing",
    "min_single_store_capacity": "sizing",
    "optimize_fleet": "sizing",
    "optimize_single_store": "sizing",
    "tune_lambdas": "sizing",
    "ResidualTrace": "traces",
    "SynthParams": "params",
    "TraceStats": "traces",
    "load_csv": "traces",
    "scale_to_overcapacity": "traces",
    "synthesize": "traces",
    "trace_stats": "traces",
}


def test_the_export_list_is_unchanged():
    assert len(EXPORTS) == 51
    assert sorted(storefleet.__all__) == sorted(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_each_name_is_the_defining_module_object(name):
    namespace = {}
    exec(f"from storefleet import {name}", namespace)
    defining = importlib.import_module(f"storefleet.{EXPORTS[name]}")
    assert namespace[name] is getattr(defining, name)
    assert getattr(storefleet, name) is namespace[name]


def test_moved_names_are_the_same_objects_in_their_old_modules():
    from storefleet import params, sizing, traces

    for name in ("Infeasible", "StorePrices", "StoreCost", "CostBreakdown", "fleet_cost",
                 "ReliabilityStandard", "parse_decay_grid", "SizingOptions", "cost_report"):
        assert getattr(sizing, name) is getattr(params, name)
    for name in ("TraceError", "ParseError", "SchemaError", "NonFiniteValue", "DegenerateInput",
                 "InvalidParams", "InsufficientData", "SynthParams", "MAX_SYNTH_YEARS",
                 "HOURS_PER_YEAR"):
        assert getattr(traces, name) is getattr(params, name)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        storefleet.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from storefleet import no_such_name", {})
