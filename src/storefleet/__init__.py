"""Scheduling and cost-driven dimensioning of heterogeneous energy-storage fleets.

The public names below are re-exported from the submodules that define
them, each submodule imported on the first access to one of its names
(PEP 562): ``import storefleet`` loads no numpy, and a CLI command
imports only the layers it runs.
"""

_EXPORTS = {
    "fleet": (
        "SLACK",
        "CapacityViolation",
        "EfficiencyOutOfRange",
        "FleetError",
        "FleetState",
        "LossConvention",
        "NonPositiveDimension",
        "NotEquivalent",
        "RateViolation",
        "StepDecision",
        "StoreSpec",
        "apply_step",
        "convert_convention",
        "full_state",
        "imbalance",
        "merge_equivalent",
        "validate_spec",
    ),
    "policies": ("Policy", "ValueParams", "value_derivatives"),
    "engine": (
        "InfeasibleInput",
        "NotGreedy",
        "OverdrawViolation",
        "OverserveViolation",
        "PolicyTrace",
        "SimResult",
        "greedify",
        "lower_bound_unserved",
        "simulate",
        "verify_feasible",
        "verify_greedy",
    ),
    "params": (
        "CostBreakdown",
        "Infeasible",
        "ReliabilityStandard",
        "SizingOptions",
        "StorePrices",
        "SynthParams",
        "fleet_cost",
    ),
    "sizing": (
        "SizingResult",
        "check_reliability",
        "min_required_output_power",
        "min_single_store_capacity",
        "optimize_fleet",
        "optimize_single_store",
        "tune_lambdas",
    ),
    "traces": (
        "ResidualTrace",
        "TraceStats",
        "load_csv",
        "scale_to_overcapacity",
        "synthesize",
        "trace_stats",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
