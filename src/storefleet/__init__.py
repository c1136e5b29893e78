"""Scheduling and cost-driven dimensioning of heterogeneous energy-storage fleets."""

from .fleet import (
    SLACK,
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
    convert_convention,
    full_state,
    imbalance,
    merge_equivalent,
    validate_spec,
)
from .policies import Policy, ValueParams, value_derivatives
from .engine import (
    InfeasibleInput,
    NotGreedy,
    OverdrawViolation,
    OverserveViolation,
    PolicyTrace,
    SimResult,
    greedify,
    lower_bound_unserved,
    simulate,
    verify_feasible,
    verify_greedy,
)
from .sizing import (
    CostBreakdown,
    Infeasible,
    ReliabilityStandard,
    SizingOptions,
    SizingResult,
    StorePrices,
    check_reliability,
    fleet_cost,
    min_required_output_power,
    min_single_store_capacity,
    optimize_fleet,
    optimize_single_store,
    tune_lambdas,
)
from .traces import (
    ResidualTrace,
    SynthParams,
    TraceStats,
    load_csv,
    scale_to_overcapacity,
    synthesize,
    trace_stats,
)

__version__ = "0.1.0"
