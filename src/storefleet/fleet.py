"""Store and fleet primitives with single-step dynamics.

Conventions used throughout the package:

* Levels and capacities are measured as *servable energy*: the energy a
  store can still deliver, with all round-trip losses booked when energy
  enters the store.  Published storage tables often use a split
  convention instead, where input and output each carry an efficiency of
  sqrt(eta); under that convention capacities and levels appear larger
  by a factor eta ** -0.5.  ``convention_factor`` gives that factor and
  ``convert_convention`` maps stores between the two;
  everything else in the package works in servable-energy terms.
* Time steps are one hour, so a rate in MW held for one step transfers
  the same number of MWh.  Positive rates charge, negative rates
  discharge.

Every value type of the package is declared with ``frozen_dataclass``,
which does the job of ``@dataclass(frozen=True)`` without compiling
methods from source each time a process imports the package.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, replace
from enum import Enum
from operator import attrgetter
from reprlib import recursive_repr
from typing import Sequence

# Absolute slack (MWh / MW) applied to floating-point feasibility checks.
# Chosen so that rounding accumulated over multi-decade hourly runs never
# trips a spurious violation, while real constraint breaches still do.
SLACK = 1e-6


def is_number(value) -> bool:
    """True for a real number other than a bool: the one rule for every numeric field."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def frozen_dataclass(cls=None, /, *, eq: bool = True):
    """``@dataclass(frozen=True[, eq=False])``, with no method compiled from source.

    Python's ``dataclass`` writes each method it adds as source text and
    compiles it, in every process that imports the class: about 0.6 ms a
    frozen class on Python 3.11, and with the package's 17 classes
    about 8 of the 17 ms that a CLI process spent importing its layers.
    This decorator applies ``dataclass(init=False, repr=False,
    eq=False)``, which compiles nothing, so ``dataclasses.fields``,
    ``replace``, ``asdict`` and ``is_dataclass`` work as before, and
    then installs closures over the fields: under 0.1 ms a class.

    They behave as the generated methods do.  ``__init__`` takes the
    fields positionally or by keyword, with their defaults, raises the
    interpreter's ``TypeError`` for a missing, extra or repeated
    argument, assigns each with ``object.__setattr__`` and then calls
    ``__post_init__``.  ``__setattr__`` and ``__delattr__`` raise
    ``FrozenInstanceError``; ``__repr__`` is ``QualName(field=repr, ...)``.
    With ``eq``, ``__eq__`` compares the field tuples of two instances of
    one class (``NotImplemented`` for any other) and ``__hash__`` hashes
    it; without, instances compare and hash by identity.  Fields take a
    plain default at most: ``field()`` options are refused.
    """
    if cls is None:
        return lambda cls: frozen_dataclass(cls, eq=eq)
    generated_doc = cls.__dict__.get("__doc__") is None
    if generated_doc:  # else dataclass writes one from object's signature, parsed from text
        cls.__doc__ = cls.__name__
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    params = cls.__dataclass_params__
    params.init = params.repr = params.frozen = True
    params.eq = eq
    found = fields(cls)
    for f in found:
        if f.default_factory is not MISSING or f.kw_only or f.hash is not None or not (
                f.init and f.repr and f.compare):
            raise TypeError(f"{cls.__qualname__}.{f.name}: frozen_dataclass takes no field() options")
    names = tuple(f.name for f in found)
    n = len(names)
    defaults = [f.default for f in found]
    required = sum(d is MISSING for d in defaults)
    index = {name: i for i, name in enumerate(names)}
    has_post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__
    init_name = f"{cls.__qualname__}.__init__()"

    def bind(args, kwargs):
        # The interpreter's checks, in its order: keywords, surplus positionals, missing.
        values = [*args, *defaults[len(args):]]
        for name, value in kwargs.items():
            i = index.get(name)
            if i is None:
                raise TypeError(f"{init_name} got an unexpected keyword argument {name!r}")
            if i < len(args):
                raise TypeError(f"{init_name} got multiple values for argument {name!r}")
            values[i] = value
        if len(args) > n:
            takes = f"from {required + 1} to {n + 1}" if required < n else f"{n + 1}"
            plural = "s" if required < n or n else ""
            raise TypeError(f"{init_name} takes {takes} positional argument{plural} "
                            f"but {len(args) + 1} were given")
        missing = [repr(name) for name, value in zip(names, values) if value is MISSING]
        if missing:
            listed = (missing[0] if len(missing) == 1 else f"{missing[0]} and {missing[1]}"
                      if len(missing) == 2 else f"{', '.join(missing[:-1])}, and {missing[-1]}")
            raise TypeError(f"{init_name} missing {len(missing)} required positional "
                            f"argument{'s' if len(missing) > 1 else ''}: {listed}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if has_post_init:
            self.__post_init__()

    @recursive_repr()
    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                f"{', '.join(f'{name}={getattr(self, name)!r}' for name in names)})")

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = [__init__, __repr__, __setattr__, __delattr__]
    if eq:
        field_values = (attrgetter(*names) if n > 1
                        else lambda self: tuple(getattr(self, name) for name in names))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return field_values(self) == field_values(other)
            return NotImplemented

        def __hash__(self):
            return hash(field_values(self))

        methods += [__eq__, __hash__]
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    __init__.__signature__ = inspect.Signature(
        [inspect.Parameter("self", positional)]
        + [inspect.Parameter(f.name, positional, annotation=f.type,
                             default=inspect.Parameter.empty if f.default is MISSING else f.default)
           for f in found],
        return_annotation=None)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        method.__module__ = cls.__module__
        setattr(cls, method.__name__, method)
    if generated_doc:  # as dataclass writes it, from the signature of __init__
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls


class FleetError(Exception):
    """Base class for store/fleet errors."""


class NonPositiveDimension(FleetError):
    """A capacity or power that must be strictly positive is not."""


class EfficiencyOutOfRange(FleetError):
    """Round-trip efficiency outside the half-open interval (0, 1]."""


class NotEquivalent(FleetError):
    """Stores cannot be merged: efficiencies or shape ratios differ."""


class _BoundViolation(FleetError):
    def __init__(self, message: str, time_index: int | None = None, store: int | None = None):
        super().__init__(message)
        self.time_index = time_index
        self.store = store


class CapacityViolation(_BoundViolation):
    """A store level left [0, capacity]."""


class RateViolation(_BoundViolation):
    """A signed rate left [-output_power, efficiency * input_power]."""


class LossConvention(Enum):
    """How round-trip losses are booked against the store level.

    INPUT_SIDE: level = energy the store can still deliver; all losses
    charged at input time (the package-internal convention).

    SPLIT_SQRT: input and output each lose sqrt(efficiency); capacities
    and levels are larger by efficiency ** -0.5 (the convention used for
    reported store sizes).
    """

    INPUT_SIDE = "input"
    SPLIT_SQRT = "split"


@frozen_dataclass
class StoreSpec:
    """One storage technology: capacity, power ratings and efficiency.

    capacity_mwh is servable energy (INPUT_SIDE convention) unless the
    caller is explicitly holding a SPLIT_SQRT description to convert.
    output_power_mw bounds the discharge rate; input_power_mw bounds the
    rate at which external energy may be drawn for charging (the store
    gains efficiency * draw).  Infinite power ratings are allowed to
    model unconstrained stores.
    """

    name: str
    capacity_mwh: float
    output_power_mw: float
    input_power_mw: float
    efficiency: float

    def max_charge_rate_mw(self, level_mwh: float) -> float:
        """Largest feasible positive rate: min(eta * Q, headroom)."""
        return min(self.efficiency * self.input_power_mw, self.capacity_mwh - level_mwh)

    def max_input_draw_mw(self, level_mwh: float) -> float:
        """Largest external draw this step: min(Q, headroom / eta)."""
        return min(self.input_power_mw, (self.capacity_mwh - level_mwh) / self.efficiency)

    def max_discharge_rate_mw(self, level_mwh: float) -> float:
        """Largest feasible discharge magnitude: min(P, level)."""
        return min(self.output_power_mw, level_mwh)


def validate_spec(spec: StoreSpec) -> None:
    """Raise unless all StoreSpec invariants hold.

    The name must be a string (FleetError); capacity a finite number > 0
    and the power ratings numbers > 0, infinity allowed (NonPositiveDimension);
    efficiency a number in (0, 1] (EfficiencyOutOfRange).
    """
    if not isinstance(spec.name, str):
        raise FleetError(f"store name must be a string, got {spec.name!r}")
    capacity = spec.capacity_mwh
    if not (is_number(capacity) and 0.0 < capacity < math.inf):
        raise NonPositiveDimension(
            f"store {spec.name!r}: capacity_mwh must be a finite number > 0, got {capacity!r}"
        )
    for field, value in (("output_power_mw", spec.output_power_mw), ("input_power_mw", spec.input_power_mw)):
        if not (is_number(value) and value > 0.0):
            raise NonPositiveDimension(f"store {spec.name!r}: {field} must be a number > 0, got {value!r}")
    if not (is_number(spec.efficiency) and 0.0 < spec.efficiency <= 1.0):
        raise EfficiencyOutOfRange(
            f"store {spec.name!r}: efficiency must lie in (0, 1], got {spec.efficiency!r}"
        )


def validate_fleet(fleet: Sequence[StoreSpec]) -> None:
    if not fleet:
        raise FleetError("fleet must contain at least one store")
    for spec in fleet:
        validate_spec(spec)


@frozen_dataclass
class FleetState:
    """Current servable-energy levels, one per store, plus a step counter."""

    levels_mwh: tuple[float, ...]
    time_index: int = 0


def full_state(fleet: Sequence[StoreSpec], time_index: int = 0) -> FleetState:
    """State with every store at capacity (the default starting point)."""
    return FleetState(tuple(s.capacity_mwh for s in fleet), time_index)


def _check_level_count(state: FleetState, fleet: Sequence[StoreSpec]) -> None:
    if len(state.levels_mwh) != len(fleet):
        raise FleetError(
            f"state has {len(state.levels_mwh)} levels for {len(fleet)} stores"
        )


def validate_state(state: FleetState, fleet: Sequence[StoreSpec]) -> None:
    _check_level_count(state, fleet)
    for i, (level, spec) in enumerate(zip(state.levels_mwh, fleet)):
        if not (-SLACK <= level <= spec.capacity_mwh + SLACK):
            raise CapacityViolation(
                f"store {i} level {level} outside [0, {spec.capacity_mwh}]",
                time_index=state.time_index,
                store=i,
            )


@frozen_dataclass
class StepDecision:
    """Signed per-store rates for one step plus the resulting imbalance.

    At most one of spill_mwh / unserved_mwh may be nonzero: a step either
    has surplus left over or demand left over, never both.
    """

    rates_mw: tuple[float, ...]
    spill_mwh: float = 0.0
    unserved_mwh: float = 0.0

    def __post_init__(self):
        if self.spill_mwh < -SLACK or self.unserved_mwh < -SLACK:
            raise ValueError("spill and unserved energy must be nonnegative")
        if self.spill_mwh > SLACK and self.unserved_mwh > SLACK:
            raise ValueError("a step cannot both spill and leave demand unserved")


def imbalance(re_mw: float, rates_mw: Sequence[float], efficiencies: Sequence[float]) -> float:
    """Residual energy minus what the rates account for.

    Discharges count at face value; charges count as the external draw
    rate / efficiency.  Positive result = spilled surplus, negative =
    unserved demand.
    """
    u = re_mw
    for r, eta in zip(rates_mw, efficiencies):
        if r < 0.0:
            u -= r
        else:
            u -= r / eta
    return u


def apply_step(state: FleetState, decision: StepDecision, fleet: Sequence[StoreSpec]) -> FleetState:
    """Advance one hour: levels_mwh[i] += rates_mw[i].

    Raises RateViolation / CapacityViolation (with slack SLACK) if the
    decision is outside the feasible box, and ``validate_state``'s
    FleetError for a state without one level per store.  Levels landing
    within slack of a bound are clamped onto it so that long runs cannot
    drift outside [0, capacity] through rounding.
    """
    _check_level_count(state, fleet)
    levels = list(state.levels_mwh)
    _level_step(fleet)(levels, decision.rates_mw, state.time_index)
    return FleetState(tuple(levels), state.time_index + 1)


def _level_step(fleet: Sequence[StoreSpec]):
    """Bind ``apply_step``'s check and clamp to one fleet, once per hour walk.

    ``step(levels, rates, hour)`` raises as ``apply_step`` does, naming
    ``hour``, or else moves the list ``levels`` in place.
    """
    n = len(fleet)
    capacity = [s.capacity_mwh for s in fleet]
    max_charge = [s.efficiency * s.input_power_mw for s in fleet]
    rate_lo = [-s.output_power_mw - SLACK for s in fleet]
    rate_hi = [m + SLACK for m in max_charge]
    level_lo, level_hi = -SLACK, [c + SLACK for c in capacity]
    stores = range(n)

    def step(levels, rates, hour):
        if len(rates) != n:
            raise FleetError(f"decision has {len(rates)} rates for {n} stores")
        for i in stores:
            r = rates[i]
            if r < rate_lo[i] or r > rate_hi[i]:
                raise RateViolation(f"hour {hour}: store {i} rate {r} outside "
                                    f"[-{fleet[i].output_power_mw}, {max_charge[i]}]",
                                    time_index=hour, store=i)
            level = levels[i] + r
            if level < level_lo or level > level_hi[i]:
                raise CapacityViolation(f"hour {hour}: store {i} level {level} outside "
                                        f"[0, {capacity[i]}]", time_index=hour, store=i)
            # min(max(level, 0.0), capacity[i]), without two builtin calls.
            levels[i] = 0.0 if level < 0.0 else capacity[i] if level > capacity[i] else level

    return step


def merge_equivalent(stores: Sequence[StoreSpec], rel_tol: float = 1e-9) -> StoreSpec:
    """Collapse stores with equal efficiency and shape into one.

    Stores sharing their efficiency and their capacity-to-power ratios
    (capacity/output_power and capacity/input_power) behave, under
    pro-rata operation, exactly like a single store with summed
    dimensions.  Raises NotEquivalent if the shapes differ beyond
    rel_tol.
    """
    if not stores:
        raise NotEquivalent("cannot merge an empty list of stores")
    base = stores[0]
    for spec in stores[1:]:
        if not math.isclose(spec.efficiency, base.efficiency, rel_tol=rel_tol):
            raise NotEquivalent(
                f"efficiencies differ: {base.name!r}={base.efficiency}, {spec.name!r}={spec.efficiency}"
            )
        for ratio_name, a, b in (
            ("capacity/output_power", base.capacity_mwh / base.output_power_mw,
             spec.capacity_mwh / spec.output_power_mw),
            ("capacity/input_power", base.capacity_mwh / base.input_power_mw,
             spec.capacity_mwh / spec.input_power_mw),
        ):
            if not math.isclose(a, b, rel_tol=rel_tol):
                raise NotEquivalent(
                    f"{ratio_name} ratios differ: {base.name!r}={a}, {spec.name!r}={b}"
                )
    return StoreSpec(
        name="+".join(s.name for s in stores),
        capacity_mwh=sum(s.capacity_mwh for s in stores),
        output_power_mw=sum(s.output_power_mw for s in stores),
        input_power_mw=sum(s.input_power_mw for s in stores),
        efficiency=base.efficiency,
    )


def convention_factor(
    efficiency: float, from_convention: LossConvention, to_convention: LossConvention
) -> float:
    """What a capacity or level in one convention is multiplied by to give another.

    INPUT_SIDE to SPLIT_SQRT is efficiency ** -0.5, the reverse
    efficiency ** 0.5, and within one convention 1.0.
    """
    if from_convention is to_convention:
        return 1.0
    if to_convention is LossConvention.SPLIT_SQRT:
        return efficiency ** -0.5
    return efficiency ** 0.5


def convert_convention(
    spec: StoreSpec,
    level_mwh: float,
    from_convention: LossConvention,
    to_convention: LossConvention,
) -> tuple[StoreSpec, float]:
    """Re-express a store's capacity and level under another convention.

    Both are multiplied by ``convention_factor``.  Power ratings and the
    efficiency itself are unchanged.  Round-trips are identities.
    """
    if from_convention is to_convention:
        return spec, level_mwh
    factor = convention_factor(spec.efficiency, from_convention, to_convention)
    return replace(spec, capacity_mwh=spec.capacity_mwh * factor), level_mwh * factor
