"""Time-stepping simulation, cumulative metrics and policy verification.

``simulate`` runs a policy over an hourly residual-energy trace and
accumulates unserved / spilled energy, per-store level traces, energy
served externally and energy moved between stores.  ``greedify``
rewrites any feasible rate schedule, in one forward pass, into a greedy
one that serves at least as much energy up to every hour;
``verify_feasible`` and ``verify_greedy`` are the matching checkers.
They, ``unserved_series`` and ``simulate`` step through ``apply_step``'s check.
``lower_bound_unserved`` is the unbeatable floor set by total output
power alone.

For a ``Policy``, ``simulate`` steps the hours in C: ``_hourloop.c``
repeats the Python loop's float operations in the same order, so its
results are bit-identical.  The same library holds the two passes of
``sizing.min_single_store_capacity``, the AR(1) noise recursion of
``traces.synthesize`` and the row formatter of ``write_simulation_csv``,
which prints each cell exactly as ``repr``.
Its first use in a process loads it, building it with gcc into the
package's ``__pycache__`` if no build of this source and these flags is
there.  Without a compiler or a writable cache, and for callable
policies, the Python loops run.
"""

from __future__ import annotations

import itertools
import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fleet import (
    SLACK,
    FleetError,
    FleetState,
    StepDecision,
    StoreSpec,
    _level_step,
    full_state,
    imbalance,
    validate_fleet,
    validate_state,
)
from .policies import _EPS, Policy


# Threshold below which imbalance residue is treated as rounding dust
# rather than something greedify needs to act on.
_GREEDIFY_EPS = 1e-9

# Rows formatted at a time by write_simulation_csv: one block's text is
# alive at a time.
_CSV_BLOCK_ROWS = 4096

# The compiled module: its source, the gcc flags (never -march=native
# or -ffast-math, which would move answers) and the cache it is built
# into, one file per source and flags.
_HOURLOOP_SOURCE = os.path.join(os.path.dirname(__file__), "_hourloop.c")
_HOURLOOP_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_HOURLOOP_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_UNLOADED = object()
# The loaded library, _UNLOADED before its first use, None when it
# cannot be built or loaded.
_hourloop = _UNLOADED


class _SignViolation(FleetError):
    def __init__(self, message: str, time_index: int):
        super().__init__(message)
        self.time_index = time_index


class OverdrawViolation(_SignViolation):
    """More energy drawn for charging than the surplus provides."""


class OverserveViolation(_SignViolation):
    """More energy discharged than the demand calls for."""


class NotGreedy(FleetError):
    """A step spills or leaves demand unserved without every store at its limit."""

    def __init__(self, message: str, time_index: int, store: int):
        super().__init__(message)
        self.time_index = time_index
        self.store = store


class InfeasibleInput(FleetError):
    """The rate schedule handed to greedify is not feasible."""


def trace_values(trace) -> np.ndarray:
    """Accept a ResidualTrace or any float sequence; return a 1-D array."""
    values = getattr(trace, "values_mw", trace)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise FleetError("residual-energy trace must be one-dimensional")
    return arr


def _finite_values(trace) -> np.ndarray:
    """``trace_values``, raising FleetError at the first NaN or infinite hour."""
    values = trace_values(trace)
    finite = np.isfinite(values)
    if not finite.all():
        t = int(finite.argmin())
        raise FleetError(f"residual-energy trace hour {t} is {values[t]}, not a finite number")
    return values


@dataclass(frozen=True)
class PolicyTrace:
    """A full rate schedule: one row per hour, one column per store."""

    rates_mw: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rates_mw, dtype=float)
        if arr.ndim != 2:
            raise FleetError("rates_mw must be a 2-D (hours x stores) array")
        object.__setattr__(self, "rates_mw", arr)


@dataclass(frozen=True)
class SimResult:
    """Everything a simulation run produced.

    unserved_cumulative_mwh / spill_cumulative_mwh are running totals
    after each hour; level_traces_mwh[t, i] is store i's level after hour
    t; served_external_mwh[i] is the total energy store i delivered to
    demand (cross-charged energy excluded, attributed pro rata when a
    store discharges into both demand and another store in one hour).
    """

    unserved_cumulative_mwh: np.ndarray
    spill_cumulative_mwh: np.ndarray
    level_traces_mwh: np.ndarray
    rates_mw: np.ndarray
    served_external_mwh: np.ndarray
    cross_charged_mwh: float
    final_state: FleetState

    @property
    def total_unserved_mwh(self) -> float:
        return float(self.unserved_cumulative_mwh[-1]) if len(self.unserved_cumulative_mwh) else 0.0

    @property
    def total_spill_mwh(self) -> float:
        return float(self.spill_cumulative_mwh[-1]) if len(self.spill_cumulative_mwh) else 0.0

    def policy_trace(self) -> PolicyTrace:
        return PolicyTrace(self.rates_mw)


def simulate(
    fleet: Sequence[StoreSpec],
    trace,
    policy: Policy | Callable[[FleetState, float, Sequence[StoreSpec]], StepDecision],
    initial: FleetState | None = None,
    unserved_limit_mwh: float | None = None,
) -> SimResult:
    """Run a policy step by step over the trace.

    ``policy`` is a Policy or any callable with the same decide signature.
    ``initial`` defaults to all stores full.  Deterministic: identical
    inputs give bit-identical results.

    With ``unserved_limit_mwh`` set, the run stops after the first hour
    whose cumulative unserved energy exceeds it, once that hour's
    accounting is done.  The result then covers only the hours stepped:
    its arrays are the full run's first rows, its totals and final state
    are those of the last hour stepped.
    """
    validate_fleet(fleet)
    values = _finite_values(trace)
    if len(values) == 0:
        raise FleetError("residual-energy trace is empty")
    state = initial if initial is not None else full_state(fleet)
    validate_state(state, fleet)

    n = len(fleet)
    limit = math.inf if unserved_limit_mwh is None else float(unserved_limit_mwh)
    if isinstance(policy, Policy):
        lambdas = policy.decay_rates(fleet)
        lib = _load_hourloop()
        if lib is not None:
            result = _simulate_compiled(lib, fleet, values, policy.kind, lambdas, state, limit)
            if result is not None:
                return result
        step = policy.raw_step(fleet)
    else:
        hour = itertools.count(state.time_index)

        def step(levels, re):
            decision = policy(FleetState(tuple(levels), next(hour)), re, fleet)
            return decision.rates_mw, decision.spill_mwh, decision.unserved_mwh

    move = _level_step(fleet)
    eta = [s.efficiency for s in fleet]
    stores = range(n)
    levels = list(state.levels_mwh)
    # Histories grow as flat lists, reshaped once at the end.
    rate_flat: list[float] = []
    level_flat: list[float] = []
    unserved_cum: list[float] = []
    spill_cum: list[float] = []
    served = [0.0] * n
    cross = 0.0
    cum_unserved = 0.0
    cum_spill = 0.0

    for t, re in enumerate(values.tolist()):
        rates, spill, unserved = step(levels, re)
        move(levels, rates, t)
        cum_unserved += unserved
        cum_spill += spill
        unserved_cum.append(cum_unserved)
        spill_cum.append(cum_spill)
        rate_flat.extend(rates)
        level_flat.extend(levels)

        if re < 0.0:
            # Store output splits between demand and cross-charge draw.
            output = 0.0
            draw = 0.0
            for r, e in zip(rates, eta):
                if r < 0.0:
                    output -= r
                elif r > 0.0:
                    draw += r / e
            if draw > 0.0:
                cross += draw
            served_total = output - draw
            if output > 0.0 and served_total > 0.0:
                share = served_total / output
                for i in stores:
                    r = rates[i]
                    if r < 0.0:
                        served[i] -= r * share
        else:
            # Any discharge during a surplus hour feeds other stores.
            for r in rates:
                if r < 0.0:
                    cross -= r

        if cum_unserved > limit:
            break

    stepped = len(unserved_cum)
    return SimResult(
        unserved_cumulative_mwh=np.array(unserved_cum),
        spill_cumulative_mwh=np.array(spill_cum),
        level_traces_mwh=np.array(level_flat).reshape(stepped, n),
        rates_mw=np.array(rate_flat).reshape(stepped, n),
        served_external_mwh=np.asarray(served),
        cross_charged_mwh=cross,
        final_state=FleetState(tuple(levels), state.time_index + stepped),
    )


def _load_hourloop():
    """The compiled module, or None where it cannot be had.

    The module is a ctypes library with five functions bound:
    ``simulate_hours`` (``simulate``'s hour loop), ``sequent_peak``
    and ``shortfall`` (``sizing.min_single_store_capacity``'s two
    passes), ``format_rows`` (``write_simulation_csv``'s rows) and
    ``ar1`` (``traces.synthesize``'s wind noise).  Loads it once per
    process, building it first (``_build_hourloop``) if the cache holds
    no build of this source and these flags.  Without gcc, with a failed
    build or an unusable cache directory this returns None, silently.
    """
    global _hourloop
    if _hourloop is not _UNLOADED:
        return _hourloop
    _hourloop = None
    # Imported on first use, so that importing the package loads no more modules.
    import ctypes

    try:
        with open(_HOURLOOP_SOURCE, "rb") as fh:
            source = fh.read()
        key = zlib.crc32(" ".join(_HOURLOOP_CFLAGS).encode() + b"\0" + source)
        path = os.path.join(_HOURLOOP_CACHE, f"_hourloop.{key:08x}.so")
        if not os.path.exists(path) and not _build_hourloop(path):
            return None
        module = ctypes.CDLL(path)
    except OSError:
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for symbol, restype, argtypes in (
        ("simulate_hours", i64, [i64, i64, i64, ptr, ptr, ptr, f64, f64, f64] + [ptr] * 9),
        ("sequent_peak", None, [i64, ptr, f64, ptr]),
        ("shortfall", f64, [i64, ptr, f64, f64, f64]),
        ("format_rows", i64, [i64, i64, i64, ptr, ptr, ptr, ptr]),
        ("ar1", None, [i64, ptr, f64, f64, f64, ptr]),
    ):
        function = getattr(module, symbol)
        function.restype = restype
        function.argtypes = argtypes
    _hourloop = module
    return module


def _build_hourloop(path: str) -> bool:
    """Build the library at ``path`` with gcc; False where that fails.

    gcc writes into a fresh temporary directory, and the library is
    renamed into place only once the build has succeeded, so processes
    building at the same time never load a half-written file.  The
    modules a build needs are imported here, so that a process which
    finds the library built never loads them.
    """
    import shutil
    import subprocess
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        return False
    cache, name = os.path.split(path)
    try:
        os.makedirs(cache, exist_ok=True)
        build = tempfile.mkdtemp(prefix=name + ".", dir=cache)
        try:
            out = os.path.join(build, name)
            subprocess.run(
                [gcc, *_HOURLOOP_CFLAGS, "-o", out, os.fspath(_HOURLOOP_SOURCE), "-lm"],
                stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=120,
            )
            os.replace(out, path)
        finally:
            shutil.rmtree(build, ignore_errors=True)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _simulate_compiled(lib, fleet, values, kind, lambdas, state, limit) -> SimResult | None:
    """``simulate`` for a Policy, stepped by the compiled loop.

    Returns None for a run the loop hands back (see ``_hourloop.c``):
    the caller replays it on the Python loop, which raises the error.
    """
    n, steps = len(fleet), len(values)
    spec = np.array(
        [(s.capacity_mwh, s.output_power_mw, s.input_power_mw, s.efficiency) for s in fleet],
        dtype=float,
    )
    decay = np.array(lambdas or (0.0,) * n, dtype=float)
    values = np.ascontiguousarray(values)
    levels = np.array(state.levels_mwh, dtype=float)
    rates = np.empty((steps, n))
    level_traces = np.empty((steps, n))
    unserved = np.empty(steps)
    spill = np.empty(steps)
    served = np.zeros(n)
    cross = np.zeros(1)
    scratch = np.empty(8 * n)
    order = np.empty(n, dtype=np.int64)
    stepped = lib.simulate_hours(
        n, steps, Policy._KINDS.index(kind), spec.ctypes.data, decay.ctypes.data,
        values.ctypes.data, limit, SLACK, _EPS, levels.ctypes.data, rates.ctypes.data,
        level_traces.ctypes.data, unserved.ctypes.data, spill.ctypes.data,
        served.ctypes.data, cross.ctypes.data, scratch.ctypes.data, order.ctypes.data,
    )
    if stepped < 0:
        return None
    return SimResult(
        unserved_cumulative_mwh=unserved[:stepped],
        spill_cumulative_mwh=spill[:stepped],
        level_traces_mwh=level_traces[:stepped],
        rates_mw=rates[:stepped],
        served_external_mwh=served,
        cross_charged_mwh=float(cross[0]),
        final_state=FleetState(tuple(levels.tolist()), state.time_index + stepped),
    )


def lower_bound_unserved(trace, total_output_power_mw: float) -> np.ndarray:
    """Cumulative unserved energy no feasible policy can beat.

    Demand beyond the fleet's combined output power cannot be served no
    matter how much energy is stored, so sum(max(0, -re - P_total)) up to
    each hour bounds every policy's cumulative unserved energy from below.
    """
    if total_output_power_mw < 0.0:
        raise FleetError("total output power must be nonnegative")
    values = trace_values(trace)
    return np.cumsum(np.maximum(0.0, -values - total_output_power_mw))


def _schedule(fleet: Sequence[StoreSpec], initial: FleetState, trace, policy_trace: PolicyTrace):
    """Walk a rate schedule, each row stepped by ``apply_step``'s check.

    Yields ``(t, re, row, levels_before)`` once hour ``t``'s rates and
    levels have passed ``apply_step``'s checks (RateViolation,
    CapacityViolation).  Hour 0 is the schedule's first row, whatever the
    initial time index.  Raises FleetError for a bad fleet or initial
    state, a NaN or infinite trace hour, and a schedule without one row
    per trace hour and one column per store.
    """
    validate_fleet(fleet)
    validate_state(initial, fleet)
    values = _finite_values(trace)
    rates = policy_trace.rates_mw
    if rates.shape[0] != len(values):
        raise FleetError(f"{rates.shape[0]} rate rows for {len(values)} trace hours")
    if rates.shape[1] != len(fleet):
        raise FleetError(f"{rates.shape[1]} rate columns for {len(fleet)} stores")
    move = _level_step(fleet)
    levels = list(initial.levels_mwh)
    for t, (re, row) in enumerate(zip(values.tolist(), rates.tolist())):
        before = levels.copy()
        move(levels, row, t)
        yield t, re, row, before


def verify_feasible(
    fleet: Sequence[StoreSpec],
    initial: FleetState,
    trace,
    policy_trace: PolicyTrace,
) -> None:
    """Check every step of a rate schedule, raising on the first violation.

    Checks, within slack SLACK: rate bounds and level bounds along the
    induced trajectory (each hour stepped by ``apply_step``'s check), and
    the imbalance sign discipline (surplus hours may not draw more than
    the surplus; deficit hours may not discharge beyond the demand).
    """
    etas = [s.efficiency for s in fleet]
    for t, re, row, _ in _schedule(fleet, initial, trace, policy_trace):
        u = imbalance(re, row, etas)
        if re >= 0.0 and u < -SLACK:
            raise OverdrawViolation(
                f"hour {t}: drew {-u} MW more than the {re} MW surplus", time_index=t
            )
        if re <= 0.0 and u > SLACK:
            raise OverserveViolation(
                f"hour {t}: discharged {u} MW beyond the {-re} MW demand", time_index=t
            )


def verify_greedy(
    fleet: Sequence[StoreSpec],
    initial: FleetState,
    trace,
    policy_trace: PolicyTrace,
) -> None:
    """Check the greedy conditions at every step of a schedule.

    Whenever a step spills, every store must be at its maximum charge
    rate; whenever a step leaves demand unserved, every store must be at
    its maximum discharge rate.  Raises NotGreedy with the offending hour
    and store, RateViolation or CapacityViolation for a row that leaves
    its bounds, and FleetError for a schedule that does not fit the fleet.
    """
    etas = [s.efficiency for s in fleet]
    for t, re, row, levels in _schedule(fleet, initial, trace, policy_trace):
        violation = _not_greedy(t, re, row, levels, fleet, etas)
        if violation is not None:
            raise violation


def _not_greedy(t: int, re: float, row, levels, fleet: Sequence[StoreSpec], etas) -> NotGreedy | None:
    """Hour ``t``'s greedy check, within SLACK, from the levels it starts at.

    Returns the NotGreedy naming the first store short of its limit in
    an hour that spills or leaves demand unserved, or None if the hour
    is greedy.
    """
    u = imbalance(re, row, etas)
    if re >= 0.0 and u > SLACK:
        for i, spec in enumerate(fleet):
            expected = spec.max_charge_rate_mw(levels[i])
            if row[i] < expected - SLACK:
                return NotGreedy(
                    f"hour {t}: spill {u} MWh but store {i} charges {row[i]} < {expected}",
                    time_index=t,
                    store=i,
                )
    elif re < 0.0 and u < -SLACK:
        for i, spec in enumerate(fleet):
            expected = -spec.max_discharge_rate_mw(levels[i])
            if row[i] > expected + SLACK:
                return NotGreedy(
                    f"hour {t}: unserved {-u} MWh but store {i} rate {row[i]} > {expected}",
                    time_index=t,
                    store=i,
                )
    return None


def _shift(row, sign: float, budget: float, limits, etas) -> None:
    """Move rates in direction ``sign``, store by store, until ``budget`` is used.

    In the move's frame x = sign * rate, store i's x rises toward
    limits[i] (never past it, and not at all from above it).  ``budget``
    is imbalance: a MW of discharge moves one MW of it, a MW of charge
    1/eta.  The part of a move below x = 0 is done first, then the part
    above; the loop stops once the budget is within _GREEDIFY_EPS of zero.
    """
    for i, (limit, eta) in enumerate(zip(limits, etas)):
        if budget <= _GREEDIFY_EPS:
            break
        # Rate moved per MW of imbalance below and above x = 0.
        below, above = (1.0, eta) if sign > 0.0 else (eta, 1.0)
        r = row[i]
        for start, end, per_mw in ((-math.inf, min(limit, 0.0), below), (0.0, limit, above)):
            x = sign * r
            if budget > _GREEDIFY_EPS and start <= x < end:
                step = min(end - x, budget * per_mw)
                if step > 0.0:
                    r += sign * step
                    budget -= step / per_mw
        row[i] = r


def _clip_to_levels(levels, row, re: float, fleet: Sequence[StoreSpec]) -> None:
    """Clip one row of a rewritten schedule to the levels it now starts from.

    Each rate is capped at its store's headroom and floored at minus its
    level.  A cap can strand discharge output at a deficit hour, so
    discharges are pulled back toward zero until the hour no longer
    overserves; a floor can leave charging unbacked at a surplus hour,
    so charges are pulled back until the hour no longer overdraws.
    """
    for i, spec in enumerate(fleet):
        headroom = max(spec.capacity_mwh - levels[i], 0.0)
        if row[i] > headroom:
            row[i] = headroom
        elif row[i] < -levels[i]:
            row[i] = -levels[i]
    etas = [s.efficiency for s in fleet]
    sign = 1.0 if re < 0.0 else -1.0
    _shift(row, sign, sign * imbalance(re, row, etas), [0.0] * len(fleet), etas)


def greedify(
    fleet: Sequence[StoreSpec],
    initial: FleetState,
    trace,
    policy_trace: PolicyTrace,
) -> PolicyTrace:
    """Rewrite a feasible schedule to be greedy at every hour.

    One forward pass.  Until the first change, a row that passes
    ``verify_greedy``'s check (within SLACK) is kept as it is.  Once an
    earlier hour has changed, each row is first clipped to the levels
    the rewritten schedule has reached (``_clip_to_levels``).  A row not
    kept is made greedy (charging raised at surplus hours, discharging
    deepened at deficit hours); then the levels are stepped by
    ``apply_step``'s check.  So a schedule ``verify_greedy`` accepts comes
    back unchanged, to the bit, even where it passes a bound by less than
    SLACK.  The result is feasible, greedy, and leaves no more demand
    unserved than the input at any hour; rewriting it again returns it
    unchanged.  Raises InfeasibleInput if the input schedule is not
    feasible.
    """
    values = trace_values(trace)
    try:
        verify_feasible(fleet, initial, trace, policy_trace)
    except FleetError as exc:
        raise InfeasibleInput(f"input schedule is not feasible: {exc}") from exc

    rates = policy_trace.rates_mw.copy()
    etas = [s.efficiency for s in fleet]
    move = _level_step(fleet)
    levels = list(initial.levels_mwh)
    changed = False
    for t, (re, row) in enumerate(zip(values.tolist(), rates)):
        if changed or _not_greedy(t, re, row, levels, fleet, etas) is not None:
            before = row.copy()
            if changed:
                _clip_to_levels(levels, row, re, fleet)
            sign = 1.0 if re >= 0.0 else -1.0
            limits = [
                s.max_charge_rate_mw(level) if re >= 0.0 else s.max_discharge_rate_mw(level)
                for s, level in zip(fleet, levels)
            ]
            _shift(row, sign, sign * imbalance(re, row, etas), limits, etas)
            changed = changed or bool(np.any(row != before))
        move(levels, row.tolist(), t)
    return PolicyTrace(rates)


def unserved_series(fleet: Sequence[StoreSpec], initial: FleetState, trace, policy_trace: PolicyTrace) -> np.ndarray:
    """Cumulative unserved energy of an explicit rate schedule.

    Raises RateViolation or CapacityViolation for a row that leaves its
    bounds, and FleetError for a schedule that does not fit the fleet.
    """
    etas = [s.efficiency for s in fleet]
    out = []
    total = 0.0
    for _, re, row, _ in _schedule(fleet, initial, trace, policy_trace):
        total += max(0.0, -imbalance(re, row, etas))
        out.append(total)
    return np.array(out, dtype=float)


def write_simulation_csv(path, trace, fleet: Sequence[StoreSpec], result: SimResult) -> None:
    """Plot-ready per-hour dump of a simulation run."""
    values = trace_values(trace)
    steps = len(values)
    columns = (
        values,
        result.rates_mw,
        result.level_traces_mwh,
        result.spill_cumulative_mwh,
        result.unserved_cumulative_mwh,
    )
    for column in columns[1:]:
        if len(column) != steps:
            raise FleetError(f"result covers {len(column)} of the trace's {steps} hours")
    for column, kind in ((result.rates_mw, "rate"), (result.level_traces_mwh, "level")):
        width = np.shape(column)[1] if np.ndim(column) == 2 else 0
        if width != len(fleet):
            raise FleetError(f"result has {width} {kind} columns for {len(fleet)} stores")
    names = [s.name for s in fleet]
    header = (
        ["hour", "re_mw"]
        + [f"rate_{n}" for n in names]
        + [f"level_{n}" for n in names]
        + ["spill_cum_mwh", "unserved_cum_mwh"]
    )
    lib = _load_hourloop()
    if lib is not None:
        # The compiled formatter reads each file column where it lies:
        # one base pointer and one stride, in doubles, per column.
        cells = []
        for array in columns:
            array = np.asarray(array, dtype=float)
            cells += map(_aligned, array.T if array.ndim == 2 else [array])
        bases = np.array([c.ctypes.data for c in cells], dtype=np.uintp)
        strides = np.array([c.strides[0] // c.itemsize for c in cells], dtype=np.int64)
        # Its output, reused from block to block.
        buffer = np.empty(0, dtype=np.uint8)
        # Where each column's text was last formatted, for copying repeats.
        spans = np.empty(2 * len(cells), dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        # Rows go out in blocks, so only one block's text is alive.  The
        # float trace column makes every block float.
        for start in range(0, steps, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, steps)
            if lib is None:
                block = np.column_stack([c[start:stop] for c in columns])
                fh.write(
                    "".join(
                        f"{t},{','.join(row)}\n"
                        for t, row in zip(range(start, stop), _csv_cells(block))
                    ).encode("utf-8")
                )
            else:
                # format_rows writes at most 20 + 25 * cols bytes a row.
                need = (stop - start) * (20 + 25 * len(cells))
                if len(buffer) < need:
                    buffer = np.empty(need, dtype=np.uint8)
                size = lib.format_rows(stop - start, len(cells), start, bases.ctypes.data,
                                       strides.ctypes.data, buffer.ctypes.data, spans.ctypes.data)
                fh.write(buffer[:size])


def _aligned(column: np.ndarray) -> np.ndarray:
    """``column``, or an aligned copy where its doubles are not aligned or
    lie no whole number of doubles apart."""
    if column.flags.aligned and column.strides[0] % column.itemsize == 0:
        return column
    return column.copy()


def _csv_cells(block: np.ndarray) -> list[list[str]]:
    """Each cell's repr, row by row, with each distinct value formatted once.

    The specification of ``_hourloop.c``'s ``format_rows``, which writes
    the same text, and the writer's path without the compiled module.

    Most cells repeat a value already seen in their block (zero and
    power-limit rates, full stores, flat cumulative columns).  Values
    are told apart by their bits, not by ==, because -0.0 and 0.0
    compare equal but print differently; equal bits print equally, so
    every cell is the repr of its own float.  The intermediate arrays
    die on return, before the next block is built.
    """
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    # The inverse's shape differs between numpy 2 releases.
    return texts[inverse.reshape(block.shape)].tolist()
