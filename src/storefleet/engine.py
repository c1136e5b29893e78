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

``simulate`` allocates a run's arrays once and builds its one
``SimResult`` from the rows stepped; one of two hour loops fills them.
For a ``Policy`` that is ``_step_compiled``, in C: ``_hourloop.c``
repeats the Python loop's float operations in the same order, so its
results are bit-identical.  ``_step_python`` is the specification, the
path for callable policies and the replay of a run the C loop hands
back.  The same library holds the two passes of
``sizing.min_single_store_capacity``, the normal draws and the AR(1)
noise recursion of ``traces.synthesize``, and the row writer of
``write_simulation_csv``, which prints each cell exactly as ``repr``,
the Python writer's definition.  It formats a file's rows in chunks on
the calling thread and one helper thread, which ends before the call
returns, and the calling thread writes them out in order; ctypes
releases the GIL for the call.  The normal draws are numpy's own
sampler, linked from the ``libnpyrandom.a`` archive numpy ships for C
users, so a process that synthesizes imports no ``numpy.random``.  Its
first use in a process loads the library, building it with gcc into
the package's ``__pycache__`` if no build of this source, these flags
and this archive is there, and deleting the builds of others.  Without
a compiler or a writable cache the Python loops run, and
``numpy.random`` draws.
"""

from __future__ import annotations

import functools
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

# Rows write_simulation_csv formats at a time, and the most rows whose
# text the compiled writer keeps at once (in 4096 // 1024 = 4 chunks).
_CSV_CHUNK_ROWS = 1024
_CSV_ROWS_IN_FLIGHT = 4096

# The compiled module: its source, the gcc flags (never -march=native
# or -ffast-math, which would move answers) and the cache it is built
# into, one file per source and flags.
_HOURLOOP_SOURCE = os.path.join(os.path.dirname(__file__), "_hourloop.c")
_HOURLOOP_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_HOURLOOP_CFLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-fPIC", "-shared")
# numpy's C sampler archive, which the build links for normal_draws where
# numpy ships it.  Found beside numpy's own package, so that finding it
# imports no numpy.random.
_NPYRANDOM_ARCHIVE = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
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


def _run_values(trace) -> np.ndarray:
    """``_finite_values``, raising FleetError for an empty trace: the hours of a run."""
    values = _finite_values(trace)
    if len(values) == 0:
        raise FleetError("residual-energy trace is empty")
    return values


@dataclass(frozen=True, eq=False)
class PolicyTrace:
    """A full rate schedule: one row per hour, one column per store.

    Compared and hashed by identity, as are ``SimResult``,
    ``traces.ResidualTrace`` and ``traces.TraceStats``: numpy arrays have
    no single truth value for ``==`` to return.
    """

    rates_mw: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rates_mw, dtype=float)
        if arr.ndim != 2:
            raise FleetError("rates_mw must be a 2-D (hours x stores) array")
        object.__setattr__(self, "rates_mw", arr)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Everything a simulation run produced.

    unserved_cumulative_mwh / spill_cumulative_mwh are running totals
    after each hour; level_traces_mwh[t, i] is store i's level after hour
    t; served_external_mwh[i] is the total energy store i delivered to
    demand (cross-charged energy excluded, attributed pro rata when a
    store discharges into both demand and another store in one hour).
    Compared and hashed by identity.
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
    values = _run_values(trace)
    state = initial if initial is not None else full_state(fleet)
    validate_state(state, fleet)

    n, steps = len(fleet), len(values)
    limit = math.inf if unserved_limit_mwh is None else float(unserved_limit_mwh)
    # The run's arrays, which either hour loop fills: levels enter as the
    # initial levels and leave as the final ones, served and cross are totals.
    levels = np.array(state.levels_mwh, dtype=float)
    rates, level_traces = np.empty((steps, n)), np.empty((steps, n))
    unserved, spill = np.empty(steps), np.empty(steps)
    served, cross = np.zeros(n), np.zeros(1)
    arrays = (levels, rates, level_traces, unserved, spill, served, cross)
    stepped = -1
    if isinstance(policy, Policy):
        lambdas = policy.decay_rates(fleet)
        lib = _load_hourloop()
        if lib is not None:
            stepped = _step_compiled(lib, fleet, values, policy.kind, lambdas, limit, arrays)
    if stepped < 0:
        stepped = _step_python(fleet, values, policy, state, limit, arrays)
    return SimResult(
        unserved_cumulative_mwh=unserved[:stepped],
        spill_cumulative_mwh=spill[:stepped],
        level_traces_mwh=level_traces[:stepped],
        rates_mw=rates[:stepped],
        served_external_mwh=served,
        cross_charged_mwh=float(cross[0]),
        final_state=FleetState(tuple(levels.tolist()), state.time_index + stepped),
    )


def _step_compiled(lib, fleet, values, kind, lambdas, limit, arrays) -> int:
    """``simulate``'s hour loop for a Policy, in C (``simulate_hours``).

    Returns the hours stepped, or -1 for a run the loop hands back (see
    ``_hourloop.c``), which ``_step_python`` replays.  By then the loop
    may have written rows and moved the levels and totals.
    """
    n = len(fleet)
    spec = np.array([(s.capacity_mwh, s.output_power_mw, s.input_power_mw, s.efficiency)
                     for s in fleet], dtype=float)
    decay = np.array(lambdas or (0.0,) * n, dtype=float)
    values = np.ascontiguousarray(values)
    scratch = np.empty(9 * n)
    order = np.empty(n, dtype=np.int64)
    return lib.simulate_hours(
        n, len(values), Policy._KINDS.index(kind), spec.ctypes.data, decay.ctypes.data,
        values.ctypes.data, limit, SLACK, _EPS, *[a.ctypes.data for a in arrays],
        scratch.ctypes.data, order.ctypes.data,
    )


def _step_python(fleet, values, policy, state, limit, arrays) -> int:
    """``simulate``'s hour loop in Python: the specification of ``simulate_hours``.

    Steps from ``state``'s levels, writes every row and total it reports
    into the run's arrays, whatever they held, and returns the hours
    stepped.  A Policy's step kernel is bound only here, so a run the C
    loop steps never binds it.
    """
    if isinstance(policy, Policy):
        step = policy.raw_step(fleet)
    else:
        hour = itertools.count(state.time_index)

        def step(levels, re):
            decision = policy(FleetState(tuple(levels), next(hour)), re, fleet)
            return decision.rates_mw, decision.spill_mwh, decision.unserved_mwh

    n = len(fleet)
    move = _level_step(fleet)
    eta = [s.efficiency for s in fleet]
    stores = range(n)
    levels = list(state.levels_mwh)
    # Histories grow as lists, copied into the arrays once at the end:
    # writing array rows every hour is slower.
    rate_flat, level_flat, unserved_cum, spill_cum = [], [], [], []
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
    histories = (levels, np.reshape(rate_flat, (stepped, n)), np.reshape(level_flat, (stepped, n)),
                 unserved_cum, spill_cum, served, [cross])
    for array, history in zip(arrays, histories):
        array[:len(history)] = history
    return stepped


def _load_hourloop():
    """The compiled module, or None where it cannot be had.

    The module is a ctypes library with six functions bound:
    ``simulate_hours`` (``simulate``'s hour loop), ``sequent_peak``
    and ``shortfall`` (``sizing.min_single_store_capacity``'s two
    passes), ``write_rows`` (``write_simulation_csv``'s rows), and
    ``normal_draws`` and ``ar1`` (``traces.synthesize``'s normal draws
    and wind noise).  Where numpy ships its sampler archive
    (``_NPYRANDOM_ARCHIVE``) the build links it; without it
    ``normal_draws`` returns -1.  Loads the module once per process,
    building it first (``_build_hourloop``) if the cache holds no build
    of this source, these flags and this archive: the cache key covers
    the archive's bytes, so a numpy upgrade gets a new build, which
    replaces the cache's builds of other keys.  Without
    gcc, with a failed build or an unusable cache directory this returns
    None, silently.
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
        try:
            with open(_NPYRANDOM_ARCHIVE, "rb") as fh:
                archive = fh.read()
            linked = ("-DSTOREFLEET_NPYRANDOM", os.fspath(_NPYRANDOM_ARCHIVE))
        except FileNotFoundError:
            archive, linked = b"", ()
        flags = " ".join((*_HOURLOOP_CFLAGS, *linked)).encode()
        key = zlib.crc32(flags + b"\0" + source + b"\0" + archive)
        path = os.path.join(_HOURLOOP_CACHE, f"_hourloop.{key:08x}.so")
        if not os.path.exists(path) and not _build_hourloop(path, linked):
            return None
        module = ctypes.CDLL(path)
    except OSError:
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for symbol, restype, argtypes in (
        ("simulate_hours", i64, [i64, i64, i64, ptr, ptr, ptr, f64, f64, f64] + [ptr] * 9),
        ("sequent_peak", None, [i64, ptr, f64, ptr]),
        ("shortfall", f64, [i64, ptr, f64, f64, f64]),
        ("write_rows", i64, [i64, i64, i64, i64, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr]),
        ("normal_draws", i64, [i64, ptr, i64, ptr]),
        ("ar1", None, [i64, ptr, f64, f64, f64, ptr]),
    ):
        function = getattr(module, symbol)
        function.restype = restype
        function.argtypes = argtypes
    _hourloop = module
    return module


def _build_hourloop(path: str, linked: tuple[str, ...]) -> bool:
    """Build the library at ``path`` with gcc; False where that fails.

    ``linked`` is what the build adds after the source: numpy's sampler
    archive and the define that compiles ``normal_draws`` against it.

    gcc writes into a fresh temporary directory, and the library is
    renamed into place only once the build has succeeded, so processes
    building at the same time never load a half-written file.  A
    successful build then removes the cache's other builds.  The
    modules a build needs are imported here, so that a process which
    finds the library built never loads them.
    """
    import contextlib
    import re
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
                [gcc, *_HOURLOOP_CFLAGS, "-o", out, os.fspath(_HOURLOOP_SOURCE), *linked, "-lm"],
                stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=120,
            )
            os.replace(out, path)
        finally:
            shutil.rmtree(build, ignore_errors=True)
    except (OSError, subprocess.SubprocessError):
        return False
    # Builds of other sources, flags or archives are never loaded again.
    # A build in progress is a directory named after its library, and stays.
    try:
        for other in os.listdir(cache):
            if other != name and re.fullmatch(r"_hourloop\.[0-9a-f]{8}\.so", other):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(cache, other))
    except OSError:
        pass
    return True


def lower_bound_unserved(trace, total_output_power_mw: float) -> np.ndarray:
    """Cumulative unserved energy no feasible policy can beat.

    Demand beyond the fleet's combined output power cannot be served no
    matter how much energy is stored, so sum(max(0, -re - P_total)) up to
    each hour bounds every policy's cumulative unserved energy from below.
    """
    if total_output_power_mw < 0.0:
        raise FleetError("total output power must be nonnegative")
    values = _finite_values(trace)
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
    """Plot-ready per-hour dump of a simulation run.

    The compiled writer formats the rows in chunks on the calling thread
    and one helper thread, and the calling thread writes each chunk out
    as soon as it and those before it are done.  The calling thread
    formats every chunk the helper has not begun, so a helper that gets
    no CPU (an OpenBLAS worker spinning on the other one, a process
    pinned to one CPU) makes the write no slower than one thread's.  A
    failed write raises OSError; the rows before it may be in the file.
    """
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
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if lib is not None:
            fh.flush()
            _write_rows(lib, fh.fileno(), columns, steps, path)
            return
        # Each cell's repr, one chunk of rows at a time: the specification
        # of write_rows.  The float trace column makes every row float.
        for start in range(0, steps, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, steps)
            block = np.column_stack([c[start:stop] for c in columns]).tolist()
            fh.write(
                "".join(
                    f"{t},{','.join(map(repr, row))}\n"
                    for t, row in zip(range(start, stop), block)
                ).encode("utf-8")
            )


def _write_rows(lib, fd: int, columns, steps: int, path) -> None:
    """Write the rows of ``columns`` to ``fd`` with the compiled ``write_rows``.

    It reads each file column where it lies, through one base pointer
    and one stride (in doubles) per column, and formats into a buffer of
    ``_CSV_ROWS_IN_FLIGHT`` rows' bound.  Raises OSError for a failed write.
    """
    cells = []
    for array in columns:
        array = np.asarray(array, dtype=float)
        cells += map(_aligned, array.T if array.ndim == 2 else [array])
    bases = np.array([c.ctypes.data for c in cells], dtype=np.uintp)
    strides = np.array([c.strides[0] // c.itemsize for c in cells], dtype=np.int64)
    chunk_rows = _CSV_CHUNK_ROWS
    slots = max(_CSV_ROWS_IN_FLIGHT // chunk_rows, 1)
    # write_rows writes at most 20 + 25 * cols bytes a row.
    buffer = np.empty(slots * chunk_rows * (20 + 25 * len(cells)), dtype=np.uint8)
    # Where each column's text was last formatted, for copying repeats:
    # one set for each thread, 16 entries apart.
    spans = np.empty(4 * len(cells) + 16, dtype=np.int64)
    slot_state = np.empty(2 * slots, dtype=np.int64)
    size = lib.write_rows(fd, steps, len(cells), 0, bases.ctypes.data, strides.ctypes.data,
                          chunk_rows, slots, buffer.ctypes.data, spans.ctypes.data,
                          slot_state.ctypes.data, _power_table().ctypes.data)
    if size < 0:
        raise OSError(-size, os.strerror(-size), path)


@functools.cache
def _power_table() -> np.ndarray:
    """Schubfach's powers of ten for ``write_rows``, computed from their definition.

    Row e + 292 holds g(e) = floor(10^e * 2^-r) + 1 with
    r = floor(log2 10^e) - 127, for e = -292..324, as {high, low} 64-bit
    halves; every g(e) lies in [2^127, 2^128).
    """
    rows = []
    # 10^|e|, kept from row to row: floor-divided by 10 up to e = 0,
    # then multiplied by 10.
    power = 10**292
    for e in range(-292, 325):
        if e >= 0:
            # 2^(b - 1) <= 10^e < 2^b for b = bit_length, so r = b - 128.
            r = power.bit_length() - 128
            g = (power >> r if r >= 0 else power << -r) + 1
            power *= 10
        else:
            # 10^-e is no power of two, so floor(log2 10^e) = -bit_length(10^-e).
            r = -power.bit_length() - 127
            g = (1 << -r) // power + 1
            power //= 10
        rows.append((g >> 64, g & (2**64 - 1)))
    return np.array(rows, dtype=np.uint64)


def _aligned(column: np.ndarray) -> np.ndarray:
    """``column``, or an aligned copy where its doubles are not aligned or
    lie no whole number of doubles apart."""
    if column.flags.aligned and column.strides[0] % column.itemsize == 0:
        return column
    return column.copy()

