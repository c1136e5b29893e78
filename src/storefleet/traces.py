"""Residual-energy trace ingestion, rescaling, synthesis and statistics.

A residual-energy trace is an hourly series of generation minus demand
in MW: positive hours have surplus available for charging, negative
hours have demand to be met from storage.  The trace errors and the
generator's knobs (``SynthParams``) are defined in ``params``, which
needs no numpy.
"""

from __future__ import annotations

import _thread
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import _load_hourloop
from .params import (
    HOURS_PER_YEAR,
    MAX_SYNTH_YEARS,
    DegenerateInput,
    InsufficientData,
    InvalidParams,
    NonFiniteValue,
    ParseError,
    SchemaError,
    SynthParams,
    TraceError,
)


@dataclass(frozen=True, eq=False)
class ResidualTrace:
    """Hourly residual-energy series (MW); compared and hashed by identity."""

    values_mw: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values_mw, dtype=float)
        if arr.ndim != 1 or len(arr) == 0:
            raise TraceError("trace must be a nonempty 1-D series")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("trace contains NaN or infinite values")
        object.__setattr__(self, "values_mw", arr)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ResidualTrace":
        return cls(np.asarray(values, dtype=float))

    def __len__(self) -> int:
        return len(self.values_mw)


_RESIDUAL_COLUMN = "residual_mw"
_COMPONENT_COLUMNS = ("demand_mw", "wind_mw", "solar_mw")


def _read_columns(path, schema: str | None) -> tuple[str, np.ndarray]:
    """The schema and its columns' values, one row per data line.

    ``schema`` is ``"components"`` to pin that schema, or None to detect
    it from the header.  Cells that do not parse, NaN or infinite entries
    and bytes that are not UTF-8 are rejected with their line number.
    """
    try:
        return _parse_columns(path, schema)
    except UnicodeDecodeError:
        # The text layer decodes whole blocks ahead of the reader, so the
        # line the reader stopped at need not hold the bad bytes: find it.
        with open(path, "rb") as fh:
            line_no = next(n for n, raw in enumerate(fh, start=1) if not _is_utf8(raw))
        raise ParseError(f"{path}:{line_no}: bytes that are not UTF-8 text", line=line_no) from None


def _is_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _parse_columns(path, schema: str | None) -> tuple[str, np.ndarray]:
    # Imported here, so that a process which reads no CSV never loads it.
    import csv

    # utf-8-sig drops the byte-order mark a spreadsheet's "CSV UTF-8" export leads with.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]

        if schema is None:
            if _RESIDUAL_COLUMN in header:
                schema = "residual"
            elif all(c in header for c in _COMPONENT_COLUMNS):
                schema = "components"
            else:
                raise SchemaError(
                    f"{path}: header {header} has neither {_RESIDUAL_COLUMN!r} "
                    f"nor all of {_COMPONENT_COLUMNS}"
                )
        wanted = (_RESIDUAL_COLUMN,) if schema == "residual" else _COMPONENT_COLUMNS
        missing = [c for c in wanted if c not in header]
        if missing:
            raise SchemaError(f"{path}: header {header} lacks {missing} for schema {schema!r}")
        cols = [header.index(c) for c in wanted]

        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            parsed = []
            for c in cols:
                try:
                    parsed.append(float(row[c]))
                except (ValueError, IndexError):
                    raise ParseError(
                        f"{path}:{line_no}: cannot parse {row[c] if c < len(row) else '<missing>'!r}",
                        line=line_no,
                    ) from None
            if any(not math.isfinite(x) for x in parsed):
                raise NonFiniteValue(f"{path}:{line_no}: non-finite value {parsed}", line=line_no)
            rows.append(parsed)

    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return schema, np.asarray(rows)


def load_csv(path) -> ResidualTrace:
    """Load a trace from CSV.

    Two schemas are accepted, told apart by the header: a single
    ``residual_mw`` column, or the triple ``demand_mw, wind_mw, solar_mw``
    (residual = wind + solar - demand).  NaN or infinite entries are
    rejected with their line number.
    """
    schema, rows = _read_columns(path, None)
    if schema == "residual":
        values = rows[:, 0]
    else:
        values = rows[:, 1] + rows[:, 2] - rows[:, 0]
    return ResidualTrace(values)


def load_components(path) -> tuple[np.ndarray, np.ndarray]:
    """(demand_mw, generation_mw) from a ``demand_mw, wind_mw, solar_mw`` CSV.

    Validated as ``load_csv`` validates; generation is wind + solar.
    """
    _, rows = _read_columns(path, "components")
    return rows[:, 0], rows[:, 1] + rows[:, 2]


def write_csv(trace: ResidualTrace, path) -> None:
    """Write a trace as a single residual_mw column; round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_RESIDUAL_COLUMN}\n")
        for x in trace.values_mw:
            fh.write(repr(float(x)) + "\n")


def scale_to_overcapacity(
    demand_mw: Sequence[float], generation_mw: Sequence[float], overcapacity: float
) -> ResidualTrace:
    """Rescale generation so its mean exceeds mean demand by a fraction.

    Generation is multiplied by k = (1 + overcapacity) * mean(demand) /
    mean(generation); the returned residual k * generation - demand then
    has mean overcapacity * mean(demand) exactly.
    """
    demand = np.asarray(demand_mw, dtype=float)
    generation = np.asarray(generation_mw, dtype=float)
    if demand.shape != generation.shape:
        raise DegenerateInput("demand and generation series must have equal length")
    mean_demand = float(np.mean(demand))
    mean_generation = float(np.mean(generation))
    if mean_demand <= 0.0 or mean_generation <= 0.0:
        raise DegenerateInput(
            f"means must be positive (demand {mean_demand}, generation {mean_generation})"
        )
    k = (1.0 + overcapacity) * mean_demand / mean_generation
    return ResidualTrace(k * generation - demand)


def _ar1(eps: np.ndarray, a: float, sd: float, x: float):
    """x, then x = a * x + sd * e for each later e of eps.

    The specification of ``_hourloop.c``'s ``ar1``, which ``synthesize``
    calls, and its path without the compiled module.  Steps over Python
    floats: the same IEEE operations as on numpy float64 scalars, at a
    fraction of the cost.  eps is read in slices, so no list of the
    whole series is made.
    """
    yield x
    for start in range(1, len(eps), 4096):
        for e in eps[start:start + 4096].tolist():
            x = a * x + sd * e
            yield x


def _normal_draws(lib, seed: int, n: int) -> np.ndarray:
    """``numpy.random.default_rng(seed).standard_normal(n)``, bit for bit.

    That call is the specification.  The compiled module (``lib``) makes
    the same draws with numpy's own sampler where its build linked it,
    from the seed's 32-bit words, least significant first; otherwise,
    and without the module, numpy.random draws them.
    """
    if lib is not None:
        seed = int(seed)
        words = np.array([seed >> shift & 0xFFFFFFFF
                          for shift in range(0, max(seed.bit_length(), 1), 32)], dtype=np.uint32)
        out = np.empty(n)
        if lib.normal_draws(len(words), words.ctypes.data, n, out.ctypes.data) == 0:
            return out
    return np.random.default_rng(seed).standard_normal(n)


# Traces of at least this many hours synthesize on two threads (see
# synthesize), shorter ones on one.  Measured in fresh processes on 2
# vCPU (medians of 15): at 2 years both took 1.5 ms, at 3 years two
# threads 2.1 ms against 2.4 ms, at 10 years 6.1 ms against 9.7 ms.
_SYNTH_THREAD_HOURS = 25_000


def synthesize(params: SynthParams) -> tuple[np.ndarray, np.ndarray]:
    """Generate (demand_mw, generation_mw), each of length years * 8760.

    Both series have mean approximately base_demand_mw, so pairing with
    ``scale_to_overcapacity`` produces a residual whose surplus fraction
    is controlled exactly.

    The normal draws of the wind noise are
    ``numpy.random.default_rng(seed).standard_normal(n)``, bit for bit.
    They and the AR(1) recursion over them run in the compiled module,
    so with it loaded no numpy.random is imported, and on a fresh
    checkout the first call may build that module with gcc, even for a
    caller that never simulates.  Without the module, or where its build
    found no numpy sampler archive to link, numpy.random draws them.

    With the module loaded, a trace of ``_SYNTH_THREAD_HOURS`` or more
    splits the noise and the three cosines between this thread and one
    helper (``_on_two_threads``).  The arithmetic after them is numpy's,
    one ufunc call at a time in place: each call writes with ``out=``
    into an array that no later step reads, and keeps the operand order
    of the expression in the comment above it.  So it rounds as that
    expression does, with numpy's promotion rules for whatever numbers
    the fields hold, and makes no temporary as long as the trace.
    """
    n = int(round(params.years * HOURS_PER_YEAR))
    # Hours are whole floats, so shifting one is exact: the daylight cosine
    # (phase 13) at hour h is the diurnal one (phase 18) at h + 5, and the
    # summer cosine at h is the seasonal one at h - half a year.  Each pair
    # is two slices of one array, bit for bit the cosine of its own phase.
    half_year = HOURS_PER_YEAR // 2
    lib = _load_hourloop()
    parts = (
        lambda: _wind(lib, params, n),
        lambda: _cosine(0, n, 0.0, 168.0),
        lambda: _cosine(-half_year, n, 400.0, HOURS_PER_YEAR),
        lambda: _cosine(0, n + 5, 18.0, 24.0),
    )
    if lib is not None and n >= _SYNTH_THREAD_HOURS:
        wind, weekly, seasonal, diurnal = _on_two_threads(parts)
    else:
        wind, weekly, seasonal, diurnal = (part() for part in parts)
    wind_mean = float(np.mean(wind))

    # demand = base * (1 + diurnal_amp * day + weekly_amp * week + seasonal_amp * season)
    demand = np.multiply(params.diurnal_amp, diurnal[:n])
    np.add(1.0, demand, out=demand)
    np.multiply(params.weekly_amp, weekly, out=weekly)
    np.add(demand, weekly, out=demand)
    np.multiply(params.seasonal_amp, seasonal[half_year:], out=weekly)
    np.add(demand, weekly, out=demand)
    np.multiply(params.base_demand_mw, demand, out=demand)

    # solar = max(daylight - 0.3, 0) * (1 + 0.5 * summer), in weekly's array.
    solar = np.subtract(diurnal[5:], 0.3, out=weekly)
    np.maximum(solar, 0.0, out=solar)
    summer = np.multiply(0.5, seasonal[:n], out=seasonal[:n])
    np.add(1.0, summer, out=summer)
    np.multiply(solar, summer, out=solar)

    solar_mean = float(np.mean(solar))
    _check_means(params, wind_mean, solar_mean)
    # generation = base * ((1 - share) * wind / wind_mean + share * solar / solar_mean),
    # each term only where its weight is nonzero.  Neither term is ever -0.0,
    # so a sum that starts from 0.0 would leave each one as it is.
    terms = []
    if params.solar_share < 1.0:
        np.multiply(1.0 - params.solar_share, wind, out=wind)
        terms.append(np.divide(wind, wind_mean, out=wind))
    if params.solar_share > 0.0:
        np.multiply(params.solar_share, solar, out=solar)
        terms.append(np.divide(solar, solar_mean, out=solar))
    generation = terms[0] if len(terms) == 1 else np.add(*terms, out=wind)
    np.multiply(params.base_demand_mw, generation, out=generation)
    return demand, generation


def _check_means(params: SynthParams, wind_mean: float, solar_mean: float) -> None:
    """Raise InvalidParams where a series the blend divides by has no mean."""
    if params.solar_share < 1.0 and wind_mean <= 0.0:
        raise InvalidParams("wind series degenerated to zero; lower noise_sd")
    if params.solar_share > 0.0 and solar_mean <= 0.0:
        raise InvalidParams("solar profile degenerated to zero")


def _cosine(start: int, stop: int, shift: float, period: float) -> np.ndarray:
    """cos(2 pi (h - shift) / period) for the hours h in [start, stop).

    Each step in place, one array for all of them: the same roundings as
    the expression, without its temporaries.
    """
    x = np.arange(start, stop, dtype=float)
    np.subtract(x, shift, out=x)
    np.multiply(2.0 * math.pi, x, out=x)
    np.divide(x, period, out=x)
    return np.cos(x, out=x)


def _wind(lib, params: SynthParams, n: int) -> np.ndarray:
    """max(1 + x, 0) for the AR(1) noise x of ``synthesize``."""
    eps = _normal_draws(lib, params.seed, n)
    a = params.ar_coeff
    stationary_sd = params.noise_sd / math.sqrt(1.0 - a * a) if params.noise_sd > 0.0 else 0.0
    x0 = float(stationary_sd) * float(eps[0])
    if lib is None:
        x = np.fromiter(_ar1(eps, float(a), float(params.noise_sd), x0), float, n)
    else:
        x = eps  # ar1 reads eps[t] before it writes out[t]
        lib.ar1(n, eps.ctypes.data, float(a), float(params.noise_sd), x0, x.ctypes.data)
    np.add(1.0, x, out=x)
    return np.maximum(x, 0.0, out=x)


def _on_two_threads(parts):
    """The results of calling each of ``parts``, on this thread and one helper.

    The helper takes parts from the front, this thread from the back,
    each part claimed under its own lock, so each runs once.  This
    thread waits only for a part the helper has begun: one no thread has
    claimed it runs itself, so a helper that gets no CPU, or cannot be
    started, costs about the serial time.  numpy's ufuncs and ctypes
    calls release the GIL, so the two threads' parts overlap.  The helper
    is started with ``_thread``: ``threading.Thread.start`` would wait
    for it to run.  An exception a part raises is raised here.
    """
    locks = [_thread.allocate_lock() for _ in parts]
    results = [None] * len(parts)  # (value, exception) once a part has run

    def run(i):  # holding locks[i]
        if results[i] is None:
            try:
                results[i] = (parts[i](), None)
            except BaseException as exc:  # raised again on the calling thread
                results[i] = (None, exc)

    def helper():
        for i, lock in enumerate(locks):
            if lock.acquire(False):
                try:
                    run(i)
                finally:
                    lock.release()

    try:
        _thread.start_new_thread(helper, ())
    except RuntimeError:  # no thread to be had: this thread runs every part
        pass
    for i in reversed(range(len(parts))):
        with locks[i]:
            run(i)
    out = []
    for value, exc in results:
        if exc is not None:
            raise exc
        out.append(value)
    return out


@dataclass(frozen=True, eq=False)
class TraceStats:
    """A trace's histogram and autocorrelation; compared and hashed by identity."""

    bin_counts: np.ndarray
    bin_edges: np.ndarray
    lags: tuple[int, ...]
    acf: np.ndarray


def trace_stats(trace: ResidualTrace, bins: int = 100, lags: Sequence[int] | None = None) -> TraceStats:
    """Histogram plus sample autocorrelation at the requested lags.

    Each lag is summed with ``np.dot``, which numpy's OpenBLAS splits
    across its threads, so the last bits of ``acf`` follow the BLAS
    thread count, by default the CPU count.  Setting
    ``OPENBLAS_NUM_THREADS=1`` before numpy's import, as ``cli.entry``
    does, gives the same bits on any machine.
    """
    values = trace.values_mw
    if lags is None:
        lags = range(0, min(501, len(values)))
    lags = tuple(int(k) for k in lags)
    if any(k < 0 for k in lags):
        raise InsufficientData("lags must be nonnegative")
    if lags and max(lags) >= len(values):
        raise InsufficientData(
            f"trace length {len(values)} does not cover lag {max(lags)}"
        )
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        raise InsufficientData("zero-variance trace has no autocorrelation")
    acf = np.empty(len(lags))
    for idx, k in enumerate(lags):
        acf[idx] = 1.0 if k == 0 else float(np.dot(centered[:-k], centered[k:])) / denom
    counts, edges = np.histogram(values, bins=bins)
    return TraceStats(bin_counts=counts, bin_edges=edges, lags=lags, acf=acf)


def write_stats_csv(stats: TraceStats, histogram_path, acf_path) -> None:
    with open(histogram_path, "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count\n")
        for left, right, count in zip(stats.bin_edges[:-1], stats.bin_edges[1:], stats.bin_counts):
            fh.write(f"{float(left)!r},{float(right)!r},{int(count)}\n")
    with open(acf_path, "w", encoding="utf-8") as fh:
        fh.write("lag,acf\n")
        for lag, value in zip(stats.lags, stats.acf):
            fh.write(f"{lag},{float(value)!r}\n")
