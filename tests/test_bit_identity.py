"""Bit-identity pins for the per-hour step path.

Two independent ways to produce the same numbers must agree exactly:
the engine's bound closure (``Policy`` passed to ``simulate``) against
the public per-step dispatch (``Policy.decide`` passed as a plain
callable), and the block CSV writer against a per-cell one.  The CSV
tests run on the compiled row formatter and on the Python writer, and
hold both to ``repr`` on random bit patterns and on the values where a
shortest-decimal formatter goes wrong first.  A golden
test holds the sha256 of the CLI ``simulate`` outputs for a small fixed
scenario per policy, so any change to float operation order in the
step, the engine loop or the CSV writer shows.  Another holds the sha256
of ``sizing.json`` from ``size`` on the benchmark's sizing scenario, so
a change to the sizing search that moves an answer shows, and from
``size --no-optimize`` on its fixed fleet, so a change to the cost
table's float operations (the round trip through the split convention
included) shows.  A third
holds the sha256 of ``greedify``'s rewrites of seeded random schedules,
so a change to the rewrite's float operations shows.  A fourth holds
the sha256 of ``min_store_curve.csv`` from ``min-store-curve`` on the
benchmark's curve scenario, with ``--threads`` 1 and 2, so a change to
the sequent-peak passes or the synthetic trace that moves an answer
shows.
"""

import errno
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from storefleet import engine
from storefleet.cli import main
from storefleet.engine import (
    PolicyTrace,
    SimResult,
    greedify,
    simulate,
    unserved_series,
    write_simulation_csv,
)
from storefleet.fleet import FleetError, FleetState, StoreSpec
from storefleet.policies import Policy

from oracles import (
    random_feasible_rates,
    random_fleet,
    random_lambdas,
    random_levels,
    random_trace_values,
    record_search,
    search_calls,
    skipped_corners,
)


def _policies(rng, n):
    return (Policy.value(random_lambdas(rng, n)), Policy.ggddf(), Policy.grtef())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "infinite_output,infinite_input", [(False, False), (True, False), (False, True), (True, True)]
)
def test_bound_step_equals_decide(n, infinite_output, infinite_input):
    rng = np.random.default_rng(100 * n + 10 * infinite_output + infinite_input)
    fields = (
        "unserved_cumulative_mwh",
        "spill_cumulative_mwh",
        "level_traces_mwh",
        "rates_mw",
        "served_external_mwh",
    )
    cross = 0
    for _ in range(12):
        fleet = random_fleet(rng, n, infinite_output, infinite_input)
        initial = FleetState(random_levels(rng, fleet))
        values = random_trace_values(rng, 150)
        for policy in _policies(rng, n):
            fast = simulate(fleet, values, policy, initial=initial)
            slow = simulate(fleet, values, policy.decide, initial=initial)
            for field in fields:
                a, b = getattr(fast, field), getattr(slow, field)
                assert a.shape == b.shape, field
                assert a.tobytes() == b.tobytes(), f"{policy.kind}: {field} differs"
            assert fast.cross_charged_mwh == slow.cross_charged_mwh
            assert fast.final_state == slow.final_state
            cross += fast.cross_charged_mwh > 0.0
    if n > 1 and not infinite_output:
        assert cross > 0  # the sweep must exercise cross-charging


def _reference_csv(values, fleet, result) -> str:
    """The per-cell CSV writer: one numpy index and float() per cell."""
    names = [s.name for s in fleet]
    header = (
        ["hour", "re_mw"]
        + [f"rate_{n}" for n in names]
        + [f"level_{n}" for n in names]
        + ["spill_cum_mwh", "unserved_cum_mwh"]
    )
    lines = [",".join(header)]
    for t in range(len(values)):
        cells = [str(t), repr(float(values[t]))]
        cells += [repr(float(x)) for x in result.rates_mw[t]]
        cells += [repr(float(x)) for x in result.level_traces_mwh[t]]
        cells += [
            repr(float(result.spill_cumulative_mwh[t])),
            repr(float(result.unserved_cumulative_mwh[t])),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture(params=["compiled", "python"])
def csv_writer(request, monkeypatch):
    """Each CSV test runs on the compiled row formatter and on the Python writer."""
    if request.param == "python":
        monkeypatch.setattr(engine, "_load_hourloop", lambda: None)
    elif engine._load_hourloop() is None:
        pytest.skip("the compiled module cannot be built here")
    return request.param


def _write_cells(path, cells, names=("s0", "s1")):
    """Write an hours x (3 + 2n) array of cells as a simulation.csv of n
    stores; return the writer's inputs."""
    inputs = _cell_inputs(cells, names)
    write_simulation_csv(path, *inputs)
    return inputs


def _cell_inputs(cells, names=("s0", "s1")):
    """The writer's inputs (values, fleet, result) that print an hours x
    (3 + 2n) array of cells as a simulation.csv of n stores."""
    n = len(names)
    fleet = [StoreSpec(name, 1.0, 1.0, 1.0, 1.0) for name in names]
    values = cells[:, 0].copy()
    result = SimResult(
        unserved_cumulative_mwh=cells[:, -1].copy(),
        spill_cumulative_mwh=cells[:, -2].copy(),
        level_traces_mwh=cells[:, 1 + n:1 + 2 * n].copy(),
        rates_mw=cells[:, 1:1 + n].copy(),
        served_external_mwh=np.zeros(n),
        cross_charged_mwh=0.0,
        final_state=FleetState(tuple(cells[-1, 1 + n:1 + 2 * n].tolist())),
    )
    return values, fleet, result


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 50, 4096])
def test_block_csv_writer_matches_per_cell_writer(tmp_path, monkeypatch, block_rows, csv_writer):
    monkeypatch.setattr(engine, "_CSV_CHUNK_ROWS", block_rows)
    rng = np.random.default_rng(5)
    fleet = random_fleet(rng, 3)
    values = random_trace_values(rng, 50)
    result = simulate(fleet, values, Policy.value(random_lambdas(rng, 3)))
    path = tmp_path / "sim.csv"
    write_simulation_csv(path, values, fleet, result)
    assert path.read_text(encoding="utf-8") == _reference_csv(values, fleet, result)


# Cells whose repr a writer that dedupes on float values rather than on
# bits gets wrong: -0.0 and 0.0 compare equal but print differently.
_EDGE_VALUES = (
    -0.0, 0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    5e-324, 1e16, 1e-05, 0.1, -2.5,
)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 5, 4096])
def test_block_csv_writer_keeps_edge_values(tmp_path, monkeypatch, block_rows, csv_writer):
    monkeypatch.setattr(engine, "_CSV_CHUNK_ROWS", block_rows)
    # Row t holds seven consecutive edge values from offset t, so values
    # repeat within and across rows, and many rows hold both zeros.
    cells = np.array([[_EDGE_VALUES[(t + k) % len(_EDGE_VALUES)] for k in range(7)]
                      for t in range(40)])
    assert sum(1 for row in cells if {"-0.0", "0.0"} <= set(map(repr, row.tolist()))) > 10
    path = tmp_path / "sim.csv"
    inputs = _write_cells(path, cells)
    assert path.read_text(encoding="utf-8") == _reference_csv(*inputs)


def _repr_cases():
    """200k seeded random bit patterns (NaN payloads included) and the
    values where a shortest-repr formatter goes wrong first."""
    rng = np.random.default_rng(17)
    bits = rng.integers(-2**63, 2**63 - 1, 200_000, dtype=np.int64, endpoint=True)
    values = bits.view(np.float64).tolist()
    # Every power of two and its neighbours: at a power of two the lower
    # neighbour is half as far away as the upper one.
    for e in range(-1074, 1024):
        p = math.ldexp(1.0, e)
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    smallest_normal = 2.2250738585072014e-308
    values += [k * 5e-324 for k in range(1, 2000)]
    values += [smallest_normal - k * 5e-324 for k in range(1, 2000)]
    values += rng.uniform(0.0, smallest_normal, 2000).tolist()
    values += [math.inf, math.nan, 0.0, 2.0**53 - 2, 2.0**53 + 2, 2.0**53 - 1, 2.0**53,
               1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 1e-5,
               0.00010000000000000002, 9.999999999999999e-05]
    values += [-x for x in values[200_000:]]
    return np.array(values)


def test_csv_writer_prints_each_float_as_repr(tmp_path, csv_writer):
    values = _repr_cases()
    cells = np.resize(values, (-(-len(values) // 7), 7))
    path = tmp_path / "sim.csv"
    inputs = _write_cells(path, cells)
    assert path.read_text(encoding="utf-8") == _reference_csv(*inputs)


def test_csv_writer_encodes_a_non_ascii_header(tmp_path, csv_writer):
    cells = np.arange(70.0).reshape(10, 7) / 3.0
    path = tmp_path / "sim.csv"
    inputs = _write_cells(path, cells, names=("Pumpspeicher-Überlauf", "蓄電池"))
    text = path.read_bytes().decode("utf-8")
    assert text.startswith("hour,re_mw,rate_Pumpspeicher-Überlauf,rate_蓄電池,")
    assert text == _reference_csv(*inputs)


def test_csv_writer_fills_a_block_of_the_longest_cells(tmp_path, csv_writer):
    # The compiled writer's buffer holds 20 + 25 * cols bytes a row: every
    # chunk in flight full of 24-byte cells comes closest to that bound.
    longest = -2.2250738585072014e-308
    assert len(repr(longest)) == 24
    cells = np.full((engine._CSV_ROWS_IN_FLIGHT + 3, 7), longest)
    path = tmp_path / "sim.csv"
    inputs = _write_cells(path, cells)
    assert path.read_text(encoding="utf-8") == _reference_csv(*inputs)


@pytest.mark.parametrize("rows", [1, 2, 3, 4096])
def test_format_rows_writes_nothing_past_its_bound(tmp_path, rows):
    # write_rows with every chunk slot full, on a buffer of exactly
    # slots * chunk_rows * (20 + 25 * cols) bytes, followed by sentinel
    # bytes.  Every cell is the longest repr and every hour has 19
    # digits, so each chunk's text fills its slot.  A stride of 0 reads
    # one double for every hour, so no base has to point back by
    # first_hour rows.
    lib = engine._load_hourloop()
    if lib is None:
        pytest.skip("the compiled module cannot be built here")
    longest, first_hour, cols = -2.2250738585072014e-308, 10**18, 7
    chunk_rows = 512 if rows >= 512 else 1
    slots = rows // chunk_rows
    bound = slots * chunk_rows * (20 + 25 * cols)
    buffer = np.full(bound + 64, 0xA5, dtype=np.uint8)
    cell = np.full((1, cols), longest)
    with open(tmp_path / "rows.csv", "wb") as fh:
        bases = np.full(cols, cell.ctypes.data, dtype=np.uintp)
        strides = np.zeros(cols, dtype=np.int64)
        spans = np.empty(4 * cols + 16, dtype=np.int64)
        size = lib.write_rows(fh.fileno(), rows, cols, first_hour, bases.ctypes.data,
                              strides.ctypes.data, chunk_rows, slots, buffer.ctypes.data,
                              spans.ctypes.data, np.empty(2 * slots, dtype=np.int64).ctypes.data,
                              engine._power_table().ctypes.data)
    assert (buffer[bound:] == 0xA5).all()
    # The per-cell writer's rows, each hour moved on by first_hour.
    lines = _reference_csv(*_cell_inputs(np.full((rows, cols), longest))).splitlines()[1:]
    expected = "".join(f"{first_hour + t}{line[len(str(t)):]}\n" for t, line in enumerate(lines))
    assert size == bound
    assert (tmp_path / "rows.csv").read_bytes().decode("ascii") == expected


# Bit patterns the copy of a repeated cell must tell apart: -0.0 from
# 0.0, and NaNs of other signs and payloads (quiet and signalling), which
# all print "nan".
_REPEAT_BITS = np.array(
    [0x0000000000000000, 0x8000000000000000, 0x3FF8000000000000, 0xBE90C6F7A0B5ED8D,
     0x4480F0CF064DD592, 0x0000000000000001, 0x7FF0000000000000, 0x7FF8000000000000,
     0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
    dtype=np.uint64,
)


@pytest.mark.parametrize("block_rows", [3, 50])
@pytest.mark.parametrize("stores", [2, 40])
def test_csv_writer_copies_repeated_cells(tmp_path, monkeypatch, block_rows, stores, csv_writer):
    # Cells with the bits of the cell above them, whose text the compiled
    # formatter copies: runs of equal cells, some across the edge of a
    # block, 0.0 and -0.0 alternating in one column, NaNs with different
    # payloads, and (at 40 stores) 83 columns.
    monkeypatch.setattr(engine, "_CSV_CHUNK_ROWS", block_rows)
    rng = np.random.default_rng(1802)
    rows, cols = 120, 3 + 2 * stores
    bits = np.empty((rows, cols), dtype=np.uint64)
    for j in range(cols):
        t = 0
        while t < rows:
            run = int(rng.integers(1, 9))
            bits[t:t + run, j] = _REPEAT_BITS[rng.integers(len(_REPEAT_BITS))]
            t += run
    bits[:, 1] = np.where(np.arange(rows) % 2, 0x8000000000000000, 0)
    bits[:, 2] = _REPEAT_BITS[7 + np.arange(rows) % 5]  # a NaN payload changes every row
    cells = bits.view(np.float64)
    repeats = bits[1:] == bits[:-1]
    assert repeats.mean() > 0.5
    assert repeats[block_rows - 1::block_rows].any()  # a run crosses a block edge
    names = tuple(f"s{i}" for i in range(stores))
    path = tmp_path / "sim.csv"
    inputs = _write_cells(path, cells, names=names)
    text = path.read_text(encoding="utf-8")
    assert text == _reference_csv(*inputs)
    assert {"0.0", "-0.0"} <= {line.split(",")[2] for line in text.splitlines()[1:]}


def _unaligned(values: np.ndarray) -> np.ndarray:
    """A float64 copy of ``values`` whose doubles start one byte off alignment."""
    raw = np.zeros(values.nbytes + 1, dtype=np.uint8)
    view = raw[1:].view(np.float64)
    view[:] = values
    return view


@pytest.mark.parametrize("block_rows", [4, 4096])
def test_csv_writer_reads_columns_of_any_layout(tmp_path, monkeypatch, block_rows, csv_writer):
    # The compiled formatter reads the result arrays where they lie: a
    # column-major and a reversed 2-D array, an integer column, doubles
    # off alignment and doubles 12 bytes apart print as the copies do.
    monkeypatch.setattr(engine, "_CSV_CHUNK_ROWS", block_rows)
    rng = np.random.default_rng(1901)
    hours = 30
    cells = rng.normal(size=(2 * hours, 7))
    cells[::3] = -0.0
    values = _unaligned(cells[:hours, 0])
    assert not values.flags.aligned
    packed = np.zeros(hours, dtype=[("x", np.float64), ("pad", np.int32)])
    packed["x"] = cells[::2, 5]
    assert packed["x"].strides == (12,)
    result = SimResult(
        unserved_cumulative_mwh=np.arange(hours),
        spill_cumulative_mwh=packed["x"],
        level_traces_mwh=cells[hours:, 3:5][::-1],
        rates_mw=np.asfortranarray(cells[:hours, 1:3]),
        served_external_mwh=np.zeros(2),
        cross_charged_mwh=0.0,
        final_state=FleetState((0.0, 0.0)),
    )
    fleet = [StoreSpec(name, 1.0, 1.0, 1.0, 1.0) for name in ("s0", "s1")]
    path = tmp_path / "sim.csv"
    write_simulation_csv(path, values, fleet, result)
    assert path.read_text(encoding="utf-8") == _reference_csv(values, fleet, result)


def test_csv_writers_on_two_threads_write_what_serial_writers_do(tmp_path, csv_writer):
    # Two threads write simulation.csv for different runs at the same
    # time (the compiled formatter runs with the GIL released), four files
    # each.  Every file must hold the bytes a serial write gives, which
    # fails if write_rows kept scratch shared between calls.
    rng = np.random.default_rng(2707)
    runs = []
    for n in (2, 3):
        fleet = random_fleet(rng, n)
        values = random_trace_values(rng, 2 * engine._CSV_ROWS_IN_FLIGHT + 5)
        runs.append((values, fleet, simulate(fleet, values, Policy.value(random_lambdas(rng, n)))))
    serial = []
    for k, run in enumerate(runs):
        write_simulation_csv(tmp_path / f"serial{k}.csv", *run)
        serial.append((tmp_path / f"serial{k}.csv").read_bytes())
    start = threading.Barrier(len(runs))

    def write(k):
        start.wait()
        for i in range(4):
            write_simulation_csv(tmp_path / f"thread{k}.{i}.csv", *runs[k])

    with ThreadPoolExecutor(len(runs)) as pool:
        for future in [pool.submit(write, k) for k in range(len(runs))]:
            future.result()
    for k in range(len(runs)):
        for i in range(4):
            assert (tmp_path / f"thread{k}.{i}.csv").read_bytes() == serial[k], (k, i)


def _digits(base: int, n: int) -> int:
    return n.bit_length() if base == 2 else len(str(n))


def _floor_log(base: int, x: Fraction) -> int:
    """floor(log_base x) of a positive rational, exactly."""
    # Within one of the answer: the difference of the terms' digit counts.
    k = _digits(base, x.numerator) - _digits(base, x.denominator)
    while Fraction(base) ** k > x:
        k -= 1
    while Fraction(base) ** (k + 1) <= x:
        k += 1
    return k


def test_hourloop_power_table_matches_its_definition():
    # The formatter's shifted products stand in for exact logarithms: its
    # floor(log2 10^e) for every row of the power table, and its
    # floor(log10 2^q), or floor(log10(3/4 * 2^q)) at a power of two whose
    # lower neighbour is closer, for every binary exponent q of a double.
    log2 = {}
    for e in range(-292, 325):
        log2[e] = _floor_log(2, Fraction(10) ** e)
        assert (e * 1741647) >> 19 == log2[e], e
    for q in range(-1074, 972):
        assert (q * 1262611) >> 22 == _floor_log(10, Fraction(2) ** q), q
        if q > -1074:  # lower_closer needs a biased exponent above 1
            lower_closer = Fraction(3, 4) * Fraction(2) ** q
            assert (q * 1262611 - 524031) >> 22 == _floor_log(10, lower_closer), q
    # Each g(e) is floor(10^e * 2^-r) + 1, r = floor(log2 10^e) - 127, and
    # fills exactly 128 bits.
    table = engine._power_table()
    assert table.shape == (617, 2) and table.dtype == np.uint64
    for (high, low), e in zip(table.tolist(), range(-292, 325)):
        g = high << 64 | low
        assert 2**127 <= g < 2**128, e
        assert g - 1 <= Fraction(10) ** e / Fraction(2) ** (log2[e] - 127) < g, e


def _child_env() -> dict[str, str]:
    """The environment, with this checkout's package first on the path."""
    src = str(Path(engine.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_child(script: str, *args) -> str:
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# A child process pins itself to the CPU given (-1: none), synthesizes a
# 10-year trace and writes simulation.csv for the first hours of a
# 3-store value run over it, one file per count of hours given; it
# prints the sha256 of the series and of each file.
_PINNED_CHILD = """
import hashlib, os, sys
from storefleet import engine, traces
from storefleet.fleet import StoreSpec
from storefleet.params import SynthParams
from storefleet.policies import Policy

cpu, out, hours = int(sys.argv[1]), sys.argv[2], map(int, sys.argv[3:])
if cpu >= 0:
    os.sched_setaffinity(0, {cpu})
demand, generation = traces.synthesize(SynthParams(years=10.0, seed=29, solar_share=0.35))
print(hashlib.sha256(demand.tobytes() + generation.tobytes()).hexdigest())
trace = traces.scale_to_overcapacity(demand, generation, 0.3)
fleet = [StoreSpec("long", 1.2e6, 1100.0, 900.0, 0.4), StoreSpec("medium", 1e4, 700.0, 700.0, 0.7),
         StoreSpec("short", 2e3, 500.0, 500.0, 0.9)]
for n in hours:
    values = trace.values_mw[:n]
    result = engine.simulate(fleet, values, Policy.value([1e-3, 0.03, 0.1]))
    engine.write_simulation_csv(out, values, fleet, result)
    with open(out, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_outputs_pinned_to_one_cpu_match_unpinned_ones(tmp_path):
    # The CSV writer's helper shares the one CPU with the calling thread,
    # which must not wait for work the helper has not begun.  Files of
    # one row, of whole chunks, of whole in-flight buffers and one row
    # past each.
    if engine._load_hourloop() is None:
        pytest.skip("the compiled module cannot be built here")
    chunk, in_flight = engine._CSV_CHUNK_ROWS, engine._CSV_ROWS_IN_FLIGHT
    hours = [1, chunk, chunk + 1, 2 * in_flight, 2 * in_flight + 1]
    unpinned = _run_child(_PINNED_CHILD, -1, tmp_path / "free.csv", *hours)
    assert len(unpinned.split()) == 1 + len(hours)
    for cpu in sorted(os.sched_getaffinity(0))[:2]:
        assert _run_child(_PINNED_CHILD, cpu, tmp_path / f"cpu{cpu}.csv", *hours) == unpinned, cpu


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_csv_writer_raises_oserror_when_the_device_is_full(csv_writer):
    with pytest.raises(OSError) as raised:
        _write_cells("/dev/full", np.arange(70.0).reshape(10, 7))
    assert raised.value.errno == errno.ENOSPC


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_write_rows_returns_the_errno_of_a_failed_write():
    lib = engine._load_hourloop()
    if lib is None:
        pytest.skip("the compiled module cannot be built here")
    cell = np.array([0.5])
    bases = np.array([cell.ctypes.data], dtype=np.uintp)
    strides, spans = np.zeros(1, dtype=np.int64), np.empty(20, dtype=np.int64)
    buffer, slot_state = np.empty(2 * 45, dtype=np.uint8), np.empty(4, dtype=np.int64)
    with open("/dev/full", "wb") as fh:
        size = lib.write_rows(fh.fileno(), 3, 1, 0, bases.ctypes.data, strides.ctypes.data, 1, 2,
                              buffer.ctypes.data, spans.ctypes.data, slot_state.ctypes.data,
                              engine._power_table().ctypes.data)
    assert size == -errno.ENOSPC


# A child process writes the cells saved at argv[1] as a simulation.csv
# of two stores to the path argv[2], with the writer argv[4], argv[3]
# its file size limit in bytes (0: none) and SIGALRM every 0.1 ms, so
# that a blocked write is interrupted; it prints the errno of the
# OSError raised, or 0.
_WRITER_CHILD = """
import resource, signal, sys
import numpy as np
from storefleet import engine
from storefleet.engine import SimResult, write_simulation_csv
from storefleet.fleet import FleetState, StoreSpec

cells, path, limit = np.load(sys.argv[1]), sys.argv[2], int(sys.argv[3])
if sys.argv[4] == "python":
    engine._hourloop = None
if limit:
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
fleet = [StoreSpec(name, 1.0, 1.0, 1.0, 1.0) for name in ("s0", "s1")]
result = SimResult(cells[:, 6].copy(), cells[:, 5].copy(), cells[:, 3:5].copy(),
                   cells[:, 1:3].copy(), np.zeros(2), 0.0, FleetState((0.0, 0.0)))
signal.signal(signal.SIGALRM, lambda *args: None)
signal.setitimer(signal.ITIMER_REAL, 1e-4, 1e-4)
try:
    write_simulation_csv(path, cells[:, 0].copy(), fleet, result)
except OSError as exc:
    print(exc.errno)
else:
    print(0)
finally:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
"""


def _writer_cells(tmp_path):
    """Random cells for 2 in-flight buffers and a row, saved for a child."""
    cells = np.random.default_rng(2909).normal(size=(2 * engine._CSV_ROWS_IN_FLIGHT + 1, 7))
    np.save(tmp_path / "cells.npy", cells)
    return cells


@pytest.mark.skipif(not hasattr(os, "pipe") or sys.platform == "win32", reason="needs /dev/fd")
def test_csv_writer_writes_through_short_and_interrupted_writes(tmp_path, csv_writer):
    # The child writes to a pipe read slowly here, so its writes block,
    # and the alarm cuts them short or interrupts them (EINTR).
    cells = _writer_cells(tmp_path)
    read_end, write_end = os.pipe()
    child = subprocess.Popen(
        [sys.executable, "-c", _WRITER_CHILD, str(tmp_path / "cells.npy"), f"/dev/fd/{write_end}",
         "0", csv_writer], pass_fds=(write_end,), env=_child_env(), stdout=subprocess.PIPE, text=True)
    os.close(write_end)
    data = bytearray()
    with open(read_end, "rb", buffering=0) as pipe:
        while chunk := pipe.read(4096):
            data += chunk
            time.sleep(1e-4)
    assert child.communicate(timeout=120)[0].split() == ["0"]
    assert data.decode("utf-8") == _reference_csv(*_cell_inputs(cells))


def test_csv_writer_raises_oserror_past_a_file_size_limit(tmp_path):
    # The header fits under the limit and the rows do not: the write that
    # reaches the limit is short, the next fails with EFBIG.
    if engine._load_hourloop() is None:
        pytest.skip("the compiled module cannot be built here")
    cells = _writer_cells(tmp_path)
    limit = 100_000
    out = _run_child(_WRITER_CHILD, tmp_path / "cells.npy", tmp_path / "sim.csv", limit, "compiled")
    assert out.split() == [str(errno.EFBIG)]
    expected = _reference_csv(*_cell_inputs(cells)).encode("utf-8")
    assert (tmp_path / "sim.csv").read_bytes() == expected[:limit]


def test_csv_writer_rejects_a_stopped_run(tmp_path):
    rng = np.random.default_rng(6)
    fleet = random_fleet(rng, 2)
    values = random_trace_values(rng, 50)
    result = simulate(fleet, values, Policy.grtef(), unserved_limit_mwh=0.0)
    assert len(result.unserved_cumulative_mwh) < len(values)
    with pytest.raises(FleetError, match="covers"):
        write_simulation_csv(tmp_path / "sim.csv", values, fleet, result)


@pytest.mark.parametrize("field, kind", [("rates_mw", "rate"), ("level_traces_mwh", "level")])
def test_csv_writer_rejects_a_column_per_store_mismatch(tmp_path, csv_writer, field, kind):
    rng = np.random.default_rng(7)
    fleet = random_fleet(rng, 2)
    values = random_trace_values(rng, 20)
    result = simulate(fleet, values, Policy.grtef())
    path = tmp_path / "sim.csv"
    with pytest.raises(FleetError, match="columns for 1 stores"):
        write_simulation_csv(path, values, fleet[:1], result)
    wide = np.column_stack([getattr(result, field), getattr(result, field)[:, 0]])
    with pytest.raises(FleetError, match=f"3 {kind} columns for 2 stores"):
        write_simulation_csv(path, values, fleet, replace(result, **{field: wide}))
    assert not path.exists()


def _golden_trace(hours=400):
    # Decimal values written into the scenario itself, so the trace does
    # not depend on numpy's generator or vector maths.
    return [
        round(
            60.0 * math.sin(2.0 * math.pi * t / 37.0)
            + 35.0 * math.sin(2.0 * math.pi * t / 11.3)
            - 8.0,
            3,
        )
        for t in range(hours)
    ]


_GOLDEN_STORES = [
    {"name": "long", "capacity_mwh": 400.0, "output_power_mw": 20.0,
     "input_power_mw": 25.0, "efficiency": 0.45, "initial_level_mwh": 150.0},
    {"name": "medium", "capacity_mwh": 120.0, "output_power_mw": 40.0,
     "input_power_mw": 30.0, "efficiency": 0.75, "initial_level_mwh": 60.0},
    {"name": "short", "capacity_mwh": 30.0, "output_power_mw": 50.0,
     "input_power_mw": 50.0, "efficiency": 0.92},
]

# name -> (policy, number of the stores above it runs).
_GOLDEN_POLICIES = {
    "value": ({"kind": "value", "lambdas_per_hour": [0.002, 0.05, 0.3]}, 3),
    "ggddf": ({"kind": "ggddf"}, 3),
    "grtef": ({"kind": "grtef"}, 3),
    "value-1-store": ({"kind": "value", "lambdas_per_hour": [0.002]}, 1),
}

# sha256 of (simulation.csv, summary.json), recorded before the step
# kernel and the engine loop were rewritten for speed.
_GOLDEN_DIGESTS = {
    "ggddf": (
        "010058eb7575b24326f31ea73699e1c705a7dc539fa5675272c791e1d9605342",
        "889f35c8b0655b08984c3b7d4d1c220b4ec96efc3edc7b5fd095ce5026a2cb76",
    ),
    "grtef": (
        "53b8d51e8203e295b755222ad356edee2e8d92520728afaad428af9779b90b11",
        "f69c389ca14e7634df545157374fbfd10fcf46b68de15a3890230994291599a0",
    ),
    "value": (
        "af2de0e0c90bdf9124a28a527a31a2fa406962a5b26c4d65edd0192a3ac33425",
        "af0043dc77c8fab8ae3dbf0334814d0b53c6adcf0deb52724857f2e835e57f3f",
    ),
    "value-1-store": (
        "989b24ce47eb654fe385fec240e7c983b93be8475f6ae57460ae1e64b1e34b3c",
        "277c22b58de2c6f3ce1829922f85a88e2fa064084a5dd5def9a5f8afd723924e",
    ),
}


def _simulate_golden(tmp_path, name, hours):
    """Run the CLI ``simulate`` on the golden scenario; return its --out."""
    policy, stores = _GOLDEN_POLICIES[name]
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "trace": {"inline_mw": _golden_trace(hours)},
                "convention": "input",
                "stores": _GOLDEN_STORES[:stores],
                "policy": policy,
            }
        )
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out


def _output_digests(out):
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("simulation.csv", "summary.json")
    )


@pytest.mark.parametrize("name", sorted(_GOLDEN_POLICIES))
def test_simulate_outputs_match_golden_digests(tmp_path, name):
    out = _simulate_golden(tmp_path, name, 400)
    summary = json.loads((out / "summary.json").read_text())
    # The scenario must exercise both shortfall and spill.
    assert summary["total_unserved_mwh"] > 0.0
    assert summary["total_spill_mwh"] > 0.0
    if name == "value":
        assert summary["cross_charged_mwh"] > 0.0
    assert _output_digests(out) == _GOLDEN_DIGESTS[name]


# sha256 of (simulation.csv, summary.json) for the same scenario over
# 9,000 hours, three of the CSV writer's 4,096-row blocks, recorded
# before the writer formatted each distinct value of a block once.
_SEAM_DIGESTS = {
    "ggddf": (
        "b10f37d2fa86f542a8fa8b7749cf7b90dc39aefec25b66d5cc78075f4e1d9504",
        "0d25d77c8461cf1533c4e5bff529e7cae52c625e74d621486ad6e2adc9f7f34a",
    ),
    "grtef": (
        "41ce4c8148d94bc1316fec19d9c6265cf2329d1b92b1d62da8629393dfa97695",
        "817f757dae372a0e2dce7c93054a0a71cae2e31b2da5e9ce5b2f680204d376a8",
    ),
    "value": (
        "3927e9846fbb3747a530692e3544cd58e46b977066968b8b15571befdb937423",
        "fdb87e7cbbe97071277ad1efab5e3978df26c98cf2c5c31438a8b092e57df58b",
    ),
    "value-1-store": (
        "da4ce8e6239350c770a5c505ccbbdbd536ef2474c12e8a527011cbecdb3cbc1b",
        "7e551abc3127d2981225f3bff71277285434003a2095f7448044f677d1718dab",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_POLICIES))
def test_simulate_outputs_across_csv_blocks_match_golden_digests(tmp_path, name):
    assert 2 * engine._CSV_ROWS_IN_FLIGHT < 9000 <= 3 * engine._CSV_ROWS_IN_FLIGHT
    assert 9000 % engine._CSV_CHUNK_ROWS
    assert _output_digests(_simulate_golden(tmp_path, name, 9000)) == _SEAM_DIGESTS[name]


def test_levels_are_clamped_into_bounds_exactly():
    # A full charge lands eta * (headroom / eta) on the level, which can
    # overshoot the capacity by rounding; the engine clamps it back.
    rng = np.random.default_rng(8)
    clamped = 0
    for _ in range(40):
        fleet = random_fleet(rng, 2)
        capacity = np.array([s.capacity_mwh for s in fleet])
        for policy in _policies(rng, 2):
            result = simulate(fleet, random_trace_values(rng, 200), policy)
            levels = result.level_traces_mwh
            assert np.all(levels >= 0.0) and np.all(levels <= capacity)
            previous = np.vstack([capacity, levels[:-1]])
            clamped += int(np.sum(previous + result.rates_mw > capacity))
    assert clamped > 0  # the sweep must exercise the upper clamp


def _benchmark_scenarios():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("benchmark_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# (seed, convention, mode) -> sha256 of sizing.json from ``size`` on the
# benchmark's size-fleet scenario over 0.2 years, recorded before the
# sizing search was bounded by cost.  With seed 21 the companion store
# wins, with seed 3 the long store alone does.
_SIZING_DIGESTS = {
    (3, "split", "fleet"): "bd2839182e6f60a9cb2034822bbe1be7e0dbfad06d03c8d235989cd6c57a24fb",
    (3, "input", "fleet"): "8caeb956850d1472099226be163d3e863e08d0bdce92b78325f78f091230bd23",
    (21, "split", "fleet"): "f071b1a72e6e6fe58bc25088bd7f1315b214654d7c83a1a91b5689bfe3d396fd",
    (21, "input", "fleet"): "c9962883036481b4ae050adbef060f11656d9530257851f178f8cd900683b7c9",
    (3, "split", "single"): "59e9a9be615d9574daecf4fd5e682e1435528db046e8e7b5c8e307e96056deae",
    (3, "input", "single"): "c263ae5d38f3ebc188ad5b03f34c8fcc98ac7e7b3a450165fefd748ad7de8beb",
}


@pytest.mark.parametrize("seed,convention,mode", sorted(_SIZING_DIGESTS))
def test_size_outputs_match_golden_digests(tmp_path, monkeypatch, seed, convention, mode):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(_benchmark_scenarios().size_fleet_scenario(seed, 0.2)))
    events = record_search(monkeypatch)
    out = tmp_path / "out"
    argv = ["size", "--config", str(config), "--out", str(out), "--mode", mode,
            "--convention", convention]
    assert main(argv) == 0
    # The search must skip some corners, and the fleet search abandon others.
    assert sum(map(skipped_corners, search_calls(events))) > 0
    assert events.count("abandon") > 0 or mode == "single"
    digest = hashlib.sha256((out / "sizing.json").read_bytes()).hexdigest()
    assert digest == _SIZING_DIGESTS[seed, convention, mode]


# convention -> sha256 of sizing.json from ``size --no-optimize`` on the
# benchmark's simulate-long fleet, recorded before the cost table was
# built from the servable-energy stores.
_FIXED_SIZING_DIGESTS = {
    "split": "d0e034945c618ff99b7a76532706e479807a734cbaa398e81b349fcc9f9243fc",
    "input": "27adaad4c0189e3873414e8d8cbd8132a0aab17dccb21e8393bdd7b78f8c7a00",
}


@pytest.mark.parametrize("convention", sorted(_FIXED_SIZING_DIGESTS))
def test_fixed_size_outputs_match_golden_digests(tmp_path, convention):
    scenario = _benchmark_scenarios().simulate_long_scenarios(1, 0.01)["value"]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    argv = ["size", "--config", str(config), "--out", str(out), "--no-optimize",
            "--convention", convention]
    assert main(argv) == 0
    digest = hashlib.sha256((out / "sizing.json").read_bytes()).hexdigest()
    assert digest == _FIXED_SIZING_DIGESTS[convention]


# sha256 of min_store_curve.csv from ``min-store-curve`` on the
# benchmark's curve scenario over 0.5 years (seed 1's overcapacities,
# its three efficiencies), recorded before the sequent peak ran in C.
_CURVE_DIGEST = "5950c9cc3184f08a474a7daf91f150253c044472c9cee33f0410f39b9458b825"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_min_store_curve_output_matches_golden_digest(tmp_path, threads):
    scenarios = _benchmark_scenarios()
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenarios.min_store_curve_scenario(0.5)))
    out = tmp_path / "out"
    argv = ["min-store-curve", "--config", str(config), "--out", str(out), "--threads", threads,
            "--etas", ",".join(map(repr, scenarios.CURVE_ETAS)),
            "--oc-list", ",".join(map(repr, scenarios.curve_overcapacities(1)))]
    assert main(argv) == 0
    assert len((out / "min_store_curve.csv").read_text().splitlines()) == 31
    digest = hashlib.sha256((out / "min_store_curve.csv").read_bytes()).hexdigest()
    assert digest == _CURVE_DIGEST


# sha256 over the rewritten rates and their cumulative unserved energy,
# recorded before the schedule checkers and greedify's rate moves were
# folded into one walk and one move rule.
_GREEDIFY_DIGEST = "cdfd869bad9d14019a8b8b5c41a234d9b8e63615c0ebb2d5c656545f70c79a98"


def test_greedify_outputs_match_golden_digest():
    # Hours served in full (full_prob > 0) and then cross-charged make
    # greedify pull rates back as well as raise or deepen them.
    digest = hashlib.sha256()
    changed = 0
    for seed, full_prob in ((2027, 0.0), (11, 0.5)):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            n = int(rng.integers(1, 4))
            fleet = random_fleet(rng, n, bool(rng.integers(2)), bool(rng.integers(2)))
            values = random_trace_values(rng, int(rng.integers(2, 120)))
            initial = FleetState(random_levels(rng, fleet))
            cross_prob = (0.0, 0.4, 0.8)[int(rng.integers(3))]
            rates = random_feasible_rates(rng, fleet, initial.levels_mwh, values, cross_prob, full_prob)
            out = greedify(fleet, initial, values, PolicyTrace(rates))
            digest.update(out.rates_mw.tobytes())
            digest.update(unserved_series(fleet, initial, values, out).tobytes())
            changed += not np.array_equal(out.rates_mw, rates)
    assert changed > 250
    assert digest.hexdigest() == _GREEDIFY_DIGEST
