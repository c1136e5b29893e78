"""Command-line front end: simulate, size, min-store-curve, tune, synth, stats.

Scenarios live in one JSON file with units spelled out in every field
name.  All outputs are plot-ready CSV or JSON written under --out;
identical configs produce byte-identical files.  Exit codes: 0 success,
1 configuration error, 2 runtime error (infeasible sizing, verification
failure, degenerate data).

Each command imports only the layers it runs: the module itself loads
``fleet``, ``policies`` and ``params``, which need no numpy, and a
command imports ``engine``, ``traces`` or ``sizing`` when it starts.
So ``size --no-optimize`` never imports numpy, and ``simulate`` never
imports the sizing search.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .fleet import (
    FleetError,
    FleetState,
    LossConvention,
    StoreSpec,
    convention_factor,
    convert_convention,
    frozen_dataclass,
    is_number,
    validate_spec,
)
from .params import (
    HOURS_PER_YEAR,
    Infeasible,
    ReliabilityStandard,
    SchemaError,
    SizingOptions,
    StorePrices,
    SynthParams,
    TraceError,
    cost_report,
)
from .policies import Policy

if TYPE_CHECKING:
    from .traces import ResidualTrace


MAX_STATS_BINS = 100_000  # `stats --bins` upper bound: keeps the histogram small


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use (PEP 562).

    No command uses it: ``min-store-curve`` sweeps in this process.  The
    name stays resolvable only because the benchmark harness's tracer
    replaces ``cli.ProcessPoolExecutor`` with its own pool class, and
    looks the name up first; it goes when that patch does.  Importing
    the CLI therefore still loads no ``concurrent.futures``.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are config errors
        raise ConfigError(message)


@frozen_dataclass
class Scenario:
    """Parsed scenario file: trace source, fleet, policy, costs, standard."""

    trace: list[float] | str | SynthParams | None  # inline values, CSV path or generator knobs
    overcapacity: float | None
    stores: list[StoreSpec]          # servable-energy convention
    initial_levels: list[float]      # servable-energy convention
    policy: Policy | None
    costs: dict[str, StorePrices]
    standard: ReliabilityStandard | None
    options: SizingOptions
    secondary_grid: list[tuple[StoreSpec, ...]]
    sizing_efficiency: float | None


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _number(value, what: str) -> float:
    if not is_number(value):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _require_number(mapping: dict, key: str, context: str) -> float:
    return _number(_require(mapping, key, context), f"{context}: {key}")


def _argv_number(entry: str, what: str) -> float:
    try:
        return float(entry)
    except ValueError:
        raise ConfigError(f"{what} entry must be a number, got {entry!r}") from None


def _section(value, keys, what: str) -> dict:
    """``value`` as an object, checked to hold no key outside ``keys``."""
    for key in _expect(value, dict, what):
        if key not in keys:
            raise ConfigError(f"{what}: unknown key {key!r}")
    return value


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ConfigError(f"{what} must be {name}, got {value!r}")
    return value


def _overcapacity(value) -> float | None:
    """Overcapacity fraction, None when unset.

    Generation is scaled by (1 + overcapacity), so a value at or below -1
    would zero or negate it.
    """
    if value is None:
        return None
    overcapacity = _number(value, "overcapacity")
    if not math.isfinite(overcapacity) or overcapacity <= -1.0:
        raise ConfigError(f"overcapacity must be finite and > -1, got {value!r}")
    return overcapacity


def _value(kind: type, section, what: str, extra=()):
    """The value type ``kind`` built from the object ``section``.

    ``section`` holds ``kind``'s fields, and may hold the ``extra`` keys,
    which the caller reads itself.  Any other key, a missing field that
    has no default, and a field that ``kind`` rejects are config errors.
    """
    section = _section(section, {*(field.name for field in fields(kind)), *extra}, what)
    values = {field.name: _require(section, field.name, what) for field in fields(kind)
              if field.name in section or field.default is MISSING}
    try:
        return kind(**values)
    except (ValueError, TraceError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _seeded(params: SynthParams, seed: int | None) -> SynthParams:
    """``params`` with the --seed override, checked as the scenario's own seed is."""
    return params if seed is None else _value(SynthParams, {**asdict(params), "seed": seed}, "--seed")


_TRACE_SOURCES = ("inline_mw", "csv_path", "synthetic")
# The keys each scenario section may hold; any other is a config error.
_SCENARIO_KEYS = {
    "trace", "overcapacity", "convention", "stores", "policy", "costs", "reliability", "sizing",
}
_POLICY_KEYS = {"kind", "lambdas_per_hour"}
_STORE_KEYS = {f.name for f in fields(StoreSpec)} | {"initial_level_mwh"}


def _parse_trace(section) -> list[float] | str | SynthParams:
    section = _section(section, _TRACE_SOURCES, "trace")
    keys = [key for key in _TRACE_SOURCES if key in section]
    if len(keys) != 1:
        raise ConfigError(f"trace needs exactly one of {' / '.join(_TRACE_SOURCES)}, got {keys}")
    value = section[keys[0]]
    if keys[0] == "inline_mw":
        values = [_number(x, "trace: inline_mw entry") for x in _expect(value, list, "trace: inline_mw")]
        if not values or not all(map(math.isfinite, values)):
            raise ConfigError("trace: inline_mw must be a nonempty list of finite numbers")
        return values
    if keys[0] == "csv_path":
        if not isinstance(value, str):
            raise ConfigError(f"trace: csv_path must be a string, got {value!r}")
        return value
    return _value(SynthParams, value, "trace: synthetic")


def _parse_store(entry: dict, convention: LossConvention) -> tuple[StoreSpec, float]:
    entry = _section(entry, _STORE_KEYS, "store")
    spec = StoreSpec(
        name=_require(entry, "name", "store"),
        capacity_mwh=_require_number(entry, "capacity_mwh", "store"),
        output_power_mw=_require_number(entry, "output_power_mw", "store"),
        input_power_mw=_require_number(entry, "input_power_mw", "store"),
        efficiency=_require_number(entry, "efficiency", "store"),
    )
    validate_spec(spec)
    level = entry.get("initial_level_mwh")
    level = spec.capacity_mwh if level is None else _number(level, "store: initial_level_mwh")
    # Checked as written: the servable-energy level below is a converted figure.
    if not 0.0 <= level <= spec.capacity_mwh:
        raise FleetError(
            f"store {spec.name!r}: initial_level_mwh {level} outside [0, {spec.capacity_mwh}]"
        )
    spec, level = convert_convention(spec, level, convention, LossConvention.INPUT_SIDE)
    return spec, level


def _json_int(literal: str) -> int:
    """A JSON integer literal, which must have a float value: every number is read as one."""
    try:
        value = int(literal)
        float(value)
    except (ValueError, OverflowError):  # past int()'s digit limit, or past float range
        raise ConfigError(f"integer of {len(literal.lstrip('-'))} digits is out of range") from None
    return value


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=_json_int)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply to read") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raw = _section(raw, _SCENARIO_KEYS, f"{path}: scenario")
    trace = _parse_trace(raw["trace"]) if "trace" in raw else None
    overcapacity = _overcapacity(raw.get("overcapacity"))

    try:
        convention = LossConvention(raw.get("convention", "split"))
    except ValueError:  # the default is valid, so the key is there
        raise ConfigError(
            f"unknown loss convention {raw['convention']!r}; expected 'input' or 'split'"
        ) from None
    stores, levels = [], []
    for entry in _expect(raw.get("stores", []), list, "stores"):
        try:
            spec, level = _parse_store(entry, convention)
        except FleetError as exc:
            raise ConfigError(f"{path}: bad store entry: {exc}") from None
        if any(s.name == spec.name for s in stores):
            raise ConfigError(f"{path}: duplicate store name {spec.name!r} in stores")
        stores.append(spec)
        levels.append(level)

    policy = None
    if "policy" in raw:
        p = _section(raw["policy"], _POLICY_KEYS, "policy")
        kind = _require(p, "kind", "policy")
        try:
            if kind == "value":
                policy = Policy.value(p.get("lambdas_per_hour", [0.0] * len(stores)))
            else:
                policy = Policy(kind)
            policy.decay_rates(stores)
        except ValueError as exc:
            raise ConfigError(f"policy: {exc}") from None

    costs = {
        name: _value(StorePrices, entry, f"costs[{name}]")
        for name, entry in _expect(raw.get("costs", {}), dict, "costs").items()
    }
    standard = None
    if "reliability" in raw:
        standard = _value(ReliabilityStandard, raw["reliability"], "reliability")

    sizing_section = raw.get("sizing", {})
    options = _value(SizingOptions, sizing_section, "sizing", extra=("efficiency", "secondary_grid"))

    sizing_efficiency = sizing_section.get("efficiency")
    if sizing_efficiency is not None:
        sizing_efficiency = _number(sizing_efficiency, "sizing: efficiency")
        if not 0.0 < sizing_efficiency <= 1.0:
            raise ConfigError(f"sizing: efficiency must lie in (0, 1], got {sizing_efficiency}")

    secondary_grid = []
    grid = _expect(sizing_section.get("secondary_grid", []), list, "sizing: secondary_grid")
    for k, candidate in enumerate(grid):
        specs = []
        for entry in _expect(candidate, list, "sizing: secondary_grid entry"):
            try:
                spec, _ = _parse_store(entry, convention)
            except FleetError as exc:
                raise ConfigError(f"{path}: bad secondary store: {exc}") from None
            if "initial_level_mwh" in entry:
                raise ConfigError(
                    f"{path}: store {spec.name!r} of secondary_grid entry {k}: initial_level_mwh"
                    " is not allowed; the fleet search starts every companion full"
                )
            # Each entry joins the long store in one fleet.
            if spec.name in (options.long_store_name, *(s.name for s in specs)):
                raise ConfigError(
                    f"{path}: duplicate store name {spec.name!r} in the fleet of secondary_grid"
                    f" entry {k} (long store {options.long_store_name!r} included)"
                )
            specs.append(spec)
        secondary_grid.append(tuple(specs))

    return Scenario(
        trace=trace,
        overcapacity=overcapacity,
        stores=stores,
        initial_levels=levels,
        policy=policy,
        costs=costs,
        standard=standard,
        options=options,
        secondary_grid=secondary_grid,
        sizing_efficiency=sizing_efficiency,
    )


_OVERCAPACITY_SOURCES = (
    "overcapacity applies only to synthetic traces and demand_mw,wind_mw,solar_mw CSVs"
)


def _read_trace_file(load, path: str):
    try:
        return load(path)
    except FileNotFoundError:
        raise ConfigError(f"trace file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot open trace file: {exc}") from None


def _demand_generation(scenario: Scenario, seed: int | None):
    """Demand and generation series, which only some trace sources carry."""
    from . import traces

    source = scenario.trace
    if isinstance(source, SynthParams):
        return traces.synthesize(_seeded(source, seed))
    if isinstance(source, str):
        try:
            return _read_trace_file(traces.load_components, source)
        except SchemaError as exc:
            raise ConfigError(f"{_OVERCAPACITY_SOURCES}; {exc}") from None
    if source is None:
        raise ConfigError("config has no trace section")
    raise ConfigError(_OVERCAPACITY_SOURCES + ", not to an inline_mw trace")


def build_trace(scenario: Scenario, seed: int | None = None) -> ResidualTrace:
    from . import traces

    source, overcapacity = scenario.trace, scenario.overcapacity
    if overcapacity is None and isinstance(source, list):
        return traces.ResidualTrace.from_values(source)
    if overcapacity is None and isinstance(source, str):
        return _read_trace_file(traces.load_csv, source)
    demand, generation = _demand_generation(scenario, seed)
    return traces.scale_to_overcapacity(
        demand, generation, 0.0 if overcapacity is None else overcapacity
    )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(scenario: Scenario, out_dir: Path, args) -> int:
    if not scenario.stores:
        raise ConfigError("simulate needs at least one store")
    if scenario.policy is None:
        raise ConfigError("simulate needs a policy section")
    from . import engine

    trace = build_trace(scenario, args.seed)
    initial = FleetState(tuple(scenario.initial_levels))
    result = engine.simulate(scenario.stores, trace, scenario.policy, initial=initial)
    engine.write_simulation_csv(out_dir / "simulation.csv", trace, scenario.stores, result)
    summary = {
        "hours": len(trace),
        "years": len(trace) / HOURS_PER_YEAR,
        "total_unserved_mwh": result.total_unserved_mwh,
        "total_spill_mwh": result.total_spill_mwh,
        "cross_charged_mwh": result.cross_charged_mwh,
        "served_external_mwh": {
            s.name: float(x) for s, x in zip(scenario.stores, result.served_external_mwh)
        },
        "final_levels_mwh": {
            s.name: float(x) for s, x in zip(scenario.stores, result.final_state.levels_mwh)
        },
    }
    _write_json(out_dir / "summary.json", summary)
    return 0


def _prices(scenario: Scenario, names) -> list[StorePrices]:
    for name in names:
        if name not in scenario.costs:
            raise ConfigError(f"no prices configured for store {name!r}")
    return [scenario.costs[name] for name in names]


def cmd_size(scenario: Scenario, out_dir: Path, args) -> int:
    convention = LossConvention(args.convention)
    if args.no_optimize:
        if not scenario.stores:
            raise ConfigError("size --no-optimize needs at least one store")
        prices = _prices(scenario, [s.name for s in scenario.stores])
        report = cost_report(scenario.stores, prices, "fixed", convention)
    else:
        if scenario.standard is None:
            raise ConfigError("size needs a reliability section")
        efficiency = scenario.sizing_efficiency
        if efficiency is None:
            raise ConfigError("size needs sizing.efficiency")
        long_name = scenario.options.long_store_name
        grid = (scenario.secondary_grid or [()]) if args.mode == "fleet" else [()]
        _prices(scenario, [long_name, *(s.name for candidate in grid for s in candidate)])
        from . import sizing

        trace = build_trace(scenario, args.seed)
        try:
            result = sizing.optimize_fleet(
                trace, scenario.costs, scenario.standard, grid, efficiency, scenario.options
            )
        except ValueError as exc:  # a per-store decay grid too short for a candidate
            raise ConfigError(f"sizing: {exc}") from None
        prices = _prices(scenario, [s.name for s in result.fleet])
        report = cost_report(result.fleet, prices, args.mode, convention)
        report.update(
            annual_unserved_gwh=result.annual_unserved_gwh,
            lambdas_per_hour=list(result.lambdas_per_hour),
            served_external_mwh=list(result.served_external_mwh),
        )
    _write_json(out_dir / "sizing.json", report)
    return 0


def cmd_min_store_curve(scenario: Scenario, out_dir: Path, args) -> int:
    etas = [_argv_number(x, "--etas") for x in args.etas.split(",") if x.strip()]
    if not etas:
        raise ConfigError("--etas must list at least one efficiency")
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ConfigError(f"--etas: efficiency must lie in (0, 1], got {eta}")
    oc_list = [_overcapacity(_argv_number(x, "--oc-list")) for x in args.oc_list.split(",") if x.strip()]
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    convention = LossConvention(args.convention)
    from . import sizing, traces

    if oc_list:
        demand, generation = _demand_generation(scenario, args.seed)
        # Each overcapacity's trace is scaled as its sweep starts, not all of them up front.
        curves = ((oc, traces.scale_to_overcapacity(demand, generation, oc)) for oc in oc_list)
    else:
        curves = [(None, build_trace(scenario, args.seed))]

    rows = []
    for oc, trace in curves:
        for eta in etas:
            e_min, s0_min = sizing.min_single_store_capacity(trace, eta)
            factor = convention_factor(eta, LossConvention.INPUT_SIDE, convention)
            rows.append((oc, eta, e_min * factor, s0_min * factor))

    # The minimal store must not grow with overcapacity or efficiency.
    slack = 2.0 * scenario.options.e_tol_mwh
    swept = [row for row in rows if row[0] is not None]
    for fixed, moving, names in ((1, 0, ("overcapacity", "efficiency")),
                                 (0, 1, ("efficiency", "overcapacity"))):
        groups: dict[float, list] = {}
        for row in swept:
            groups.setdefault(row[fixed], []).append((row[moving], row[2]))
        for key, series in groups.items():
            series.sort()
            for (_, a), (_, b) in zip(series, series[1:]):
                if b > a + slack:
                    raise FleetError(f"capacity not monotone in {names[0]} at {names[1]} {key}")

    with open(out_dir / "min_store_curve.csv", "w", encoding="utf-8") as fh:
        fh.write("overcapacity,efficiency,e_min_mwh,s0_min_mwh\n")
        for oc, eta, e_min, s0 in rows:
            oc_cell = "" if oc is None else repr(oc)
            fh.write(f"{oc_cell},{eta!r},{e_min!r},{s0!r}\n")
    return 0


def cmd_tune(scenario: Scenario, out_dir: Path, args) -> int:
    if not scenario.stores:
        raise ConfigError("tune needs at least one store")
    from . import engine, sizing

    trace = build_trace(scenario, args.seed)
    initial = FleetState(tuple(scenario.initial_levels))
    try:
        params = sizing.tune_lambdas(
            scenario.stores, trace, scenario.options.lambda_grid, initial=initial
        )
    except ValueError as exc:  # a per-store decay grid with fewer lists than stores
        raise ConfigError(f"sizing: {exc}") from None
    result = engine.simulate(scenario.stores, trace, Policy("value", params), initial=initial)
    _write_json(
        out_dir / "lambdas.json",
        {
            "lambdas_per_hour": list(params.lambdas_per_hour),
            "total_unserved_mwh": result.total_unserved_mwh,
        },
    )
    return 0


def cmd_synth(scenario: Scenario, out_dir: Path, args) -> int:
    if not isinstance(scenario.trace, SynthParams):
        raise ConfigError("synth needs a trace.synthetic section")
    scenario = replace(scenario, trace=_seeded(scenario.trace, args.seed))
    from . import traces

    trace = build_trace(scenario)
    traces.write_csv(trace, out_dir / "trace.csv")
    _write_json(
        out_dir / "trace_meta.json",
        {
            "synthetic": asdict(scenario.trace),
            "overcapacity": scenario.overcapacity,
            "hours": len(trace),
            "mean_residual_mw": float(trace.values_mw.mean()),
            "note": "synthetic stand-in series, not observed data",
        },
    )
    return 0


def cmd_stats(scenario: Scenario, out_dir: Path, args) -> int:
    if not 1 <= args.bins <= MAX_STATS_BINS:
        raise ConfigError(f"--bins must be an integer in [1, {MAX_STATS_BINS}], got {args.bins}")
    if args.max_lag < 0:
        raise ConfigError(f"--max-lag must be >= 0, got {args.max_lag}")
    from . import traces

    trace = build_trace(scenario, args.seed)
    lags = range(0, min(args.max_lag + 1, len(trace)))
    stats = traces.trace_stats(trace, bins=args.bins, lags=lags)
    traces.write_stats_csv(stats, out_dir / "histogram.csv", out_dir / "acf.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="storefleet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the synthetic-trace seed")

    def convention_flag(p):
        p.add_argument(
            "--convention",
            choices=("input", "split"),
            default="split",
            help="convention for reported capacities",
        )

    common(sub.add_parser("simulate", help="run a policy over a trace"))
    p_size = sub.add_parser("size", help="optimise store dimensions against a standard")
    common(p_size)
    convention_flag(p_size)
    p_size.add_argument("--mode", choices=("single", "fleet"), default="single")
    p_size.add_argument(
        "--no-optimize", action="store_true", help="cost the configured dimensions as-is"
    )
    p_curve = sub.add_parser("min-store-curve", help="minimal store size vs overcapacity")
    common(p_curve)
    convention_flag(p_curve)
    p_curve.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility only (N >= 1); the sweep runs in this process",
    )
    p_curve.add_argument("--etas", required=True, help="comma-separated efficiencies")
    p_curve.add_argument("--oc-list", default="", help="comma-separated overcapacity fractions")
    common(sub.add_parser("tune", help="grid-search decay rates"))
    common(sub.add_parser("synth", help="generate and save a synthetic residual trace"))
    p_stats = sub.add_parser("stats", help="histogram and autocorrelation of a trace")
    common(p_stats)
    p_stats.add_argument("--bins", type=int, default=100)
    p_stats.add_argument("--max-lag", type=int, default=500)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "size": cmd_size,
    "min-store-curve": cmd_min_store_curve,
    "tune": cmd_tune,
    "synth": cmd_synth,
    "stats": cmd_stats,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        scenario = load_scenario(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](scenario, out_dir, args)
    except ConfigError as exc:
        print(f"storefleet: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # --config, --out or a file under it is unusable; names its path
        print(f"storefleet: config error: {exc}", file=sys.stderr)
        return 1
    except (Infeasible, FleetError, TraceError) as exc:
        print(f"storefleet: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """``main`` on ``sys.argv``, as the ``storefleet`` process runs it.

    The cyclic garbage collector stays off for the run, so no collection
    walks the objects that numpy and storefleet made.  Nothing is lost:
    traces, simulations and the sizing search leave no reference cycles
    (``tests/test_cli.py`` checks both simulate paths).  The argument
    parser and each indented ``json.dump`` leave a few hundred objects
    in cycles, once per process.

    When ``main`` returns, its output is complete: every file a command
    writes is closed by a ``with`` block, the CSV writer's helper thread,
    the only thread a command starts, is joined inside ``write_rows``,
    and no command starts a pool.  So ``entry`` flushes stdout and
    stderr and ends the process with ``os._exit``, skipping the
    interpreter's teardown (3-5 ms of module and object clean-up, with
    nothing left to write); ``atexit`` handlers do not run.  If a flush
    fails, ``entry`` returns the exit code instead, so that the
    interpreter reports the failure as it always has (exit code 120 for
    a write error).  An exception from ``main`` propagates, and exits 1
    with its traceback.  ``main`` itself never touches the collector or
    ends the process, so a caller running it in its own process keeps
    both.

    Unless the environment sets it, ``OPENBLAS_NUM_THREADS`` is 1 for
    the process, set before any command imports numpy, whose OpenBLAS
    reads it when it loads.  So OpenBLAS starts no worker thread: none
    spins on the CPU that the helper thread of ``simulation.csv``'s
    writer uses, and the one BLAS call, ``stats``' ``np.dot`` sums,
    writes the same bits on any CPU count.  Like the
    collector, the environment of a caller of ``main`` is left alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):  # a failed write, or a stream already closed
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
