"""Output checks, computed apart from the program.

Each check reads what one CLI process wrote and recomputes it with the
benchmark's own arithmetic, or with the independent oracles under
``tests/oracles.py``.  A wrong output raises ``CheckFailed``.  Only the
inputs are made with the package: ``traces.synthesize`` gives the
demand and generation series that the scenario names.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from storefleet import traces

# MWh (and GWh/yr): rounding room between two float computations of one
# quantity.
TOL = 1e-6
HOURS_PER_YEAR = 8760.0


class CheckFailed(Exception):
    pass


def _fail(message: str):
    raise CheckFailed(message)


@dataclass(frozen=True)
class Store:
    """Servable-energy store, the fleet shape the twin oracle reads."""

    name: str
    capacity_mwh: float
    output_power_mw: float
    input_power_mw: float
    efficiency: float


def servable(entry: dict) -> Store:
    """A split-convention scenario store in servable-energy terms."""
    eta = float(entry["efficiency"])
    return Store(entry["name"], float(entry["capacity_mwh"]) * eta**0.5,
                 float(entry["output_power_mw"]), float(entry["input_power_mw"]), eta)


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demand_generation(scenario: dict) -> tuple[np.ndarray, np.ndarray]:
    return traces.synthesize(traces.SynthParams(**scenario["trace"]["synthetic"]))


def residual(demand: np.ndarray, generation: np.ndarray, overcapacity: float) -> np.ndarray:
    """Generation scaled to mean (1 + overcapacity) x mean demand, minus demand."""
    k = (1.0 + overcapacity) * float(np.mean(demand)) / float(np.mean(generation))
    return k * generation - demand


def scenario_trace(scenario: dict) -> np.ndarray:
    return residual(*demand_generation(scenario), float(scenario.get("overcapacity", 0.0)))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- simulate


def check_simulation(out_dir: Path, scenario: dict, values: np.ndarray, oracles) -> None:
    """simulation.csv and summary.json of one ``simulate`` run.

    Recomputes every hour: the rate bounds, the level update and level
    bounds, the spill / unserved increment, the sign discipline and the
    greedy condition.  Cumulative unserved energy must stay above the
    output-power floor.  For the value policy, ``oracles`` (the module
    ``tests/oracles.py``) supplies the split-units twin, which must agree
    hour by hour.
    """
    stores = [servable(entry) for entry in scenario["stores"]]
    n = len(stores)
    names = [s.name for s in stores]
    path = out_dir / "simulation.csv"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    expected = (["hour", "re_mw"] + [f"rate_{x}" for x in names] + [f"level_{x}" for x in names]
                + ["spill_cum_mwh", "unserved_cum_mwh"])
    if header != expected:
        _fail(f"{path}: header {header} is not {expected}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    hours = len(values)
    if data.shape != (hours, len(expected)):
        _fail(f"{path}: {data.shape} cells, expected {(hours, len(expected))}")
    if not np.array_equal(data[:, 0], np.arange(hours)):
        _fail(f"{path}: hour column is not 0..{hours - 1}")
    re = data[:, 1]
    bad = np.abs(re - values) > 1e-9 * np.maximum(1.0, np.abs(values))
    if bad.any():
        t = int(np.argmax(bad))
        _fail(f"{path}: hour {t} residual {re[t]} differs from the scenario's {values[t]}")
    rates = data[:, 2:2 + n]
    levels = data[:, 2 + n:2 + 2 * n]
    spill_cum, unserved_cum = data[:, -2], data[:, -1]

    cap = np.array([s.capacity_mwh for s in stores])
    out_power = np.array([s.output_power_mw for s in stores])
    eta = np.array([s.efficiency for s in stores])
    max_charge = eta * np.array([s.input_power_mw for s in stores])
    initial = cap.copy()  # the scenarios start every store full
    prev = np.vstack([initial, levels[:-1]])

    def first_bad(mask, what):
        if mask.any():
            t, i = np.unravel_index(int(np.argmax(mask)), mask.shape)
            _fail(f"{path}: hour {t} store {names[i]}: {what} "
                  f"(rate {rates[t, i]}, level before {prev[t, i]}, after {levels[t, i]})")

    down = np.minimum(out_power, prev)          # largest discharge
    up = np.minimum(max_charge, cap - prev)     # largest charge
    first_bad((rates < -down - TOL) | (rates > up + TOL), "rate outside its bounds")
    first_bad(np.abs(levels - np.clip(prev + rates, 0.0, cap)) > TOL, "level is not level + rate")
    first_bad((levels < -TOL) | (levels > cap + TOL), "level outside [0, capacity]")

    u = re - np.where(rates < 0.0, rates, rates / eta).sum(axis=1)
    surplus = re >= 0.0
    spill = np.where(surplus, np.maximum(u, 0.0), 0.0)
    unserved = np.where(surplus, 0.0, np.maximum(-u, 0.0))
    got_spill = np.diff(spill_cum, prepend=0.0)
    got_unserved = np.diff(unserved_cum, prepend=0.0)
    for got, want, what in ((got_spill, spill, "spill"), (got_unserved, unserved, "unserved")):
        bad = np.abs(got - want) > TOL
        if bad.any():
            t = int(np.argmax(bad))
            _fail(f"{path}: hour {t} {what} increment {got[t]}, recomputed {want[t]}")
    bad = (surplus & (u < -TOL)) | (~surplus & (u > TOL))
    if bad.any():
        _fail(f"{path}: hour {int(np.argmax(bad))} draws beyond the surplus or serves beyond demand")
    first_bad((spill > TOL)[:, None] & (rates < up - TOL), "spill while the store could charge more")
    first_bad((unserved > TOL)[:, None] & (rates > -down + TOL),
              "unserved demand while the store could discharge more")

    floor = np.cumsum(np.maximum(0.0, -re - out_power.sum()))
    bad = unserved_cum < floor - TOL * np.maximum(1.0, floor)
    if bad.any():
        t = int(np.argmax(bad))
        _fail(f"{path}: hour {t} cumulative unserved {unserved_cum[t]} below the floor {floor[t]}")

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    last = {
        "hours": hours,
        "total_unserved_mwh": unserved_cum[-1],
        "total_spill_mwh": spill_cum[-1],
        "final_levels_mwh": dict(zip(names, levels[-1])),
    }
    for key, value in last.items():
        if summary.get(key) != value:
            _fail(f"summary.json {key} = {summary.get(key)}, CSV last row gives {value}")

    if scenario["policy"]["kind"] == "value":
        lambdas = scenario["policy"]["lambdas_per_hour"]
        spill_twin, unserved_twin = oracles.simulate_split_twin(stores, list(initial), values, lambdas)
        for got, want, what in ((got_spill, spill_twin, "spill"), (got_unserved, unserved_twin, "unserved")):
            bad = np.abs(got - want) > TOL
            if bad.any():
                t = int(np.argmax(bad))
                _fail(f"{path}: hour {t} {what} {got[t]} differs from the split-units twin's {want[t]}")


# -------------------------------------------------------------------- costs


def store_cost_bn(entry: dict, prices: dict) -> tuple[float, float, float]:
    """Capacity, output-power and input-power cost of a split-convention store, $bn."""
    return (
        entry["capacity_mwh"] * 1e3 * prices["capacity_usd_per_kwh"] / 1e9,
        entry["output_power_mw"] * 1e3 * prices["output_power_usd_per_kw"] / 1e9,
        entry["input_power_mw"] * 1e3 * prices["input_power_usd_per_kw"] / 1e9,
    )


def check_cost_report(report: dict, costs: dict) -> float:
    """Every cost cell of a sizing.json against the prices; returns the total, $bn."""
    total = 0.0
    for entry in report["stores"]:
        cells = store_cost_bn(entry, costs[entry["name"]])
        reported = (entry["cost_capacity_bn_usd"], entry["cost_output_power_bn_usd"],
                    entry["cost_input_power_bn_usd"])
        for what, got, want in zip(("capacity", "output power", "input power"), reported, cells):
            if not _close(got, want):
                _fail(f"store {entry['name']}: {what} cost {got} $bn, recomputed {want}")
        if not _close(entry["cost_total_bn_usd"], sum(cells)):
            _fail(f"store {entry['name']}: total cost {entry['cost_total_bn_usd']} $bn, "
                  f"recomputed {sum(cells)}")
        total += sum(cells)
    if not _close(report["total_cost_bn_usd"], total):
        _fail(f"total cost {report['total_cost_bn_usd']} $bn, recomputed {total}")
    return total


def check_fixed_cost(out_dir: Path, scenario: dict) -> float:
    """``size --no-optimize``: the scenario's own dimensions, priced."""
    report = json.loads((out_dir / "sizing.json").read_text(encoding="utf-8"))
    if [s["name"] for s in report["stores"]] != [s["name"] for s in scenario["stores"]]:
        _fail("sizing.json does not list the scenario's stores in order")
    for got, want in zip(report["stores"], scenario["stores"]):
        for key in ("capacity_mwh", "output_power_mw", "input_power_mw"):
            if not _close(got[key], want[key]):
                _fail(f"store {want['name']}: {key} {got[key]}, scenario has {want[key]}")
    return check_cost_report(report, scenario["costs"])


# ------------------------------------------------------------ size --mode fleet


def check_sizing(out_dir: Path, scenario: dict, values: np.ndarray,
                 oracles) -> tuple[float, str | None]:
    """``size --mode fleet``: cost, reliability, grid membership.

    Re-simulates the answer with the split-units twin from full stores:
    it must meet the standard and reproduce the reported annual unserved
    energy.  Returns the recomputed total cost in $bn, and a note when a
    long store one ``e_tol_mwh`` smaller also meets the standard.  That
    happens on some seeds (the search assumes unserved energy falls as
    capacity grows, and it does not always), so it is reported, not
    failed.
    """
    report = json.loads((out_dir / "sizing.json").read_text(encoding="utf-8"))
    sizing = scenario["sizing"]
    total = check_cost_report(report, scenario["costs"])

    entries = report["stores"]
    long_entry, companions = entries[0], entries[1:]
    if long_entry["name"] != "long" or long_entry["efficiency"] != sizing["efficiency"]:
        _fail(f"first store {long_entry['name']} at efficiency {long_entry['efficiency']} "
              f"is not the long store")
    on_grid = False
    for candidate in sizing["secondary_grid"]:
        on_grid = on_grid or (
            len(candidate) == len(companions)
            and all(c["name"] == g["name"] and all(_close(c[k], g[k]) for k in
                    ("capacity_mwh", "output_power_mw", "input_power_mw", "efficiency"))
                    for c, g in zip(companions, candidate))
        )
    if not on_grid:
        _fail(f"companions {[c['name'] for c in companions]} are not an entry of the secondary grid")
    lambdas = report["lambdas_per_hour"]
    grid = sizing["lambda_grid"]
    if len(lambdas) != len(entries) or any(lam not in grid[i] for i, lam in enumerate(lambdas)):
        _fail(f"decay rates {lambdas} are not on the grid {grid}")

    years = len(values) / HOURS_PER_YEAR
    standard = scenario["reliability"]["max_unserved_gwh_per_year"]

    def annual_unserved(long_capacity_mwh: float) -> float:
        fleet = [servable(e) for e in entries]
        fleet[0] = replace(fleet[0], capacity_mwh=long_capacity_mwh)
        full = [s.capacity_mwh for s in fleet]
        _, unserved = oracles.simulate_split_twin(fleet, full, values, lambdas)
        return float(np.sum(unserved)) / years / 1e3

    long_capacity = servable(long_entry).capacity_mwh
    achieved = annual_unserved(long_capacity)
    if achieved > standard + TOL:
        _fail(f"answer leaves {achieved} GWh/yr unserved, above the standard {standard}")
    if abs(achieved - report["annual_unserved_gwh"]) > TOL:
        _fail(f"reported {report['annual_unserved_gwh']} GWh/yr unserved, twin gives {achieved}")
    smaller = annual_unserved(long_capacity - sizing["e_tol_mwh"])
    note = None
    if smaller <= standard:
        note = (f"not minimal: a long store {sizing['e_tol_mwh']} MWh smaller also meets "
                f"the standard ({smaller} GWh/yr)")
    return total, note


# --------------------------------------------------------- min-store-curve


def sequent_peak(values: np.ndarray, efficiency: float) -> tuple[float, float]:
    """Exact minimal capacity and initial level of a greedy single store.

    Backward over the trace, need is the smallest level that serves every
    later hour: a deficit hour adds its demand, a surplus hour refills
    efficiency x surplus of it.  E* = max need, s0* = need at hour 0.
    """
    need = 0.0
    peak = 0.0
    for re in reversed(values.tolist()):
        need = need - re if re < 0.0 else max(0.0, need - efficiency * re)
        if need > peak:
            peak = need
    return peak, need


def check_min_store_curve(out_dir: Path, scenario: dict, ocs: list[float],
                          etas: tuple[float, ...]) -> float:
    """Each reported point lies within one tolerance above the exact minimum.

    Returns the capacity cost of all the curve's stores at the long-store
    capacity price, $bn.
    """
    path = out_dir / "min_store_curve.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "overcapacity,efficiency,e_min_mwh,s0_min_mwh":
        _fail(f"{path}: unexpected header {lines[0]!r}")
    points = [(oc, eta) for oc in ocs for eta in etas]
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    if [r[:2] for r in rows] != points:
        _fail(f"{path}: rows do not list the sweep's {len(points)} points in order")
    tol = scenario["sizing"]["e_tol_mwh"]
    demand, generation = demand_generation(scenario)
    price = scenario["costs"]["long"]["capacity_usd_per_kwh"]
    total = 0.0
    for oc, eta, e_split, s0_split in rows:
        e_star, s0_star = sequent_peak(residual(demand, generation, oc), eta)
        e_min, s0 = e_split * eta**0.5, s0_split * eta**0.5
        for what, got, exact in (("capacity", e_min, e_star), ("initial level", s0, s0_star)):
            if not exact - TOL * max(1.0, exact) <= got <= exact + tol + TOL * max(1.0, exact):
                _fail(f"{path}: overcapacity {oc} efficiency {eta}: {what} {got} MWh "
                      f"outside [{exact}, {exact} + {tol}]")
        total += e_split * 1e3 * price / 1e9
    return total
