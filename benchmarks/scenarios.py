"""Scenario files for the two workloads, made from the workload seed.

Every scenario uses the criterion-6 trace shape: synthetic demand and
wind/solar generation with diurnal 0.30, weekly 0.05, seasonal 0.12,
AR 0.97, noise 0.18 and solar share 0.35 on a 1000 MW base.  What the
seed changes, per workload:

* ``size-fleet``: the companion candidate's dimensions in the fleet
  search, and each overcapacity point of the minimal-store sweep,
  jittered by up to +-0.004 around 0.05, 0.10, ..., 0.50.  Both traces
  are fixed (synthetic seed 9), because the cheapest fleet is set by the
  worst drought in the trace; a new trace per seed moved the answer's
  cost by 10-20 % and the search's work with it.
* ``simulate-long``: the trace seed.  A fixed fleet is stepped through
  every hour, so the work hardly depends on the trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRACE_SHAPE = {
    "diurnal_amp": 0.30,
    "weekly_amp": 0.05,
    "seasonal_amp": 0.12,
    "ar_coeff": 0.97,
    "noise_sd": 0.18,
    "solar_share": 0.35,
}
FIXED_TRACE_SEED = 9

# USD per kWh of capacity and per kW of output / input power.
PRICES = {
    "long": {"capacity_usd_per_kwh": 0.8, "output_power_usd_per_kw": 429.0,
             "input_power_usd_per_kw": 858.0},    # hydrogen
    "medium": {"capacity_usd_per_kwh": 9.0, "output_power_usd_per_kw": 200.0,
               "input_power_usd_per_kw": 200.0},  # ACAES
    "short": {"capacity_usd_per_kwh": 100.0, "output_power_usd_per_kw": 0.0,
              "input_power_usd_per_kw": 180.0},   # Li-ion
}

# The fixed three-store fleet of simulate-long, split convention.
LONG_FLEET = [
    {"name": "long", "capacity_mwh": 1.2e6, "output_power_mw": 1100.0,
     "input_power_mw": 900.0, "efficiency": 0.4},
    {"name": "medium", "capacity_mwh": 10e3, "output_power_mw": 700.0,
     "input_power_mw": 700.0, "efficiency": 0.7},
    {"name": "short", "capacity_mwh": 2e3, "output_power_mw": 500.0,
     "input_power_mw": 500.0, "efficiency": 0.9},
]
LONG_FLEET_LAMBDAS = [1e-3, 0.03, 0.1]

# Trace length of each kind of CLI process.
YEARS = {"size": 0.5, "simulate": 10.0, "curve": 2.0}

CURVE_ETAS = (0.4, 0.7, 0.9)
CURVE_THREADS = 2


def synthetic(years: float, seed: int) -> dict:
    return {"years": years, "seed": seed, **TRACE_SHAPE}


@dataclass(frozen=True)
class Op:
    """One CLI process of a round: subcommand, scenario file, extra flags."""

    name: str
    command: str
    config: str
    flags: tuple[str, ...] = ()

    def argv(self, out_dir) -> list[str]:
        return [self.command, "--config", self.config, "--out", str(out_dir), *self.flags]


@dataclass
class Plan:
    """What one workload runs: the ops of a round and their scenarios."""

    workload: str
    ops: list[Op]
    setup_config: str
    scenarios: dict[str, dict] = field(default_factory=dict)  # op name -> scenario
    curve_ocs: list[float] = field(default_factory=list)


def size_fleet_scenario(seed: int, years: float) -> dict:
    rng = np.random.default_rng([seed, 1])
    capacity = float(round(rng.uniform(9.5e3, 10.5e3)))
    power = float(round(rng.uniform(650.0, 750.0)))
    companion = {"name": "medium", "capacity_mwh": capacity, "output_power_mw": power,
                 "input_power_mw": power, "efficiency": 0.7}
    return {
        "trace": {"synthetic": synthetic(years, FIXED_TRACE_SEED)},
        "overcapacity": 0.30,
        "convention": "split",
        "costs": {"long": PRICES["long"], "medium": PRICES["medium"]},
        "reliability": {"max_unserved_gwh_per_year": 0.35},
        "sizing": {
            "efficiency": 0.4,
            "q_grid_points": 2,
            "e_tol_mwh": 1000.0,
            "p_tol_mw": 5.0,
            "p_grid_points": 2,
            "lambda_grid": [[1e-3], [0.01, 0.03]],
            "secondary_grid": [[], [companion]],
        },
    }


def simulate_long_scenarios(seed: int, years: float) -> dict[str, dict]:
    policies = {
        "value": {"kind": "value", "lambdas_per_hour": LONG_FLEET_LAMBDAS},
        "ggddf": {"kind": "ggddf"},
        "grtef": {"kind": "grtef"},
    }
    return {
        kind: {
            "trace": {"synthetic": synthetic(years, seed)},
            "overcapacity": 0.30,
            "convention": "split",
            "stores": LONG_FLEET,
            "policy": policy,
            "costs": PRICES,
        }
        for kind, policy in policies.items()
    }


def curve_overcapacities(seed: int) -> list[float]:
    rng = np.random.default_rng([seed, 3])
    jitter = rng.uniform(-0.004, 0.004, size=10)
    return [round(0.05 * k + float(d), 4) for k, d in zip(range(1, 11), jitter)]


def min_store_curve_scenario(years: float) -> dict:
    return {
        "trace": {"synthetic": synthetic(years, FIXED_TRACE_SEED)},
        "convention": "split",
        "costs": {"long": PRICES["long"]},
        "sizing": {"e_tol_mwh": 1.0},
    }


def _write(path: Path, scenario: dict) -> str:
    path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def make_plan(workload: str, seed: int, workdir: Path, years: float | None = None) -> Plan:
    """Write the workload's scenario files into workdir and list its ops.

    ``years`` overrides every trace length, for quick runs of the checks.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "size-fleet":
        sizing = size_fleet_scenario(seed, years or YEARS["size"])
        size_config = _write(workdir / "size_fleet.json", sizing)
        curve = min_store_curve_scenario(years or YEARS["curve"])
        curve_config = _write(workdir / "min_store_curve.json", curve)
        ocs = curve_overcapacities(seed)
        flags = (
            "--threads", str(CURVE_THREADS),
            "--etas", ",".join(repr(e) for e in CURVE_ETAS),
            "--oc-list", ",".join(repr(oc) for oc in ocs),
        )
        ops = [Op("size", "size", size_config, ("--mode", "fleet")),
               Op("curve", "min-store-curve", curve_config, flags)]
        return Plan(workload, ops, size_config, {"size": sizing, "curve": curve}, curve_ocs=ocs)
    if workload == "simulate-long":
        scenarios = simulate_long_scenarios(seed, years or YEARS["simulate"])
        ops, by_op = [], {}
        for kind, scenario in scenarios.items():
            config = _write(workdir / f"simulate_{kind}.json", scenario)
            ops.append(Op(f"simulate-{kind}", "simulate", config))
            by_op[f"simulate-{kind}"] = scenario
        # The user-visible cost of the simulated fleet.
        ops.append(Op("fixed-cost", "size", ops[0].config, ("--no-optimize",)))
        by_op["fixed-cost"] = scenarios["value"]
        return Plan(workload, ops, ops[0].config, by_op)
    raise ValueError(f"unknown workload {workload!r}")
