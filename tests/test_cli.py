import ast
import contextlib
import copy
import csv
import functools
import gc
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storefleet import cli, engine
from storefleet.cli import main
from storefleet.fleet import StoreSpec
from storefleet.params import ReliabilityStandard, SizingOptions, StorePrices, SynthParams
from storefleet.policies import Policy
from storefleet.traces import load_csv


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def simple_simulate_config(tmp_path, **overrides):
    payload = {
        "trace": {"inline_mw": [-4.0, -4.0, -4.0]},
        "convention": "input",
        "stores": [
            {
                "name": "s",
                "capacity_mwh": 12.0,
                "output_power_mw": 8.0,
                "input_power_mw": 10.0,
                "efficiency": 1.0,
            }
        ],
        "policy": {"kind": "value", "lambdas_per_hour": [0.0]},
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestSimulateCommand:
    def test_three_hour_inline_trace(self, tmp_path):
        config = simple_simulate_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_unserved_mwh"] == 0.0
        assert summary["final_levels_mwh"]["s"] == 0.0
        assert summary["hours"] == 3
        rows = (out / "simulation.csv").read_text().strip().splitlines()
        assert rows[0].startswith("hour,re_mw,rate_s,level_s")
        assert len(rows) == 4

    def test_missing_trace_file_is_config_error(self, tmp_path, capsys):
        config = simple_simulate_config(tmp_path, trace={"csv_path": str(tmp_path / "nope.csv")})
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_efficiency_is_config_error(self, tmp_path, capsys):
        config = simple_simulate_config(
            tmp_path,
            stores=[
                {
                    "name": "s",
                    "capacity_mwh": 12.0,
                    "output_power_mw": 8.0,
                    "input_power_mw": 10.0,
                    "efficiency": 1.5,
                }
            ],
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 1
        assert "efficiency" in capsys.readouterr().err

    def test_identical_configs_give_identical_bytes(self, tmp_path):
        config = simple_simulate_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out_b)]) == 0
        for name in ("summary.json", "simulation.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


    def test_non_numeric_store_field_is_config_error(self, tmp_path, capsys):
        config = simple_simulate_config(
            tmp_path,
            stores=[
                {
                    "name": "s",
                    "capacity_mwh": "big",
                    "output_power_mw": 8.0,
                    "input_power_mw": 10.0,
                    "efficiency": 1.0,
                }
            ],
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error:")
        assert "capacity_mwh" in err and "'big'" in err

    def test_decay_rate_count_is_config_error(self, tmp_path, capsys):
        policy = {"kind": "value", "lambdas_per_hour": [0.0, 0.1]}
        config = simple_simulate_config(tmp_path, policy=policy)
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "storefleet: config error: policy: 2 decay rates for 1 stores"
        )

    @pytest.mark.parametrize("level", [50.0, -1.0, float("nan")])
    @pytest.mark.parametrize("command", ["simulate", "tune"])
    def test_initial_level_outside_store_is_config_error(self, tmp_path, capsys, level, command):
        # Checked as written in the file, before the split-convention
        # conversion turns 10 MWh at efficiency 0.8 into 8.94 servable MWh.
        config = simple_simulate_config(
            tmp_path,
            convention="split",
            stores=[
                {
                    "name": "lake",
                    "capacity_mwh": 10.0,
                    "output_power_mw": 8.0,
                    "input_power_mw": 10.0,
                    "efficiency": 0.8,
                    "initial_level_mwh": level,
                }
            ],
        )
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error:")
        assert f"store 'lake': initial_level_mwh {level} outside [0, 10.0]" in err

    def test_duplicate_store_name_is_config_error(self, tmp_path, capsys):
        store = {"output_power_mw": 8.0, "input_power_mw": 10.0, "efficiency": 1.0}
        config = simple_simulate_config(
            tmp_path,
            stores=[{"name": "a", "capacity_mwh": 10.0, **store},
                    {"name": "a", "capacity_mwh": 20.0, **store}],
            policy={"kind": "ggddf"},
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error:") and "duplicate store name 'a'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overcapacity", ["big", float("nan"), float("inf"), -1.0, -3.0])
    def test_bad_overcapacity_is_config_error(self, tmp_path, capsys, overcapacity):
        config = simple_simulate_config(
            tmp_path,
            trace={"synthetic": {"years": 0.01, "seed": 1}},
            overcapacity=overcapacity,
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error: overcapacity")

    @pytest.mark.parametrize("overcapacity", [None, 0.3])
    def test_bad_component_cell_names_its_line(self, tmp_path, capsys, overcapacity):
        path = tmp_path / "comp.csv"
        path.write_text("demand_mw,wind_mw,solar_mw\n900,700,100\n950,oops,0\n")
        extra = {} if overcapacity is None else {"overcapacity": overcapacity}
        config = simple_simulate_config(tmp_path, trace={"csv_path": str(path)}, **extra)
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2
        assert "comp.csv:3: cannot parse 'oops'" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, capsys):
        path = tmp_path / "residual.csv"
        path.write_bytes(b"residual_mw\n-1.0\n\xff\xfe\n2.0\n")
        config = simple_simulate_config(tmp_path, trace={"csv_path": str(path)})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("storefleet: ") and "residual.csv:3: bytes that are not UTF-8" in err

    @pytest.mark.parametrize("content,repeated", [
        ("residual_mw,residual_mw\n1,2\n", "residual_mw"),
        ("demand_mw,wind_mw,solar_mw,demand_mw\n900,700,100,950\n", "demand_mw"),
    ], ids=["residual", "components"])
    def test_a_repeated_schema_column_is_a_trace_error(self, tmp_path, capsys, content, repeated):
        path = tmp_path / "twice.csv"
        path.write_text(content)
        config = simple_simulate_config(tmp_path, trace={"csv_path": str(path)})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("storefleet: ") and "Traceback" not in err
        assert "twice.csv: header" in err and f"names ['{repeated}'] more than once" in err
        assert not (out / "simulation.csv").exists()

    @pytest.mark.parametrize("header", ["demand_mw,wind_mw,solar_mw", "demand_mw, wind_mw, solar_mw"])
    def test_component_csv_scaled_to_overcapacity(self, tmp_path, header):
        path = tmp_path / "comp.csv"
        path.write_text(f"{header}\n900,700,100\n1100,300,0\n")
        config = simple_simulate_config(tmp_path, trace={"csv_path": str(path)}, overcapacity=0.5)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "simulation.csv")))
        # k = 1.5 * 1000 / 550 scales generation 800 and 300.
        k = 1.5 * 1000.0 / 550.0
        assert [float(r["re_mw"]) for r in rows] == pytest.approx([800 * k - 900, 300 * k - 1100])

    def test_overcapacity_with_inline_trace_is_config_error(self, tmp_path, capsys):
        config = simple_simulate_config(tmp_path, overcapacity=0.5)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error: overcapacity")
        assert "synthetic" in err and "demand_mw,wind_mw,solar_mw" in err and "inline_mw" in err
        assert not (out / "simulation.csv").exists()

    def test_overcapacity_with_residual_csv_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "residual.csv"
        path.write_text("residual_mw\n-4.0\n2.0\n")
        config = simple_simulate_config(tmp_path, trace={"csv_path": str(path)}, overcapacity=0.5)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error: overcapacity")
        assert "synthetic" in err and "demand_mw,wind_mw,solar_mw" in err and "residual_mw" in err
        assert not (out / "simulation.csv").exists()


_PRICES = {"capacity_usd_per_kwh": 0.8, "output_power_usd_per_kw": 429.0,
           "input_power_usd_per_kw": 858.0}

FIXED_DIMS_SCENARIO = {
    "trace": {"inline_mw": [0.0]},
    "convention": "split",
    "stores": [
        {
            "name": "long",
            "capacity_mwh": 120.4e6,
            "output_power_mw": 115.9e3,
            "input_power_mw": 80.0e3,
            "efficiency": 0.4,
        }
    ],
    "costs": {"long": _PRICES},
}


# A three-hour scenario that both ``size`` and ``size --no-optimize`` accept.
_SIZE_SCENARIO = FIXED_DIMS_SCENARIO | {
    "trace": {"inline_mw": [5.0, -3.0, -4.0]},
    "reliability": {"max_unserved_gwh_per_year": 0.0},
    "sizing": {"efficiency": 0.4},
}


class TestSizeCommand:
    def test_fixed_dims_cost_report(self, tmp_path):
        config = write_config(tmp_path, FIXED_DIMS_SCENARIO)
        out = tmp_path / "out"
        assert main(["size", "--config", config, "--no-optimize", "--out", str(out)]) == 0
        report = json.loads((out / "sizing.json").read_text())
        store = report["stores"][0]
        assert store["cost_capacity_bn_usd"] == pytest.approx(96.3, abs=0.05)
        assert store["cost_output_power_bn_usd"] == pytest.approx(49.7, abs=0.05)
        assert store["cost_input_power_bn_usd"] == pytest.approx(68.6, abs=0.05)
        assert report["total_cost_bn_usd"] == pytest.approx(214.7, abs=0.05)

    def test_fixed_dims_report_honours_input_convention(self, tmp_path):
        config = write_config(tmp_path, FIXED_DIMS_SCENARIO)
        reports = {}
        for convention in ("split", "input"):
            out = tmp_path / convention
            argv = ["size", "--config", config, "--no-optimize", "--convention", convention]
            assert main([*argv, "--out", str(out)]) == 0
            reports[convention] = json.loads((out / "sizing.json").read_text())
        split, servable = reports["split"], reports["input"]
        assert split["convention"] == "split" and servable["convention"] == "input"
        assert split["stores"][0]["capacity_mwh"] == 120.4e6
        assert servable["stores"][0]["capacity_mwh"] == pytest.approx(120.4e6 * 0.4**0.5, rel=1e-12)
        assert servable["stores"][0]["capacity_twh"] == pytest.approx(120.4 * 0.4**0.5, rel=1e-12)
        # Only the reported capacity changes; the cost is priced on split dimensions.
        for key in ("output_power_mw", "input_power_mw", "cost_total_bn_usd"):
            assert servable["stores"][0][key] == split["stores"][0][key]
        assert servable["total_cost_usd"] == split["total_cost_usd"]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", sorted(_PRICES))
    def test_non_finite_price_is_config_error(self, tmp_path, capsys, optimize, bad, field):
        config = write_config(tmp_path, _SIZE_SCENARIO | {"costs": {"long": _PRICES | {field: bad}}})
        argv = ["size", "--config", config, "--out", str(tmp_path / "out")]
        assert main(argv + ([] if optimize else ["--no-optimize"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error: costs[long]: prices must be finite")
        assert not (tmp_path / "out" / "sizing.json").exists()

    @pytest.mark.parametrize("optimize", [False, True])
    def test_nan_standard_is_config_error(self, tmp_path, capsys, optimize):
        config = write_config(
            tmp_path, _SIZE_SCENARIO | {"reliability": {"max_unserved_gwh_per_year": math.nan}}
        )
        argv = ["size", "--config", config, "--out", str(tmp_path / "out")]
        assert main(argv + ([] if optimize else ["--no-optimize"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error: reliability: reliability standard must")

    def test_missing_efficiency_is_reported_before_the_trace_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(cli, "build_trace", lambda *args: built.append(args))
        config = write_config(tmp_path, _SIZE_SCENARIO | {"sizing": {}})
        assert main(["size", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "size needs sizing.efficiency" in capsys.readouterr().err
        assert built == []

    def test_companion_without_prices_is_config_error(self, tmp_path, capsys):
        companion = {"name": "medium", "capacity_mwh": 5.0, "output_power_mw": 3.0,
                     "input_power_mw": 3.0, "efficiency": 0.8}
        config = write_config(tmp_path, {
            "trace": {"inline_mw": [5.0, -3.0, -4.0, 6.0]},
            "costs": {"long": _PRICES},
            "reliability": {"max_unserved_gwh_per_year": 0.0},
            "sizing": {"efficiency": 0.5, "secondary_grid": [[], [companion]]},
        })
        out = tmp_path / "out"
        assert main(["size", "--config", config, "--mode", "fleet", "--out", str(out)]) == 1
        assert "no prices configured for store 'medium'" in capsys.readouterr().err
        # Single mode does not use the companions, so it does not need their prices.
        assert main(["size", "--config", config, "--mode", "single", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "long_name, names",
        [("long", ["long"]), ("long", ["medium", "medium"]), ("lake", ["medium", "lake"])],
    )
    def test_companion_name_clash_is_config_error(self, tmp_path, capsys, long_name, names):
        # A companion named as the long store, or as another store of its
        # entry, would be priced and reported as that store.
        sizing = FRONT_DOOR_SCENARIO["sizing"] | {
            "long_store_name": long_name,
            "secondary_grid": [[], [_COMPANION | {"name": name} for name in names]],
        }
        costs = {long_name: _PRICES, "medium": _PRICES}
        config = write_config(tmp_path, FRONT_DOOR_SCENARIO | {"sizing": sizing, "costs": costs})
        out = tmp_path / "out"
        assert main(["size", "--mode", "fleet", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error:")
        assert f"duplicate store name {names[-1]!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("level", [0.0, 5.0, None])
    def test_companion_initial_level_is_config_error(self, tmp_path, capsys, level):
        # The fleet search starts every companion full, so a level given
        # for one would be dropped without a word.
        companion = _COMPANION | {"initial_level_mwh": level}
        sizing = FRONT_DOOR_SCENARIO["sizing"] | {"secondary_grid": [[], [_COMPANION], [companion]]}
        config = write_config(tmp_path, FRONT_DOOR_SCENARIO | {"sizing": sizing})
        out = tmp_path / "out"
        assert main(["size", "--mode", "fleet", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error:")
        assert "store 'medium' of secondary_grid entry 2: initial_level_mwh is not allowed" in err
        assert not out.exists()

    def test_fixed_dims_without_stores_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trace": {"inline_mw": [5.0, -3.0, -4.0, 6.0, -2.0, 1.0]},
                                         "costs": {"long": _PRICES}})
        out = tmp_path / "out"
        assert main(["size", "--config", config, "--no-optimize", "--out", str(out)]) == 1
        assert "size --no-optimize needs at least one store" in capsys.readouterr().err
        assert not (out / "sizing.json").exists()

    def test_single_mode_runs(self, tmp_path):
        values = []
        for _ in range(3):
            values.append(100.0)
            values.extend([-10.0] * 10)
        config = write_config(
            tmp_path,
            {
                "trace": {"inline_mw": values},
                "costs": {
                    "long": {
                        "capacity_usd_per_kwh": 0.8,
                        "output_power_usd_per_kw": 429.0,
                        "input_power_usd_per_kw": 858.0,
                    }
                },
                "reliability": {"max_unserved_gwh_per_year": 0.0},
                "sizing": {"efficiency": 1.0, "q_grid_points": 5, "e_tol_mwh": 0.1, "p_tol_mw": 0.01},
            },
        )
        out = tmp_path / "out"
        assert main(["size", "--config", config, "--mode", "single", "--out", str(out)]) == 0
        report = json.loads((out / "sizing.json").read_text())
        assert report["mode"] == "single"
        assert report["annual_unserved_gwh"] == 0.0
        assert report["stores"][0]["output_power_mw"] == pytest.approx(10.0, abs=0.05)

    def test_no_deficit_trace_sizes_to_zero(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "trace": {"inline_mw": [5.0, 2.0, 7.0]},
                "costs": {
                    "long": {
                        "capacity_usd_per_kwh": 0.8,
                        "output_power_usd_per_kw": 429.0,
                        "input_power_usd_per_kw": 858.0,
                    }
                },
                "reliability": {"max_unserved_gwh_per_year": 0.0},
                "sizing": {"efficiency": 0.4},
            },
        )
        out = tmp_path / "out"
        assert main(["size", "--config", config, "--mode", "single", "--out", str(out)]) == 0
        report = json.loads((out / "sizing.json").read_text())
        assert report["total_cost_usd"] == 0.0
        assert report["stores"][0]["capacity_mwh"] == 0.0
        assert report["annual_unserved_gwh"] == 0.0

    def test_fleet_mode_with_empty_grid_matches_single(self, tmp_path):
        values = []
        for _ in range(3):
            values.append(100.0)
            values.extend([-10.0] * 10)
        payload = {
            "trace": {"inline_mw": values},
            "costs": {
                "long": {
                    "capacity_usd_per_kwh": 0.8,
                    "output_power_usd_per_kw": 429.0,
                    "input_power_usd_per_kw": 858.0,
                }
            },
            "reliability": {"max_unserved_gwh_per_year": 0.0},
            "sizing": {
                "efficiency": 0.7,
                "q_grid_points": 5,
                "e_tol_mwh": 0.1,
                "p_tol_mw": 0.01,
                "secondary_grid": [[]],
            },
        }
        config = write_config(tmp_path, payload)
        out_single, out_fleet = tmp_path / "single", tmp_path / "fleet"
        assert main(["size", "--config", config, "--mode", "single", "--out", str(out_single)]) == 0
        assert main(["size", "--config", config, "--mode", "fleet", "--out", str(out_fleet)]) == 0
        single = json.loads((out_single / "sizing.json").read_text())
        fleet = json.loads((out_fleet / "sizing.json").read_text())
        assert fleet["total_cost_usd"] == pytest.approx(single["total_cost_usd"], rel=1e-12)
        assert fleet["stores"][0]["capacity_mwh"] == pytest.approx(
            single["stores"][0]["capacity_mwh"], rel=1e-9
        )


class TestMinStoreCurveCommand:
    def test_toy_trace_single_row(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "trace": {"inline_mw": [10.0, -4.0, -4.0, -4.0]},
                "sizing": {"e_tol_mwh": 1e-6},
            },
        )
        out = tmp_path / "out"
        assert (
            main(["min-store-curve", "--config", config, "--etas", "1.0", "--out", str(out)]) == 0
        )
        rows = list(csv.DictReader(open(out / "min_store_curve.csv")))
        assert len(rows) == 1
        assert float(rows[0]["e_min_mwh"]) == pytest.approx(12.0, abs=1e-3)
        assert float(rows[0]["s0_min_mwh"]) == pytest.approx(2.0, abs=1e-3)
        assert rows[0]["overcapacity"] == ""

    def test_synthetic_sweep_is_monotone(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "trace": {"synthetic": {"years": 0.1, "seed": 5}},
                "sizing": {"e_tol_mwh": 0.05},
            },
        )
        out = tmp_path / "out"
        code = main(
            [
                "min-store-curve",
                "--config",
                config,
                "--etas",
                "0.4,0.9",
                "--oc-list",
                "0.1,0.3",
                "--threads",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "min_store_curve.csv")))
        assert len(rows) == 4
        table = {
            (float(r["overcapacity"]), float(r["efficiency"])): float(r["e_min_mwh"])
            for r in rows
        }
        assert table[(0.3, 0.4)] <= table[(0.1, 0.4)]
        assert table[(0.1, 0.9)] <= table[(0.1, 0.4)]

    def test_empty_etas_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trace": {"inline_mw": [1.0]}})
        assert main(["min-store-curve", "--config", config, "--etas", "", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "flags", [["--etas", "big"], ["--etas", "1.5"], ["--etas", "0.5", "--oc-list", "0.1,-3"]]
    )
    def test_bad_sweep_values_are_config_errors(self, tmp_path, capsys, flags):
        config = write_config(tmp_path, {"trace": {"synthetic": {"years": 0.01, "seed": 1}}})
        assert main(["min-store-curve", "--config", config, "--out", str(tmp_path), *flags]) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error:")


class TestSynthAndStats:
    @pytest.mark.parametrize("years", [1e305, 1000.5])
    def test_trace_too_long_to_hold_is_config_error(self, tmp_path, capsys, years):
        config = write_config(tmp_path, {"trace": {"synthetic": {"years": years, "seed": 1}}})
        assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "years must be at most 1000" in capsys.readouterr().err

    def test_synth_round_trips_through_loader(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "trace": {"synthetic": {"years": 0.02, "seed": 9}},
                "overcapacity": 0.3,
            },
        )
        out = tmp_path / "out"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        meta = json.loads((out / "trace_meta.json").read_text())
        assert meta["hours"] == int(round(0.02 * 8760))
        trace = load_csv(out / "trace.csv")
        assert len(trace) == meta["hours"]
        assert float(np.mean(trace.values_mw)) == pytest.approx(meta["mean_residual_mw"])

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(
            tmp_path,
            {"trace": {"synthetic": {"years": 0.02, "seed": 9}}, "overcapacity": 0.3},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", config, "--out", str(out_a)]) == 0
        assert main(["synth", "--config", config, "--seed", "123", "--out", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()
        # The metadata records the parameters used, defaults included.
        meta = json.loads((out_b / "trace_meta.json").read_text())
        assert meta["synthetic"]["seed"] == 123 and meta["synthetic"]["years"] == 0.02
        assert meta["synthetic"]["base_demand_mw"] == 1000.0
        assert meta["overcapacity"] == 0.3

    def test_stats_outputs(self, tmp_path):
        config = write_config(
            tmp_path,
            {"trace": {"synthetic": {"years": 0.05, "seed": 3}}, "overcapacity": 0.2},
        )
        out = tmp_path / "out"
        assert main(["stats", "--config", config, "--bins", "30", "--max-lag", "48", "--out", str(out)]) == 0
        hist_rows = list(csv.DictReader(open(out / "histogram.csv")))
        acf_rows = list(csv.DictReader(open(out / "acf.csv")))
        assert len(hist_rows) == 30
        assert len(acf_rows) == 49
        assert float(acf_rows[0]["acf"]) == 1.0
        assert sum(int(r["count"]) for r in hist_rows) == int(round(0.05 * 8760))


    def test_stats_flags_at_their_bounds(self, tmp_path):
        config = write_config(tmp_path, {"trace": {"inline_mw": [5.0, -3.0, -4.0, 6.0, -2.0, 1.0]}})
        out = tmp_path / "out"
        argv = ["stats", "--config", config, "--bins", str(cli.MAX_STATS_BINS), "--max-lag", "0"]
        assert main([*argv, "--out", str(out)]) == 0
        assert len(list(csv.DictReader(open(out / "histogram.csv")))) == cli.MAX_STATS_BINS
        assert [row["lag"] for row in csv.DictReader(open(out / "acf.csv"))] == ["0"]


class TestTuneCommand:
    def test_tune_writes_lambdas(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "trace": {"inline_mw": [-5.0, 2.0, -4.0, -1.0]},
                "convention": "input",
                "stores": [
                    {
                        "name": "a",
                        "capacity_mwh": 10.0,
                        "output_power_mw": 4.0,
                        "input_power_mw": 4.0,
                        "efficiency": 0.9,
                    },
                    {
                        "name": "b",
                        "capacity_mwh": 6.0,
                        "output_power_mw": 3.0,
                        "input_power_mw": 3.0,
                        "efficiency": 0.6,
                    },
                ],
                "sizing": {"lambda_grid": [0.0, 0.01, 0.1]},
            },
        )
        out = tmp_path / "out"
        assert main(["tune", "--config", config, "--out", str(out)]) == 0
        payload = json.loads((out / "lambdas.json").read_text())
        assert len(payload["lambdas_per_hour"]) == 2
        assert set(payload["lambdas_per_hour"]) <= {0.0, 0.01, 0.1}
        assert payload["total_unserved_mwh"] >= 0.0


class TestDecayGridErrors:
    @pytest.mark.parametrize("grid", [[], [[]], [0.1, [0.2]], [-0.1], {"long": [0.1]}, "0.1"])
    @pytest.mark.parametrize("command", [["tune"], ["size", "--mode", "fleet"], ["simulate"]])
    def test_bad_grid_is_config_error_for_every_command(self, tmp_path, capsys, grid, command):
        config = simple_simulate_config(
            tmp_path,
            costs={"long": _PRICES},
            reliability={"max_unserved_gwh_per_year": 0.0},
            sizing={"efficiency": 0.5, "lambda_grid": grid},
        )
        assert main([*command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error: sizing:")

    def test_short_per_store_grid_is_config_error(self, tmp_path, capsys):
        store = {"capacity_mwh": 10.0, "output_power_mw": 4.0, "input_power_mw": 4.0,
                 "efficiency": 0.9}
        config = simple_simulate_config(
            tmp_path,
            stores=[{"name": "a", **store}, {"name": "b", **store}],
            policy={"kind": "ggddf"},
            sizing={"lambda_grid": [[0.0, 0.1]]},
        )
        assert main(["tune", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "1 per-store decay grids for 2 stores" in capsys.readouterr().err


_COMPANION = {"name": "medium", "capacity_mwh": 5.0, "output_power_mw": 3.0,
              "input_power_mw": 3.0, "efficiency": 0.8}
# A small valid scenario that every command below runs on: an 8-hour
# inline trace, two stores, and a decay grid of a few points.
FRONT_DOOR_SCENARIO = {
    "trace": {"inline_mw": [5.0, -3.0, -4.0, 6.0, -2.0, -5.0, 4.0, -1.0]},
    "convention": "split",
    "stores": [
        {"name": "long", "capacity_mwh": 20.0, "output_power_mw": 6.0, "input_power_mw": 6.0,
         "efficiency": 0.5, "initial_level_mwh": 10.0},
        _COMPANION,
    ],
    "policy": {"kind": "value", "lambdas_per_hour": [0.001, 0.03]},
    "costs": {"long": _PRICES, "medium": {"capacity_usd_per_kwh": 9.0,
                                         "output_power_usd_per_kw": 200.0,
                                         "input_power_usd_per_kw": 200.0}},
    "reliability": {"max_unserved_gwh_per_year": 0.0},
    "sizing": {
        "efficiency": 0.5, "q_grid_points": 2, "q_grid_lo_factor": 0.1, "e_tol_mwh": 1.0,
        "p_tol_mw": 1.0, "p_grid_points": 2, "long_store_name": "long",
        "lambda_grid": [[0.001], [0.01, 0.03]],
        "secondary_grid": [[], [_COMPANION]],
    },
}
FRONT_DOOR_COMMANDS = (["simulate"], ["size", "--no-optimize"], ["size", "--mode", "fleet"], ["tune"])
BAD_VALUES = ("x", -1, 0, None, [1], {}, float("inf"), True, 2.5)


def _node_paths(node, path=()):
    """Every value's path in a JSON tree, leaves and whole sections alike."""
    if path:
        yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


class TestFrontDoor:
    def test_front_door_scenario_is_valid(self, tmp_path):
        config = write_config(tmp_path, FRONT_DOOR_SCENARIO)
        for command in FRONT_DOOR_COMMANDS:
            assert main([*command, "--config", config, "--out", str(tmp_path / "out")]) == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        path=st.sampled_from(list(_node_paths(FRONT_DOOR_SCENARIO))),
        value=st.sampled_from(BAD_VALUES),
    )
    def test_one_bad_value_never_raises(self, path, value):
        # Any one value replaced by a bad one: every command exits 0, 1 or
        # 2, with a message when it fails, and never with a traceback.
        for code in _exit_codes(FRONT_DOOR_SCENARIO, path, value, FRONT_DOOR_COMMANDS):
            assert code in (0, 1, 2)


# The trace-source variant: a synthetic trace of 44 hours with every
# SynthParams field set, and the commands that read it.
SYNTHETIC_FRONT_DOOR_SCENARIO = {
    **FRONT_DOOR_SCENARIO,
    "trace": {"synthetic": {
        "years": 0.005, "seed": 3, "base_demand_mw": 10.0, "diurnal_amp": 0.15,
        "seasonal_amp": 0.25, "weekly_amp": 0.06, "ar_coeff": 0.9, "noise_sd": 0.08,
        "solar_share": 0.2,
    }},
    "overcapacity": 0.3,
}
SYNTHETIC_COMMANDS = (["simulate"], ["synth"])
SYNTHETIC_PATHS = list(_node_paths(SYNTHETIC_FRONT_DOOR_SCENARIO["trace"]["synthetic"],
                                   ("trace", "synthetic")))


def _exit_codes(scenario, path, value, commands, failure="storefleet: "):
    """Exit code of each command on ``scenario`` with ``value`` at ``path``.

    Every failure must come with a message that starts with ``failure``,
    never a traceback.
    """
    scenario = copy.deepcopy(scenario)
    parent = scenario
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(scenario))
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*command, "--config", str(config), "--out", str(Path(tmp) / "out")])
            assert code == 0 or err.getvalue().startswith(failure)
            codes.append(code)
    return codes


class TestSyntheticFrontDoor:
    def test_scenario_is_valid(self, tmp_path):
        config = write_config(tmp_path, SYNTHETIC_FRONT_DOOR_SCENARIO)
        for command in SYNTHETIC_COMMANDS:
            assert main([*command, "--config", config, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("path", SYNTHETIC_PATHS, ids=lambda path: path[-1])
    def test_bad_value_is_config_error(self, path):
        # A field that is not a finite number, or a section that is not an
        # object, fails at load; any other value runs or fails with exit 1.
        for value in BAD_VALUES:
            if path[-1] == "synthetic":
                malformed = not isinstance(value, dict)
            else:
                malformed = isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and math.isfinite(value)
                )
            for code in _exit_codes(SYNTHETIC_FRONT_DOOR_SCENARIO, path, value, SYNTHETIC_COMMANDS):
                assert code == 1 if malformed else code in (0, 1), (path, value)


# Every numeric field of the front-door scenarios, with the commands that run on it.
NUMERIC_FIELDS = [
    pytest.param(FRONT_DOOR_SCENARIO, path, FRONT_DOOR_COMMANDS, id="/".join(map(str, path)))
    for path in _node_paths(FRONT_DOOR_SCENARIO)
    if type(functools.reduce(operator.getitem, path, FRONT_DOOR_SCENARIO)) in (int, float)
] + [pytest.param(SYNTHETIC_FRONT_DOOR_SCENARIO, ("overcapacity",), SYNTHETIC_COMMANDS,
                  id="overcapacity")]


@pytest.mark.parametrize("scenario,path,commands", NUMERIC_FIELDS)
def test_boolean_at_a_numeric_field_is_config_error(scenario, path, commands):
    # float(True) is 1.0 and float("1") parses, but neither a JSON boolean
    # nor a JSON string is a number.
    for value in (True, False, "1"):
        codes = _exit_codes(scenario, path, value, commands, failure="storefleet: config error:")
        assert codes == [1] * len(commands), (path, value)


@pytest.mark.parametrize("path", [path for path in _node_paths(FRONT_DOOR_SCENARIO)
                                  if path[-1] == "name"], ids=lambda path: "/".join(map(str, path)))
def test_non_string_store_name_is_config_error(path):
    codes = _exit_codes(FRONT_DOOR_SCENARIO, path, 7, FRONT_DOOR_COMMANDS,
                        failure="storefleet: config error:")
    assert codes == [1] * len(FRONT_DOOR_COMMANDS)


def test_integer_prices_and_standard_write_the_bytes_of_floats(tmp_path):
    # The loader hands JSON integers to StorePrices and ReliabilityStandard
    # unconverted; the sizing report must not tell them from floats.
    prices = {"long": (1, 429, 858), "medium": (9, 200, 200)}
    fields = ("capacity_usd_per_kwh", "output_power_usd_per_kw", "input_power_usd_per_kw")
    commands = (["size", "--no-optimize"], ["size", "--mode", "fleet"])
    reports = {}
    for kind in (int, float):
        scenario = copy.deepcopy(FRONT_DOOR_SCENARIO)
        scenario["costs"] = {name: {f: kind(x) for f, x in zip(fields, row)}
                             for name, row in prices.items()}
        scenario["reliability"] = {"max_unserved_gwh_per_year": kind(1)}
        config = write_config(tmp_path, scenario, f"{kind.__name__}.json")
        for command in commands:
            out = tmp_path / kind.__name__ / command[-1]
            assert main([*command, "--config", config, "--out", str(out)]) == 0
            reports[kind, command[-1]] = (out / "sizing.json").read_bytes()
    for command in commands:
        assert reports[int, command[-1]] == reports[float, command[-1]]


class TestTraceSectionErrors:
    @pytest.mark.parametrize(
        "trace",
        [
            {"synthetic": {"years": "x"}},
            {"synthetic": {"seed": 1.5}},
            {"synthetic": {"noise_sd": "x"}},
            {"synthetic": {"colour": "blue"}},
            {"synthetic": [1]},
            {"csv_path": 0},
            {"csv_path": True},
            {"csv_path": 5},
            {"csv_path": [1]},
            {"csv_path": {}},
            {"csv_path": "."},
            {"synthetic": {"years": 0.01}, "csv_path": "trace.csv"},
            {"inline_mw": [1.0], "synthetic": {}},
            {},
        ],
    )
    def test_bad_trace_section_is_config_error(self, tmp_path, capsys, trace):
        config = simple_simulate_config(tmp_path, trace=trace)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error:")

    @pytest.mark.parametrize("values", [[5.0, math.inf], [5.0, math.nan], []],
                             ids=["Infinity", "NaN", "empty"])
    def test_non_finite_or_empty_inline_trace_is_config_error(self, tmp_path, capsys, values):
        config = simple_simulate_config(tmp_path, trace={"inline_mw": values})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error: trace: inline_mw")

    @pytest.mark.parametrize(
        "overrides",
        [{"trace": {"synthetic": {"seed": -1}}}, {"trace": {"csv_path": 5}}, {"overcapacity": "x"}],
    )
    def test_bad_trace_fails_size_without_optimising(self, tmp_path, capsys, overrides):
        # The trace section is checked at load, even where no trace is built.
        config = write_config(tmp_path, {**FIXED_DIMS_SCENARIO, **overrides})
        assert main(["size", "--config", config, "--no-optimize", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error:")

    @pytest.mark.parametrize("command", ["simulate", "synth", "stats"])
    def test_negative_seed_override_is_config_error(self, tmp_path, capsys, command):
        config = simple_simulate_config(tmp_path, trace={"synthetic": {"years": 0.01, "seed": 1}})
        argv = [command, "--config", config, "--seed", "-1", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error: --seed: seed")


class TestUnknownKeys:
    # One misspelt key per section, next to the valid ones: each would
    # otherwise be dropped and its default used in silence.
    @pytest.mark.parametrize(
        "path,key,section",
        [
            ((), "conventon", "scenario"),
            (("trace",), "csv_pth", "trace"),
            (("stores", 0), "initial_levl_mwh", "store"),
            (("policy",), "lambdas_per_hr", "policy"),
            (("costs", "long"), "capacity_usd_per_kw", "costs[long]"),
            (("reliability",), "max_unserved_gwh", "reliability"),
            (("sizing",), "e_tol", "sizing"),
        ],
    )
    @pytest.mark.parametrize("command", [["simulate"], ["size", "--no-optimize"]])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, path, key, section, command):
        scenario = copy.deepcopy(FRONT_DOOR_SCENARIO)
        parent = scenario
        for step in path:
            parent = parent[step]
        parent[key] = 1.0
        config = write_config(tmp_path, scenario)
        assert main([*command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error:")
        assert f"{section}: unknown key {key!r}" in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["min-store-curve", "--etas", "0.5", "--threads", "0"],
            ["min-store-curve", "--etas", "0.5", "--threads", "-3"],
            ["simulate", "--convention", "input"],
            ["simulate", "--threads", "2"],
            ["tune", "--threads", "2"],
            ["tune", "--convention", "split"],
            ["synth", "--threads", "2"],
            ["stats", "--convention", "input"],
            ["stats", "--bins", "0"],
            ["stats", "--bins", "-3"],
            ["stats", "--bins", "1000000000000"],
            ["stats", "--max-lag", "-5"],
        ],
    )
    def test_unread_or_bad_flag_is_config_error(self, tmp_path, capsys, argv):
        config = simple_simulate_config(tmp_path)
        assert main([*argv, "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("storefleet: config error:")

    def test_threads_does_not_change_the_curve(self, tmp_path):
        config = write_config(tmp_path, {"trace": {"inline_mw": [10.0, -4.0, -4.0, -4.0]}})
        outputs = []
        for threads in ("1", "5000"):
            out = tmp_path / threads
            argv = ["min-store-curve", "--config", config, "--etas", "0.5,0.9", "--threads", threads]
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append((out / "min_store_curve.csv").read_bytes())
        assert outputs[0] == outputs[1]


# Modules that only a process pool or a gcc build needs.
_POOL_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def _child_env() -> dict[str, str]:
    """The environment, with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def _run_entry(code: str, env: dict[str, str] | None = None, ends: bool = True):
    """A fresh interpreter that imports the CLI, runs ``code`` and then, if
    ``ends``, ``cli.entry()``, which must end the process itself."""
    tail = "cli.entry()\nsys.exit('cli.entry returned')\n" if ends else ""
    return subprocess.run([sys.executable, "-c", f"import sys\nfrom storefleet import cli\n{code}{tail}"],
                          env=env or _child_env(), capture_output=True, text=True, timeout=120)


class TestImportBudget:
    def test_importing_the_cli_loads_no_pool(self):
        loaded = _fresh_modules("import storefleet.cli")
        assert "storefleet.cli" in loaded
        assert not loaded & set(_POOL_MODULES)

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc to build the compiled module")
    def test_simulate_with_a_built_library_loads_no_subprocess(self, tmp_path):
        assert engine._load_hourloop() is not None  # built, in the cache the child reads
        config = write_config(tmp_path, {
            "trace": {"synthetic": {"years": 0.01, "seed": 5}},
            "stores": [{"name": "s", "capacity_mwh": 500.0, "output_power_mw": 300.0,
                        "input_power_mw": 300.0, "efficiency": 0.8}],
            "policy": {"kind": "ggddf"},
        })
        argv = ["simulate", "--config", config, "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from storefleet import cli, engine\n"
                                f"assert cli.main({argv!r}) == 0\n"
                                f"assert engine._hourloop is not None")
        assert (tmp_path / "out" / "simulation.csv").exists()
        assert not loaded & set(_POOL_MODULES)

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc to build the compiled module")
    @pytest.mark.parametrize("command", [
        ["simulate"], ["size", "--mode", "fleet"],
        ["min-store-curve", "--etas", "0.5,0.9", "--oc-list", "0.1,0.3"],
    ])
    def test_synthesizing_with_a_built_library_loads_no_numpy_random(self, tmp_path, command):
        if not os.path.exists(engine._NPYRANDOM_ARCHIVE):
            pytest.skip("numpy ships no sampler archive here")
        assert engine._load_hourloop() is not None  # built, in the cache the child reads
        config = write_config(tmp_path, FRONT_DOOR_SCENARIO | {
            "trace": {"synthetic": {"years": 0.01, "seed": 5}}})
        argv = [*command, "--config", config, "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from storefleet import cli\nassert cli.main({argv!r}) == 0")
        assert "storefleet.traces" in loaded
        assert not loaded & {"numpy.random", "secrets"}

    @pytest.mark.parametrize("command", [["simulate"], ["size", "--mode", "fleet"]])
    def test_a_synthetic_trace_loads_no_csv_reader(self, tmp_path, command):
        config = write_config(tmp_path, FRONT_DOOR_SCENARIO | {
            "trace": {"synthetic": {"years": 0.01, "seed": 5}}})
        argv = [*command, "--config", config, "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from storefleet import cli\nassert cli.main({argv!r}) == 0")
        assert "storefleet.traces" in loaded
        assert "csv" not in loaded

    def test_min_store_curve_sweeps_without_a_pool(self, tmp_path):
        config = write_config(tmp_path, {"trace": {"inline_mw": [10.0, -4.0, -4.0, -4.0]}})
        argv = ["min-store-curve", "--config", config, "--etas", "0.5,0.9",
                "--threads", "2", "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from storefleet import cli\nassert cli.main({argv!r}) == 0")
        rows = (tmp_path / "out" / "min_store_curve.csv").read_text().splitlines()
        assert len(rows) == 3  # the header and both points
        assert not loaded & {"concurrent.futures", "multiprocessing"}

    def test_pricing_a_fixed_fleet_loads_no_numpy(self, tmp_path):
        config = write_config(tmp_path, {
            "trace": {"synthetic": {"years": 0.01, "seed": 5}},
            "stores": [{"name": "s", "capacity_mwh": 500.0, "output_power_mw": 300.0,
                        "input_power_mw": 300.0, "efficiency": 0.8}],
            "costs": {"s": {"capacity_usd_per_kwh": 20.0, "output_power_usd_per_kw": 500.0,
                            "input_power_usd_per_kw": 400.0}},
        })
        argv = ["size", "--no-optimize", "--config", config, "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from storefleet import cli\nassert cli.main({argv!r}) == 0")
        assert json.loads((tmp_path / "out" / "sizing.json").read_text())["mode"] == "fixed"
        assert "storefleet.params" in loaded
        assert "numpy" not in loaded

    def test_simulate_loads_no_sizing_search(self, tmp_path):
        argv = ["simulate", "--config", simple_simulate_config(tmp_path),
                "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from storefleet import cli\nassert cli.main({argv!r}) == 0")
        assert (tmp_path / "out" / "simulation.csv").exists()
        assert "storefleet.engine" in loaded
        assert "storefleet.sizing" not in loaded

    def test_importing_the_package_loads_no_array_layer(self):
        loaded = _fresh_modules("import storefleet")
        assert "storefleet" in loaded
        assert not loaded & {"numpy", "storefleet.engine", "storefleet.sizing", "storefleet.traces"}

    def test_scenario_values_load_no_numpy(self):
        loaded = _fresh_modules(
            "from storefleet.params import SizingOptions, StorePrices\n"
            "SizingOptions(lambda_grid=[[0.1, 0.0], [0.2]])\n"
            "StorePrices(20.0, 500.0, 400.0)"
        )
        assert "storefleet.params" in loaded
        assert "numpy" not in loaded

    def test_pool_is_resolved_on_first_use(self):
        import concurrent.futures

        assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
        assert getattr(cli, "ProcessPoolExecutor") is concurrent.futures.ProcessPoolExecutor
        with pytest.raises(AttributeError, match="has no attribute 'ProcessPool'"):
            cli.ProcessPool
        assert not hasattr(cli, "no_such_name")


class TestProcessEntry:
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    def test_sizing_and_simulate_leave_no_cyclic_garbage(self, tmp_path, monkeypatch, compiled):
        # cli.entry keeps the collector off for the run: only sound if the
        # work leaves no reference cycles for it to find.
        from storefleet import sizing, traces

        if not compiled:
            monkeypatch.setattr(engine, "_hourloop", None)
        elif engine._load_hourloop() is None:
            pytest.skip("the compiled module cannot be built here")
        costs = {"long": StorePrices(0.8, 429.0, 858.0), "medium": StorePrices(9.0, 200.0, 200.0)}
        grid = [(), (StoreSpec("medium", 10e3, 700.0, 700.0, 0.7),)]
        options = SizingOptions(q_grid_points=2, e_tol_mwh=1000.0, p_tol_mw=5.0, p_grid_points=2,
                                lambda_grid=((1e-3,), (0.01, 0.03)))
        synth = SynthParams(years=0.5, seed=9, diurnal_amp=0.3, weekly_amp=0.05, seasonal_amp=0.12,
                            ar_coeff=0.97, noise_sd=0.18, solar_share=0.35)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            trace = traces.scale_to_overcapacity(*traces.synthesize(synth), 0.3)
            found = sizing.optimize_fleet(trace, costs, ReliabilityStandard(0.35), grid, 0.4, options)
            result = engine.simulate(found.fleet, trace, Policy.value(found.lambdas_per_hour))
            engine.write_simulation_csv(tmp_path / "simulation.csv", trace, found.fleet, result)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        assert len(found.fleet) == 2  # the companion won, so simulate ran two stores

    def test_entry_runs_main_with_the_collector_off(self, tmp_path):
        # entry ends the process, so the replaced main reports what it saw
        # on stdout, before it runs the command.
        argv = ["simulate", "--config", simple_simulate_config(tmp_path),
                "--out", str(tmp_path / "out")]
        done = _run_entry(
            "import gc\n"
            "run = cli.main\n"
            "cli.main = lambda: print(gc.isenabled(), gc.get_freeze_count()) or run()\n"
            f"sys.argv[1:] = {argv!r}\n"
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False 0\n", "")
        assert (tmp_path / "out" / "simulation.csv").exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("preset, expected", [(None, "None 1 False"), ("2", "2 2 False")],
                             ids=["unset", "preset"])
    def test_entry_runs_every_command_on_one_openblas_thread(self, command, preset, expected):
        # entry sets it for every command before numpy is imported, whose
        # OpenBLAS reads it then; a value already in the environment stays,
        # and importing the CLI sets nothing.
        code = ("import os\n"
                f"sys.argv = ['storefleet', {command!r}, '--config', 'x.json']\n"
                "before = os.environ.get('OPENBLAS_NUM_THREADS')\n"
                "cli.main = lambda: print(before, os.environ.get('OPENBLAS_NUM_THREADS'),\n"
                "                         'numpy' in sys.modules) or 0\n")
        env = _child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        done = _run_entry(code, env)
        assert (done.returncode, done.stdout.split(), done.stderr) == (0, expected.split(), "")

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_entry_exits_with_mains_code_and_runs_no_exit_handler(self, code):
        done = _run_entry(f"import atexit\natexit.register(print, 'atexit ran')\n"
                          f"cli.main = lambda: {code}\n")
        assert (done.returncode, done.stdout, done.stderr) == (code, "", "")

    def test_entry_flushes_output_a_pipe_has_not_taken_yet(self):
        # More than a pipe holds, with no newline at the end of either stream.
        done = _run_entry("cli.main = lambda: print('x' * 999_999, end='') or "
                          "print('y' * 99, end='', file=sys.stderr) or 0\n")
        assert (done.returncode, done.stdout, done.stderr) == (0, "x" * 999_999, "y" * 99)

    def test_entry_returns_the_code_when_a_flush_fails(self):
        # The interpreter then flushes again at its exit, and reports the
        # failure with exit code 120, as it did before entry ended the process.
        done = _run_entry(
            "import io\n"
            "class Broken(io.StringIO):\n"
            "    def flush(self):\n"
            "        raise BrokenPipeError(32, 'Broken pipe')\n"
            "cli.main = lambda: 2\n"
            "sys.stdout = Broken()\n"
            "print('returned', cli.entry(), file=sys.__stdout__)\n",
            ends=False,
        )
        assert done.returncode == 120
        assert done.stdout == "returned 2\n" and "BrokenPipeError" in done.stderr

    def test_an_exception_from_main_exits_1_with_its_traceback(self):
        done = _run_entry("cli.main = lambda: 1 / 0\n")
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("Traceback (most recent call last):\n")
        assert done.stderr.endswith("ZeroDivisionError: division by zero\n")

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: OpenBLAS has no second thread")
    def test_stats_acf_does_not_follow_the_cpu_count(self, tmp_path):
        # trace_stats sums each lag with np.dot, which OpenBLAS splits
        # across its threads; the CLI runs it on one, so the file written
        # with the variables unset is the one-thread file.
        config = write_config(tmp_path, {"trace": {"synthetic": {"years": 2, "seed": 3}}})
        acf = []
        for preset in (None, "1"):
            env = {k: v for k, v in _child_env().items() if not k.startswith("OPENBLAS_")}
            if preset is not None:
                env["OPENBLAS_NUM_THREADS"] = preset
            out = tmp_path / f"out-{preset}"
            subprocess.run([sys.executable, "-m", "storefleet.cli", "stats", "--config", config,
                            "--max-lag", "48", "--out", str(out)], env=env, check=True)
            acf.append((out / "acf.csv").read_bytes())
        assert acf[0] == acf[1]

    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path):
        state = gc.isenabled(), gc.get_freeze_count()
        argv = ["simulate", "--config", simple_simulate_config(tmp_path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == state

    def test_script_and_module_run_the_same_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        script = tomllib.loads(pyproject.read_text())["project"]["scripts"]["storefleet"]
        module, name = script.split(":")
        assert module == "storefleet.cli" and getattr(cli, name) is cli.entry
        tree = ast.parse(Path(cli.__file__).read_text())
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(node) for node in block.body] == [f"sys.exit({name}())"]

    def test_bad_config_exits_1_without_a_traceback(self, tmp_path):
        config = write_config(tmp_path, {"trace": {"inline_mw": [1.0]}, "stores": "x"})
        done = subprocess.run(
            [sys.executable, "-m", "storefleet.cli", "simulate", "--config", config,
             "--out", str(tmp_path / "out")],
            env=_child_env(), capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr == "storefleet: config error: stores must be a list, got 'x'\n"


class TestUsageErrors:
    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--nope"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("command", [["simulate"], ["size"], ["min-store-curve", "--etas", "0.5"]],
                             ids=["simulate", "size", "min-store-curve"])
    def test_config_that_is_not_utf8(self, tmp_path, capsys, command):
        config = tmp_path / "scenario.json"
        config.write_bytes(bytes.fromhex("fffe7b7d"))
        assert main([*command, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"storefleet: config error: {config}: not UTF-8 text: ")

    def test_config_that_is_not_json(self, tmp_path, capsys):
        config = write_config(tmp_path, {})
        Path(config).write_text('{"stores": [}')
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"storefleet: config error: {config}: invalid JSON: ")

    @pytest.mark.parametrize("command", [["simulate"], ["size", "--no-optimize"]],
                             ids=["simulate", "size"])
    @pytest.mark.parametrize(
        "where,literal,message",
        [
            (("stores", 0, "capacity_mwh"), "1" + "0" * 400, "integer of 401 digits is out of range"),
            (("costs", "long", "input_power_usd_per_kw"), "-" + "9" * 400,
             "integer of 400 digits is out of range"),
            (("trace", "inline_mw", 1), "7" * 5001, "integer of 5001 digits is out of range"),
            (("trace", "inline_mw", 1), "[" * 100_000 + "]" * 100_000,
             "invalid JSON: nested too deeply to read"),
        ],
        ids=["past-float-range", "negative-price", "past-int-digit-limit", "nested-100000-deep"],
    )
    def test_json_the_decoder_cannot_hold_is_config_error(self, tmp_path, capsys, command, where,
                                                          literal, message):
        payload = copy.deepcopy(_SIZE_SCENARIO | {"policy": {"kind": "ggddf"}})
        functools.reduce(operator.getitem, where[:-1], payload)[where[-1]] = "@"
        config = write_config(tmp_path, payload)
        Path(config).write_text(Path(config).read_text().replace('"@"', literal))
        assert main([*command, "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"storefleet: config error: {config}: {message}\n"

    def test_config_path_naming_a_directory(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_path_naming_a_regular_file(self, tmp_path, capsys, under):
        config = simple_simulate_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / under if under else blocker
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error: ") and str(out) in err

    def test_output_file_that_cannot_be_created(self, tmp_path, capsys):
        config = simple_simulate_config(tmp_path)
        out = tmp_path / "out"
        (out / "simulation.csv").mkdir(parents=True)
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("storefleet: config error: ") and str(out / "simulation.csv") in err
