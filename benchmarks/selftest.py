"""Tests of the benchmark's output checks.

    python3 benchmarks/selftest.py        # from the root of a checkout

Runs each workload's CLI commands on short traces, checks that the
genuine outputs pass, then corrupts one value at a time and checks that
the checker rejects it.  Not collected by pytest: the tier-1 suite
tests the package, this file tests the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import scenarios  # noqa: E402
from storefleet import cli  # noqa: E402

ORACLES = checks.load_oracles(ROOT)


class _Outputs(unittest.TestCase):
    """Runs one workload's round once, into a scratch directory."""

    workload = ""
    years = 0.0

    @classmethod
    def setUpClass(cls):
        (HERE / ".out").mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".out"))
        cls.plan = scenarios.make_plan(cls.workload, 5, cls.tmp / "scenarios", years=cls.years)
        cls.outputs = {}
        for op in cls.plan.ops:
            out = cls.tmp / op.name
            assert cli.main(op.argv(out)) == 0, op.name
            cls.outputs[op.name] = out

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def copy(self, name: str) -> Path:
        """A private copy of one op's outputs, for corrupting."""
        target = self.tmp / f"{name}-{self._testMethodName}"
        shutil.copytree(self.outputs[name], target)
        return target


class SimulateChecks(_Outputs):
    workload = "simulate-long"
    years = 0.05

    def check(self, out_dir, op="simulate-value"):
        scenario = self.plan.scenarios[op]
        checks.check_simulation(out_dir, scenario, checks.scenario_trace(scenario), ORACLES)

    def test_genuine_outputs_pass(self):
        for kind in ("value", "ggddf", "grtef"):
            self.check(self.outputs[f"simulate-{kind}"], f"simulate-{kind}")
        cost = checks.check_fixed_cost(self.outputs["fixed-cost"], self.plan.scenarios["fixed-cost"])
        self.assertGreater(cost, 0.0)

    def test_level_off_by_one_mwh_fails(self):
        out = self.copy("simulate-value")
        path = out / "simulation.csv"
        lines = path.read_text().splitlines()
        column = lines[0].split(",").index("level_medium")
        cells = lines[100].split(",")
        cells[column] = repr(float(cells[column]) - 1.0)
        lines[100] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with self.assertRaisesRegex(checks.CheckFailed, "hour 99 store medium"):
            self.check(out)

    def test_summary_total_changed_fails(self):
        out = self.copy("simulate-ggddf")
        path = out / "summary.json"
        summary = json.loads(path.read_text())
        summary["total_spill_mwh"] += 1.0
        path.write_text(json.dumps(summary))
        with self.assertRaisesRegex(checks.CheckFailed, "total_spill_mwh"):
            self.check(out, "simulate-ggddf")

    def test_fixed_cost_cell_changed_fails(self):
        out = self.copy("fixed-cost")
        path = out / "sizing.json"
        report = json.loads(path.read_text())
        report["stores"][2]["cost_capacity_bn_usd"] += 0.01
        path.write_text(json.dumps(report))
        with self.assertRaisesRegex(checks.CheckFailed, "store short: capacity cost"):
            checks.check_fixed_cost(out, self.plan.scenarios["fixed-cost"])


class CurveChecks(_Outputs):
    workload = "size-fleet"
    years = 0.1

    def check(self, out_dir):
        return checks.check_min_store_curve(out_dir, self.plan.scenarios["curve"],
                                            self.plan.curve_ocs, scenarios.CURVE_ETAS)

    def test_genuine_outputs_pass(self):
        self.assertGreater(self.check(self.outputs["curve"]), 0.0)

    def test_point_one_tolerance_below_exact_minimum_fails(self):
        out = self.copy("curve")
        path = out / "min_store_curve.csv"
        lines = path.read_text().splitlines()
        oc, eta, _, s0 = lines[5].split(",")
        scenario = self.plan.scenarios["curve"]
        values = checks.residual(*checks.demand_generation(scenario), float(oc))
        e_star, _ = checks.sequent_peak(values, float(eta))
        tol = scenario["sizing"]["e_tol_mwh"]
        lines[5] = ",".join([oc, eta, repr((e_star - tol) * float(eta) ** -0.5), s0])
        path.write_text("\n".join(lines) + "\n")
        with self.assertRaisesRegex(checks.CheckFailed, f"overcapacity {oc} efficiency {eta}: capacity"):
            self.check(out)


class SizingChecks(_Outputs):
    workload = "size-fleet"
    years = 0.1

    def check(self, out_dir):
        scenario = self.plan.scenarios["size"]
        return checks.check_sizing(out_dir, scenario, checks.scenario_trace(scenario), ORACLES)

    def rewrite(self, out_dir, edit):
        path = out_dir / "sizing.json"
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report))

    def test_genuine_outputs_pass(self):
        cost, _ = self.check(self.outputs["size"])
        self.assertGreater(cost, 0.0)

    def test_long_store_one_tolerance_too_small_fails(self):
        scenario = self.plan.scenarios["size"]
        prices = scenario["costs"]["long"]

        def shrink(report):
            long_store = report["stores"][0]
            eta = long_store["efficiency"]
            servable = long_store["capacity_mwh"] * eta**0.5 - scenario["sizing"]["e_tol_mwh"]
            long_store["capacity_mwh"] = servable * eta**-0.5
            cells = checks.store_cost_bn(long_store, prices)
            old_total = long_store["cost_total_bn_usd"]
            long_store["cost_capacity_bn_usd"] = cells[0]
            long_store["cost_total_bn_usd"] = sum(cells)
            report["total_cost_bn_usd"] += sum(cells) - old_total

        out = self.copy("size")
        self.rewrite(out, shrink)
        with self.assertRaisesRegex(checks.CheckFailed, "above the standard"):
            self.check(out)

    def test_cost_cell_changed_fails(self):
        def bump(report):
            report["stores"][0]["cost_input_power_bn_usd"] += 0.01

        out = self.copy("size")
        self.rewrite(out, bump)
        with self.assertRaisesRegex(checks.CheckFailed, "store long: input power cost"):
            self.check(out)

    def test_decay_rate_off_grid_fails(self):
        def move(report):
            report["lambdas_per_hour"][0] = 0.5

        out = self.copy("size")
        self.rewrite(out, move)
        with self.assertRaisesRegex(checks.CheckFailed, "not on the grid"):
            self.check(out)


if __name__ == "__main__":
    unittest.main()
