"""The benchmark's trace hooks still find what they wrap.

``benchmarks/tracing.py`` replaces package names by attribute, and
``Policy.raw_step`` by a wrapper that passes its one argument through.
A rename or a new call shape would leave its per-layer metrics silently
empty, so this runs each benchmark command once under the tracer and
asks for at least one call of every wrapped layer.  ``simulate`` steps a
``Policy`` in its compiled hour loop, which calls no ``raw_step``, so the
step hooks are asked of a second pass of the ``simulate`` commands with
the compiled loop's handle set to None, on the Python reference loop.
"""

import importlib.util
import json
import sys
from pathlib import Path

from storefleet import engine
from storefleet.cli import main

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_called(tmp_path, monkeypatch):
    tracing, scenarios = _load("tracing"), _load("scenarios")
    configs = {f"simulate_{kind}": scenario
               for kind, scenario in scenarios.simulate_long_scenarios(1, 0.01).items()}
    configs["size"] = scenarios.size_fleet_scenario(21, 0.05)
    configs["curve"] = scenarios.min_store_curve_scenario(0.05)
    for name, scenario in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))

    def run(name, command, *flags):
        config = str(tmp_path / f"{name}.json")
        assert main([*command, "--config", config, "--out", str(tmp_path / name), *flags]) == 0

    def traced(dump, *runs):
        tracer = tracing.Tracer().install()
        try:
            for args in runs:
                run(*args)
        finally:
            tracer.uninstall()
        tracer.dump(tmp_path / dump)
        return tracing.summarize([json.loads((tmp_path / dump).read_text())])

    simulate_runs = [(f"simulate_{kind}", ["simulate"]) for kind in ("value", "ggddf", "grtef")]
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_hourloop", None)
        reference = traced("reference.json", *simulate_runs)
    for kind in ("value", "ggddf", "grtef"):
        assert reference.get(f"step.{kind}.calls", 0) >= 1, f"step.{kind}"

    total = traced("trace.json", *simulate_runs, ("size", ["size", "--mode", "fleet"]),
                   ("curve", ["min-store-curve"], "--etas", "0.7"))
    for name in (
        "engine.simulate",
        "sizing.check_reliability",
        "sizing.fleet_cost",
        "sizing.optimize_fleet",
        "sizing.min_single_store_capacity",
    ):
        assert total.get(f"{name}.calls", 0) >= 1, name
