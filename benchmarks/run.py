"""The storefleet benchmark: two CLI workloads, checked outputs, layer spans.

    python3 benchmarks/run.py --workload size-fleet --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Workloads: ``size-fleet`` and
``simulate-long`` (see README.md and scenarios.py).  The loop is
closed: one CLI process at a time, each started as
``python3 -m storefleet.cli`` on scenario files made from the seed.  A
round is the workload's fixed list of CLI processes; rounds repeat
until ``--seconds`` have passed, and at least three run.

Before every CLI process, and once after the last, the yardstick
(reference.py, no storefleet code) runs in a fresh process.  ``run_rel``
is the mean over rounds of a round's CLI wall times, each divided by
the mean of the two yardstick wall times around it.  The host's speed
drifts by up to half in stretches of seconds to minutes, and this ratio
cancels most of that.  The plain mean round wall time, ``run_s``, goes
to standard error.

Before each round, and after the last until there are fifteen, a fresh
process imports storefleet, loads the scenario and builds its trace
(``setup_s``, the median).  After the rounds, and outside the timed
region, the first round's outputs are checked against computations
made apart from the program, and every later round's files must be
byte-identical to the first round's.

With ``--trace 1`` every process records spans around the package's
public calls (tracing.py) and the per-layer metrics are printed instead
of the end-to-end ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` CLI operations, and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
MIN_ROUNDS = 3
OP_TIMEOUT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("size-fleet", "simulate-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_process(cmd: list[str], env: dict) -> tuple[float, int, str]:
    """Start a process, wait for it to end; (wall seconds, exit code, stderr tail)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
    wall = time.perf_counter() - start
    return wall, proc.returncode, err.decode(errors="replace")[-2000:]


def digest(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def check_outputs(plan, out_dirs: dict, root: Path) -> tuple[dict[str, str], float]:
    """Check the first round's outputs; (failure message per op, cost in $bn)."""
    import checks
    import scenarios

    oracles = checks.load_oracles(root)
    failures: dict[str, str] = {}
    cost = 0.0
    values = None
    for op in plan.ops:
        if op.name not in out_dirs:  # the process failed; counted as such
            continue
        scenario = plan.scenarios[op.name]
        out_dir = out_dirs[op.name]
        try:
            if op.command == "simulate":
                if values is None:
                    values = checks.scenario_trace(scenario)
                checks.check_simulation(out_dir, scenario, values, oracles)
            elif op.name == "fixed-cost":
                cost = checks.check_fixed_cost(out_dir, scenario)
            elif op.command == "size":
                cost, note = checks.check_sizing(out_dir, scenario, checks.scenario_trace(scenario),
                                                 oracles)
                if note:
                    print(f"run.py: {op.name}: {note}", file=sys.stderr)
            else:  # min-store-curve; cost_bn_usd stays the fleet's
                checks.check_min_store_curve(out_dir, scenario, plan.curve_ocs,
                                             scenarios.CURVE_ETAS)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            failures[op.name] = f"{type(exc).__name__}: {exc}"
    return failures, cost


def replay_curve(plan) -> dict:
    """The pooled sweep's work, run in this process under spans.

    Pool workers' spans die with the workers, so the traced run calls
    ``sizing.min_single_store_capacity`` on the same inputs here, one
    point after another.
    """
    import scenarios
    from storefleet import sizing, traces
    from tracing import Tracer

    scenario = plan.scenarios["curve"]
    demand, generation = traces.synthesize(traces.SynthParams(**scenario["trace"]["synthetic"]))
    tol = scenario["sizing"]["e_tol_mwh"]
    tracer = Tracer().install()
    try:
        for oc in plan.curve_ocs:
            trace = traces.scale_to_overcapacity(demand, generation, oc)
            for eta in scenarios.CURVE_ETAS:
                sizing.min_single_store_capacity(trace, eta, tol_mwh=tol)
    finally:
        tracer.uninstall()
    return {"spans": tracer.spans, "steps": tracer.steps}


def layer_metrics(round_dumps: list[dict], rounds: int, setup_dumps: list[dict],
                  replay: dict | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per round of the workload, setup ones per probe."""
    from tracing import summarize

    per_round = {k: v / rounds for k, v in summarize(round_dumps).items()}

    def get(key):
        return per_round.get(key, 0.0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    step_calls = sum(v for k, v in per_round.items() if k.startswith("step.") and k.endswith(".calls"))
    step_s = sum(v for k, v in per_round.items() if k.startswith("step.") and k.endswith(".s"))
    simulate_s = get("engine.simulate.s")
    m = {
        "policies.step_calls": (step_calls, "count"),
        "policies.step_s": (step_s, "s"),
    }
    for kind in ("value", "ggddf", "grtef"):
        m[f"policies.{kind}.step_us"] = (ratio(get(f"step.{kind}.s"), get(f"step.{kind}.calls"), 1e6), "us")
    m.update({
        "engine.simulate_calls": (get("engine.simulate.calls"), "count"),
        "engine.simulate_s": (simulate_s, "s"),
        "engine.store_hours": (get("engine.simulate.store_hours"), "count"),
        "engine.store_hours_per_s": (ratio(get("engine.simulate.store_hours"), simulate_s), "1/s"),
        "engine.self_s": (simulate_s - step_s, "s"),
        "engine.write_simulation_csv_s": (get("engine.write_simulation_csv.s"), "s"),
        "engine.write_simulation_csv_mb": (get("engine.write_simulation_csv.bytes") / 1e6, "MB"),
        "sizing.candidates": (get("sizing.check_reliability.calls"), "count"),
        "sizing.candidates_feasible": (get("sizing.check_reliability.feasible"), "count"),
        "sizing.feasible_share": (ratio(get("sizing.check_reliability.feasible"),
                                        get("sizing.check_reliability.calls")), "ratio"),
        "sizing.fleet_cost_calls": (get("sizing.fleet_cost.calls"), "count"),
        "sizing.optimize_fleet_s": (get("sizing.optimize_fleet.s"), "s"),
        "sizing.search_self_s": (get("sizing.optimize_fleet.s")
                                 - get("sizing.optimize_fleet.simulate_s"), "s"),
    })
    sweep = summarize([replay]) if replay else {}
    capacity_s = sweep.get("sizing.min_single_store_capacity.s", 0.0)
    m.update({
        "sizing.min_single_store_capacity_calls": (sweep.get("sizing.min_single_store_capacity.calls", 0.0), "count"),
        "sizing.min_single_store_capacity_s": (capacity_s, "s"),
        "sizing.min_capacity_ns_per_hour": (ratio(capacity_s, sweep.get("sizing.min_single_store_capacity.hours", 0.0), 1e9), "ns"),
    })
    setup = [summarize([d]) for d in setup_dumps]
    for name in ("cli.load_scenario", "cli.build_trace", "traces.synthesize", "traces.scale_to_overcapacity"):
        m[f"{name}_s"] = (statistics.median(s.get(f"{name}.s", 0.0) for s in setup), "s")
    m["cli.sweep_s"] = (get("cli.sweep.s"), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "storefleet" / "cli.py").is_file() or not (root / "tests" / "oracles.py").is_file():
        print("run.py: src/storefleet/ and tests/oracles.py not found; "
              "run from the root of a storefleet checkout", file=sys.stderr)
        return 2
    src = str(root / "src")
    sys.path[:0] = [src]
    import scenarios

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    traced = bool(args.trace)
    workdir = HERE / ".out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_dir = workdir / "spans"
    try:
        spans_dir.mkdir(parents=True)
        plan = scenarios.make_plan(args.workload, args.seed, workdir / "scenarios")

        setup_walls, setup_dumps = [], []

        def probe(counted: bool = True) -> None:
            spans = spans_dir / f"setup{len(setup_walls)}.json" if traced and counted else "-"
            wall, code, err = run_process(
                [sys.executable, str(HERE / "child.py"), "setup", str(spans), plan.setup_config], env)
            if code != 0:
                raise SystemExit(f"run.py: set-up probe failed ({code}): {err}")
            if counted:
                setup_walls.append(wall)
                if traced:
                    setup_dumps.append(json.loads(Path(spans).read_text()))

        probe(counted=False)  # writes the bytecode caches of a fresh checkout
        rounds: list[dict] = []  # op name -> (wall, exit code, digest)
        round_dumps: list[dict] = []
        first_outputs: dict[str, Path] = {}
        ref_walls: list[float] = []  # the yardstick, run before every CLI process
        timed: list[tuple[float, int]] = []  # (CLI wall, index of the yardstick before it)

        def yardstick() -> None:
            wall, code, err = run_process([sys.executable, str(HERE / "reference.py")], env)
            if code != 0:
                raise SystemExit(f"run.py: reference process failed ({code}): {err}")
            ref_walls.append(wall)

        deadline = time.perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            r = len(rounds)
            probe()
            results = {}
            for op in plan.ops:
                out_dir = workdir / f"round{r}" / op.name
                out_dir.mkdir(parents=True)
                if traced:
                    spans = spans_dir / f"round{r}-{op.name}.json"
                    cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans), *op.argv(out_dir)]
                else:
                    cmd = [sys.executable, "-m", "storefleet.cli", *op.argv(out_dir)]
                yardstick()
                wall, code, err = run_process(cmd, env)
                timed.append((wall, len(ref_walls) - 1))
                if code != 0:
                    print(f"run.py: round {r} {op.name} exited {code}: {err}", file=sys.stderr)
                if traced and code == 0:
                    round_dumps.append(json.loads(spans.read_text()))
                results[op.name] = (wall, code, digest(out_dir))
                if r == 0 and code == 0:
                    first_outputs[op.name] = out_dir
            if r > 0:
                shutil.rmtree(workdir / f"round{r}")
            rounds.append(results)
            print(f"round {r}: " + " ".join(
                f"{op.name} {wall:.3f}s (yardstick {ref_walls[i]:.3f}s)"
                for op, (wall, i) in zip(plan.ops, timed[-len(plan.ops):])), file=sys.stderr)

        yardstick()  # the one after the last CLI process
        print(f"final yardstick {ref_walls[-1]:.3f}s", file=sys.stderr)
        while len(setup_walls) < SETUP_PROBES:
            probe()

        failures, cost = check_outputs(plan, first_outputs, root)
        attempted = failed = 0
        mismatched = False
        for r, results in enumerate(rounds):
            for op in plan.ops:
                wall, code, files = results[op.name]
                attempted += 1
                differs = code == 0 and op.name in first_outputs and files != rounds[0][op.name][2]
                mismatched |= differs
                if code != 0 or op.name in failures or differs:
                    failed += 1
        for name, message in failures.items():
            print(f"run.py: check failed for {name}: {message}", file=sys.stderr)
        if mismatched:
            print("run.py: a later round's outputs differ from the first round's", file=sys.stderr)

        run_s = sum(wall for wall, _ in timed) / len(rounds)
        run_rel = sum(wall / ((ref_walls[i] + ref_walls[i + 1]) / 2) for wall, i in timed) / len(rounds)
        print(f"run_s {run_s:.4f} s, run_rel {run_rel:.4f}, reference median "
              f"{statistics.median(ref_walls):.4f} s, over {len(rounds)} rounds", file=sys.stderr)
        if traced:
            replay = replay_curve(plan) if plan.curve_ocs else None
            metrics = layer_metrics(round_dumps, len(rounds), setup_dumps, replay)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = {
                "run_rel": (run_rel, "ratio"),
                "setup_s": (statistics.median(setup_walls), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
                "cost_bn_usd": (cost, "bn_usd"),
            }
        print(json.dumps({
            "correct": not failures and not mismatched,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
