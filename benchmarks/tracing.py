"""Spans around the public calls of each storefleet layer.

A ``Tracer`` replaces module attributes with timing wrappers, keeps the
spans in memory and writes them out once, when the traced process ends.
It changes nothing in the package: every wrapper calls the original
function.  Names are patched where callers look them up, so
``sizing.simulate`` (bound by name when ``sizing`` is imported) is
wrapped as well as ``engine.simulate``.

The policy step closures run millions of times per round, so they get
per-kind call counts and busy time instead of one span per call.
"""

from __future__ import annotations

import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

from storefleet import cli, engine, sizing, traces
from storefleet.policies import Policy


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.steps: dict[str, list] = {}  # policy kind -> [calls, seconds]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        record = {"name": name, "parent": self._stack[-1] if self._stack else -1}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owners, attr: str, name: str, annotate=None) -> None:
        """Wrap ``attr`` on every owner with one span-recording function.

        ``annotate(record, args, kwargs, result)`` may add counts to the
        span once the call has returned.
        """
        original = getattr(owners[0], attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if annotate is not None:
                annotate(record, args, kwargs, result)
            return result

        for owner in owners:
            self._set(owner, attr, traced)

    def install(self) -> "Tracer":
        def hours(record, args, kwargs, result):
            fleet = args[0]
            record["store_hours"] = len(engine.trace_values(args[1])) * len(fleet)

        def feasible(record, args, kwargs, result):
            record["feasible"] = bool(result)

        def csv_bytes(record, args, kwargs, result):
            record["bytes"] = os.path.getsize(args[0])

        def trace_hours(record, args, kwargs, result):
            record["hours"] = len(engine.trace_values(args[0]))

        self.wrap([cli], "load_scenario", "cli.load_scenario")
        self.wrap([cli], "build_trace", "cli.build_trace")
        self.wrap([traces], "synthesize", "traces.synthesize")
        self.wrap([traces], "scale_to_overcapacity", "traces.scale_to_overcapacity")
        self.wrap([engine, sizing], "simulate", "engine.simulate", hours)
        self.wrap([engine], "write_simulation_csv", "engine.write_simulation_csv", csv_bytes)
        self.wrap([sizing], "check_reliability", "sizing.check_reliability", feasible)
        self.wrap([sizing], "fleet_cost", "sizing.fleet_cost")
        self.wrap([sizing], "optimize_fleet", "sizing.optimize_fleet")
        self.wrap([sizing], "min_single_store_capacity", "sizing.min_single_store_capacity", trace_hours)

        tracer = self

        class SweepPool(ProcessPoolExecutor):
            """The CLI's process pool, with the pooled sweep as one span."""

            def map(self, fn, *iterables, **kwargs):
                record = tracer._open("cli.sweep")
                try:
                    results = list(super().map(fn, *iterables, **kwargs))
                finally:
                    tracer._close(record)
                return iter(results)

        self._set(cli, "ProcessPoolExecutor", SweepPool)

        raw_step = Policy.raw_step
        steps = self.steps

        def timed_raw_step(policy, consts):
            step = raw_step(policy, consts)
            acc = steps.setdefault(policy.kind, [0, 0.0])
            clock = time.perf_counter

            def timed(levels, re):
                start = clock()
                out = step(levels, re)
                acc[1] += clock() - start
                acc[0] += 1
                return out

            return timed

        self._set(Policy, "raw_step", timed_raw_step)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "steps": self.steps}, fh)


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Totals over traced processes: counts and busy seconds per layer.

    Self times subtract the time covered by the named child spans: the
    policy steps inside ``simulate``, and ``simulate`` inside
    ``optimize_fleet``.
    """
    total: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for dump in dumps:
        spans = dump["spans"]
        for kind, (calls, seconds) in dump["steps"].items():
            add(f"step.{kind}.calls", calls)
            add(f"step.{kind}.s", seconds)
        for span in spans:
            name, seconds = span["name"], span["end"] - span["start"]
            add(f"{name}.calls", 1)
            add(f"{name}.s", seconds)
            for key in ("store_hours", "bytes", "hours"):
                if key in span:
                    add(f"{name}.{key}", span[key])
            if span.get("feasible"):
                add(f"{name}.feasible", 1)
            if name == "engine.simulate":
                parent = span["parent"]
                while parent >= 0 and spans[parent]["name"] != "sizing.optimize_fleet":
                    parent = spans[parent]["parent"]
                if parent >= 0:
                    add("sizing.optimize_fleet.simulate_s", seconds)
    return total
