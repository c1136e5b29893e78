"""``fleet.frozen_dataclass`` against the ``dataclass`` it stands in for.

Each class the package decorates with it is compared with a twin made by
``@dataclass(frozen=True)`` (``eq=False`` for the types compared by
identity) over the same class body: fields, signature, repr, equality
and hash, ``replace``, ``asdict``, pickling, the frozen setters, the
``TypeError`` of a bad call and the one ``__post_init__`` call.

The types of ``fleet``, ``policies``, ``params`` and ``cli`` need no
numpy, and neither does this file's top level, so on an interpreter
without numpy or pytest the comparison runs as a script::

    PYTHONPATH=src python tests/test_value_types.py
"""

import ast
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

from storefleet import cli, fleet, params, policies

SRC = Path(fleet.__file__).resolve().parents[1]
IDENTITY_TYPES = {"PolicyTrace", "SimResult", "ResidualTrace", "TraceStats"}
_KEPT_DUNDERS = {"__module__", "__qualname__", "__annotations__", "__doc__", "__post_init__"}


def _numpy_free_cases():
    spec = fleet.StoreSpec("long", 1e6, 100.0, 50.0, 0.4)
    value = policies.ValueParams((1e-3, 0.0))
    return [
        (fleet.StoreSpec, ("long", 1e6, 100.0, 50.0, 0.4)),
        (fleet.FleetState, ((1.0, 2.5), 3)),
        (fleet.StepDecision, ((1.0, -2.0), 0.5, 0.0)),
        (policies.ValueParams, ((1e-3, 0),)),
        (policies.Policy, ("value", value)),
        (params.StorePrices, (0.8, 429.0, 858.0)),
        (params.StoreCost, (1.0, 2.0, 3.0)),
        (params.CostBreakdown, ((params.StoreCost(1.0, 2.0, 3.0),),)),
        (params.ReliabilityStandard, (0.35,)),
        (params.SizingOptions, (2, 0.2, 10.0, 5.0, 2, ((1e-3,), (0.01, 0.03)), "long")),
        (params.SynthParams, (0.5, 9, 900.0, 0.3, 0.12, 0.05, 0.97, 0.18, 0.35)),
        (cli.Scenario, (params.SynthParams(years=0.5), 0.3, [spec], [5e5],
                        policies.Policy("ggddf"), {"long": params.StorePrices(0.8, 429.0, 858.0)},
                        params.ReliabilityStandard(0.35), params.SizingOptions(), [(), (spec,)], 0.4)),
    ]


def _numpy_cases():
    import numpy as np

    from storefleet import engine, sizing, traces

    spec = fleet.StoreSpec("long", 1e6, 100.0, 50.0, 0.4)
    column = np.array([0.5, 1.5, 3.0])
    return [
        (engine.PolicyTrace, (np.array([[1.0, -2.0], [0.5, 0.0]]),)),
        (engine.SimResult, (column, column, column[:, None], column[:, None], np.array([4.0]), 0.25,
                            fleet.FleetState((1.0,), 3))),
        (traces.ResidualTrace, ([1.0, -2.0, 3.5],)),
        (traces.TraceStats, (np.array([2, 1]), np.array([0.0, 0.5, 1.0]), (0, 1), np.array([1.0, 0.3]))),
        (sizing.SizingResult, ((spec,), 1e9, 0.3, (1e-3,), (2.5,))),
    ]


def _twin(cls):
    """``cls``'s class body under the standard library's frozen ``dataclass``."""
    namespace = {key: value for key, value in vars(cls).items()
                 if not (key.startswith("__") and key.endswith("__")) or key in _KEPT_DUNDERS}
    [body] = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
    if ast.get_docstring(body) is None:  # the decorator wrote one: let dataclass write it too
        del namespace["__doc__"]
    return dataclasses.dataclass(frozen=True, eq=cls.__name__ not in IDENTITY_TYPES)(
        type(cls.__name__, (), namespace))


def _outcome(call, *args, **kwargs):
    try:
        return "returned", repr(call(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def check_against_twin(cls, args):
    twin = _twin(cls)
    names = [f.name for f in fields(cls)]

    def described(kind):
        return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.compare, f.hash,
                 f.kw_only) for f in fields(kind)]

    assert dataclasses.is_dataclass(cls) and described(cls) == described(twin)
    assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)
    assert cls.__match_args__ == twin.__match_args__
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__doc__ == twin.__doc__

    ours, theirs = cls(*args), twin(*args)
    again, twin_again = cls(**dict(zip(names, args))), twin(**dict(zip(names, args)))
    assert dataclasses.is_dataclass(ours) and repr(ours) == repr(theirs) == repr(again)
    if cls.__name__ in IDENTITY_TYPES:
        assert ours == ours and ours != again and hash(ours) == object.__hash__(ours)
        assert theirs == theirs and theirs != twin_again
    else:
        assert ours == again and not ours != again and theirs == twin_again
        assert _outcome(hash, ours) == _outcome(hash, again) == _outcome(hash, theirs)
    assert ours.__eq__(theirs) is theirs.__eq__(ours)
    assert ours != theirs and ours.__eq__(object()) is theirs.__eq__(object())

    changes = {names[-1]: args[-1]}
    assert repr(replace(ours, **changes)) == repr(replace(theirs, **changes))
    assert repr(asdict(ours)) == repr(asdict(theirs))
    back = pickle.loads(pickle.dumps(ours))
    assert type(back) is cls and repr(back) == repr(ours)
    assert _outcome(lambda: back == ours) == _outcome(lambda: again == ours)

    for name in (names[0], "not_a_field"):
        for attempt in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
            result = _outcome(attempt, ours)
            assert result[0] is FrozenInstanceError and result == _outcome(attempt, theirs)
    assert vars(ours) == dict(zip(names, (getattr(ours, name) for name in names)))

    # A subclass gets its own repr, is unequal to the base class's
    # instances and may set attributes other than the fields.
    sub, twin_sub = type("Sub", (cls,), {})(*args), type("Sub", (twin,), {})(*args)
    assert repr(sub) == repr(twin_sub) and sub != ours and twin_sub != theirs
    assert ours.__eq__(sub) is theirs.__eq__(twin_sub)
    for attempt in (lambda x: setattr(x, "extra", 1), lambda x: delattr(x, "extra"),
                    lambda x: setattr(x, names[0], 1), lambda x: delattr(x, names[0])):
        assert _outcome(attempt, sub) == _outcome(attempt, twin_sub)

    required = sum(f.default is dataclasses.MISSING for f in fields(cls))
    calls = [
        ((*args, None), {}),  # one positional too many
        (args, {names[0]: args[0]}),  # a field given twice
        (args[:1], {names[0]: args[0]}),
        (args, {"not_a_field": 1}),
        (args[:-1], {"not_a_field": 1, names[0]: args[0]}),
        ((*args, None), {"not_a_field": 1}),  # the keyword is reported first
        (args[:max(required - 1, 0)], {}),  # the last required field missing
        ((), {}),
        ((), {names[-1]: args[-1]}),
    ]
    for call_args, call_kwargs in calls:
        result = _outcome(cls, *call_args, **call_kwargs)
        assert result == _outcome(twin, *call_args, **call_kwargs), (call_args, call_kwargs)
    assert _outcome(cls, *args, None)[0] is TypeError
    assert _outcome(cls, *args, not_a_field=1)[0] is TypeError
    assert _outcome(cls, *args, **{names[0]: args[0]})[0] is TypeError
    if required:
        assert _outcome(cls, *args[:required - 1])[0] is TypeError

    post_init = cls.__dict__.get("__post_init__")
    if post_init is not None:
        seen = []
        cls.__post_init__ = lambda self: seen.append(self) or post_init(self)
        try:
            made = cls(*args)
        finally:
            cls.__post_init__ = post_init
        assert len(seen) == 1 and seen[0] is made


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        cases = _numpy_free_cases() + _numpy_cases()
        metafunc.parametrize("case", cases, ids=[cls.__name__ for cls, _ in cases])


def test_value_type_matches_its_stdlib_twin(case):
    check_against_twin(*case)


def test_every_value_type_is_compared():
    from storefleet import engine, sizing, traces

    found = {cls for module in (cli, engine, fleet, params, policies, sizing, traces)
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and dataclasses.is_dataclass(cls)}
    compared = {cls for cls, _ in _numpy_free_cases() + _numpy_cases()}
    assert found == compared and len(found) == 17


def test_field_options_are_refused():
    for options in ({"default_factory": list}, {"repr": False}, {"compare": False},
                    {"hash": False}, {"kw_only": True}, {"init": False, "default": 0}):
        class Options:
            x: int = dataclasses.field(**options)

        result = _outcome(fleet.frozen_dataclass, Options)
        assert result == (TypeError, f"{Options.__qualname__}.x: frozen_dataclass takes no field() options")


# The source strings the package's import may execute: none.  Python 3.13's
# dataclass compiles one empty builder for a class it adds no method to, so
# what a bare dataclass(init=False, repr=False, eq=False) executes is allowed.
_IMPORT_GUARD = """
import builtins, dataclasses, sys
import numpy

executed = []
for name in ("exec", "eval"):
    def spy(source, *rest, _real=getattr(builtins, name), **options):
        if isinstance(source, (str, bytes)):
            executed.append(source)
        return _real(source, *rest, **options)
    setattr(builtins, name, spy)

@dataclasses.dataclass(init=False, repr=False, eq=False)
class Bare:
    x: int
allowed, executed[:] = set(executed), []

import storefleet
for module in ("cli", "engine", "fleet", "params", "policies", "sizing", "traces"):
    __import__("storefleet." + module)
print(len([source for source in executed if source not in allowed]))
"""


def test_importing_the_package_executes_no_source_string():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True,
                          check=True, env=env, timeout=120)
    assert done.stdout == "0\n"


if __name__ == "__main__":
    for cls, args in _numpy_free_cases():
        check_against_twin(cls, args)
    print(f"{len(_numpy_free_cases())} value types match their dataclass twins "
          f"on Python {sys.version.split()[0]}")
