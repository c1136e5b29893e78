"""The benchmark's yardstick: a fixed amount of work that uses no storefleet code.

    python3 benchmarks/reference.py

A fresh process imports numpy, as every storefleet CLI process does,
then steps three toy stores through a fixed residual series in pure
Python: the same mix of float arithmetic, clipping and list indexing as
the engine's hourly loop.  run.py starts one before every CLI process
and reports each CLI process's wall time in units of the yardstick's
wall time next to it (``run_rel``), which cancels most of the host's
drift in speed.  Nothing here may change with the program under test.
"""

import math

import numpy  # noqa: F401  # every CLI process pays for this import too

HOURS = 100_000
CAPACITY = (1.2e6, 1e4, 2e3)
POWER = (1000.0, 700.0, 500.0)
EFFICIENCY = (0.4, 0.7, 0.9)


def main() -> float:
    levels = list(CAPACITY)
    spill = 0.0
    for t in range(HOURS):
        need = math.sin(t * 0.01) * 1500.0
        for k in range(3):
            rate = max(-POWER[k], min(POWER[k], need))
            level = min(CAPACITY[k], max(0.0, levels[k] + rate * EFFICIENCY[k]))
            need -= (level - levels[k]) / EFFICIENCY[k]
            levels[k] = level
        spill += abs(need)
    return spill


if __name__ == "__main__":
    main()
