"""How fast the host runs right now, measured with fixed work.

    python3 perfbench/calibrate.py    # one calibration process

The host this benchmark was written on (2 vCPUs of a shared machine)
changes speed by up to 2x, in spells of seconds to tens of minutes, and
CPU time moves with wall time.  So raw timings of one code drift from run
to run by more than any change worth measuring.  The benchmark therefore
measures the host's speed next to every operation, with work that does not
involve dtzero, and scales the operation's time to a reference speed.

A calibration is done the way the operation runs:

* in process (`series`, `lattice`, and nothing else in between): slices
  of Fraction sums in a dict keyed by frozensets, the kind of work dtzero
  does, run with the collector off so that their cost does not depend on
  the program's heap, for SHARE of the operation's latency;
* in a fresh interpreter (`cli`, and every set-up probe): this file run as
  a script, timed from spawn to exit, so that process start-up is in it.
  In-process slices right after a child exits read the host as slower
  than the child saw it, and scaled `cli` latencies by them spread twice
  as far as unscaled ones.

A calibration's result is its slowness: its time over the time it takes at
the reference speed.  An operation's time is divided by the mean slowness
of the calibrations of the WINDOW operations on each side of it and its own.
"""

import gc
import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

SLICE_REFERENCE_S = 0.0015  # one in-process slice at the reference speed
PROCESS_REFERENCE_S = 0.09  # one calibration process at the reference speed
SLICES_PER_PROCESS = 2
SHARE = 0.05
WINDOW = 3


def one_slice() -> None:
    table = {}
    for i in range(300):
        key = frozenset((i % 7, i % 11, i % 13))
        table[key] = table.get(key, Fraction(0)) + Fraction(i, 7)


def in_process(budget: float) -> float:
    """Slowness from slices run until `budget` seconds have passed, at least one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, slices = perf_counter(), 0
        while True:
            one_slice()
            slices += 1
            spent = perf_counter() - start
            if spent >= budget:
                return spent / slices / SLICE_REFERENCE_S
    finally:
        if enabled:
            gc.enable()


def in_child() -> float:
    """Slowness from one fresh interpreter running this file."""
    start = perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
    return (perf_counter() - start) / PROCESS_REFERENCE_S


def scales(slowness: list[float]) -> list[float]:
    """Per operation, the factor that takes its time to the reference speed."""
    out = []
    for i in range(len(slowness)):
        window = slowness[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(len(window) / sum(window))
    return out


if __name__ == "__main__":
    for _ in range(SLICES_PER_PROCESS):
        one_slice()
