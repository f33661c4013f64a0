"""Time one set-up of a warm workload in a fresh interpreter.

    python3 perfbench/setup_probe.py series ORDER    # import dtzero, cold M(-q) at ORDER
    python3 perfbench/setup_probe.py lattice N       # import dtzero, partitions(N)

Prints the seconds from before `import dtzero` to the end of the warm-up.
The caller puts the package's source directory on PYTHONPATH.
"""

import time

start = time.perf_counter()

import sys  # noqa: E402  (already loaded by the interpreter; imported after the clock starts)

import dtzero  # noqa: E402

workload, size = sys.argv[1], int(sys.argv[2])
if workload == "series":
    dtzero.dt_series(dtzero.ThreefoldSpec.builtin("P3"), size)
elif workload == "lattice":
    dtzero.partitions(size)
else:
    sys.exit(f"setup_probe: unknown workload {workload!r}")
print(time.perf_counter() - start)
