"""Run `dtzero.cli.main` with the benchmark's tracer installed.

    python3 perfbench/trace_child.py SPANS_JSON series --builtin P3 --order 20

Behaves like `python -m dtzero ...` on stdout, stderr and exit code, and
writes its spans, counts and start-up timestamps to SPANS_JSON when main
returns.  The caller puts the package's source directory on PYTHONPATH.
"""

import time

started = time.perf_counter()

import sys  # noqa: E402

import_start = time.perf_counter()
import dtzero.cli  # noqa: E402

imported = time.perf_counter()

import json  # noqa: E402

from spans import Tracer  # noqa: E402  (this script's directory is on sys.path)

tracer = Tracer()
tracer.install()
tracer.op = 0
code = 1
try:
    code = dtzero.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump({"started": started, "import_s": imported - import_start, **tracer.dump()}, handle)
sys.exit(code)
