#!/usr/bin/env python3
"""Benchmark for dtzero: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run it from the root of a dtzero checkout; the package is loaded from
./src.  `--workload all` runs series, cli and lattice one after another.
With `--trace 0` the run reports the end-to-end metrics, with `--trace 1`
the per-layer ones and writes its spans to perfbench-out/.  Every output
is checked against the references in reference.py, outside the timing.
Every time in the end-to-end metrics is scaled to a reference host speed,
measured next to each operation and set-up (see calibrate.py); the raw
wall-clock figures are printed above the result.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate

OUT_DIR = "perfbench-out"
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "series.mul.calls": "count/op",
    "series.mul.self_ms": "ms/op",
    "series.inverse.self_ms": "ms/op",
    "series.pow.ms": "ms/op",
    "macmahon.macmahon_series.calls": "count/op",
    "macmahon.macmahon_series.ms": "ms/call",
    "dt.dt_series.calls": "count/op",
    "dt.dt_series.self_ms": "ms/op",
    "dt.macmahon_neg_per_dt_series": "ratio",
    "chern.resolve.ms": "ms/op",
    "cobordism.decompose.ms": "ms/op",
    "cli.parse_spec_document.ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "cli.interpreter_ms": "ms/op",
    "cli.import_ms": "ms/op",
    "lattice.partitions.calls": "count/op",
    "lattice.partitions.hit_ratio": "ratio",
    "lattice.le.calls": "count/op",
    "lattice.lt.true_ratio": "ratio",
    "lattice.delta_transform.self_ms": "ms/op",
    "lattice.classify_q_set.self_ms": "ms/op",
    "lattice.strict_diagonal_distance_sq.calls": "count/op",
    "lattice.strict_diagonal_distance_sq.self_ms": "ms/op",
    "trace.overhead_pct": "%",
}


class Phase:
    """Latencies and CPU time of whole cycles of operations.

    Each output is checked as soon as its operation returns, and the check
    is left out of every figure, so outputs need not be kept.  `failed`
    counts operations that raised or gave a wrong output, `wrong` the
    latter; the first few problems go to stderr.  A calibrated phase
    calibrates the host after each operation, outside the timing, and
    keeps per operation its CPU time and the host's slowness.
    """

    def __init__(self, calibrated: bool = False):
        self.calibrated = calibrated
        self.latencies: list[float] = []
        self.cpus: list[float] = []
        self.slowness: list[float] = []
        self.failed = self.wrong = 0
        self.cpu = self.wall = 0.0

    def run_cycle(self, workload) -> None:
        checking = 0.0
        start = perf_counter()
        for item in workload.items:
            workload.set_op(len(self.latencies))
            cpu_before = workload.cpu_seconds()
            began = perf_counter()
            try:
                out, problem = workload.run(item), None
            except Exception as exc:  # a raising operation is a failed one
                out, problem = None, f"raised {exc!r}"
            ended = perf_counter()
            cpu = workload.cpu_seconds() - cpu_before
            self.cpu += cpu
            self.latencies.append(ended - began)
            if self.calibrated:
                self.cpus.append(cpu)
                self.slowness.append(
                    calibrate.in_child() if workload.in_children
                    else calibrate.in_process(calibrate.SHARE * (ended - began))
                )
            if problem is None:
                try:
                    problem = workload.check(item, out)
                except Exception as exc:  # an output the check cannot read is wrong
                    problem = f"unreadable output: {exc!r}"
                self.wrong += problem is not None
            if problem is not None:
                self.failed += 1
                if self.failed <= 5:
                    print(f"{workload.name}: operation on item {item} failed: {problem}", file=sys.stderr)
            checking += perf_counter() - ended  # calibration and check
        self.wall += perf_counter() - start - checking


def calibrated_setup(workload) -> tuple[float, float]:
    """(scaled, raw) seconds of one set-up; a set-up probe is a fresh
    interpreter, so a calibration process runs on each side of it."""
    before = calibrate.in_child()
    raw = workload.probe_setup()
    after = calibrate.in_child()
    return raw * 2 / (before + after), raw


def measured_run(workload, seconds: float) -> tuple[dict, list]:
    setups = [calibrated_setup(workload) for _ in range(SETUP_SAMPLES)]
    workload.prepare()
    workload.warm_up()
    phase = Phase(calibrated=True)
    while phase.wall < seconds:
        phase.run_cycle(workload)
    scales = calibrate.scales(phase.slowness)
    scaled = [t * f for t, f in zip(phase.latencies, scales)]
    ops = len(scaled)
    deciles = statistics.quantiles(scaled, n=10)
    metrics = {
        "ops_per_s": ops / sum(scaled),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "cpu_ms_per_op": sum(c * f for c, f in zip(phase.cpus, scales)) * 1e3 / ops,
        "peak_rss_mb": resource.getrusage(workload.rusage_who).ru_maxrss / 1024,
        "setup_s": statistics.median(scaled_setup for scaled_setup, _ in setups),
    }
    raw_deciles = statistics.quantiles(phase.latencies, n=10)
    print(f"raw wall clock: ops_per_s {ops / phase.wall:.4f}  latency_p50_ms {raw_deciles[4] * 1e3:.4f}"
          f"  latency_p90_ms {raw_deciles[8] * 1e3:.4f}  cpu_ms_per_op {phase.cpu * 1e3 / ops:.4f}"
          f"  setup_s {statistics.median(raw for _, raw in setups):.4f}"
          f"  host speed {statistics.median(scales):.4f} of reference")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, [phase]


def traced_run(workload, seconds: float, trace_path: str) -> tuple[dict, list]:
    """Traced and untraced cycles alternate, so that both see the same
    machine and the tracing overhead compares like with like."""
    workload.prepare()
    workload.start_tracing()
    workload.warm_up()
    traced, plain = Phase(), Phase()
    while traced.wall + plain.wall < seconds:
        traced.run_cycle(workload)
        workload.stop_tracing()
        plain.run_cycle(workload)
        workload.start_tracing()
    workload.stop_tracing()
    metrics = workload.layer_figures(len(traced.latencies))
    metrics["trace.overhead_pct"] = (traced.wall / plain.wall - 1) * 100
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(workload.trace_dump(), handle)
    return {k: (metrics[k], unit) for k, unit in PER_LAYER_UNITS.items()}, [traced, plain]


def run_one(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    from workloads import WORKLOADS

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[name](seed, root, out_dir)
    try:
        if trace:
            trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
            metrics, phases = traced_run(workload, seconds, trace_path)
        else:
            metrics, phases = measured_run(workload, seconds)
    finally:
        workload.close()
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  attempted {attempted}  failed {failed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:45s} {value:14.4f} {unit}")
    return {
        "correct": not any(p.wrong for p in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so caches and peak memory stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("series", "cli", "lattice"):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"run.py: workload {name} exited with code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("series", "cli", "lattice", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dtzero", "__init__.py")):
        print("run.py: no dtzero source at ./src/dtzero; run from the root of a dtzero checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
