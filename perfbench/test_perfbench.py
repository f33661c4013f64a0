"""Tests of the benchmark itself: `python3 -m pytest perfbench -q` from the repo root."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_stored_catalog_matches_its_derivation():
    assert reference.catalog_from_first_principles() == reference.CATALOG_CHERN


def test_recurrence_gives_signed_plane_partition_counts():
    # M(q) counts plane partitions: 1, 1, 3, 6, 13, 24, 48, 86, 160, 282 (OEIS A000219)
    counts = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282)
    assert reference.dt_coefficients(1, 9) == tuple((-1) ** n * c for n, c in enumerate(counts))


def test_same_seed_gives_same_sequence():
    for make in (workloads.series_cycle, workloads.cli_cycle, workloads.lattice_cycle):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_every_seed_keeps_the_cost_strata():
    for seed in range(20):
        triples = [d for d in workloads.series_cycle(seed) if "chern" in d]
        strata = sorted(
            (abs(k).bit_length(), bin(k).count("1"), 1 if k > 0 else -1)
            for k in map(reference.document_exponent, triples)
        )
        assert strata == sorted(workloads.K_SLOTS)
        shapes = sorted(
            tuple(sorted((len(b) for b in reference.blocks(reference.canonical(c["points"]))), reverse=True))
            for c in workloads.lattice_cycle(seed)
        )
        assert shapes == sorted(workloads.SHAPES)


def test_scaling_cancels_the_host_speed_around_each_operation():
    assert calibrate.scales([2.0] * 9) == [0.5] * 9
    scales = calibrate.scales([1.0] * 10 + [2.0] * 10)
    assert scales[:7] == [1.0] * 7 and scales[-7:] == [0.5] * 7


def _one_cycle_with(workload, tamper):
    honest = workload.run
    workload.run = lambda item: tamper(item, honest(item))
    phase = run.Phase()
    phase.run_cycle(workload)
    return len(phase.latencies), (phase.failed, phase.wrong)


def test_wrong_coefficient_is_a_failed_operation(tmp_path):
    workload = workloads.SeriesWorkload(3, ROOT, str(tmp_path))
    workload.prepare()

    def tamper(item, out):
        if item != 0:
            return out
        coefficients = list(out.series.coefficients)
        coefficients[7] += 1
        return SimpleNamespace(exponent=out.exponent, series=SimpleNamespace(coefficients=tuple(coefficients)))

    attempted, (failed, wrong) = _one_cycle_with(workload, tamper)
    assert attempted == len(workload.items)
    assert (failed, wrong) == (1, 1)


def test_wrong_delta_is_a_failed_operation(tmp_path):
    workload = workloads.LatticeWorkload(3, ROOT, str(tmp_path))
    workload.prepare()
    workload.warm_up()

    def tamper(item, out):
        if item != 2:
            return out
        beta, delta = out
        delta = dict(delta)
        some = next(iter(delta))
        delta[some] += 1
        return beta, delta

    assert _one_cycle_with(workload, tamper)[1] == (1, 1)


def test_raising_operation_is_failed_but_not_wrong(tmp_path):
    workload = workloads.SeriesWorkload(3, ROOT, str(tmp_path))
    workload.prepare()

    def tamper(item, out):
        if item == 1:
            raise ArithmeticError("injected")
        return out

    assert _one_cycle_with(workload, tamper)[1] == (1, 0)


@pytest.mark.parametrize("name", ["series", "cli", "lattice"])
def test_short_run_has_no_failures_and_every_declared_metric(name):
    done = _bench("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    declared = _declared()
    assert {m: (v["unit"]) for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    results = []
    for _ in range(2):
        done = _bench("--workload", "lattice", "--seed", "4", "--seconds", "0.1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    metrics = [r["metrics"] for r in results]
    assert set(metrics[0]) == {m["name"] for m in _declared()["per_layer"]}
    for name, value in metrics[0].items():
        if value["unit"] in ("count/op", "ratio"):
            assert metrics[1][name] == value, name
    assert metrics[0]["lattice.strict_diagonal_distance_sq.calls"]["value"] == 203


def test_refuses_to_run_without_the_program(tmp_path):
    done = _bench("--workload", "series", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
