"""The scripts under scripts/ run end to end and print their headers."""

import os
import subprocess
import sys

import pytest

import dtzero

SRC = os.path.dirname(os.path.dirname(dtzero.__file__))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


def run(name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def run_script(name, *argv):
    done = run(name, *argv)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_dt_catalog():
    lines = run_script("dt_catalog.py", "--order", "4", "--max-k", "3")
    headers = [line for line in lines if line.startswith("== ")]
    assert headers == ["== P3", "== P2xP1", "== P1xP1xP1", "== quintic",
                       "== universality across the catalog: exact fit"]
    assert "   series          1 20 150 400 -855" in lines
    assert lines[-1] == "   lambda_k        1:-1 2:5 3:-20"


@pytest.mark.parametrize("argv, message", [
    (("--order", "-1"), "--order must be non-negative"),
    (("--max-k", "0"), "--max-k must be at least 1"),
    (("--max-k", "-1"), "--max-k must be at least 1"),
])
def test_dt_catalog_refuses_bad_sizes(argv, message):
    done = run("dt_catalog.py", *argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1].endswith(f"error: {message}")


def test_qset_demo():
    lines = run_script("qset_demo.py", "--n", "3", "--samples", "20")
    assert lines[0] == "20 configurations of 3 points, seed 0"
    assert lines[1].startswith("all classifications unique; ")
    assert all(line.startswith("  rank ") for line in lines[2:]) and len(lines) > 2


def test_qset_demo_grid_zero_puts_every_point_together():
    lines = run_script("qset_demo.py", "--n", "3", "--samples", "2", "--grid", "0")
    assert lines[2:] == ["  rank 2:     2 configurations"]


@pytest.mark.parametrize("argv, message", [
    (("--n", "0"), "--n must be at least 1"),
    (("--n", "-1"), "--n must be at least 1"),
    (("--samples", "0"), "--samples must be at least 1"),
    (("--samples", "-1"), "--samples must be at least 1"),
    (("--grid", "-1"), "--grid must be non-negative"),
    (("--n", "10"), "--n must be at most 9"),  # the down-set table would hold 16 733 779 pairs
])
def test_qset_demo_refuses_bad_sizes(argv, message):
    done = run("qset_demo.py", *argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1].endswith(f"error: {message}")
