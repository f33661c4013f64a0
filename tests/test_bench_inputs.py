"""The benchmark's inputs must still pass the program's constructors: a check
tightened in the program must not turn benchmark operations into failures.

`perfbench/workloads.py` is loaded by file path, with `perfbench/` on
`sys.path` only while it imports its sibling modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

import dtzero
from dtzero import EpsilonSchedule, PointConfig, parse_spec_document

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2, 3)


def _workloads():
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in {"reference", "spans"} - before:  # its siblings, imported by bare name
            sys.modules.pop(name, None)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("seed", SEEDS)
def test_series_documents_build_and_resolve(seed):
    for doc in WORKLOADS.series_cycle(seed):
        WORKLOADS._spec(dtzero, doc).resolve()


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_documents_parse_and_resolve(seed):
    for _, doc in WORKLOADS.cli_cycle(seed):
        parse_spec_document(doc).resolve()


@pytest.mark.parametrize("seed", SEEDS)
def test_lattice_configurations_build(seed):
    for config in WORKLOADS.lattice_cycle(seed):
        x = PointConfig(config["points"])
        EpsilonSchedule.default_for(x)
        assert x.n == WORKLOADS.LATTICE_N
