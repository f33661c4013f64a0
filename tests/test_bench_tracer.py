"""The benchmark tracer patches the package's functions by name; every name
it lists must exist, or `perfbench/run.py --trace 1` fails on a KeyError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _spans()
TARGETS = _SPANS.SPAN_TARGETS + _SPANS.COUNT_TARGETS


@pytest.mark.parametrize("name, module, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_target_exists(name, module, path):
    # the tracer reads each target from its owner's own __dict__
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{name}: {module}.{path} is gone"
