import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import dtzero
from dtzero import cli


def run_fresh(code):
    """Run `code` in a fresh interpreter that imports this dtzero."""
    src = os.path.dirname(os.path.dirname(dtzero.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


def modules_loaded_by_main(*argv):
    """Run `cli.main(argv)` in a fresh interpreter; its stdout and the names
    of the dtzero, dataclasses and json modules it loaded."""
    done = run_fresh(
        "import sys\n"
        "from dtzero.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
        "wanted = ('dtzero', 'dataclasses', 'json')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith(wanted))), file=sys.stderr)\n"
    )
    return done.stdout, set(done.stderr.splitlines()[-1].split())


def test_series_command_loads_neither_lattice_nor_verify():
    out, loaded = modules_loaded_by_main("series", "--builtin", "P3", "--order", "2")
    assert out.splitlines()[-1] == "2\t150"
    assert "dtzero.dt" in loaded and "dtzero.cobordism" in loaded
    assert "dtzero.lattice" not in loaded
    assert "dtzero.verify" not in loaded
    # rational powers, degrees and their checks, and the plane-partition oracle
    assert "dtzero.degrees" not in loaded
    assert "dtzero.plane_partitions" not in loaded
    # the series-path records are NamedTuples, and json is for spec files and --format json
    assert "dataclasses" not in loaded
    assert "json" not in loaded


def test_discrepancy_command_loads_degrees_but_no_checks():
    out, loaded = modules_loaded_by_main("discrepancy", "--builtin", "P3", "--max-n", "2")
    assert out.splitlines() == ["1\t20", "2\t-100"]
    assert "dtzero.degrees" in loaded
    assert "dtzero.verify" not in loaded
    assert "dtzero.lattice" not in loaded
    assert "dtzero.plane_partitions" not in loaded


def test_spec_file_loads_json_but_not_dataclasses(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"disjoint_union": [{"builtin": "P3"}, {"product": [2, 1]}]}')
    out, loaded = modules_loaded_by_main("series", "--spec-file", str(path), "--order", "1")
    assert out.splitlines()[0] == "# exponent\t-38"
    assert "json" in loaded
    assert "dataclasses" not in loaded


def test_lattice_import_loads_no_dataclasses():
    # every record is a NamedTuple; dataclasses pulls in inspect, ast, dis and tokenize
    done = run_fresh("import sys\nimport dtzero.lattice\nprint('dataclasses' in sys.modules)\n")
    assert done.stdout.split() == ["False"]


def test_verify_command_loads_no_dataclasses():
    out, loaded = modules_loaded_by_main("verify", "--suite", "all", "--max-n", "1")
    assert out.splitlines()[0] == "PASS\tmacmahon/oracle-equivalence"
    assert "dtzero.verify" in loaded and "dtzero.lattice" in loaded
    assert "dataclasses" not in loaded


def test_chern_calculus_loads_neither_series_nor_macmahon():
    done = run_fresh(
        "import sys\n"
        "import dtzero.chern, dtzero.cobordism\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('dtzero'))))\n"
    )
    loaded = set(done.stdout.split())
    assert "dtzero.chern" in loaded and "dtzero.cobordism" in loaded
    assert "dtzero.series" not in loaded
    assert "dtzero.macmahon" not in loaded


def test_every_launcher_runs_the_same_entry(monkeypatch):
    # `dtzero` (the installed script) and `python -m dtzero` must both start at cli.run
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["dtzero"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    called = []
    monkeypatch.setattr(cli, "run", lambda: called.append("run"))
    runpy.run_module("dtzero", run_name="__main__")
    assert called == ["run"]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dtzero import *", namespace)
    assert all(name in namespace for name in dtzero.__all__)
    assert namespace["dt_series"] is dtzero.dt.dt_series


def test_dir_lists_every_public_name():
    assert set(dtzero.__all__) <= set(dir(dtzero))


def test_public_names_come_from_their_submodules():
    assert dtzero.partitions is sys.modules["dtzero.lattice"].partitions
    assert dtzero.TruncatedSeries is sys.modules["dtzero.series"].TruncatedSeries


def test_each_public_name_is_listed_once():
    # the lazy table is the one list of public names: a name under two
    # submodules would silently load from the last, and no submodule it
    # covers keeps an __all__ of its own to drift from it
    names = [name for names in dtzero._SUBMODULE_EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    for module in dtzero._SUBMODULE_EXPORTS:
        assert not hasattr(importlib.import_module(f"dtzero.{module}"), "__all__"), module


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        dtzero.NoSuchName
    assert not hasattr(dtzero, "NoSuchName")
