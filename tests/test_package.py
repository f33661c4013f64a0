import importlib
import os
import subprocess
import sys

import pytest

import dtzero


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
    # the series-path records are NamedTuples, and json is for spec files and --format json
    assert "dataclasses" not in loaded
    assert "json" not in loaded


def test_spec_file_loads_json_but_not_dataclasses(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"disjoint_union": [{"builtin": "P3"}, {"product": [2, 1]}]}')
    out, loaded = modules_loaded_by_main("series", "--spec-file", str(path), "--order", "1")
    assert out.splitlines()[0] == "# exponent\t-38"
    assert "json" in loaded
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


@pytest.mark.parametrize("module", sorted(dtzero._SUBMODULE_EXPORTS))
def test_export_table_matches_submodule_all(module):
    # the lazy table is written out by hand; it must list each submodule's __all__
    submodule = importlib.import_module(f"dtzero.{module}")
    assert set(dtzero._SUBMODULE_EXPORTS[module]) == set(submodule.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        dtzero.NoSuchName
    assert not hasattr(dtzero, "NoSuchName")
