import os
import subprocess
import sys

import pytest

import dtzero


def test_series_command_loads_neither_lattice_nor_verify():
    code = (
        "import sys\n"
        "from dtzero.cli import main\n"
        "assert main(['series', '--builtin', 'P3', '--order', '2']) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('dtzero'))), file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(dtzero.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "2\t150"
    loaded = set(done.stderr.splitlines()[-1].split())
    assert "dtzero.dt" in loaded and "dtzero.cobordism" in loaded
    assert "dtzero.lattice" not in loaded
    assert "dtzero.verify" not in loaded


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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        dtzero.NoSuchName
    assert not hasattr(dtzero, "NoSuchName")
