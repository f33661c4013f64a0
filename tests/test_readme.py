"""Golden outputs of the README's command-line examples.

Each digest is the sha256 of the example's stdout, recorded before the spec
kinds moved into one table in `chern.py`; stdout and the exit code must
stay byte-identical.  The spec-document forms of "Threefold spec documents"
each run as `series --spec-file DOC --format json`.
"""

import hashlib
import json

import pytest

from dtzero.cli import main

README_EXAMPLES = {
    "series --builtin P3 --order 2":
        "9dbd971272408c553463cc6896b911cdfc073a988182f95230ae4ad57dea2371",
    "series --hypersurface-degree 5 --order 1":
        "149fb6fd0ae99a1f9077ed2b6632849168d4981786411b04c7130e91680482ef",
    "series --c111 0 --c12 0 --c3 0 --order 5":
        "44de475a6ad2ce2510f1adeeffd44b503bf1cbafb7be2f901c04cb6d4ef38554",
    "cobordism --builtin quintic":
        "bdfdb81a2a2158f8dae3ad26a1437b985c887083ae2d5175f555ea7febbb22b4",
    "discrepancy --builtin P3 --max-n 7":
        "52f0af47121ae1f6c489299406e1bc88f51e2c3cbe43a5554fe167b827eca07a",
    "verify --suite all":
        "4938357e011632fb0741b932139e061a13d0c72fa0df9eb59381c818baaecf6a",
    "verify --suite macmahon --max-n 15":
        "41d5412b43064c6a5d15487a2940f447d12b3488a8d4a4062fd83d693b14025d",
    "verify --suite cobordism --format json":
        "ee36c46a209d93fd6e54180728bf510b56e95ec2547d3ee25d7939f22d9126e0",
}

SPEC_FORMS = [
    ({"builtin": "P3"},
     "5d45c7276269e9d6fd38044dd78768a689c1d49c75eb04961c7cd6ba33743ef7"),
    ({"chern": {"c111": 64, "c12": 24, "c3": 4}},
     "47b54afd3296ca5e0e3437645bbeae7b7dc87b60f968b459c43b673f8e6e7262"),
    ({"hypersurface": {"degree": 5}},
     "6ad336b820797f777827d556613d55e0981f48b1d3ad6216db8c3861896e9250"),
    ({"product": [2, 1]},
     "eab4a15f52a34f8899e2aa07fdb148a98017957ee18a574610be1553302aab38"),
    ({"disjoint_union": [{"builtin": "P3"}, {"product": [2, 1]}]},
     "449fe33e848f198d38dbe879063190d81b404a56d1edef8320b8900a4cecf0a1"),
    ({"scaled": {"factor": "1/2", "of": {"builtin": "P3"}}},
     "7d5f2fc7715fc423e3f5943f0fa96cbaf1a6824483ffe51a1519bf7ccb831942"),
]


def stdout_digest(capsys, argv):
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command", README_EXAMPLES)
def test_command_line_example(capsys, command):
    assert stdout_digest(capsys, command.split()) == (0, README_EXAMPLES[command])


@pytest.mark.parametrize("doc, digest", SPEC_FORMS, ids=[next(iter(doc)) for doc, _ in SPEC_FORMS])
def test_spec_document_form(tmp_path, capsys, doc, digest):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert stdout_digest(capsys, ["series", "--spec-file", str(path), "--format", "json"]) == (0, digest)
