import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dtzero import BUILTIN_THREEFOLDS, ThreefoldSpec, macmahon
from dtzero.cli import MAX_ORDER, MAX_SPEC_DEPTH, SpecDocumentError, main, parse_spec_document
from dtzero.verify import MAX_N, max_n_limit, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesCommand:
    def test_p3_tsv(self, capsys):
        code, out, err = run(capsys, "series", "--builtin", "P3", "--order", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# exponent\t-20"
        assert lines[1].startswith("# cobordism\tr1=1\tr2=0\tr3=0\tm=1")
        assert lines[2:] == ["0\t1", "1\t20", "2\t150"]

    def test_zero_twist(self, capsys):
        code, out, _ = run(capsys, "series", "--c111", "0", "--c12", "0", "--c3", "0",
                           "--order", "5")
        assert code == 0
        values = [line.split("\t")[1] for line in out.splitlines() if not line.startswith("#")]
        assert values == ["1", "0", "0", "0", "0", "0"]

    def test_quintic_by_degree(self, capsys):
        code, out, _ = run(capsys, "series", "--hypersurface-degree", "5", "--order", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# exponent\t-200"
        assert lines[-1] == "1\t200"

    def test_json_round_trips_through_schema(self, capsys):
        code, out, _ = run(capsys, "series", "--builtin", "quintic", "--order", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exponent"] == -200
        assert doc["coefficients"][:2] == [1, 200]
        reparsed = parse_spec_document(doc["spec"])
        assert reparsed.resolve().c3 == -200

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "series", "--builtin", "P2xP1", "--order", "6")
        _, second, _ = run(capsys, "series", "--builtin", "P2xP1", "--order", "6")
        assert first == second

    def test_banner_and_data_streams_separate(self, capsys):
        code, out, err = run(capsys, "series", "--builtin", "P3", "--order", "0")
        assert code == 0
        assert "dtzero" in err
        assert "dtzero" not in out

    def test_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"disjoint_union": [{"builtin": "P3"}, {"builtin": "P3"}]}))
        code, out, _ = run(capsys, "series", "--spec-file", str(path), "--order", "1")
        assert code == 0
        assert out.splitlines()[0] == "# exponent\t-40"


class TestErrorPaths:
    def test_invalid_spec_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"builtin": "P5"}))
        code, out, err = run(capsys, "series", "--spec-file", str(path))
        assert code == 2
        assert "unknown name" in err
        assert out == ""

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "series", "--spec-file", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "series", "--spec-file", "/nonexistent/x.json")
        assert code == 2

    def test_directory_spec_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "series", "--spec-file", str(tmp_path), "--order", "2")
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and rest[0].startswith("error:") and "Is a directory" in rest[0]

    def test_spec_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"builtin": "P\u00b3"}'.encode("latin-1"))
        code, out, err = run(capsys, "series", "--spec-file", str(path), "--order", "2")
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and rest[0].startswith("error:") and "utf-8" in rest[0]

    def test_non_integral_spec_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"scaled": {"factor": "1/3", "of": {"builtin": "P3"}}}))
        code, _, err = run(capsys, "series", "--spec-file", str(path))
        assert code == 3
        assert "rational Chern numbers" in err

    def test_conflicting_sources_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--builtin", "P3", "--hypersurface-degree", "2"])
        assert exc.value.code == 2

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_riemann_roch_warning_on_stderr(self, capsys):
        code, out, err = run(capsys, "series", "--c111", "0", "--c12", "23", "--c3", "0",
                             "--order", "0")
        assert code == 0
        assert "24" in err

    def test_negative_order_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--builtin", "P3", "--order", "-1"])
        assert exc.value.code == 2

    def test_zero_max_n_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discrepancy", "--builtin", "P3", "--max-n", "0"])
        assert exc.value.code == 2

    def test_spec_nested_too_deep_for_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"disjoint_union": [' * 5000 + '{"builtin": "P3"}' + ']}' * 5000)
        code, out, err = run(capsys, "series", "--spec-file", str(path), "--order", "2")
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and rest[0].startswith("error:") and "nests too deeply" in rest[0]

    @pytest.mark.parametrize("kind", ["disjoint_union", "scaled"])
    def test_spec_nesting_bound(self, tmp_path, capsys, kind):
        def nested(depth):
            doc = {"builtin": "P3"}
            for _ in range(depth):
                doc = {"disjoint_union": [doc]} if kind == "disjoint_union" else {"scaled": {"factor": 1, "of": doc}}
            return doc

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(nested(MAX_SPEC_DEPTH)))
        code, out, _ = run(capsys, "series", "--spec-file", str(path), "--order", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["coefficients"] == [1, 20, 150]
        path.write_text(json.dumps(nested(MAX_SPEC_DEPTH + 1)))
        code, out, err = run(capsys, "series", "--spec-file", str(path), "--order", "2")
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and rest[0].startswith("error:")
        assert f"deeper than {MAX_SPEC_DEPTH} levels" in rest[0]


def assert_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(message)


class TestSizeCaps:
    def test_series_order_cap(self, capsys):
        assert_one_error_line(capsys, ["series", "--builtin", "P3", "--order", str(MAX_ORDER + 1)],
                              f"--order must be at most {MAX_ORDER}")

    def test_series_order_at_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "series", "--c111", "0", "--c12", "0", "--c3", "0",
                           "--order", str(MAX_ORDER))
        assert code == 0
        assert len(out.splitlines()) == MAX_ORDER + 3

    def test_discrepancy_max_n_cap(self, capsys):
        assert_one_error_line(capsys, ["discrepancy", "--builtin", "P3", "--max-n", "100000"],
                              f"--max-n must be at most {MAX_ORDER}")

    @pytest.mark.parametrize("suite", [*MAX_N, "all"])
    def test_verify_max_n_cap(self, capsys, suite):
        limit = max_n_limit(suite)
        assert_one_error_line(capsys, ["verify", "--suite", suite, "--max-n", str(limit + 1)],
                              f"--max-n for suite {suite} must be at most {limit}")

    def test_caps_admit_every_suite_default(self):
        # the sizes each suite runs when --max-n is not given
        defaults = {"macmahon": 12, "lattice": 5, "cobordism": 1000, "universality": 7}
        assert all(MAX_N[suite] >= size for suite, size in defaults.items())


class TestCobordismCommand:
    def test_quintic(self, capsys):
        code, out, _ = run(capsys, "cobordism", "--builtin", "quintic")
        assert code == 0
        doc = json.loads(out)
        assert doc["decomposition"]["r1"] == -150
        assert doc["decomposition"]["r2"] == 400
        assert doc["decomposition"]["r3"] == -250
        assert doc["decomposition"]["m"] == 1
        assert doc["exponent_identity"]["ok"] is True

    def test_generator_is_unit_vector(self, capsys):
        code, out, _ = run(capsys, "cobordism", "--builtin", "P2xP1")
        doc = json.loads(out)
        assert (doc["decomposition"]["r1"], doc["decomposition"]["r2"],
                doc["decomposition"]["r3"]) == (0, 1, 0)

    def test_union_of_generators(self, tmp_path, capsys):
        path = tmp_path / "union.json"
        path.write_text(json.dumps({"disjoint_union": [
            {"builtin": "P3"}, {"builtin": "P2xP1"}, {"builtin": "P1xP1xP1"}]}))
        code, out, _ = run(capsys, "cobordism", "--spec-file", str(path))
        doc = json.loads(out)
        assert (doc["decomposition"]["r1"], doc["decomposition"]["r2"],
                doc["decomposition"]["r3"]) == (1, 1, 1)

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "cobordism", "--builtin", "P3", "--format", "tsv")
        assert code == 0
        assert out.splitlines()[0] == "r1\t1"


class TestDiscrepancyCommand:
    def test_p3_table(self, capsys):
        code, out, _ = run(capsys, "discrepancy", "--builtin", "P3", "--max-n", "3")
        assert code == 0
        assert out.splitlines() == ["1\t20", "2\t-100", "3\t400"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "discrepancy", "--builtin", "quintic", "--max-n", "2",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["exponent"] == -200
        assert doc["t"] == {"1": 200, "2": -1000}


class TestVerifyCommand:
    def test_negative_max_n_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "macmahon", "--max-n", "-1"])
        assert exc.value.code == 2
        assert "--max-n must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, skipped", [
        ("lattice", {"lattice/meet-join-axioms", "lattice/fiber-multiplicity-sum",
                     "lattice/moebius-top-value", "lattice/delta-inverts-summation",
                     "lattice/delta-multiplicativity"}),
        ("cobordism", {"cobordism/exponent-identity"}),
        ("macmahon", {"macmahon/log-closed-form"}),
        ("universality", {"universality/proportional-degrees",
                          "universality/exponential-reconstruction"}),
    ])
    def test_zero_max_n_skips_empty_checks(self, capsys, suite, skipped):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "0")
        assert code == 0
        results = dict(line.split("\t")[::-1] for line in out.splitlines())
        assert {name for name, status in results.items() if status == "SKIP"} == skipped
        assert all(status in ("PASS", "SKIP") for status in results.values())

    def test_check_case_counts(self):
        counts = {check.name: check.cases for check in run_suite("cobordism", 7)}
        assert counts["cobordism/exponent-identity"] == 7
        assert counts["cobordism/determinant"] == 1
        assert all(check.cases > 0 for check in run_suite("lattice", 3))


    def test_macmahon_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "macmahon", "--max-n", "8")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_cobordism_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cobordism", "--max-n", "50")
        assert code == 0

    def test_lattice_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lattice", "--max-n", "5")
        assert code == 0
        names = [line.split("\t")[1] for line in out.splitlines()]
        assert "lattice/fiber-multiplicity-sum" in names
        assert "lattice/moebius-top-value" in names
        assert "lattice/bell-counts" in names

    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "4")
        assert code == 0
        assert any(line.startswith("PASS\tuniversality/") for line in out.splitlines())

    def test_fault_injection_reports_location(self, capsys, monkeypatch):
        # corrupt the oracle: the suite must fail and point at the spot
        real = macmahon.count_plane_partitions

        def corrupted(n, bound=macmahon.DEFAULT_ORACLE_BOUND):
            value = real(n, bound)
            return value + 1 if n == 7 else value

        monkeypatch.setattr(macmahon, "count_plane_partitions", corrupted)
        code, out, _ = run(capsys, "verify", "--suite", "macmahon", "--max-n", "8")
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failing and "q^7" in failing[0]


class TestSpecDocumentParsing:
    def test_requires_single_key(self):
        with pytest.raises(SpecDocumentError, match="exactly one"):
            parse_spec_document({"builtin": "P3", "chern": {}})

    def test_unknown_key(self):
        with pytest.raises(SpecDocumentError, match="unknown spec key"):
            parse_spec_document({"threefold": "P3"})

    def test_chern_requires_integers(self):
        with pytest.raises(SpecDocumentError, match="expected an integer"):
            parse_spec_document({"chern": {"c111": 1.5, "c12": 0, "c3": 0}})

    def test_nested_error_paths_are_reported(self):
        with pytest.raises(SpecDocumentError, match=r"disjoint_union\[1\]"):
            parse_spec_document({"disjoint_union": [{"builtin": "P3"}, {"builtin": "P9"}]})

    def test_product_must_sum_to_three(self):
        with pytest.raises(SpecDocumentError, match="sum to 3"):
            parse_spec_document({"product": [2, 2]})

    def test_builtin_name_must_be_a_string(self):
        with pytest.raises(SpecDocumentError, match="unknown name"):
            parse_spec_document({"builtin": ["P3"]})

    def test_scaled_factor_parsing(self):
        spec = parse_spec_document({"scaled": {"factor": "3/2", "of": {"builtin": "P3"}}})
        assert spec.resolve().c111 == 96
        with pytest.raises(SpecDocumentError, match="cannot parse"):
            parse_spec_document({"scaled": {"factor": "x", "of": {"builtin": "P3"}}})


SPEC_KEYS = ["builtin", "chern", "hypersurface", "product", "disjoint_union", "scaled",
             "c111", "c12", "c3", "degree", "factor", "of"]

json_leaves = (
    st.none() | st.booleans() | st.integers(-4, 4) | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from([*BUILTIN_THREEFOLDS, "1/2", "0/0", "x"])
)
json_documents = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SPEC_KEYS) | st.text(max_size=3), children, max_size=3)
    | st.dictionaries(st.sampled_from(SPEC_KEYS), children, min_size=1, max_size=1),
    max_leaves=30,
)
WRAPPERS = [
    lambda doc: {"disjoint_union": [doc]},
    lambda doc: {"disjoint_union": [{"builtin": "P3"}, doc]},
    lambda doc: {"scaled": {"factor": "1/2", "of": doc}},
]


@st.composite
def deep_json_documents(draw):
    """A spec, or arbitrary JSON, wrapped in one kind of spec level repeated
    up to far past the depth bound (the stack would not hold the deepest)."""
    doc = draw(st.sampled_from([{"builtin": "P3"}, {"product": [1, 2]}]) | json_documents)
    wrap = draw(st.sampled_from(WRAPPERS))
    bounds = [MAX_SPEC_DEPTH, MAX_SPEC_DEPTH + 1, 30 * MAX_SPEC_DEPTH]
    for _ in range(draw(st.integers(0, 3) | st.sampled_from(bounds) | st.integers(0, 30 * MAX_SPEC_DEPTH))):
        doc = wrap(doc)
    return doc


class TestSpecDocumentFuzz:
    @settings(max_examples=200, deadline=None)
    @given(deep_json_documents())
    def test_parse_returns_a_spec_or_raises_schema_error(self, doc):
        try:
            spec = parse_spec_document(doc)
        except SpecDocumentError:
            return
        assert isinstance(spec, ThreefoldSpec)
        # whatever parses also resolves and labels without exhausting the stack
        spec.resolve()
        spec.label()
