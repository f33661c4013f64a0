import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dtzero
from dtzero import (
    BUILTIN_THREEFOLDS,
    ORACLE_BOUND,
    ChernNumbers,
    ThreefoldSpec,
    TruncatedSeries,
    degrees,
    macmahon,
    plane_partitions,
    verify,
)
from dtzero.chern import MAX_FACTOR_DIGITS, MAX_SPEC_DEPTH
from dtzero.cli import (
    MAX_CHERN_NUMBER,
    MAX_ORDER,
    MAX_SPEC_FILE_CHARS,
    MAX_TWIST_EXPONENT,
    SpecDocumentError,
    build_parser,
    main,
    parse_spec_document,
)
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

    @pytest.mark.parametrize("doc, message", [
        ({"hypersurface": {"degree": 5.0}}, "spec.hypersurface.degree must be a positive integer, got 5.0"),
        ({"product": [2, True]}, "spec.product[1] must be a positive integer, got True"),
        ({"scaled": {"factor": 2, "of": {"chern": {"c111": "1", "c12": 0, "c3": 0}}}},
         "spec.scaled.of.chern.c111 must be an integer, got '1'"),
    ])
    def test_integer_slot_names_its_path(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "series", "--spec-file", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines()[1:] == [f"error: {message}"]

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

    def test_spec_file_length_bound(self, tmp_path, capsys):
        path = tmp_path / "padded.json"
        doc = '{"builtin": "P3"}'
        path.write_text(doc.ljust(MAX_SPEC_FILE_CHARS))
        code, out, _ = run(capsys, "series", "--spec-file", str(path), "--order", "2")
        assert code == 0 and out.splitlines()[-1] == "2\t150"
        path.write_text(doc.ljust(MAX_SPEC_FILE_CHARS + 1))
        code, out, err = run(capsys, "series", "--spec-file", str(path), "--order", "2")
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert rest == [f"error: spec: a spec file has at most {MAX_SPEC_FILE_CHARS} characters"]

    def test_non_integral_spec_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"scaled": {"factor": "1/3", "of": {"builtin": "P3"}}}))
        code, _, err = run(capsys, "series", "--spec-file", str(path))
        assert code == 3
        assert "rational Chern numbers" in err

    @pytest.mark.parametrize("parts", [1, 20_000], ids=["scaled", "union-of-20000"])
    @pytest.mark.parametrize("command", ["series", "cobordism", "discrepancy"])
    def test_rational_spec_gives_one_short_line(self, tmp_path, capsys, command, parts):
        # the line echoes the spec's label, about 200 kB for the union, clipped to 60 characters
        third = {"scaled": {"factor": "1/3", "of": {"builtin": "P3"}}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(third if parts == 1 else {"disjoint_union": [third] * parts}))
        code, out, err = run(capsys, command, "--spec-file", str(path))
        assert (code, out) == (3, "")
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and len(rest[0]) < 200
        assert rest[0].startswith("error: (1/3)*P3") and "not an honest threefold" in rest[0]

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

    @pytest.mark.parametrize("doc", [
        {"x" * 10**6: "P3"},
        {"builtin": "P" * 10**6},
        {"k" * 500_000: 1, "builtin": "P3"},
        {"chern": {"c111": "1" * 10**6, "c12": 0, "c3": 0}},
        {"hypersurface": {"degree": -10**4000}},
        {"product": [1] * 10**5},
        {"scaled": {"factor": "x" * 10**6, "of": {"builtin": "P3"}}},
        {"scaled": {"factor": ["1"] * 10**5, "of": {"builtin": "P3"}}},
    ], ids=["key", "builtin", "key-beside-key", "chern", "degree", "product", "factor", "factor-list"])
    def test_huge_values_are_cut_in_errors(self, tmp_path, capsys, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "series", "--spec-file", str(path))
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and rest[0].startswith("error: spec") and len(rest[0]) < 200

    def test_huge_flag_value_is_cut_in_errors(self, capsys):
        code, out, err = run(capsys, "series", "--builtin", "P" * 10**6)
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and rest[0].startswith("error: spec.builtin: unknown name") and len(rest[0]) < 200

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


# an int of more digits than Python converts from text (4 300 by default)
LONG = "9" * 5000
TOO_LONG = f"must have at most {sys.get_int_max_str_digits()} digits, got "


class TestSizeCaps:
    def test_series_order_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--builtin", "P3", "--order", str(MAX_ORDER + 1)])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        # the parser refuses the flag: the subcommand's usage, and no banner
        assert captured.err.startswith("usage: dtzero series ")
        assert captured.err.splitlines()[-1] == f"dtzero series: error: argument --order: must be at most {MAX_ORDER}"

    def test_series_order_at_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "series", "--c111", "0", "--c12", "0", "--c3", "0",
                           "--order", str(MAX_ORDER))
        assert code == 0
        assert len(out.splitlines()) == MAX_ORDER + 3

    def test_discrepancy_max_n_cap(self, capsys):
        assert_one_error_line(capsys, ["discrepancy", "--builtin", "P3", "--max-n", "100000"],
                              f"argument --max-n: must be at most {MAX_ORDER}")

    @pytest.mark.parametrize("argv, message", [
        (["series", "--builtin", "P3", "--order", "-1"], "argument --order: must be at least 0"),
        (["series", "--builtin", "P3", "--order", "x"], "argument --order: invalid int value: 'x'"),
        (["discrepancy", "--builtin", "P3", "--max-n", "0"], "argument --max-n: must be at least 1"),
        (["discrepancy", "--builtin", "P3", "--max-n", "1.5"], "argument --max-n: invalid int value: '1.5'"),
        (["verify", "--suite", "macmahon", "--max-n", "x"], "argument --max-n: invalid int value: 'x'"),
        # an int of more digits than Python reads from text is past the flag's
        # bound on its side, or else refused by its length; the echo is clipped
        (["series", "--builtin", "P3", "--order", LONG], f"argument --order: must be at most {MAX_ORDER}"),
        (["series", "--builtin", "P3", "--order", "-" + LONG], "argument --order: must be at least 0"),
        (["series", "--c111", "0", "--c12", "0", "--c3", LONG], f"argument --c3: {TOO_LONG}'{'9' * 59}..."),
        (["series", "--c111", "-" + LONG, "--c12", "0", "--c3", "0"], f"argument --c111: {TOO_LONG}'-{'9' * 58}..."),
        (["series", "--hypersurface-degree", LONG], f"argument --hypersurface-degree: {TOO_LONG}'{'9' * 59}..."),
        (["verify", "--suite", "lattice", "--max-n", LONG], f"argument --max-n: {TOO_LONG}'{'9' * 59}..."),
        (["series", "--builtin", "P3", "--order", LONG + "x"], f"argument --order: invalid int value: '{'9' * 59}..."),
        (["series", "--c3", "x"], "argument --c3: invalid int value: 'x'"),
    ])
    def test_size_flags_refuse_low_and_non_int_values(self, capsys, argv, message):
        assert_one_error_line(capsys, argv, message)

    @pytest.mark.parametrize("suite", [*MAX_N, "all"])
    def test_verify_max_n_cap(self, capsys, suite):
        limit = max_n_limit(suite)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--max-n", str(limit + 1)])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        # the verify subparser refuses it: its usage, and no banner
        assert captured.err.startswith("usage: dtzero verify ")
        assert captured.err.splitlines()[-1] == f"dtzero verify: error: --max-n for suite {suite} must be at most {limit}"

    def test_verify_max_n_cap_before_suite(self, capsys):
        assert_one_error_line(capsys, ["verify", "--max-n", "201", "--suite", "all"],
                              "dtzero verify: error: --max-n for suite all must be at most 200")

    def test_caps_admit_every_suite_default(self):
        assert set(verify._DEFAULT_N) == set(MAX_N) == set(verify.SUITES)
        assert all(MAX_N[suite] >= size for suite, size in verify._DEFAULT_N.items())

    def test_suite_choices_are_the_verify_suites(self):
        # cli lists the names itself, since the series path must not import verify
        subcommands = next(a for a in build_parser()._actions if a.dest == "command")
        suite = next(a for a in subcommands.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == (*verify.SUITES, "all")

    @pytest.mark.parametrize("command", ["series", "cobordism", "discrepancy"])
    def test_twist_exponent_cap(self, capsys, command):
        # each Chern number within its cap, K = c3 - c1c2 one past its own
        half = MAX_TWIST_EXPONENT // 2
        assert_one_error_line(capsys, [command, "--c111", "0", "--c12", str(-half), "--c3", str(half + 1)],
                              f"|c3 - c1c2| must be at most {MAX_TWIST_EXPONENT}")

    def test_twist_exponent_at_cap_is_accepted(self, capsys):
        half = MAX_TWIST_EXPONENT // 2
        code, out, _ = run(capsys, "series", "--c111", "0", "--c12", str(-half), "--c3", str(half),
                           "--order", "2")
        assert code == 0
        assert out.splitlines()[0] == f"# exponent\t{MAX_TWIST_EXPONENT}"

    def test_coefficients_at_the_caps_are_printable(self):
        # |[q^n] M(-q)^K| <= [q^n] M(q)^|K|, which grows with |K|; the powers of
        # M(q) follow n*b_n = K * sum_k sigma2(k) * b_(n-k) in integers
        k_max, order = MAX_TWIST_EXPONENT, MAX_ORDER
        sigma2 = [0] + [macmahon.sigma2(k) for k in range(1, order + 1)]
        b = [1]
        for n in range(1, order + 1):
            b.append(k_max * sum(sigma2[k] * b[n - k] for k in range(1, n + 1)) // n)
        assert max(b) < 10 ** 4300  # Python's default limit for converting an int to text

    @pytest.mark.parametrize("command", ["series", "cobordism", "discrepancy"])
    def test_chern_number_cap(self, capsys, command):
        # c1^3 does not enter K, so only the Chern-number cap applies
        assert_one_error_line(capsys, [command, "--c111", str(MAX_CHERN_NUMBER + 1), "--c12", "0", "--c3", "0"],
                              f"Chern numbers must be at most {MAX_CHERN_NUMBER} in absolute value")
        code, _, _ = run(capsys, command, "--c111", str(-MAX_CHERN_NUMBER), "--c12", "0", "--c3", "0")
        assert code == 0

    def test_huge_explicit_exponent(self, capsys):
        # used to end in a traceback while printing a coefficient past 4300 digits
        argv = ["series", "--c111", "0", "--c12", "0", "--c3", str(10**300), "--order", "20"]
        assert_one_error_line(capsys, argv, f"Chern numbers must be at most {MAX_CHERN_NUMBER} in absolute value")

    def test_hypersurface_degree_is_bounded(self, capsys):
        # the Chern numbers of a degree-d hypersurface grow like d^4
        code, _, _ = run(capsys, "series", "--hypersurface-degree", "1001", "--order", "1")
        assert code == 0
        assert_one_error_line(capsys, ["series", "--hypersurface-degree", "1002", "--order", "1"],
                              f"Chern numbers must be at most {MAX_CHERN_NUMBER} in absolute value")
        assert_one_error_line(capsys, ["series", "--hypersurface-degree", str(10**4000)],
                              f"Chern numbers must be at most {MAX_CHERN_NUMBER} in absolute value")

    @pytest.mark.parametrize("factor, message", [
        ("1e100000", "cannot parse rational '1e100000'; expected 'p' or 'p/q'"),
        ("1e10000000", "cannot parse rational '1e10000000'; expected 'p' or 'p/q'"),
        ("2.5", "cannot parse rational '2.5'; expected 'p' or 'p/q'"),
        ("1" * (MAX_FACTOR_DIGITS + 1), f"p and q have at most {MAX_FACTOR_DIGITS} digits each"),
        ("1/" + "1" * (MAX_FACTOR_DIGITS + 1), f"p and q have at most {MAX_FACTOR_DIGITS} digits each"),
        (10**MAX_FACTOR_DIGITS, f"an integer factor has at most {MAX_FACTOR_DIGITS} digits"),
        ("1/0", "cannot parse rational '1/0'"),
    ])
    def test_scaled_factor_forms(self, tmp_path, capsys, factor, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scaled": {"factor": factor, "of": {"builtin": "P3"}}}))
        code, out, err = run(capsys, "cobordism", "--spec-file", str(path))
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert rest == [f"error: spec.scaled.factor: {message}"]

    def test_integer_too_long_for_json(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"chern": {"c111": 0, "c12": 0, "c3": 1%s}}' % ("0" * 5000))
        code, out, err = run(capsys, "series", "--spec-file", str(path))
        assert code == 2
        assert out == ""
        banner, *rest = err.splitlines()
        assert len(rest) == 1 and rest[0].startswith("error: spec: invalid JSON")


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

    def test_union_builds_few_chern_triples(self, tmp_path, capsys, monkeypatch):
        # a union sums its parts once, so the count does not grow with the parts
        path = tmp_path / "union.json"
        path.write_text(json.dumps({"disjoint_union": [{"builtin": "P3"}] * 1000}))
        built = []
        real = ChernNumbers.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(ChernNumbers, "__new__", counted)
        code, out, _ = run(capsys, "cobordism", "--spec-file", str(path))
        assert code == 0
        assert json.loads(out)["decomposition"]["r1"] == 1000
        assert len(built) < 20

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_failed_identity_exits_one_after_printing(self, capsys, monkeypatch, fmt):
        real = dtzero.cli.verify_exponent_identity
        monkeypatch.setattr(dtzero.cli, "verify_exponent_identity",
                            lambda c: real(c)._replace(rhs=real(c).rhs + 1))
        code, out, _ = run(capsys, "cobordism", "--builtin", "P3", "--format", fmt)
        assert code == 1
        if fmt == "tsv":
            assert out.splitlines()[-1] == "identity\tFAIL\t-20\t-19"
        else:
            assert json.loads(out)["exponent_identity"] == {"lhs": -20, "rhs": -19, "ok": False}


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


# sha256 of the stdout of `verify --suite all --format json` at each --max-n,
# recorded before the checks moved onto one first-counterexample runner; the
# JSON carries every check's name, status, case count and detail
VERIFY_ALL_JSON = {
    None: "8c734d55bf5b897c705aca22cf2bab3dd7e1c72b87d809767cf8adc849a2e9a0",
    "0": "0b4a6cdbc56acc8e6d8e852ac82faaf86ddbad8c307686f54bcd56496f93e7fb",
    "1": "3725472f4946c75d5779e6a1261ab7b8432f86434b103d51c9f8ff8f0db53262",
    "3": "225fbf65a5ca5ff8581ea153166a7c674e9536e57b99a76af577f188c8478d59",
    "6": "c38f94ab70e7df4f8e7b1a6363a513450432f859b81467ed3e99d8b2ecd5c737",
}


class TestVerifyCommand:
    @pytest.mark.parametrize("max_n", VERIFY_ALL_JSON)
    def test_all_suites_json_golden(self, capsys, max_n):
        knob = [] if max_n is None else ["--max-n", max_n]
        code, out, _ = run(capsys, "verify", "--suite", "all", *knob, "--format", "json")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, VERIFY_ALL_JSON[max_n])

    def test_negative_max_n_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "macmahon", "--max-n", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "dtzero verify: error: argument --max-n: must be at least 0"

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

    def test_run_suite_skips_exactly_the_empty_checks(self):
        # verify decides SKIP itself: a library caller never sees a zero-case PASS
        skipped = set()
        for suite in verify.SUITES:
            checks = run_suite(suite, 0)
            assert all(check.status in ("PASS", "FAIL", "SKIP") for check in checks)
            assert {c.name for c in checks if c.status == "SKIP"} == {c.name for c in checks if c.cases == 0}
            skipped |= {c.name for c in checks if c.status == "SKIP"}
        assert skipped == {
            "macmahon/log-closed-form", "cobordism/exponent-identity",
            "lattice/meet-join-axioms", "lattice/fiber-multiplicity-sum", "lattice/moebius-top-value",
            "lattice/delta-inverts-summation", "lattice/delta-multiplicativity",
            "universality/proportional-degrees", "universality/exponential-reconstruction",
        }

    def test_a_zero_case_check_is_skipped_whatever_it_yields(self):
        assert verify._check("x", 0, ["q^1: wrong"]) == verify.Check("x", "SKIP", 0)

    def test_check_case_counts(self):
        counts = {check.name: check.cases for check in run_suite("cobordism", 7)}
        assert counts["cobordism/exponent-identity"] == 7
        assert counts["cobordism/determinant"] == 1
        assert all(check.cases > 0 for check in run_suite("lattice", 3))

    def test_json_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cobordism", "--max-n", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "cobordism" and doc["max_n"] == 7
        assert {c["name"]: (c["status"], c["cases"]) for c in doc["checks"]} == {
            "cobordism/generator-columns": ("PASS", 1),
            "cobordism/determinant": ("PASS", 1),
            "cobordism/quintic-decomposition": ("PASS", 1),
            "cobordism/exponent-identity": ("PASS", 7),
        }

    def test_json_reports_skips(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lattice", "--max-n", "0", "--format", "json")
        assert code == 0
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses["lattice/bell-counts"] == "PASS"
        assert statuses["lattice/meet-join-axioms"] == "SKIP"

    @pytest.mark.parametrize("suite, max_n", [("all", "0"), ("all", "3"), ("macmahon", None)])
    def test_json_schema_matches_text(self, capsys, suite, max_n):
        knob = [] if max_n is None else ["--max-n", max_n]
        text_code, text, _ = run(capsys, "verify", "--suite", suite, *knob)
        code, out, _ = run(capsys, "verify", "--suite", suite, *knob, "--format", "json")
        assert code == text_code == 0
        doc = json.loads(out)
        assert out.count("\n") == 1
        assert set(doc) == {"suite", "max_n", "checks"}
        assert doc["max_n"] == (None if max_n is None else int(max_n))
        for check in doc["checks"]:
            assert set(check) == {"name", "status", "cases", "detail"}
            assert check["status"] in ("PASS", "FAIL", "SKIP")
            assert isinstance(check["cases"], int) and check["cases"] >= 0
            assert check["detail"] == ""
            assert (check["status"] == "SKIP") == (check["cases"] == 0)
        assert [f"{c['status']}\t{c['name']}" for c in doc["checks"]] == text.splitlines()


    def test_macmahon_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "macmahon", "--max-n", "8")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_macmahon_suite_stops_at_the_oracle_bound(self, capsys):
        at_bound = run(capsys, "verify", "--suite", "macmahon", "--max-n", str(ORACLE_BOUND))
        assert at_bound[0] == 0
        assert run(capsys, "verify", "--suite", "macmahon", "--max-n", "10000") == at_bound
        code, out, _ = run(capsys, "verify", "--suite", "macmahon", "--max-n", "10000", "--format", "json")
        assert code == 0
        assert [c["cases"] for c in json.loads(out)["checks"]] == [26, 26, 25]

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
        real = plane_partitions.count_plane_partitions

        def corrupted(n):
            value = real(n)
            return value + 1 if n == 7 else value

        monkeypatch.setattr(plane_partitions, "count_plane_partitions", corrupted)
        code, out, _ = run(capsys, "verify", "--suite", "macmahon", "--max-n", "8")
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failing and "q^7" in failing[0]
        code, out, _ = run(capsys, "verify", "--suite", "macmahon", "--max-n", "8", "--format", "json")
        assert code == 1
        failing = [c for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
        assert failing[0]["name"] == "macmahon/oracle-equivalence" and "q^7" in failing[0]["detail"]

    def test_fault_injection_keeps_case_counts(self, capsys, monkeypatch):
        # a check that fails part-way still reports every case it covers
        passing = {}
        for suite in ("lattice", "universality"):
            _, out, _ = run(capsys, "verify", "--suite", suite, "--format", "json")
            passing.update((c["name"], c["cases"]) for c in json.loads(out)["checks"])
        real_factorial, real_multiplicativity = verify.alpha_factorial, verify.multiplicativity_failures

        def wrong_at_three(alpha):
            return real_factorial(alpha) + (alpha.n == 3)

        def one_pair_fails(a, b, order):
            if (a.label(), b.label()) == ("P2xP1", "quintic"):
                return ("P2xP1 + quintic: an injected failure",)
            return real_multiplicativity(a, b, order)

        monkeypatch.setattr(verify, "alpha_factorial", wrong_at_three)
        monkeypatch.setattr(verify, "multiplicativity_failures", one_pair_fails)
        for suite, name, counterexample in [
            ("lattice", "lattice/fiber-multiplicity-sum", "n=3, alpha=SetPartition(3, 123), x="),
            ("universality", "universality/disjoint-union-multiplicativity", "P2xP1 + quintic"),
        ]:
            code, out, _ = run(capsys, "verify", "--suite", suite)
            assert code == 1
            failing = [line for line in out.splitlines() if line.startswith("FAIL")]
            assert len(failing) == 1 and failing[0].startswith(f"FAIL\t{name}: {counterexample}")
            code, out, _ = run(capsys, "verify", "--suite", suite, "--format", "json")
            assert code == 1
            checks = json.loads(out)["checks"]
            assert [c["name"] for c in checks if c["status"] == "FAIL"] == [name]
            assert {c["name"]: c["cases"] for c in checks}.items() <= passing.items()
        assert passing["lattice/fiber-multiplicity-sum"] == 1954
        assert passing["universality/disjoint-union-multiplicativity"] == 10

    @pytest.mark.parametrize("mutant", ["sigma2", "log1"])
    def test_fault_injection_in_the_degrees(self, capsys, monkeypatch, mutant):
        # a wrong closed form, or a wrong series logarithm, is a FAIL line, not a traceback
        if mutant == "sigma2":
            real_sigma2 = degrees.sigma2
            monkeypatch.setattr(degrees, "sigma2", lambda k: real_sigma2(k) + (k == 3))
        else:
            real_log1 = TruncatedSeries.log1

            def wrong_at_three(self):
                logs = real_log1(self)
                return TruncatedSeries(c + (k == 3) for k, c in enumerate(logs.coefficients))

            monkeypatch.setattr(TruncatedSeries, "log1", wrong_at_three)
        for suite, name, counterexample in [
            ("universality", "universality/proportional-degrees", "P3: t_3 = "),
            ("macmahon", "macmahon/log-closed-form", "q^3: series log "),
        ]:
            code, out, err = run(capsys, "verify", "--suite", suite)
            assert code == 1
            assert "Traceback" not in err
            failing = [line for line in out.splitlines() if line.startswith("FAIL")]
            assert failing[0].startswith(f"FAIL\t{name}: {counterexample}")


class TestProcessEntry:
    def test_main_leaves_the_collector_alone(self, capsys):
        # only the process entry freezes the heap; in-process callers keep a normal collector
        code, _, _ = run(capsys, "series", "--builtin", "P3", "--order", "2")
        assert code == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("module", ["dtzero", "dtzero.cli"])
    @pytest.mark.parametrize("argv, expected", [
        (["series", "--builtin", "quintic", "--order", "200"], 0),  # long stdout, flushed after the freeze
        (["series", "--builtin", "P3", "--order", "-1"], 2),
        (["series", "--spec-file", "{tmp}/third.json"], 3),
    ], ids=["quintic-200", "usage-error", "rational-spec"])
    def test_process_matches_in_process_main(self, tmp_path, capsys, module, argv, expected):
        (tmp_path / "third.json").write_text('{"scaled": {"factor": "1/3", "of": {"builtin": "P3"}}}')
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        src = os.path.dirname(os.path.dirname(dtzero.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True)
        assert code == expected
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)

    @pytest.mark.parametrize("argv, keep", [
        (["series", "--builtin", "P3", "--order", "20"], 0),
        # 76 kB of output, more than the pipe holds, so the reader leaves mid-stream
        (["series", "--c111", "0", "--c12", "-240000", "--c3", "0", "--order", "200"], 20),
    ], ids=["no-reader", "head-c-20"])
    def test_reader_leaving_early_exits_141_quietly(self, argv, keep):
        src = os.path.dirname(os.path.dirname(dtzero.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        read_end, write_end = os.pipe()
        if not keep:
            os.close(read_end)
        proc = subprocess.Popen([sys.executable, "-m", "dtzero", *argv], env=env,
                                stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        if keep:
            head = os.read(read_end, keep)
            os.close(read_end)
            # the read returns up to `keep` bytes, which run past the first line
            assert head == b"# exponent\t240000\n# cobordism\t"[:len(head)]
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err.decode() == f"dtzero {dtzero.__version__}\n"

    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    @pytest.mark.parametrize("argv, expected", [
        (["series", "--builtin", "P3", "--order", "2"], 0),
        (["series", "--spec-file", "{tmp}/third.json"], 3),
    ], ids=["answer", "domain-error"])
    def test_unwritable_stderr_keeps_stdout_and_exit_code(self, tmp_path, capsys, stderr, argv, expected):
        # `2>&-` closes fd 2; a wrapper script run in its place can leave fd 2 open read-only
        (tmp_path / "third.json").write_text('{"scaled": {"factor": "1/3", "of": {"builtin": "P3"}}}')
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, _ = run(capsys, *argv)
        src = os.path.dirname(os.path.dirname(dtzero.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)  # a buffered stderr keeps the lines it failed to write
        with open(os.devnull, "rb") as read_only:
            fd2 = {"preexec_fn": lambda: os.close(2)} if stderr == "closed" else {"stderr": read_only}
            done = subprocess.run([sys.executable, "-m", "dtzero", *argv], env=env,
                                  stdout=subprocess.PIPE, text=True, **fd2)
        assert code == expected
        assert (done.returncode, done.stdout) == (code, out)

    def test_read_only_stderr_keeps_the_usage_exit_code(self):
        # argparse reports a usage error before the banner; its lines stay in
        # the buffer of a read-only stderr until the flush at exit
        src = os.path.dirname(os.path.dirname(dtzero.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        with open(os.devnull, "rb") as read_only:
            done = subprocess.run([sys.executable, "-m", "dtzero", "series", "--builtin", "P3", "--order", "401"],
                                  env=env, stdout=subprocess.PIPE, stderr=read_only)
        assert (done.returncode, done.stdout) == (2, b"")


class TestSpecDocumentParsing:
    def test_requires_single_key(self):
        with pytest.raises(SpecDocumentError, match="exactly one"):
            parse_spec_document({"builtin": "P3", "chern": {}})

    def test_mixed_key_types_are_a_schema_error(self):
        with pytest.raises(SpecDocumentError, match="got 1, a$"):
            parse_spec_document({1: 2, "a": 3})
        with pytest.raises(SpecDocumentError, match=r"got 1, 10{56}\.\.\.$"):
            parse_spec_document({1: 2, 10 ** 100: 3})

    def test_unknown_key(self):
        with pytest.raises(SpecDocumentError, match="unknown spec key"):
            parse_spec_document({"threefold": "P3"})

    def test_chern_requires_integers(self):
        with pytest.raises(SpecDocumentError, match=r"spec\.chern\.c111 must be an integer, got 1\.5"):
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
        longest = "9" * MAX_FACTOR_DIGITS
        spec = parse_spec_document({"scaled": {"factor": f"-{longest}/{longest[1:]}7", "of": {"builtin": "P3"}}})
        assert spec == ThreefoldSpec.scaled(Fraction(-int(longest), int(longest[1:] + "7")), ThreefoldSpec.builtin("P3"))
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
        # and writes back to a document that parses to the same spec
        again = parse_spec_document(spec.to_document())
        assert again == spec and again.label() == spec.label()
