"""Command-line interface.

Subcommands: series (coefficients of a threefold's generating function),
cobordism (decomposition over the three generators), discrepancy
(per-size degrees), verify (self-check suites).  Data goes to stdout,
diagnostics and the version banner to stderr.  Exit codes: 0 success,
1 property failure, 2 usage or schema error, 3 domain error; a process
whose stdout reader leaves early exits 141.
"""

import argparse
import gc
import math
import os
import re
import sys
from fractions import Fraction

from . import __version__
from ._values import _json_number, _show
from .chern import BUILTIN_THREEFOLDS, ChernNumbers, ThreefoldSpec, twist_exponent
from .chern import MAX_SPEC_FILE_CHARS, SpecDocumentError, parse_spec_document
from .cobordism import decompose, verify_exponent_identity
from .dt import DEFAULT_ORDER, NonIntegralSpecError, _honest_exponent, dt_series

__all__ = ["main", "run", "parse_spec_document", "SpecDocumentError"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE: the reader of stdout left

# Largest --order, and largest discrepancy --max-n.  There a cold `series`
# process for the quintic takes about 1.4 s; `discrepancy` builds no series,
# since its degrees are in closed form, and takes about 0.09 s (2-vCPU x86
# host, Python 3.11).
MAX_ORDER = 400

# Largest |K| for the twist exponent K = c3 - c1c2 of a resolved spec.  At
# this bound `series --order MAX_ORDER` still prints every coefficient: the
# largest has about 3 900 digits, under Python's 4 300-digit limit for
# converting an int to text.
MAX_TWIST_EXPONENT = 10**12

# Largest absolute value of each resolved Chern number c1^3, c1c2, c3.  It
# keeps every figure derived from them short, and bounds --hypersurface-degree
# at 1001 (the Chern numbers of a degree-d hypersurface grow like d^4).
MAX_CHERN_NUMBER = 10**12


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _int_in(least: int | None = None, most: int | None = None):
    """An argparse `type` for an int from `least` to `most`, either bound None
    for none.  The parser refuses a value past a bound with usage, before the
    banner; text that is no int stays an "invalid int value".  An int too long
    for int() to read (past Python's digit limit) is past any bound on its
    side, and is refused by its length if that side has none.  Every message
    echoes the text through _show, so it stays one short line."""
    def int_in(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):  # what int() reads, of any length
                raise argparse.ArgumentTypeError(f"invalid int value: {_show(text)}") from None
            value = -math.inf if "-" in text else math.inf
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}")
        if isinstance(value, float):
            raise argparse.ArgumentTypeError(
                f"must have at most {sys.get_int_max_str_digits()} digits, got {_show(text)}")
        return value

    return int_in


class _SuiteSize(argparse.Action):
    """Stores `verify`'s --suite or --max-n, and refuses a --max-n past the
    suite's cap once both are known, with `dtzero verify`'s usage and before
    the banner, whichever flag comes first."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if namespace.suite is not None and namespace.max_n is not None:
            from .verify import max_n_limit  # only this subcommand needs the suites

            limit = max_n_limit(namespace.suite)
            if namespace.max_n > limit:
                parser.error(f"--max-n for suite {namespace.suite} must be at most {limit}")


def _threefold(args, parser: argparse.ArgumentParser) -> tuple[ThreefoldSpec, ChernNumbers]:
    """The preamble shared by series, cobordism and discrepancy.  It returns the
    spec of the spec flags, parsed by parse_spec_document from the spec file or
    from the document that the shorthand flags build, and its Chern numbers,
    within the magnitude caps and warned about.  A rational spec is refused
    later, by dt._honest_exponent, before anything is printed."""
    triple = {"c111": args.c111, "c12": args.c12, "c3": args.c3}
    shorthands = {
        "builtin": args.builtin,
        "chern": {field: value for field, value in triple.items() if value is not None} or None,
        "hypersurface": None if args.hypersurface_degree is None else {"degree": args.hypersurface_degree},
    }
    doc = {key: value for key, value in shorthands.items() if value is not None}
    if len(doc) + (args.spec_file is not None) != 1:
        parser.error("give exactly one spec source: --builtin, --c111/--c12/--c3, "
                     "--hypersurface-degree or --spec-file")
    if args.spec_file is not None:
        import json  # only spec files and --format json need it

        try:
            with open(args.spec_file, "r", encoding="utf-8") as handle:
                text = handle.read(MAX_SPEC_FILE_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8, ...
            raise SpecDocumentError(str(exc)) from None
        if len(text) > MAX_SPEC_FILE_CHARS:
            raise SpecDocumentError(f"spec: a spec file has at most {MAX_SPEC_FILE_CHARS} characters")
        try:
            doc = json.loads(text)
        except ValueError as exc:  # malformed, or an integer too long to convert
            raise SpecDocumentError(f"spec: invalid JSON: {exc}") from None
        except RecursionError:
            raise SpecDocumentError("spec: JSON nests too deeply to read") from None
    spec = parse_spec_document(doc)
    chern = spec.resolve()
    if any(abs(v) > MAX_CHERN_NUMBER for v in chern):
        parser.error(f"the spec's Chern numbers must be at most {MAX_CHERN_NUMBER} in absolute value")
    if abs(twist_exponent(chern)) > MAX_TWIST_EXPONENT:
        parser.error(f"the spec's twist exponent |c3 - c1c2| must be at most {MAX_TWIST_EXPONENT}")
    for note in chern.validation_warnings():
        _note(f"warning: {note}")
    return spec, chern


def _note(text: str) -> None:
    """Print one diagnostic line to stderr, if stderr can take it.

    The banner, warnings and error messages are not the answer: a closed or
    unwritable stderr must not cost stdout its data or change the exit code.
    With fd 2 closed at start-up `sys.stderr` is None, and `print` would fall
    back to stdout; with fd 2 open read-only the write raises OSError.
    """
    if sys.stderr is None:
        return
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


def _print_json(doc) -> None:
    import json  # only spec files and --format json need it

    print(json.dumps(doc))


def _decomposition_document(dec) -> dict:
    r1, r2, r3 = (_json_number(Fraction(r)) for r in dec.coefficients)
    m1, m2, m3 = dec.integer_multiples()
    return {"r1": r1, "r2": r2, "r3": r3, "m": dec.m, "m1": m1, "m2": m2, "m3": m3}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_series(args, parser) -> int:
    spec, chern = _threefold(args, parser)
    result = dt_series(spec, args.order)
    dec = decompose(chern)
    if args.format == "json":
        doc = {
            "spec": spec.to_document(),
            "order": args.order,
            "exponent": result.exponent,
            "cobordism": _decomposition_document(dec),
            "coefficients": list(result.coefficients()),
        }
        _print_json(doc)
    else:
        print(f"# exponent\t{result.exponent}")
        print(f"# cobordism\tr1={dec.r1}\tr2={dec.r2}\tr3={dec.r3}\tm={dec.m}")
        for k, value in enumerate(result.coefficients()):
            print(f"{k}\t{value}")
    return EXIT_OK


def _cmd_cobordism(args, parser) -> int:
    spec, chern = _threefold(args, parser)
    _honest_exponent(spec)  # a rational spec is a domain error, raised before any output
    report = verify_exponent_identity(chern)
    if args.format == "json":
        doc = {
            "spec": spec.to_document(),
            "decomposition": _decomposition_document(report.decomposition),
            "exponent_identity": {
                "lhs": _json_number(report.lhs),
                "rhs": _json_number(report.rhs),
                "ok": report.ok,
            },
        }
        _print_json(doc)
    else:
        dec = report.decomposition
        print(f"r1\t{dec.r1}")
        print(f"r2\t{dec.r2}")
        print(f"r3\t{dec.r3}")
        print(f"m\t{dec.m}")
        print(f"identity\t{'OK' if report.ok else 'FAIL'}\t{report.lhs}\t{report.rhs}")
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_discrepancy(args, parser) -> int:
    from .degrees import discrepancy_degrees  # the series path never needs it

    spec, chern = _threefold(args, parser)
    degrees = discrepancy_degrees(spec, args.max_n)
    if args.format == "json":
        doc = {
            "spec": spec.to_document(),
            "exponent": twist_exponent(chern),
            "t": {str(k): v for k, v in degrees.items()},
        }
        _print_json(doc)
    else:
        for k in sorted(degrees):
            print(f"{k}\t{degrees[k]}")
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    from .verify import run_suite  # only this subcommand needs the suites

    checks = run_suite(args.suite, args.max_n)
    if args.format == "json":
        _print_json({"suite": args.suite, "max_n": args.max_n, "checks": [check._asdict() for check in checks]})
    else:
        for check in checks:
            detail = f": {check.detail}" if check.status == "FAIL" and check.detail else ""
            print(f"{check.status}\t{check.name}{detail}")
    return EXIT_FAILURE if any(check.status == "FAIL" for check in checks) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtzero",
        description="Exact engine for dimension-zero Donaldson-Thomas series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spec = argparse.ArgumentParser(add_help=False)  # the spec flags of series, cobordism and discrepancy
    spec.add_argument("--builtin", help=f"named catalog threefold: {', '.join(sorted(BUILTIN_THREEFOLDS))}")
    spec.add_argument("--c111", type=_int_in(), help="c1^3 of an explicit Chern triple")
    spec.add_argument("--c12", type=_int_in(), help="c1c2 of an explicit Chern triple")
    spec.add_argument("--c3", type=_int_in(), help="c3 of an explicit Chern triple")
    spec.add_argument("--hypersurface-degree", type=_int_in(), help="degree of a hypersurface in P4")
    spec.add_argument("--spec-file", help="path to a JSON spec document")

    p_series = sub.add_parser("series", parents=[spec], help="print exponent, cobordism data and series coefficients")
    p_series.add_argument("--order", type=_int_in(0, MAX_ORDER), default=DEFAULT_ORDER,
                          help=f"truncation order (default %(default)s, at most {MAX_ORDER})")
    p_series.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_cob = sub.add_parser("cobordism", parents=[spec], help="decompose over the three generators")
    p_cob.add_argument("--format", choices=("tsv", "json"), default="json")

    p_disc = sub.add_parser("discrepancy", parents=[spec], help="per-size degrees t_k = K * lambda_k, in closed form")
    p_disc.add_argument("--max-n", type=_int_in(1, MAX_ORDER), default=7,
                        help=f"largest block size (default %(default)s, at most {MAX_ORDER})")
    p_disc.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("--suite", required=True, action=_SuiteSize,
                          choices=("macmahon", "lattice", "cobordism", "universality", "all"))
    p_verify.add_argument("--max-n", type=_int_in(0), default=None, action=_SuiteSize,
                          help="size knob for the suite (per-suite default and upper bound)")
    p_verify.add_argument("--format", choices=("tsv", "json"), default="tsv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _note(f"dtzero {__version__}")
    handlers = {
        "series": _cmd_series,
        "cobordism": _cmd_cobordism,
        "discrepancy": _cmd_discrepancy,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, parser)
    except SpecDocumentError as exc:  # an invalid spec, or an unreadable spec file
        _note(f"error: {exc}")
        return EXIT_USAGE
    except NonIntegralSpecError as exc:
        _note(f"error: {exc}")
        return EXIT_DOMAIN


def run() -> None:
    """Run `main` as a whole process, then exit with its code.

    `dtzero`, `python -m dtzero` and `python -m dtzero.cli` start here.
    Freezing the heap moves every object into the collector's permanent
    generation, which the collections at interpreter exit do not traverse;
    the process ends sooner, and stdio is still flushed and atexit hooks
    still run.  `main` itself leaves the collector alone, because tests and
    library callers call it in-process.

    A reader of stdout that leaves early (`dtzero series ... | head`) is not
    an error: the process prints nothing more and exits 141, the status of a
    process killed by SIGPIPE.  stdout is pointed at the null device first,
    so that the flush at exit does not fail again.  A stderr that cannot be
    written (fd 2 open read-only) still holds the lines that failed, and
    the flush at exit would fail on them and exit 120; it is dropped.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    finally:
        gc.freeze()
        try:
            if sys.stderr is not None:
                sys.stderr.flush()
        except OSError:
            sys.stderr = None
    sys.exit(code)


if __name__ == "__main__":
    run()
