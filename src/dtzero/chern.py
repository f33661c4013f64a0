"""Chern-number calculus for threefolds.

The three degree-six Chern monomials (c1^3, c1c2, c3) are computed
symbolically, in one ring of truncated integer polynomials: the cohomology
of a product of projective spaces and that of a hypersurface in P^4 are
both truncated rings in hyperplane classes, and the tangent-twist exponent
is expanded from Chern roots by the splitting principle.  Integration means
reading off the coefficient of the top monomial, times its volume.
Threefold specs are parsed from JSON documents, resolved, labelled and
written back through SPEC_KINDS, one entry per kind of spec.
"""

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

from ._values import Rational, _clip, _exact, _int, _json_number, _make, _refuse_sequence_ops, _show


def _tidy(value: Fraction):
    """Render exact rationals as ints whenever they are integers."""
    return int(value) if value.denominator == 1 else value


# ---------------------------------------------------------------------------
# truncated integer polynomials: {exponent tuple: coefficient} dicts
# ---------------------------------------------------------------------------

# A polynomial in a fixed number of degree-one generators, without zero
# coefficients.  A `caps` tuple drops every monomial in which generator j
# exceeds caps[j], which models the truncated cohomology ring of a product
# of projective spaces; without caps the ring is ordinary, which is what the
# splitting-principle expansion uses.
_Poly = dict[tuple[int, ...], int]


def _nonzero(terms: _Poly) -> _Poly:
    return {mono: coeff for mono, coeff in terms.items() if coeff}


def _add(p: _Poly, q: _Poly, factor: int = 1) -> _Poly:
    """p + factor*q."""
    terms = dict(p)
    for mono, coeff in q.items():
        terms[mono] = terms.get(mono, 0) + factor * coeff
    return _nonzero(terms)


def _mul(p: _Poly, q: _Poly, caps: tuple[int, ...] | None = None) -> _Poly:
    """p*q, truncated at `caps` when given."""
    terms: _Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            if caps is None or all(e <= c for e, c in zip(mono, caps)):
                terms[mono] = terms.get(mono, 0) + c1 * c2
    return _nonzero(terms)


def _pow(p: _Poly, e: int, caps: tuple[int, ...] | None = None) -> _Poly:
    """p**e for e >= 1, with p already inside the caps."""
    result = p
    for _ in range(e - 1):
        result = _mul(result, p, caps)
    return result


def _to_elementary(poly: _Poly, nvars: int) -> _Poly:
    """Rewrite a symmetric polynomial in e_1..e_nvars, by the greedy leading-term
    reduction.  Keys are exponent tuples of (e_1, ..., e_nvars)."""
    es = [
        {tuple(int(j in combo) for j in range(nvars)): 1 for combo in combinations(range(nvars), k)}
        for k in range(1, nvars + 1)
    ]
    out: _Poly = {}
    while poly:
        mono = max(poly)
        coeff = poly[mono]
        if list(mono) != sorted(mono, reverse=True):
            raise ValueError("polynomial is not symmetric")
        # the leading monomial falls strictly at every step, so each exps comes once
        exps = tuple(a - b for a, b in zip(mono, mono[1:] + (0,)))
        out[exps] = coeff
        product = {(0,) * nvars: coeff}
        for e_poly, e_exp in zip(es, exps):
            if e_exp:
                product = _mul(product, _pow(e_poly, e_exp))
        poly = _add(poly, product, -1)
    return out


# ---------------------------------------------------------------------------
# Chern numbers
# ---------------------------------------------------------------------------


class _ChernFields(NamedTuple):
    c111: Rational
    c12: Rational
    c3: Rational


class ChernNumbers(_ChernFields):
    """The triple (c1^3, c1c2, c3) of a (weakly) complex threefold.

    Honest compact threefolds carry integers; rational cobordism
    combinations are allowed and flagged by is_integral().
    """

    __slots__ = ()

    def __new__(cls, c111: Rational, c12: Rational, c3: Rational):
        return super().__new__(cls, _tidy(_exact(c111)), _tidy(_exact(c12)), _tidy(_exact(c3)))

    _make = _make

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for v in (self.c111, self.c12, self.c3))

    def as_integers(self) -> tuple[int, int, int]:
        if not self.is_integral():
            raise ValueError("Chern numbers are not integral")
        return (self.c111, self.c12, self.c3)

    def validation_warnings(self) -> tuple[str, ...]:
        """Soft sanity checks; violations are suspicious, not fatal."""
        notes = []
        if self.is_integral() and self.c12 % 24 != 0:
            notes.append(
                f"c1c2 = {self.c12} is not divisible by 24; "
                "no honest compact complex threefold has such Chern numbers"
            )
        return tuple(notes)

    def __add__(self, other: "ChernNumbers") -> "ChernNumbers":
        if not isinstance(other, ChernNumbers):
            _refuse_sequence_ops(self, other)
        return chern_disjoint_union(self, other)

    __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops


def chern_disjoint_union(a: ChernNumbers, b: ChernNumbers) -> ChernNumbers:
    """Chern numbers add over disjoint unions."""
    return ChernNumbers(a.c111 + b.c111, a.c12 + b.c12, a.c3 + b.c3)


def chern_scale(factor: Rational, c: ChernNumbers) -> ChernNumbers:
    """Scale a Chern triple by a rational factor (formal cobordism combination)."""
    factor = _exact(factor)
    return ChernNumbers(factor * c.c111, factor * c.c12, factor * c.c3)


@lru_cache(maxsize=1)
def twist_class_monomials() -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Degree-three Chern class of T tensor K, expanded symbolically.

    With Chern roots a1, a2, a3 of the tangent bundle and c1(K) = -(a1+a2+a3),
    the class is prod_i (a_i - c1).  The expansion is rewritten in elementary
    symmetric polynomials; keys are exponent tuples of (c1, c2, c3).
    """
    roots = [{tuple(int(i == j) for j in range(3)): 1} for i in range(3)]
    c1 = reduce(_add, roots)
    product = reduce(_mul, (_add(a, c1, -1) for a in roots))
    return tuple(sorted(_to_elementary(product, 3).items()))


def twist_exponent(c: ChernNumbers) -> Rational:
    """The Chern number of the twisted tangent bundle, evaluated on (c1^3, c1c2, c3).

    Always computed through the symbolic expansion, never from a
    hard-coded formula.
    """
    monomial_values = dict(zip([(3, 0, 0), (1, 1, 0), (0, 0, 1)], c))  # c1^3, c1c2, c3 by exponents of (c1, c2, c3)
    total = Fraction(0)
    for mono, coeff in twist_class_monomials():
        if mono not in monomial_values:
            raise ArithmeticError(f"unexpected Chern monomial {mono} in the twist expansion")
        total += coeff * monomial_values[mono]
    return _tidy(total)


def _chern_numbers(total: _Poly, caps: tuple[int, ...], volume: int) -> ChernNumbers:
    """Integrate c1^3, c1c2 and c3 of the total Chern class `total`, which lives
    in the ring truncated at `caps`, whose top monomial `caps` integrates to
    `volume`."""
    c1, c2, c3 = ({m: c for m, c in total.items() if sum(m) == k} for k in (1, 2, 3))
    return ChernNumbers(*(volume * p.get(caps, 0) for p in (_pow(c1, 3, caps), _mul(c1, c2, caps), c3)))


def _dimensions(dims: Iterable[int], name: str = "dims") -> tuple[int, ...]:
    """The projective dimensions `dims` as a tuple, once they are positive ints
    that sum to 3."""
    dims = tuple(_int(d, f"{name}[{i}]", 1) for i, d in enumerate(dims))
    if sum(dims) != 3:
        raise ValueError(f"{name} must sum to 3, got {_show(list(dims))}")
    return dims


def chern_of_projective_space_product(dims: Sequence[int]) -> ChernNumbers:
    """Chern numbers of P^d1 x ... x P^dk, for positive ints d1 + ... + dk = 3.

    Expands prod_j (1+h_j)^(d_j+1) in the truncated ring where h_j^(d_j+1) = 0
    and integrates degree-three monomials against the top class.
    """
    return _product_chern(_dimensions(dims))


# The family caches sit behind the checks: a cache key does not tell True from 1.
@lru_cache(maxsize=None)
def _product_chern(dims: tuple[int, ...]) -> ChernNumbers:
    one = (0,) * len(dims)
    total = {one: 1}
    for j, d in enumerate(dims):
        one_plus_h = {one: 1, tuple(int(i == j) for i in range(len(dims))): 1}
        total = _mul(total, _pow(one_plus_h, d + 1, dims), dims)
    return _chern_numbers(total, dims, 1)


def chern_of_hypersurface(degree: int) -> ChernNumbers:
    """Chern numbers of a smooth hypersurface in P^4 of positive int degree d.

    The total Chern class restricts to (1+h)^5 / (1+dh) mod h^4, where
    1/(1+dh) is the finite sum of (-dh)^k for k <= 3, and the hyperplane class
    integrates to the degree: int_X h^3 = d.
    """
    return _hypersurface_chern(_int(degree, "degree", 1))


@lru_cache(maxsize=None)
def _hypersurface_chern(d: int) -> ChernNumbers:
    total = _mul(_pow({(0,): 1, (1,): 1}, 5, (3,)), {(k,): (-d) ** k for k in range(4)}, (3,))
    return _chern_numbers(total, (3,), d)


# ---------------------------------------------------------------------------
# threefold specs: one table entry per kind
# ---------------------------------------------------------------------------

# Deepest nesting of disjoint_union and scaled in a spec document.  Building,
# resolving and labelling a spec recurse once per level.
MAX_SPEC_DEPTH = 100

# Most characters in a spec file.  Reading stops one character past it, so a
# huge or endless file (such as /dev/zero) is refused in bounded memory.
MAX_SPEC_FILE_CHARS = 2**22

# Most digits in a scaled factor, in an integer or in each of p and q of a
# "p/q" string.
MAX_FACTOR_DIGITS = 30


class SpecDocumentError(ValueError):
    """A threefold spec document does not validate against the schema."""


def _parse_factor(value, where: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) >= 10**MAX_FACTOR_DIGITS:
            raise SpecDocumentError(f"{where}: an integer factor has at most {MAX_FACTOR_DIGITS} digits")
        return Fraction(value)
    if isinstance(value, str):
        match = re.fullmatch(r"[+-]?([0-9]+)(?:/([0-9]+))?", value)
        if match is None:
            raise SpecDocumentError(f"{where}: cannot parse rational {_show(value)}; expected 'p' or 'p/q'")
        if any(part is not None and len(part) > MAX_FACTOR_DIGITS for part in match.groups()):
            raise SpecDocumentError(f"{where}: p and q have at most {MAX_FACTOR_DIGITS} digits each")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise SpecDocumentError(f"{where}: cannot parse rational {_show(value)}") from None
    raise SpecDocumentError(f"{where}: expected an integer or 'p/q' string, got {_show(value)}")


def _parse_builtin(value, where: str) -> str:
    if not isinstance(value, str) or value not in BUILTIN_THREEFOLDS:
        known = ", ".join(sorted(BUILTIN_THREEFOLDS))
        raise SpecDocumentError(f"{where}: unknown name {_show(value)}; known names: {known}")
    return value


# The parse steps below name no path on success.  An error message starts with
# the failing part's path below the value being parsed, and each enclosing
# level puts its own step in front as the error passes out through it.


def _parse_chern(value, depth: int) -> ChernNumbers:
    if not isinstance(value, dict) or set(value) != set(ChernNumbers._fields):
        raise SpecDocumentError(": expected the keys c111, c12, c3")
    return ChernNumbers(*(_int(value[k], f".{k}") for k in ChernNumbers._fields))


def _parse_hypersurface(value, depth: int) -> int:
    if not isinstance(value, dict) or set(value) != {"degree"}:
        raise SpecDocumentError(": expected the key degree")
    return _int(value["degree"], ".degree", 1)


def _parse_product(value, depth: int) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SpecDocumentError(": expected a list of dimensions")
    return _dimensions(value, "")


def _parse_union(value, depth: int) -> tuple["ThreefoldSpec", ...]:
    if not isinstance(value, list):
        raise SpecDocumentError(": expected a list of specs")
    parts = []
    try:
        for part in value:
            parts.append(_parse_document(part, depth + 1))
    except SpecDocumentError as exc:
        raise SpecDocumentError(f"[{len(parts)}]{exc}") from None
    return tuple(parts)


def _parse_scaled(value, depth: int) -> tuple[Fraction, "ThreefoldSpec"]:
    if not isinstance(value, dict) or set(value) != {"factor", "of"}:
        raise SpecDocumentError(": expected the keys factor and of")
    factor = _parse_factor(value["factor"], ".factor")
    try:
        return factor, _parse_document(value["of"], depth + 1)
    except SpecDocumentError as exc:
        raise SpecDocumentError(f".of{exc}") from None


class _SpecKind(NamedTuple):
    """One kind of spec.  `parse` takes the value under the kind's key in a
    document and the nesting depth; the others take the spec's value."""

    parse: Callable
    resolve: Callable
    label: Callable
    document: Callable


# One entry per spec kind, keyed by the kind, which is also its key in a spec
# document; error messages list the keys in this order.
SPEC_KINDS: dict[str, _SpecKind] = {
    "builtin": _SpecKind(
        parse=lambda name, depth: _parse_builtin(name, ""),
        resolve=lambda name: _builtin_chern(name),
        label=lambda name: name,
        document=lambda name: name,
    ),
    "chern": _SpecKind(
        parse=_parse_chern,
        resolve=lambda chern: chern,
        label=lambda c: f"X({c.c111},{c.c12},{c.c3})",
        document=lambda c: dict(zip(c._fields, c.as_integers())),
    ),
    "hypersurface": _SpecKind(
        parse=_parse_hypersurface,
        resolve=chern_of_hypersurface,
        label=lambda degree: f"X{degree}<P4",
        document=lambda degree: {"degree": degree},
    ),
    "product": _SpecKind(
        parse=_parse_product,
        resolve=chern_of_projective_space_product,
        label=lambda dims: "x".join(f"P{d}" for d in dims),
        document=list,
    ),
    "disjoint_union": _SpecKind(
        parse=_parse_union,
        # one sum per field and one validated triple; the zero triple is the empty union's
        resolve=lambda parts: ChernNumbers(*map(sum, zip(*(p.resolve() for p in parts), (0, 0, 0)))),
        label=lambda parts: " + ".join(p.label() for p in parts) or "empty",
        document=lambda parts: [p.to_document() for p in parts],
    ),
    "scaled": _SpecKind(
        parse=_parse_scaled,
        resolve=lambda scaled: chern_scale(scaled[0], scaled[1].resolve()),
        label=lambda scaled: f"({scaled[0]})*{scaled[1].label()}",
        document=lambda scaled: {"factor": _json_number(scaled[0]), "of": scaled[1].to_document()},
    ),
}


def _instance_of(kind: type, value, who: str):
    """`value` itself, once it is a `kind`; `who` names the refusing constructor."""
    if not isinstance(value, kind):
        raise TypeError(f"{who} needs a {kind.__name__}, got {_show(value)}")
    return value


class ThreefoldSpec(NamedTuple):
    """A named threefold or constructor expression resolving to Chern numbers:
    a kind of SPEC_KINDS and its value, which is a builtin name, ChernNumbers,
    a positive int hypersurface degree, a tuple of positive int product
    dimensions summing to 3, a tuple of specs in a disjoint union, or a
    scaled spec's (factor, base spec).  The constructors refuse other values."""

    kind: str
    value: object

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    @classmethod
    def builtin(cls, name: str) -> "ThreefoldSpec":
        return cls("builtin", _parse_builtin(name, "unknown builtin threefold"))

    @classmethod
    def explicit(cls, chern: ChernNumbers) -> "ThreefoldSpec":
        return cls("chern", _instance_of(ChernNumbers, chern, "ThreefoldSpec.explicit"))

    @classmethod
    def product(cls, dims: Iterable[int]) -> "ThreefoldSpec":
        return cls("product", _dimensions(dims))

    @classmethod
    def hypersurface(cls, degree: int) -> "ThreefoldSpec":
        return cls("hypersurface", _int(degree, "degree", 1))

    @classmethod
    def disjoint_union(cls, parts: Iterable["ThreefoldSpec"]) -> "ThreefoldSpec":
        return cls("disjoint_union", tuple(_instance_of(cls, p, "ThreefoldSpec.disjoint_union") for p in parts))

    @classmethod
    def scaled(cls, factor: Rational, base: "ThreefoldSpec") -> "ThreefoldSpec":
        return cls("scaled", (_exact(factor), _instance_of(cls, base, "ThreefoldSpec.scaled")))

    def resolve(self) -> ChernNumbers:
        """Evaluate the constructor expression to a Chern triple."""
        return SPEC_KINDS[self.kind].resolve(self.value)

    def label(self) -> str:
        return SPEC_KINDS[self.kind].label(self.value)

    def to_document(self) -> dict:
        """The JSON-document form of this spec, which parse_spec_document reads back."""
        return {self.kind: SPEC_KINDS[self.kind].document(self.value)}


# Builtin names resolve to constructor expressions, not to frozen triples, so
# that every catalog value is produced by the symbolic engines above.
BUILTIN_THREEFOLDS: dict[str, ThreefoldSpec] = {
    "P3": ThreefoldSpec.product((3,)),
    "P2xP1": ThreefoldSpec.product((2, 1)),
    "P1xP1xP1": ThreefoldSpec.product((1, 1, 1)),
    "quintic": ThreefoldSpec.hypersurface(5),
}


# Keyed by the name string, and filled only once BUILTIN_THREEFOLDS knows the
# name: an unknown name raises KeyError, which is never cached.
@lru_cache(maxsize=None)
def _builtin_chern(name: str) -> ChernNumbers:
    return BUILTIN_THREEFOLDS[name].resolve()


def parse_spec_document(doc) -> ThreefoldSpec:
    """Validate a JSON spec document and build the ThreefoldSpec it denotes.
    An error message starts with the failing part's path, such as
    `spec.disjoint_union[1].builtin`."""
    try:
        return _parse_document(doc, 0)
    except SpecDocumentError as exc:
        raise SpecDocumentError(f"spec{exc}") from None


def _parse_document(doc, depth: int) -> ThreefoldSpec:
    """`depth` counts the enclosing disjoint_union and scaled levels."""
    if depth > MAX_SPEC_DEPTH:
        raise SpecDocumentError(f": specs nest deeper than {MAX_SPEC_DEPTH} levels")
    if not isinstance(doc, dict):
        raise SpecDocumentError(f": expected an object, got {type(doc).__name__}")
    if len(doc) != 1:
        keys = ", ".join(sorted(map(str, doc))) or "nothing"  # a Python dict may mix key types
        raise SpecDocumentError(f": expected exactly one of the spec keys, got {_clip(keys)}")
    (key, value), = doc.items()
    kind = SPEC_KINDS.get(key)
    if kind is None:
        raise SpecDocumentError(f": unknown spec key {_show(key)}; expected one of {', '.join(SPEC_KINDS)}")
    try:
        return ThreefoldSpec(key, kind.parse(value, depth))
    except ValueError as exc:  # a SpecDocumentError, or an integer slot refused by _int
        raise SpecDocumentError(f".{key}{exc}") from None


def catalog() -> tuple[ThreefoldSpec, ...]:
    """The four builtin threefolds, in a fixed order."""
    return tuple(ThreefoldSpec.builtin(name) for name in BUILTIN_THREEFOLDS)
