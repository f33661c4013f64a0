"""Reference values for the benchmark's checks, computed without dtzero.

Nothing here imports the package under test, and no routine follows the
program's own path: the series comes from the sigma_2 log-derivative
recurrence in plain integers (the program raises a product of Fraction
series to a power), Chern numbers come from closed forms and binomial
expansions, and the partition lattice is worked on restricted-growth
label tuples (the program uses tuples of frozensets).

Run ``python3 perfbench/reference.py`` to recompute the stored catalog
table from the projective-space formulas and compare it with the stored
values.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

# Textbook (c1^3, c1c2, c3) of the four catalog threefolds.  Recomputed by
# catalog_from_first_principles(); `python3 perfbench/reference.py` prints both.
CATALOG_CHERN = {
    "P3": (64, 24, 4),
    "P2xP1": (54, 24, 6),
    "P1xP1xP1": (48, 24, 8),
    "quintic": (0, 0, -200),
}

CATALOG_CONSTRUCTION = {
    "P3": ("product", (3,)),
    "P2xP1": ("product", (2, 1)),
    "P1xP1xP1": ("product", (1, 1, 1)),
    "quintic": ("hypersurface", 5),
}


def sigma2(k: int) -> int:
    """Sum of the squares of the divisors of k."""
    return sum(d * d for d in range(1, k + 1) if k % d == 0)


@lru_cache(maxsize=None)
def dt_coefficients(exponent: int, order: int) -> tuple[int, ...]:
    """Coefficients b_0..b_order of M(-q)^K from n*b_n = K*sum_k (-1)^k sigma2(k) b_{n-k}."""
    s = [0] + [(-1) ** k * sigma2(k) for k in range(1, order + 1)]
    b = [1]
    for n in range(1, order + 1):
        total = exponent * sum(s[k] * b[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError(f"recurrence left a remainder at q^{n}")
        b.append(total // n)
    return tuple(b)


def twist(chern) -> Fraction:
    """K = c3 - c1c2 of a Chern triple (c1^3, c1c2, c3)."""
    return Fraction(chern[2]) - Fraction(chern[1])


def hypersurface_chern(degree: int) -> tuple[int, int, int]:
    """Chern numbers of a degree-d hypersurface in P^4, from (1+h)^5/(1+dh)."""
    c = [sum(comb(5, i) * (-degree) ** (k - i) for i in range(k + 1)) for k in range(4)]
    return (c[1] ** 3 * degree, c[1] * c[2] * degree, c[3] * degree)


def product_chern(dims) -> tuple[int, int, int]:
    """Chern numbers of a product of projective spaces, from prod_j (1+h_j)^(d_j+1)."""
    dims = tuple(dims)
    total = {(0,) * len(dims): 1}
    for j, d in enumerate(dims):
        factor = {tuple(i if t == j else 0 for t in range(len(dims))): comb(d + 1, i) for i in range(d + 2)}
        total = _poly_mul(total, factor, dims)

    def part(degree):
        return {m: c for m, c in total.items() if sum(m) == degree}

    c1, c2, c3 = part(1), part(2), part(3)
    top = dims
    return (
        _poly_mul(_poly_mul(c1, c1, dims), c1, dims).get(top, 0),
        _poly_mul(c1, c2, dims).get(top, 0),
        c3.get(top, 0),
    )


def _poly_mul(a: dict, b: dict, caps) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if all(e <= cap for e, cap in zip(m, caps)):
                out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def catalog_from_first_principles() -> dict[str, tuple[int, int, int]]:
    out = {}
    for name, (kind, arg) in CATALOG_CONSTRUCTION.items():
        out[name] = product_chern(arg) if kind == "product" else hypersurface_chern(arg)
    return out


def document_chern(doc) -> tuple[Fraction, Fraction, Fraction]:
    """Chern triple of a spec document (the JSON schema of `dtzero --spec-file`)."""
    (key, value), = doc.items()
    if key == "builtin":
        triple = CATALOG_CHERN[value]
    elif key == "chern":
        triple = (value["c111"], value["c12"], value["c3"])
    elif key == "hypersurface":
        triple = hypersurface_chern(value["degree"])
    elif key == "product":
        triple = product_chern(value)
    elif key == "disjoint_union":
        parts = [document_chern(p) for p in value]
        triple = tuple(sum(p[i] for p in parts) for i in range(3))
    elif key == "scaled":
        factor = Fraction(value["factor"])
        triple = tuple(factor * v for v in document_chern(value["of"]))
    else:
        raise ValueError(f"unknown spec key {key!r}")
    return tuple(Fraction(v) for v in triple)


def document_exponent(doc) -> int:
    k = twist(document_chern(doc))
    if k.denominator != 1:
        raise ValueError(f"spec {doc} has a non-integral twist exponent {k}")
    return int(k)


# ---------------------------------------------------------------------------
# the partition lattice on restricted-growth labels
# ---------------------------------------------------------------------------


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of {1..n} as its restricted-growth label tuple."""
    out = [()]
    for _ in range(n):
        out = [rgs + (v,) for rgs in out for v in range(max(rgs, default=-1) + 2)]
    return out


def canonical(labels) -> tuple[int, ...]:
    """Relabel blocks by first occurrence, so equal partitions get equal tuples."""
    seen: dict = {}
    return tuple(seen.setdefault(v, len(seen)) for v in labels)


def refines(fine, coarse) -> bool:
    """fine <= coarse: elements together in `fine` are together in `coarse`."""
    image: dict = {}
    return all(image.setdefault(a, b) == b for a, b in zip(fine, coarse))


def blocks(labels) -> list[list[int]]:
    """Element indices (0-based) grouped by block label."""
    out: dict = {}
    for i, v in enumerate(labels):
        out.setdefault(v, []).append(i)
    return list(out.values())


def block_mean_distance_sq(labels, points) -> Fraction:
    """Squared distance from the points to the diagonal of the partition:
    the sum of squared deviations from each block's mean."""
    total = Fraction(0)
    for block in blocks(labels):
        if len(block) < 2:
            continue
        mean = [sum(Fraction(points[i][a]) for i in block) / len(block) for a in range(3)]
        total += sum((Fraction(points[i][a]) - mean[a]) ** 2 for i in block for a in range(3))
    return total


def neighbourhood_members(points) -> list[tuple[int, ...]]:
    """Every partition of the points' labels whose diagonal neighbourhood holds
    the configuration, under the default schedule c = (minimum gap)/8, R = 16:
    eps(gamma)^2 = c^2 * R^(2*(rank(gamma) - n))."""
    n = len(points)
    gaps = [
        sum((Fraction(p[a]) - Fraction(q[a])) ** 2 for a in range(3))
        for i, p in enumerate(points) for q in points[i + 1:]
    ]
    nonzero = [g for g in gaps if g]
    c_sq = min(nonzero) / 64 if nonzero else Fraction(1)
    members = []
    for gamma in set_partitions(n):
        rank = n - len(set(gamma))
        eps_sq = c_sq * Fraction(256) ** (rank - n)
        if block_mean_distance_sq(gamma, points) < eps_sq:
            members.append(gamma)
    return members


def main() -> int:
    derived = catalog_from_first_principles()
    ok = True
    for name, stored in CATALOG_CHERN.items():
        match = derived[name] == stored
        ok &= match
        print(f"{name:9s} stored {stored}  derived {derived[name]}  K={twist(stored)}  {'ok' if match else 'MISMATCH'}")
    for d in range(1, 10):
        c = hypersurface_chern(d)
        print(f"X{d}<P4     {c}  K={twist(c)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
