"""Truncated formal power series with exact rational coefficients.

A series carries coefficients for q^0 .. q^N and nothing beyond; arithmetic
truncates to the smaller order of its operands and never extends precision.
Products and powers run on int while a value is integral (arith.demote and
arith.divide) and return Fraction coefficients.
"""

from fractions import Fraction

from .arith import demote, divide


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            cs = cs[: order + 1]
            cs += [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant term")
        self.coeffs = tuple(cs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        if n < 0:
            return Fraction(0)
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def truncate(self, order):
        return TruncatedSeries(self.coeffs, order)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The Cauchy product, walking the sparser factor's nonzero terms."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        n = min(self.order, other.order)
        a = [demote(c) for c in self.coeffs[: n + 1]]
        b = [demote(c) for c in other.coeffs[: n + 1]]
        if b.count(0) > a.count(0):
            a, b = b, a
        out = [0] * (n + 1)
        for j, c in enumerate(a):
            if c:
                out[j:] = [y * c + x for x, y in zip(out[j:], b)]
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return TruncatedSeries([c * x for x in self.coeffs])

    def weighted(self):
        """Coefficientwise n * c(n); the series of n-weighted coefficients."""
        return TruncatedSeries([n * c for n, c in enumerate(self.coeffs)])

    def power(self, r):
        """Rational power of a unit-constant series by the classical recurrence.

        Requires c(0) = 1.  With r = p/s it uses s n B(n) = sum_{j=1..n}
        ((p+s)j - s n) a(j) B(n-j), B(0) = 1, over the nonzero a(j) only, which
        agrees with repeated multiplication for integer r >= 0 and with the
        reciprocal for r = -1.
        """
        if self.coeffs[0] != 1:
            raise ValueError("power requires constant term 1")
        r = Fraction(r)
        p, s = r.numerator, r.denominator
        a = [demote(c) for c in self.coeffs]
        support = [j for j in range(1, len(a)) if a[j]]
        out = [1]
        for n in range(1, len(a)):
            total = 0
            for j in support:
                if j > n:
                    break
                total += ((p + s) * j - s * n) * a[j] * out[n - j]
            out.append(divide(total, s * n))
        return TruncatedSeries(out)


def one(order):
    return TruncatedSeries([1], order)


def monomial(c, k, order):
    """c * q^k, truncated at the given order."""
    coeffs = [Fraction(0)] * (order + 1)
    if k <= order:
        coeffs[k] = Fraction(c)
    return TruncatedSeries(coeffs)


def power_rational(a, r):
    return a.power(r)
