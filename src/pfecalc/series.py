"""Truncated formal power series with exact rational coefficients.

A series carries coefficients for q^0 .. q^N and nothing beyond; arithmetic
truncates to the smaller order of its operands and never extends precision.
Products run on int while a value is integral (arith.demote); powers run on
int throughout, carrying C(n) = B(n) (D s^2)^n, which Z[1/s] makes integral
(see TruncatedSeries.power).  Both return Fraction coefficients.
"""

from fractions import Fraction
from math import lcm

from .arith import demote


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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

        Requires c(0) = 1.  With r = p/s the power B satisfies s n B(n) =
        sum_{j=1..n} ((p+s)j - s n) a(j) B(n-j), B(0) = 1, summed over the
        nonzero a(j) only.  It runs on int: with D the lcm of the base's
        denominators and w(j) = a(j) (D s^2)^j, the kernel carries C(n) =
        B(n) (D s^2)^n, so s n C(n) = sum_j ((p+s)j - s n) w(j) C(n-j).  C(n)
        is an integer, because every coefficient of the integral series A(D q)
        to the power p/s lies in Z[1/s] with at most s^(2n) in its
        denominator; so every division by s n is exact, and an inexact one
        raises ArithmeticError.  One Fraction C(n) / (D s^2)^n is built per
        coefficient at the end.
        """
        if self.coeffs[0] != 1:
            raise ValueError("power requires constant term 1")
        r = Fraction(r)
        p, s = r.numerator, r.denominator
        scale = lcm(*(c.denominator for c in self.coeffs)) * s * s
        units = [1]
        for _ in range(self.order):
            units.append(units[-1] * scale)
        w = [c.numerator * (u // c.denominator) for c, u in zip(self.coeffs, units)]
        support = [j for j in range(1, len(w)) if w[j]]
        C = [1]
        for n in range(1, len(w)):
            total = 0
            for j in support:
                if j > n:
                    break
                total += ((p + s) * j - s * n) * w[j] * C[n - j]
            c, rem = divmod(total, s * n)
            if rem:
                raise ArithmeticError(f"power {r}: inexact division at n = {n}")
            C.append(c)
        return TruncatedSeries([Fraction(c, u) for c, u in zip(C, units)])


def one(order):
    return TruncatedSeries([1], order)


def monomial(c, k, order):
    """c * q^k, truncated at the given order."""
    coeffs = [Fraction(0)] * (order + 1)
    if k <= order:
        coeffs[k] = Fraction(c)
    return TruncatedSeries(coeffs)
