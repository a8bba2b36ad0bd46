"""Integrality and prime-power divisibility shared by a sequence and its exponents.

A sequence P with P(0) = 1 has a unique product representation with exponent
sequence b.  The two sequences are integral together, and divisibility of the
P values by a prime power forces (one notch weaker, at multiples of the prime)
divisibility of the b values.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import is_prime, padic_valuation
from .series import TruncatedSeries
from .pfe import series_to_pfe


def _is_integer(x):
    return Fraction(x).denominator == 1


@dataclass(frozen=True)
class IntegralityResult:
    b: tuple
    p_integral: bool
    b_integral: bool

    @property
    def both_integral(self):
        return self.p_integral and self.b_integral


@dataclass(frozen=True)
class DivisibilityReport:
    prime: int
    power: int
    order: int
    hypothesis_ok: bool
    hypothesis_failure: Optional[int]  # first n with p^r not dividing P(n)
    claim_a_ok: bool  # v_p(b_m) >= r for (p, m) = 1
    claim_b_ok: bool  # v_p(b_m) >= r - 1 for p | m
    counterexample: Optional[int]

    @property
    def passed(self):
        return self.hypothesis_ok and self.claim_a_ok and self.claim_b_ok


def integrality_check(P):
    """Exponent sequence of P plus the two all-integer verdicts.

    The verdicts always agree: P(1..N) are all integers exactly when the
    recovered b(1..N) are.
    """
    b, _ = series_to_pfe(P, with_freq=False)
    N = len(P) - 1
    p_integral = all(_is_integer(P[n]) for n in range(1, N + 1))
    b_integral = all(_is_integer(b[n]) for n in range(1, N + 1))
    return IntegralityResult(tuple(b), p_integral, b_integral)


def prime_power_divisibility(P, p, r, N=None):
    """Check v_p(b_m) >= r off the prime and >= r-1 at its multiples.

    Requires p^r to divide every P(n), 1 <= n <= N; a violated hypothesis is
    reported, not raised.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if r < 1:
        raise ValueError("r must be a positive integer")
    if N is None:
        N = len(P) - 1
    P = [Fraction(x) for x in P[: N + 1]]
    for n in range(1, N + 1):
        if padic_valuation(P[n], p) < r:
            return DivisibilityReport(p, r, N, False, n, False, False, None)
    b, _ = series_to_pfe(P, with_freq=False)
    for m in range(1, N + 1):
        v = padic_valuation(b[m], p)
        if m % p != 0:
            if v < r:
                return DivisibilityReport(p, r, N, True, None, False, True, m)
        else:
            if v < r - 1:
                return DivisibilityReport(p, r, N, True, None, True, False, m)
    return DivisibilityReport(p, r, N, True, None, True, True, None)


def root_integrality(P, m, t, s):
    """Coefficients of the m^s-th root of a series whose values m^t divides.

    Requires m >= 2, 0 <= s < t, and m^t | P(n) for 1 <= n <= N (violations
    raise, naming the offending index).  Returns (root coefficients, all
    integers?); the corollary says the answer is always yes.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 0 <= s < t:
        raise ValueError("need 0 <= s < t")
    N = len(P) - 1
    P = [Fraction(x) for x in P]
    mt = m ** t
    for n in range(1, N + 1):
        if P[n].denominator != 1 or P[n].numerator % mt != 0:
            raise ValueError(f"hypothesis fails: {m}^{t} does not divide P({n}) = {P[n]}")
    root = TruncatedSeries(P).power(Fraction(1, m ** s))
    coeffs = tuple(root.coeffs)
    return coeffs, all(_is_integer(c) for c in coeffs)
