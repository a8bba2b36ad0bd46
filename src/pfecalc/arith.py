"""Exact integer and rational helpers: divisor sums, Mobius, valuations, Bernoulli."""

import math
from fractions import Fraction
from functools import lru_cache

INFINITY = math.inf


def demote(x):
    """x as an int when it is integral, else as a Fraction; types are tested first."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def divide(a, b):
    """a / b, demoted: floor division for ints with no remainder, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return demote(a / b)


def _require_positive(n, what="n"):
    if n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n}")


def divisors(n):
    """All positive divisors of n, by trial division up to sqrt(n)."""
    _require_positive(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n):
    _require_positive(n)
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if m > 1:
        result = -result
    return result


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % p == 0:
            return False
        p += 2
    return True


def sigma(m, n):
    """Sum of m-th powers of the divisors of n: an int for m >= 0, else a Fraction."""
    _require_positive(n)
    total = sum(d ** abs(m) for d in divisors(n))
    # the divisors d and n/d pair up, so sigma_{-m}(n) = sigma_m(n) / n^m
    return total if m >= 0 else Fraction(total, n ** -m)


def sigma_odd_even(n):
    """(sum of odd divisors, sum of even divisors) of n."""
    _require_positive(n)
    odd = even = 0
    for d in divisors(n):
        if d % 2:
            odd += d
        else:
            even += d
    return odd, even


def mobius_inversion(g):
    """Recover b(1..N) from g with g(n) = sum over d|n of d*b(d).

    g is a list indexed by n (g[0] ignored); returns a list b of the same
    length with b[0] = 0 and b[n] = (1/n) * sum over d|n of mu(n/d)*g(d).
    """
    N = len(g) - 1
    b = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        total = sum(mobius(n // d) * Fraction(g[d]) for d in divisors(n))
        b[n] = total / n
    return b


def rising_factorial(a, r):
    """a(a+1)...(a+r-1), with the empty product 1 for r = 0."""
    if r < 0:
        raise ValueError("r must be non-negative")
    a = Fraction(a)
    result = Fraction(1)
    for i in range(r):
        result *= a + i
    return result


def pentagonal_sign(n):
    """(-1)^k if n = k(3k+-1)/2 for some k >= 0, else 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    s2 = 24 * n + 1
    s = math.isqrt(s2)
    if s * s != s2:
        return 0
    # n = k(3k-1)/2 gives 24n+1 = (6k-1)^2; k < 0 corresponds to s = 6|k|+1
    if s % 6 == 5:
        k = (s + 1) // 6
    else:
        k = (s - 1) // 6
    return -1 if k % 2 else 1


def generalized_pentagonals(limit):
    """Pairs (j, j(3j-1)/2) for j = 0, 1, -1, 2, -2, ... with value <= limit."""
    pairs = [(0, 0)]
    j = 1
    while True:
        gp = j * (3 * j - 1) // 2
        if gp > limit:
            break
        pairs.append((j, gp))
        gn = j * (3 * j + 1) // 2
        if gn <= limit:
            pairs.append((-j, gn))
        j += 1
    return pairs


def triangular_numbers(limit):
    """Pairs (j, j(j+1)/2) for j = 0, 1, 2, ... with value <= limit."""
    pairs = []
    j = 0
    while j * (j + 1) // 2 <= limit:
        pairs.append((j, j * (j + 1) // 2))
        j += 1
    return pairs


def padic_valuation(x, p):
    """Exponent of the prime p in the rational x; +infinity for x = 0."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


@lru_cache(maxsize=None)
def bernoulli(n):
    """Bernoulli number B_n via sum_{j=0}^{n} C(n+1, j) B_j = 0, B_0 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return Fraction(1)
    total = sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n))
    return -total / Fraction(n + 1)
