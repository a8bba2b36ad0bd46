from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pfecalc import arith
from pfecalc.oracle import brute_expand


def test_divisors():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        arith.divisors(0)


def test_mobius_small_values():
    # 1..12
    assert [arith.mobius(n) for n in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
    ]


def test_mobius_divisor_sum_vanishes():
    for n in range(1, 2001):
        total = sum(arith.mobius(d) for d in arith.divisors(n))
        assert total == (1 if n == 1 else 0)


def test_is_prime():
    primes = [n for n in range(2, 60) if arith.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not arith.is_prime(1)
    assert not arith.is_prime(-7)


def test_sigma():
    assert arith.sigma(1, 1) == 1
    assert arith.sigma(1, 6) == 12
    assert arith.sigma(2, 6) == 1 + 4 + 9 + 36
    assert arith.sigma(0, 12) == 6  # divisor count
    assert type(arith.sigma(2, 6)) is int


def test_sigma_negative_powers_are_exact():
    assert arith.sigma(-1, 6) == 2 and type(arith.sigma(-1, 6)) is Fraction
    assert arith.sigma(-2, 6) == Fraction(50, 36)
    for n in range(1, 30):
        assert arith.sigma(-3, n) == sum(Fraction(1, d ** 3) for d in arith.divisors(n))


def test_sigma_odd_even_split():
    for n in range(1, 2001):
        odd, even = arith.sigma_odd_even(n)
        assert odd + even == arith.sigma(1, n)
    for m in range(1, 500):
        _, even = arith.sigma_odd_even(2 * m)
        assert even == 2 * arith.sigma(1, m)


def test_mobius_inversion_roundtrip():
    rng = random.Random(11)
    N = 200
    b = [Fraction(0)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(N)
    ]
    g = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        g[n] = sum(d * b[d] for d in arith.divisors(n))
    assert arith.mobius_inversion(g) == b


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(min_value=0, max_value=50),
)
def test_rising_factorial_step(a, r):
    assert arith.rising_factorial(a, r + 1) == arith.rising_factorial(a, r) * (a + r)


def test_rising_factorial_base_cases():
    assert arith.rising_factorial(Fraction(5, 2), 0) == 1
    assert arith.rising_factorial(3, 4) == 3 * 4 * 5 * 6
    with pytest.raises(ValueError):
        arith.rising_factorial(1, -1)


def test_pentagonal_sign_matches_product_expansion():
    # signs must agree with brute expansion of prod (1 - q^k)
    euler = brute_expand([(Fraction(1), lambda k: Fraction(-1))], 60)
    for n in range(61):
        assert arith.pentagonal_sign(n) == euler[n]


def test_generalized_pentagonals():
    assert arith.generalized_pentagonals(15) == [
        (0, 0), (1, 1), (-1, 2), (2, 5), (-2, 7), (3, 12), (-3, 15),
    ]


def test_triangular_numbers():
    assert arith.triangular_numbers(10) == [(0, 0), (1, 1), (2, 3), (3, 6), (4, 10)]


def test_padic_valuation():
    assert arith.padic_valuation(12, 2) == 2
    assert arith.padic_valuation(Fraction(5, 8), 2) == -3
    assert arith.padic_valuation(Fraction(-50, 3), 5) == 2
    assert arith.padic_valuation(0, 7) == math.inf
    with pytest.raises(ValueError):
        arith.padic_valuation(3, 4)


def test_bernoulli():
    B = [arith.bernoulli(n) for n in range(13)]
    assert B[0] == 1
    assert B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6)
    assert B[4] == Fraction(-1, 30)
    assert B[6] == Fraction(1, 42)
    assert B[12] == Fraction(-691, 2730)
    assert all(B[n] == 0 for n in (3, 5, 7, 9, 11))
