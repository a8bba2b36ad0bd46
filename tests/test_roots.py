from fractions import Fraction
import random

import pytest

from pfecalc import roots
from pfecalc.identities import partition_series
from pfecalc.series import TruncatedSeries


def random_integer_series(rng, N, scale=1):
    return [Fraction(1)] + [Fraction(rng.randint(-9, 9) * scale) for _ in range(N)]


def test_integrality_partition_series():
    P = list(partition_series(30).coeffs)
    result = roots.integrality_check(P)
    assert result.p_integral and result.b_integral and result.both_integral
    assert result.b[1:4] == (1, 1, 1)


def test_integrality_fractional_case():
    # (1 - q)^(-1/2): neither the coefficients nor the exponents are integers
    P = list(TruncatedSeries([1, -1], 12).power(Fraction(-1, 2)).coeffs)
    result = roots.integrality_check(P)
    assert P[1] == Fraction(1, 2)
    assert result.b[1] == Fraction(1, 2)
    assert not result.p_integral and not result.b_integral


def test_integrality_remark_series():
    P = [Fraction(1)] + [Fraction(4)] * 20
    result = roots.integrality_check(P)
    assert result.b[1] == 4
    assert result.b[2] == -6
    assert result.both_integral


def test_booleans_always_agree():
    rng = random.Random(41)
    for trial in range(30):
        N = rng.randint(5, 40)
        if trial % 2:
            P = random_integer_series(rng, N)
        else:
            P = [Fraction(1)] + [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(N)
            ]
        result = roots.integrality_check(P)
        assert result.p_integral == result.b_integral


def test_prime_power_divisibility_remark():
    P = [Fraction(1)] + [Fraction(4)] * 30
    report = roots.prime_power_divisibility(P, 2, 2)
    assert report.passed
    # sharpness: v_2(b_2) = 1, exactly the r - 1 bound
    b = roots.integrality_check(P).b
    assert b[2] == -6


def test_prime_power_divisibility_hypothesis_violation_reported():
    P = [Fraction(1), Fraction(4), Fraction(3)]
    report = roots.prime_power_divisibility(P, 2, 2)
    assert not report.passed
    assert not report.hypothesis_ok
    assert report.hypothesis_failure == 2


def test_prime_power_divisibility_zero_tail():
    P = [Fraction(1)] + [Fraction(0)] * 15
    for p, r in ((2, 1), (5, 3)):
        assert roots.prime_power_divisibility(P, p, r).passed


def test_prime_power_divisibility_validation():
    with pytest.raises(ValueError):
        roots.prime_power_divisibility([Fraction(1)], 4, 1)
    with pytest.raises(ValueError):
        roots.prime_power_divisibility([Fraction(1)], 3, 0)


def test_prime_power_divisibility_random():
    rng = random.Random(42)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        r = rng.randint(1, 3)
        N = rng.randint(10, 30)
        P = random_integer_series(rng, N, scale=p ** r)
        report = roots.prime_power_divisibility(P, p, r)
        assert report.passed, (p, r, report)


def test_root_integrality_perfect_square():
    # (1 + 2q)^2 = 1 + 4q + 4q^2
    P = [Fraction(1), Fraction(4), Fraction(4)]
    coeffs, integral = roots.root_integrality(P, 2, 2, 1)
    assert coeffs == (1, 2, 0)
    assert integral


def test_root_integrality_s_zero_and_errors():
    P = [Fraction(1), Fraction(8), Fraction(16)]
    coeffs, integral = roots.root_integrality(P, 2, 3, 0)
    assert coeffs == tuple(P) and integral
    with pytest.raises(ValueError, match="P\\(2\\)"):
        roots.root_integrality([Fraction(1), Fraction(8), Fraction(4)], 2, 3, 1)
    with pytest.raises(ValueError):
        roots.root_integrality(P, 1, 2, 1)
    with pytest.raises(ValueError):
        roots.root_integrality(P, 2, 1, 1)


def test_root_integrality_random():
    rng = random.Random(43)
    for _ in range(15):
        m = rng.choice([2, 3, 5])
        t = rng.randint(1, 3)
        s = rng.randint(0, t - 1)
        N = rng.randint(8, 25)
        P = random_integer_series(rng, N, scale=m ** t)
        coeffs, integral = roots.root_integrality(P, m, t, s)
        assert integral, (m, t, s)
        root, product = TruncatedSeries(coeffs), TruncatedSeries([1], N)
        for _ in range(m ** s):
            product = product * root
        assert product == TruncatedSeries(P)


def test_root_consistency_with_power():
    rng = random.Random(44)
    Q = TruncatedSeries(
        [1] + [Fraction(rng.randint(-5, 5)) for _ in range(20)]
    )
    for m in (2, 3):
        root = Q.power(Fraction(1, m))
        assert root.power(m) == Q
