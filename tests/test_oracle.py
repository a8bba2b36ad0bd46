from fractions import Fraction
import random

import pytest

from pfecalc import oracle
from pfecalc.pfe import build_product_matrix, enumerate_pfe
from pfecalc.series import TruncatedSeries
from pfecalc.identities import pentagonal_series

PARTITION_COUNTS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385,
    490, 627,
]


def test_enumerate_partitions_counts():
    for n in range(21):
        assert sum(1 for _ in oracle.enumerate_partitions(n)) == PARTITION_COUNTS[n]
        assert oracle.count_partitions(n) == PARTITION_COUNTS[n]


def test_enumerate_partitions_structure():
    parts = sorted(
        tuple(sorted(freq.items())) for freq in oracle.enumerate_partitions(4)
    )
    assert parts == [
        ((1, 1), (3, 1)),
        ((1, 2), (2, 1)),
        ((1, 4),),
        ((2, 2),),
        ((4, 1),),
    ]
    with pytest.raises(ValueError):
        next(oracle.enumerate_partitions(-1))


def test_p_direct_unit_weights_counts_partitions():
    for n in range(25):
        assert oracle.p_direct(n, lambda k: 1, 1) == oracle.count_partitions(n)


def test_column_sum_identity_on_oracle_values():
    # sum_k k F_k(n) = n P(n) evaluated entirely by direct enumeration
    rng = random.Random(3)
    b = [Fraction(0)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(20)]
    z = Fraction(2, 3)
    for n in range(1, 16):
        lhs = sum(k * oracle.f_direct(k, n, b, z) for k in range(1, n + 1))
        assert lhs == n * oracle.p_direct(n, b, z)


def test_direct_sums_agree_with_engine():
    rng = random.Random(4)
    N = 12
    for _ in range(3):
        b = [Fraction(0)] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(N)
        ]
        z = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        m = build_product_matrix([(z, b)], N)
        result = enumerate_pfe(m, N)
        for n in range(N + 1):
            assert result.P[n] == oracle.p_direct(n, b, z)
        for k in range(1, 6):
            for n in range(N + 1):
                assert result.freq(k, n) == oracle.f_direct(k, n, b, z)


def test_brute_expand_matches_power_recurrence():
    # prod (1 - q^k)^(-r) for integer r against the series-power route
    for r in (1, 2, 5):
        brute = oracle.brute_expand([(Fraction(1), lambda k: Fraction(r))], 40)
        assert brute == pentagonal_series(40).power(-r)


def test_brute_expand_two_factor():
    # distinct parts: prod (1 + q^k) = brute with z = -1, b = -1
    brute = oracle.brute_expand([(Fraction(-1), lambda k: Fraction(-1))], 20)
    assert brute.coeffs[:11] == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10)


def test_gap2_partition_counts():
    got = oracle.gap2_partition_counts(14)
    assert got == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12]
