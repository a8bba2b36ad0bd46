from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from pfecalc.series import TruncatedSeries, monomial, one


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def random_unit_series(rng, N):
    return TruncatedSeries(
        [Fraction(1)]
        + [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(N)]
    )


def test_construction_and_order():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeffs == (1, 2, 3)
    padded = TruncatedSeries([1], order=4)
    assert padded.coeffs == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_indexing():
    s = TruncatedSeries([5, 7])
    assert s[-3] == 0
    assert s[1] == 7
    with pytest.raises(IndexError):
        s[2]


def test_add_sub_scale_truncate():
    a = TruncatedSeries([1, 2, 3, 4])
    b = TruncatedSeries([1, 1])
    assert (a + b).coeffs == (2, 3)  # truncates to the smaller order
    assert (a - a).coeffs == (0, 0, 0, 0)
    assert a.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert a.truncate(1).coeffs == (1, 2)
    assert a.truncate(5).coeffs == (1, 2, 3, 4, 0, 0)


def test_mul_against_hand_expansion():
    a = TruncatedSeries([1, 1, 1])
    assert (a * a).coeffs == (1, 2, 3)
    assert (2 * a).coeffs == (2, 2, 2)


def test_weighted_and_monomial():
    assert TruncatedSeries([7, 7, 7]).weighted().coeffs == (0, 7, 14)
    assert monomial(3, 2, 4).coeffs == (0, 0, 3, 0, 0)
    assert one(2).coeffs == (1, 0, 0)


def test_mul_commutative_associative():
    rng = random.Random(5)
    for _ in range(10):
        a = random_unit_series(rng, 15)
        b = random_unit_series(rng, 15)
        c = random_unit_series(rng, 15)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def random_series(rng, order, max_den=5):
    """Sparse or dense, integer or rational, drawn at random."""
    rational, sparse = rng.random() < 0.5, rng.random() < 0.5

    def coefficient():
        if sparse and rng.random() < 0.8:
            return 0
        if rational:
            return Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
        return rng.randint(-9, 9)

    return TruncatedSeries([coefficient() for _ in range(order + 1)])


def test_mul_matches_the_dense_double_sum():
    rng = random.Random(11)
    for _ in range(60):
        orders = rng.sample(range(26), 2)
        a, b = (random_series(rng, order) for order in orders)
        want = [
            sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(min(orders) + 1)
        ]
        for got in (a * b, b * a):
            assert list(got.coeffs) == want
            assert _all_fractions(got)


def random_integer_unit_series(rng, N):
    return TruncatedSeries([1] + [rng.randint(-6, 6) for _ in range(N)])


def _all_fractions(a):
    return all(type(c) is Fraction for c in a.coeffs)


def test_power_integer_matches_repeated_multiplication():
    rng = random.Random(6)
    for base in [random_unit_series, random_integer_unit_series] * 5:
        a = base(rng, 20)
        prod = one(20)
        for k in range(1, 5):
            prod = prod * a
            assert a.power(k) == prod
            assert _all_fractions(a.power(k))
            assert a.power(-k) * prod == one(20)


def test_square_root_squared_is_the_base():
    rng = random.Random(9)
    for base in [random_unit_series, random_integer_unit_series] * 5:
        a = base(rng, 20)
        root = a.power(Fraction(1, 2))
        assert _all_fractions(root)
        assert root * root == a


def test_power_reciprocal():
    rng = random.Random(7)
    a = random_unit_series(rng, 25)
    assert (a * a.power(-1)).coeffs == one(25).coeffs


@settings(max_examples=30, deadline=None)
@given(rationals, rationals, st.randoms(use_true_random=False))
def test_power_addition_law(r, s, rnd):
    a = random_unit_series(rnd, 12)
    assert a.power(r) * a.power(s) == a.power(r + s)


def test_power_identity_and_zero():
    rng = random.Random(8)
    a = random_unit_series(rng, 10)
    assert a.power(1) == a
    assert a.power(0) == one(10)


def test_power_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1]).power(2)


def test_power_rational_partition_numbers():
    # 1/prod(1-q^k) via the pentagonal expansion
    from pfecalc.identities import pentagonal_series

    p = pentagonal_series(30).power(-1)
    assert p[10] == 42
    assert p[30] == 5604


def test_equality_and_hash():
    assert TruncatedSeries([1, 2]) == TruncatedSeries([Fraction(1), Fraction(2)])
    assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))
    assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])


def literal_power(a, r):
    """a^r from s n B(n) = sum_j ((p+s)j - s n) a(j) B(n-j), all in Fraction."""
    p, s = r.numerator, r.denominator
    B = [Fraction(1)]
    for n in range(1, a.order + 1):
        total = sum(((p + s) * j - s * n) * a[j] * B[n - j] for j in range(1, n + 1))
        B.append(total / (s * n))
    return B


def test_power_kernel_matches_the_fraction_recurrence():
    rng = random.Random(17)
    for _ in range(24):
        a = TruncatedSeries((1,) + random_series(rng, 17, max_den=12).coeffs)
        for s in (2, 3, 6, 7, 12):
            for p in (-2 * s - 1, 1 - s, -1, 1, s + 1, 3 * s - 1):
                r = Fraction(p, s)
                got = a.power(r)
                assert list(got.coeffs) == literal_power(a, r), (a, r)
                assert _all_fractions(got)
        prod = one(18)
        for k in range(1, 4):
            prod = prod * a
            assert a.power(k) == prod
            assert a.power(-k) * prod == one(18)
            assert _all_fractions(a.power(-k))


def test_partition_power_methods_agree_at_one_sixth():
    from pfecalc.identities import partition_power

    r = Fraction(1, 6)
    want = partition_power(r, 300, "triangular")
    assert all(type(c) is Fraction for c in want)
    for method in ("pentagonal", "direct"):
        assert partition_power(r, 300, method) == want


def test_roots_of_rational_bases_give_back_the_base():
    # bases with denominators, so the kernel rescales q by their lcm D > 1
    from pfecalc.identities import gamma_truncated_series, jtp_series

    J = jtp_series(Fraction(2, 3), 40)
    assert J.power(Fraction(1, 2)) * J.power(Fraction(1, 2)) == J
    cube_root = J.power(Fraction(1, 3))
    assert cube_root * cube_root * cube_root == J
    G = gamma_truncated_series(3, 30)
    root = G.power(Fraction(1, 2))
    assert _all_fractions(root)
    assert root * root == G
