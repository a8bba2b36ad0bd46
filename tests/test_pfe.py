import dataclasses
from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from pfecalc import oracle, pfe
from pfecalc.arith import demote, mobius
from pfecalc.pfe import (
    CombinedRow,
    EnumerationError,
    ExplicitRow,
    PfeMatrix,
    ProductRow,
    build_product_matrix,
    collapse_form1,
    column_weight_sums,
    enumerate_pfe,
    frequency_row_check,
    g_to_pfe,
    series_to_pfe,
    verify_divisor_sum,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]


def all_ones_matrix(N):
    return build_product_matrix([(Fraction(1), lambda k: Fraction(1))], N)


def random_exponents(rng, N, allow_zero=True):
    lo = 0 if allow_zero else 1
    out = [Fraction(0)]
    for _ in range(N):
        num = rng.randint(-5, 5)
        if not allow_zero and num == 0:
            num = 1
        out.append(Fraction(num, rng.randint(1, 4)))
    return out


def test_product_row_entries():
    row = ProductRow(step=3, b=Fraction(2), z=Fraction(1, 2))
    assert row.entry(3) == 1
    assert row.entry(6) == Fraction(1, 2)
    assert row.entry(4) == 0
    assert row.entry(0) == 0


def test_row_validation():
    with pytest.raises(ValueError):
        ProductRow(step=0, b=Fraction(1), z=Fraction(1))
    with pytest.raises(ValueError):
        ProductRow(step=1, b=Fraction(1), z=Fraction(0))
    with pytest.raises(ValueError):
        ExplicitRow(step=1, entries={0: Fraction(1)})


def test_negative_order_is_rejected():
    with pytest.raises(ValueError, match="got -1"):
        build_product_matrix([(1, lambda k: 1)], -1)
    with pytest.raises(ValueError, match="got -2"):
        enumerate_pfe(all_ones_matrix(3), -2)
    assert enumerate_pfe(all_ones_matrix(3), 0).P == (1,)


def test_form1_requires_distinct_steps():
    rows = (
        ProductRow(step=1, b=Fraction(1), z=Fraction(1)),
        ProductRow(step=1, b=Fraction(1), z=Fraction(-1)),
    )
    with pytest.raises(ValueError):
        PfeMatrix(rows=rows, layout=pfe.FORM1)
    PfeMatrix(rows=rows, layout=pfe.FORM2)  # fine interleaved


def test_all_ones_enumeration_gives_partition_numbers():
    N = 15
    result = enumerate_pfe(all_ones_matrix(N), N)
    assert list(result.P) == PARTITION_COUNTS


def test_worked_small_frequencies():
    result = enumerate_pfe(all_ones_matrix(6), 6)
    assert result.freq(1, 2) == 2
    assert result.freq(2, 2) == 1
    assert result.freq(1, 3) == 4
    assert result.freq(2, 3) == 1
    assert result.freq(3, 3) == 1


def test_form_layouts_agree():
    rng = random.Random(21)
    N = 18
    factors = [
        (Fraction(-1), random_exponents(rng, N)),
        (Fraction(1, 2), random_exponents(rng, N)),
    ]
    m2 = build_product_matrix(factors, N)
    m1 = collapse_form1(m2)
    assert m1.layout == pfe.FORM1
    assert len(m1.rows) == N
    r2 = enumerate_pfe(m2, N)
    r1 = enumerate_pfe(m1, N)
    assert r1.P == r2.P
    for k in range(1, N + 1):
        for n in range(N + 1):
            assert r1.freq(k, n) == r2.freq(k, n)


def test_collapse_mixed_rows_rejected():
    rows = (
        ProductRow(step=2, b=Fraction(1), z=Fraction(1)),
        ExplicitRow(step=2, entries={2: Fraction(1)}),
    )
    with pytest.raises(ValueError):
        collapse_form1(PfeMatrix(rows=rows))


def test_collapse_merges_explicit_rows():
    rows = (
        ExplicitRow(step=2, entries={2: Fraction(1), 4: Fraction(3)}),
        ExplicitRow(step=2, entries={4: Fraction(-3), 6: Fraction(5)}),
    )
    m1 = collapse_form1(PfeMatrix(rows=rows))
    (row,) = m1.rows
    assert row.entries == {2: Fraction(1), 4: Fraction(0), 6: Fraction(5)}


def test_enumeration_error_on_vanishing_v():
    m = all_ones_matrix(5)
    with pytest.raises(EnumerationError, match="V\\(3\\)"):
        enumerate_pfe(m, 5, V=lambda n: n - 3)


def test_custom_weights():
    # U = 0 kills every column sum, so P stays (1, 0, 0, ...)
    m = all_ones_matrix(6)
    result = enumerate_pfe(m, 6, U=lambda row: 0)
    assert result.P == (1, 0, 0, 0, 0, 0, 0)


def test_distinct_parts_frequency_recursion():
    # for the distinct-parts product, F_k(n) = P(n-k) - F_k(n-k)
    N = 20
    m = build_product_matrix([(Fraction(-1), lambda k: Fraction(-1))], N)
    result = enumerate_pfe(m, N)
    for k in range(1, N + 1):
        for n in range(k, N + 1):
            prev = result.freq(k, n - k) if n - k >= 0 else Fraction(0)
            assert result.freq(k, n) == result.P[n - k] - prev


def test_odd_parts_even_frequencies_vanish():
    N = 16
    b = lambda k: Fraction(1) if k % 2 else Fraction(0)
    result = enumerate_pfe(build_product_matrix([(Fraction(1), b)], N), N)
    for k in range(2, N + 1, 2):
        assert all(result.freq(k, n) == 0 for n in range(N + 1))
    # and the sequence is the odd-parts partition counts
    assert result.P[:9] == (1, 1, 1, 2, 2, 3, 4, 5, 6)


def test_series_to_pfe_roundtrip():
    rng = random.Random(33)
    N = 40
    for z in (Fraction(1), Fraction(-1), Fraction(1, 2)):
        b = random_exponents(rng, N)
        m = build_product_matrix([(z, b)], N)
        result = enumerate_pfe(m, N)
        got_b, got_F = series_to_pfe(list(result.P), z=z)
        assert got_b == b
        for k in range(1, N + 1):
            for n in range(N + 1):
                assert got_F[k][n] == result.freq(k, n)


def test_series_to_pfe_validation():
    with pytest.raises(ValueError):
        series_to_pfe([2, 1])
    with pytest.raises(ValueError):
        series_to_pfe([1, 1], z=0)


def test_g_to_pfe_roundtrip_with_column_sums():
    rng = random.Random(34)
    N = 25
    b = random_exponents(rng, N)
    m = build_product_matrix([(Fraction(1), b)], N)
    result = enumerate_pfe(m, N)
    g = column_weight_sums(m, lambda k: Fraction(k), N)
    got_b, got_P, got_F = g_to_pfe(g)
    assert got_b == b
    assert got_P == list(result.P)
    for k in range(1, N + 1):
        for n in range(N + 1):
            assert got_F[k][n] == result.freq(k, n)


def test_g_to_pfe_exponential():
    # g is integral, but P(n) = 1/n! and b_n = mu(n)/n are not
    N = 12
    g = [0, 1] + [0] * (N - 1)
    b, P, _ = g_to_pfe(g)
    fact = 1
    for n in range(1, N + 1):
        fact *= n
        assert P[n] == Fraction(1, fact)
        assert b[n] == Fraction(mobius(n), n)
    assert _all_fractions(b, P)


def _all_fractions(*sequences):
    return all(type(x) is Fraction for seq in sequences for x in seq)


@pytest.mark.parametrize("z", [Fraction(1), Fraction(-1), Fraction(1, 2)])
@pytest.mark.parametrize("den", [1, 3])
def test_outputs_are_fractions_for_integer_and_rational_specs(z, den):
    N = 12
    b = [0] + [Fraction(k % 3 - 1, den) for k in range(1, N + 1)]
    m = build_product_matrix([(z, b), (1, lambda k: 1)], N)
    result = enumerate_pfe(m, N)
    assert _all_fractions(result.P, *result.F)
    assert _all_fractions(column_weight_sums(m, list(range(N + 1)), N))
    one_factor = enumerate_pfe(build_product_matrix([(z, b)], N), N)
    got_b, got_F = series_to_pfe(list(one_factor.P), z)
    assert got_b[1:] == b[1:]
    assert _all_fractions(got_b, *got_F)
    got_b, got_P, got_F = g_to_pfe(column_weight_sums(m, lambda k: k, N))
    assert got_P == list(result.P)
    assert _all_fractions(got_b, got_P, *got_F)


_Z = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])
_ORACLE_N = 7
_EXPONENTS = st.one_of(
    st.lists(st.integers(-3, 3), min_size=_ORACLE_N, max_size=_ORACLE_N),
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=_ORACLE_N, max_size=_ORACLE_N),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_Z, _EXPONENTS), min_size=1, max_size=2))
def test_integer_and_rational_specs_match_the_oracle(spec):
    N = _ORACLE_N
    factors = [(z, [0] + b) for z, b in spec]
    result = enumerate_pfe(build_product_matrix(factors, N), N)
    assert list(result.P) == list(oracle.brute_expand(factors, N).coeffs)
    assert _all_fractions(result.P, *result.F)
    if len(factors) > 1:
        return
    [(z, b)] = factors
    for k in range(1, N + 1):
        assert [result.freq(k, n) for n in range(N + 1)] == [
            oracle.f_direct(k, n, b, z) for n in range(N + 1)
        ]
    got_b, got_F = series_to_pfe(list(result.P), z)
    assert got_b == [Fraction(x) for x in b]
    for k in range(1, N + 1):
        assert got_F[k] == [result.freq(k, n) for n in range(N + 1)]


def test_verify_divisor_sum():
    rng = random.Random(35)
    N = 20
    factors = [(Fraction(1), random_exponents(rng, N)), (Fraction(-1), random_exponents(rng, N))]
    m = build_product_matrix(factors, N)
    result = enumerate_pfe(m, N)
    f = [Fraction(0)] + [Fraction(rng.randint(-3, 3)) for _ in range(N)]
    report = verify_divisor_sum(m, lambda k: f[k], result, N)
    assert report.passed, report.describe()


def test_frequency_row_check():
    N = 20
    b = [Fraction(0)] + [Fraction(k % 3 - 1) for k in range(1, N + 1)]
    m = build_product_matrix([(Fraction(1, 2), b)], N)
    result = enumerate_pfe(m, N)
    for k in (1, 2, 3, 7):
        report = frequency_row_check(m, k, result, N)
        assert report.passed, report.describe()
    # no row at that step: vacuously true
    assert frequency_row_check(m, N + 5, result, N).passed


def _literal_enumeration(rows, N, U, V):
    """The module docstring's two equations, evaluated as written."""
    P = [Fraction(1)] + [Fraction(0)] * N
    F = [[Fraction(0)] * (N + 1) for _ in rows]
    for n in range(1, N + 1):
        for i, row in enumerate(rows):
            F[i][n] = sum(row.entry(j) * P[n - j] for j in range(1, n + 1))
        P[n] = sum(U(row) * F[i][n] for i, row in enumerate(rows)) / Fraction(V(n))
    return P, F


def _random_rational(rng, nonzero=False):
    num = rng.choice([-3, -2, -1, 1, 2, 3]) if nonzero else rng.randint(-3, 3)
    return Fraction(num, rng.randint(1, 3))


def _random_mixed_matrix(rng, N):
    rows = []
    for k in range(1, N + 3):  # a few steps past N, which enumeration drops
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice(("product", "combined", "explicit"))
            if kind == "product":
                b, z = _random_rational(rng), _random_rational(rng, True)
                rows.append(ProductRow(k, b, z))
            elif kind == "combined":
                parts = tuple(
                    (_random_rational(rng), _random_rational(rng, True))
                    for _ in range(rng.randint(2, 3))
                )
                rows.append(CombinedRow(step=k, parts=parts))
            else:
                cols = rng.sample(range(1, N + 4), rng.randint(1, 4))
                rows.append(ExplicitRow(k, {j: _random_rational(rng) for j in cols}))
    return PfeMatrix(rows=tuple(rows))


def test_mixed_rows_with_custom_weights_match_the_literal_equations():
    rng = random.Random(36)
    N = 14
    weightings = [
        (None, None),
        (lambda row: row.step % 3 - 1, lambda n: 2 * n - 1),
        (lambda row: Fraction(1, row.step), lambda n: Fraction(n * n, 3)),
    ]
    for _ in range(6):
        m = _random_mixed_matrix(rng, N)
        for U, V in weightings:
            result = enumerate_pfe(m, N, U=U, V=V)
            P, F = _literal_enumeration(
                m.rows, N, U or (lambda row: row.step), V or (lambda n: n)
            )
            assert list(result.P) == P
            literal = {id(row): f for row, f in zip(m.rows, F)}
            assert [list(f) for f in result.F] == [literal[id(r)] for r in result.rows]
            assert all(isinstance(x, Fraction) for f in result.F for x in f)
            assert enumerate_pfe(m, N, U=U, V=V, with_freq=False).P == result.P


def test_product_specs_match_the_oracle():
    rng = random.Random(37)
    N = 10
    for z in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        b = random_exponents(rng, N)
        result = enumerate_pfe(build_product_matrix([(z, b)], N), N)
        for n in range(N + 1):
            assert result.P[n] == oracle.p_direct(n, b, z)
            for k in range(1, N + 1):
                assert result.freq(k, n) == oracle.f_direct(k, n, b, z)


def _demoted_copy(result):
    F = None if result.F is None else [[demote(x) for x in Fi] for Fi in result.F]
    return [demote(x) for x in result.P], F


def test_seeded_tables_equal_a_fresh_demotion():
    rng = random.Random(38)
    N = 12
    matrices = [_random_mixed_matrix(rng, N) for _ in range(4)]
    for z, den in ((Fraction(1), 1), (Fraction(-1, 2), 3)):
        b = [0] + [Fraction(rng.randint(-3, 3), den) for _ in range(N)]
        matrices.append(build_product_matrix([(z, b), (1, lambda k: 1)], N))
        matrices.append(collapse_form1(matrices[-1]))
    for m in matrices:
        for with_freq in (True, False):
            result = enumerate_pfe(m, N, with_freq=with_freq)
            assert "_tables" in vars(result)  # seeded, not computed on first read
            assert result._tables == _demoted_copy(result)
            assert dataclasses.replace(result)._tables == _demoted_copy(result)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.P = ()


def _bump(table, i, n):
    """table with 1 added at [i][n], as a tuple of tuples."""
    rows = [list(row) for row in table]
    rows[i][n] += 1
    return tuple(tuple(row) for row in rows)


def test_checkers_read_the_fields_of_a_rebuilt_result():
    N = 12
    b = [0] + [Fraction(k % 3 + 1) for k in range(1, N + 1)]
    m = build_product_matrix([(Fraction(1), b)], N)
    result = enumerate_pfe(m, N)
    f = lambda k: k
    assert verify_divisor_sum(m, f, result, N).passed
    assert all(frequency_row_check(m, k, result, N).passed for k in range(1, N + 1))
    k, n = 3, 7  # rows[k - 1] is the row at step k
    bad_F = dataclasses.replace(result, F=_bump(result.F, k - 1, n))
    assert verify_divisor_sum(m, f, bad_F, N).first_failure == n
    assert frequency_row_check(m, k, bad_F, N).first_failure == n
    bad_P = dataclasses.replace(result, P=_bump([result.P], 0, n)[0])
    # P(n) enters the left side at n + 1, through g(1) P(n)
    assert verify_divisor_sum(m, f, bad_P, N).first_failure == n + 1
    # and the row recurrence at step k at n + k
    assert frequency_row_check(m, k, bad_P, N).first_failure == n + k
    assert verify_divisor_sum(m, f, result, N).passed  # the original is untouched


def test_integral_fraction_cells_next_to_equal_ints_are_fractions():
    # U = 0 on the explicit row keeps P the partition numbers, so its cells
    # (1/2) P(n - 2) are integral Fractions wherever P(n - 2) is even, next
    # to the product row's int cells
    N = 10
    explicit = ExplicitRow(step=1, entries={2: Fraction(1, 2)})
    products = all_ones_matrix(N).rows
    U = lambda row: 0 if row is explicit else row.step
    for rows in ((explicit, *products), (*products, explicit)):
        result = enumerate_pfe(PfeMatrix(rows=rows), N, U=U)
        cells = [x for Fi in result._tables[1] for x in Fi]
        integral = {x for x in cells if type(x) is Fraction and x.denominator == 1}
        assert integral & {x for x in cells if type(x) is int}
        P, F = _literal_enumeration(rows, N, U, lambda n: n)
        assert list(result.P) == P
        assert [list(Fi) for Fi in result.F] == F
        assert _all_fractions(result.P, *result.F)
