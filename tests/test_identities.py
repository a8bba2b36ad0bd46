from fractions import Fraction
import random

import pytest

from pfecalc import identities
from pfecalc.series import TruncatedSeries


def head(name, n, **params):
    return identities.named_series(name, n, **params).coeffs


def test_partition_series_head():
    assert head("partition", 10) == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_pentagonal_series_head():
    assert head("pentagonal", 12) == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_jacobi_cube_head():
    assert head("jacobi_cube", 10) == (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9)


def test_distinct_and_overpartition_heads():
    assert head("distinct", 9) == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8)
    assert head("overpartition", 8) == (1, 2, 4, 8, 14, 24, 40, 64, 100)


def test_plane_partition_head():
    assert head("plane_partition", 8) == (1, 1, 3, 6, 13, 24, 48, 86, 160)


def test_colored_and_eta_power():
    assert head("colored", 6, r=2) == (1, 2, 5, 10, 20, 36, 65)
    # eta_power is the direct power of the Euler product: r = 1 recovers it
    assert head("eta_power", 12, r=1) == head("pentagonal", 12)
    assert head("eta_power", 6, r=-2) == head("colored", 6, r=2)


def test_phi_psi_jtp_heads():
    assert head("phi", 9) == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)
    assert head("psi", 10) == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)
    assert head("jtp", 4, z=2) == (1, Fraction(5, 2), 0, 0, Fraction(17, 4))
    with pytest.raises(ValueError):
        identities.jtp_series(0, 4)


def test_fibonacci_heads():
    assert head("fibonacci", 8) == (1, 1, 2, 3, 5, 8, 13, 21, 34)
    # squared generating function: convolved Fibonacci numbers
    f = identities.fibonacci_series(8)
    assert identities.named_series("fibonacci_power", 8, r=2) == f * f


def test_exp_series():
    s = head("exp", 4, a=2)
    assert s == (1, 2, 2, Fraction(4, 3), Fraction(2, 3))


def test_gap2_and_symmetric():
    assert head("gap2_partitions", 9) == (1, 1, 1, 1, 2, 2, 3, 3, 4, 5)
    # complete homogeneous sums of (1, 2): 1, 3, 7, 15, ...
    assert head("symmetric", 4, x=(1, 2)) == (1, 3, 7, 15, 31)


def test_truncated_product_series():
    sin_s = identities.sin_normalized_series(2, 3)
    # (1 - x)(1 - x/4) = 1 - 5x/4 + x^2/4
    assert sin_s.coeffs == (1, Fraction(-5, 4), Fraction(1, 4), 0)
    g = identities.gamma_truncated_series(3, 1)
    assert g.coeffs == (1, 0)  # the linear terms cancel by design


def test_named_series_unknown():
    with pytest.raises(ValueError):
        identities.named_series("no_such_series", 5)


def test_partition_power_methods_agree():
    for r in (Fraction(1), Fraction(-1), Fraction(5, 2), Fraction(-24)):
        direct = identities.partition_power(r, 40, method="direct")
        pent = identities.partition_power(r, 40, method="pentagonal")
        tri = identities.partition_power(r, 40, method="triangular")
        assert direct == pent == tri
    with pytest.raises(ValueError):
        identities.partition_power(1, 10, method="nope")


def test_tau_values():
    t = identities.tau(10)
    assert t[1:] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    with pytest.raises(ValueError):
        identities.tau(0)


def test_zeta_hat_values():
    A = identities.zeta_hat(5)
    assert A[1] == Fraction(1, 6)
    assert A[2] == Fraction(1, 90)
    assert A[3] == Fraction(1, 945)
    assert A[4] == Fraction(1, 9450)
    assert A[5] == Fraction(1, 93555)
    assert identities.zeta_hat(12) == identities.zeta_hat_bernoulli(12)


def test_gauss_g_values():
    g = identities.gauss_g(6)
    assert g[1:] == [2, -4, 8, -8, 12, -16]


def test_registry_defaults_all_pass():
    for key in identities.IDENTITY_KEYS:
        report = identities.verify(key)
        assert report.passed, report.describe()


def test_verify_unknown_key():
    with pytest.raises(ValueError):
        identities.verify("bogus")


def test_verify_rejects_parameters_its_check_does_not_take():
    with pytest.raises(ValueError, match="'euler_sigma' takes no parameter r, z$"):
        identities.verify("euler_sigma", z=Fraction(2), r=Fraction(1))
    assert identities.verify("pr_ps", N=5, Q=identities.phi_series(5)).passed


@pytest.mark.parametrize("N", [0, -3])
def test_verify_rejects_orders_below_one(N):
    for key in identities.IDENTITY_KEYS:
        with pytest.raises(ValueError, match="order must be a positive integer"):
            identities.verify(key, N=N)


def test_named_series_missing_parameter():
    with pytest.raises(ValueError, match="'jtp' needs the parameter z"):
        identities.named_series("jtp", 4)


def test_pr_ps_custom_series():
    rng = random.Random(9)
    Q = TruncatedSeries(
        [1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(30)]
    )
    report = identities.verify("pr_ps", N=30, r=Fraction(7, 3), s=Fraction(-2), Q=Q)
    assert report.passed, report.describe()
    with pytest.raises(ValueError):
        identities.verify("pr_ps", s=0)


def test_report_failure_carries_first_index():
    from pfecalc.report import check_all

    report = check_all("demo", 3, [(1, 1, 1), (2, 4, 4), (3, 9, 6)])
    assert not report
    assert report.first_failure == 3
    assert report.lhs == 9 and report.rhs == 6
    assert "FAIL" in report.describe()
    good = check_all("demo", 2, [(1, 2, 2), (2, 4, 4)])
    assert good and "pass" in good.describe()


def test_log_derivative_check_reports_the_first_failure():
    N = 12
    P = list(identities.partition_series(N).coeffs)
    P[7] += 1
    sigma1 = identities._sigma_series(1, N)
    report = identities._log_derivative_check("demo", N, sigma1, TruncatedSeries(P))
    assert (report.first_failure, report.lhs, report.rhs) == (7, 105, 112)


def test_power_check_reports_the_first_failure():
    N, r = 14, Fraction(5, 2)
    B = identities.partition_power(r, N)
    B[9] += Fraction(1, 3)
    Q = identities.pentagonal_series(N)
    report = identities._power_check("demo", N, Q, -r, TruncatedSeries(B))
    assert (report.first_failure, report.lhs, report.rhs) == (9, 3, 0)


def test_rational_power_identities_hold():
    assert identities.verify("fibonacci_power", N=20, r=Fraction(1, 2)).passed
    assert identities.verify("squares_rec", N=30, k=Fraction(3, 2)).passed
    assert identities.verify("triangular_rec", N=30, k=Fraction(-2)).passed


def test_moments_parameter():
    for m in (-2, -1, 0, 1, 2, 3):
        assert identities.verify("moments", N=60, m=m).passed
