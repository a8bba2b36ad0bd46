"""Named series generators and the registry of exact identity checks.

Every check is an equality of two series, compared bit-exactly in the
coefficients 1..N; a report carries the first failing index when one does
not hold.  The series are built with TruncatedSeries's `*`, the one Cauchy
product, which walks the sparser factor's nonzero terms and runs on int
while a value is integral.  Most checks are the log-derivative
g * P = sum n P(n) q^n or the two-power recurrence
n (Q B)(n) = (k+1) (jQ(j) * B)(n) that B = Q^k satisfies.
"""

import inspect
import math
from fractions import Fraction
from functools import lru_cache

from .arith import (
    mobius,
    pentagonal_sign,
    sigma,
    triangular_numbers,
    bernoulli,
)
from .series import TruncatedSeries
from .pfe import _invert, build_product_matrix, column_weight_sums, enumerate_pfe
from .report import check_all
from . import oracle


# ---------------------------------------------------------------------------
# named series


@lru_cache(maxsize=None)
def pentagonal_series(N):
    """(q;q)_inf: signs at the generalized pentagonal numbers."""
    return TruncatedSeries([pentagonal_sign(n) for n in range(N + 1)])


@lru_cache(maxsize=None)
def jacobi_cube_series(N):
    """(q;q)_inf^3: (-1)^k (2k+1) at the triangular numbers."""
    coeffs = [Fraction(0)] * (N + 1)
    for k, t in triangular_numbers(N):
        coeffs[t] = (-1) ** k * (2 * k + 1)
    return TruncatedSeries(coeffs)


@lru_cache(maxsize=None)
def phi_series(N):
    """1 + 2 q + 2 q^4 + 2 q^9 + ...: twos at the positive squares."""
    coeffs = [Fraction(0)] * (N + 1)
    coeffs[0] = Fraction(1)
    k = 1
    while k * k <= N:
        coeffs[k * k] = Fraction(2)
        k += 1
    return TruncatedSeries(coeffs)


@lru_cache(maxsize=None)
def psi_series(N):
    """Ones at the triangular numbers k(k+1)/2, k >= 0."""
    coeffs = [Fraction(0)] * (N + 1)
    for _, t in triangular_numbers(N):
        coeffs[t] = Fraction(1)
    return TruncatedSeries(coeffs)


def jtp_series(z, N):
    """1 + sum (z^k + z^-k) q^(k^2), the theta sum side."""
    z = Fraction(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    coeffs = [Fraction(0)] * (N + 1)
    coeffs[0] = Fraction(1)
    k = 1
    while k * k <= N:
        coeffs[k * k] = z ** k + z ** -k
        k += 1
    return TruncatedSeries(coeffs)


@lru_cache(maxsize=None)
def partition_series(N):
    """1/(q;q)_inf: the ordinary partition numbers."""
    return pentagonal_series(N).power(-1)


@lru_cache(maxsize=None)
def distinct_series(N):
    """(-q;q)_inf: partitions into distinct parts, via the enumeration engine."""
    m = build_product_matrix([(Fraction(-1), lambda k: Fraction(-1))], N)
    return TruncatedSeries(enumerate_pfe(m, N, with_freq=False).P)


@lru_cache(maxsize=None)
def overpartition_series(N):
    m = build_product_matrix(
        [(Fraction(-1), lambda k: Fraction(-1)), (Fraction(1), lambda k: Fraction(1))],
        N,
    )
    return TruncatedSeries(enumerate_pfe(m, N, with_freq=False).P)


@lru_cache(maxsize=None)
def plane_partition_series(N):
    """Parts in k colors for part size k: the plane partition numbers."""
    m = build_product_matrix([(Fraction(1), lambda k: Fraction(k))], N)
    return TruncatedSeries(enumerate_pfe(m, N, with_freq=False).P)


def colored_series(r, N):
    """Every part in r colors: 1/(q;q)_inf^r, rational r allowed."""
    return pentagonal_series(N).power(-Fraction(r))

def eta_power_series(r, N):
    """(q;q)_inf^r (no fractional-power prefactor; indexed from q^0)."""
    return pentagonal_series(N).power(Fraction(r))


@lru_cache(maxsize=None)
def fibonacci_series(N):
    """1/(1 - q - q^2): Fibonacci numbers 1, 1, 2, 3, 5, ..."""
    return TruncatedSeries([1, -1, -1], N).power(-1)


def fibonacci_power_series(r, N):
    return TruncatedSeries([1, -1, -1], N).power(-Fraction(r))


def exp_series(a, N):
    """Power series of e^(a q)."""
    a = Fraction(a)
    coeffs, term = [], Fraction(1)
    for n in range(N + 1):
        coeffs.append(term)
        term = term * a / (n + 1)
    return TruncatedSeries(coeffs)


def sin_normalized_series(m, N):
    """prod_{k=1..m} (1 - x/k^2), the finite sine-product truncation."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = TruncatedSeries([1], N)
    for k in range(1, m + 1):
        out = out * TruncatedSeries([1, Fraction(-1, k * k)], N)
    return out


def gamma_truncated_series(m, N):
    """prod_{k=1..m} (1 + x/k) e^(-x/k), the finite reciprocal-Gamma truncation."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = TruncatedSeries([1], N)
    for k in range(1, m + 1):
        factor = TruncatedSeries([1, Fraction(1, k)], N) * exp_series(Fraction(-1, k), N)
        out = out * factor
    return out


def gap2_series(N):
    """Counts of partitions whose parts differ pairwise by at least 2."""
    return TruncatedSeries(oracle.gap2_partition_counts(N))


def symmetric_series(xs, N):
    """prod_k 1/(1 - x_k q): complete homogeneous symmetric sums of the x's."""
    out = TruncatedSeries([1], N)
    for x in xs:
        x = Fraction(x)
        out = out * TruncatedSeries([x ** n for n in range(N + 1)])
    return out


_SERIES_BUILDERS = {
    "pentagonal": lambda N, p: pentagonal_series(N),
    "jacobi_cube": lambda N, p: jacobi_cube_series(N),
    "phi": lambda N, p: phi_series(N),
    "psi": lambda N, p: psi_series(N),
    "jtp": lambda N, p: jtp_series(p["z"], N),
    "partition": lambda N, p: partition_series(N),
    "distinct": lambda N, p: distinct_series(N),
    "overpartition": lambda N, p: overpartition_series(N),
    "plane_partition": lambda N, p: plane_partition_series(N),
    "colored": lambda N, p: colored_series(p["r"], N),
    "eta_power": lambda N, p: eta_power_series(p["r"], N),
    "fibonacci": lambda N, p: fibonacci_series(N),
    "fibonacci_power": lambda N, p: fibonacci_power_series(p["r"], N),
    "exp": lambda N, p: exp_series(p["a"], N),
    "sin_normalized": lambda N, p: sin_normalized_series(int(p["m"]), N),
    "gamma_truncated": lambda N, p: gamma_truncated_series(int(p["m"]), N),
    "gap2_partitions": lambda N, p: gap2_series(N),
    "symmetric": lambda N, p: symmetric_series(p["x"], N),
}

SERIES_NAMES = tuple(sorted(_SERIES_BUILDERS))


def named_series(name, order, **params):
    """Build one of the catalog series to the given truncation order."""
    try:
        builder = _SERIES_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown series name: {name!r}") from None
    try:
        return builder(order, params)
    except KeyError as exc:
        raise ValueError(f"series {name!r} needs the parameter {exc.args[0]}") from None


# ---------------------------------------------------------------------------
# powers of the partition generating function


def partition_power(r, N, method="triangular"):
    """Coefficients of the r-th power of 1/(q;q)_inf, as a list 0..N.

    method selects the base of the series-power recurrence, which runs over
    the base's nonzero support only: "triangular" takes the (-r/3)-th power
    of the Jacobi cube, "pentagonal" and "direct" the (-r)-th power of the
    Euler product.  All agree.
    """
    r = Fraction(r)
    if method in ("direct", "pentagonal"):
        return list(pentagonal_series(N).power(-r).coeffs)
    if method == "triangular":
        return list(jacobi_cube_series(N).power(-r / 3).coeffs)
    raise ValueError(f"unknown method: {method!r}")


def tau(N):
    """Ramanujan tau values as a list with tau[n] for 1 <= n <= N (tau[0] = 0)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    P = partition_power(-24, N - 1, method="pentagonal")
    return [Fraction(0)] + P


def zeta_hat(N):
    """zeta(2n)/pi^(2n) as exact rationals, for n = 1..N (index 0 unused).

    These are minus the column sums g of the sine product, whose coefficients
    c(n) = (-1)^n / (2n+1)! satisfy n c(n) = sum_{k<=n} g(k) c(n-k).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    c = [Fraction((-1) ** n, math.factorial(2 * n + 1)) for n in range(N + 1)]
    return [-Fraction(x) for x in _invert(c)]


def zeta_hat_bernoulli(N):
    """Independent values zeta(2n)/pi^(2n) = (-1)^(n+1) B_2n 4^n / (2 (2n)!)."""
    return [Fraction(0)] + [
        (-1) ** (n + 1) * bernoulli(2 * n) * 4 ** n / (2 * math.factorial(2 * n))
        for n in range(1, N + 1)
    ]


# ---------------------------------------------------------------------------
# identity verifiers


def _sigma_series(m, N):
    """sigma_m(1..N) as a series with constant term 0."""
    return TruncatedSeries([0] + [sigma(m, n) for n in range(1, N + 1)])


def _series_check(name, N, lhs, rhs):
    """Check that two series agree in the coefficients 1..N."""
    return check_all(name, N, ((n, lhs[n], rhs[n]) for n in range(1, N + 1)))


def _log_derivative_check(name, N, g, P):
    """Check g * P = n P(n), i.e. sum_{k<=n} g(k) P(n-k) = n P(n); g(0) = 0."""
    return _series_check(name, N, g * P, P.weighted())


def _power_check(name, N, Q, k, B):
    """Check sum_j (n - (k+1) j) Q(j) B(n-j) = 0 for 1 <= n <= N.

    This is the two-power recurrence that B = Q^k satisfies when Q(0) = 1:
    n (Q B)(n) = (k+1) (jQ(j) * B)(n).
    """
    lhs = (Q * B).weighted() - (k + 1) * (Q.weighted() * B)
    return _series_check(name, N, lhs, TruncatedSeries([0], N))


def _verify_euler_sigma(N):
    g = -_sigma_series(1, N)
    return _log_derivative_check("euler_sigma", N, g, pentagonal_series(N))


def _verify_ramanujan_partition(N):
    g = _sigma_series(1, N)
    return _log_derivative_check("ramanujan_partition", N, g, partition_series(N))


def _verify_plane_partition(N):
    g = _sigma_series(2, N)
    return _log_derivative_check("plane_partition", N, g, plane_partition_series(N))


def _verify_colored(N, r):
    r = Fraction(r)
    g = r * _sigma_series(1, N)
    return _log_derivative_check("colored", N, g, colored_series(r, N))


def _verify_moments(N, m):
    S = _sigma_series(m, N)
    rhs = pentagonal_series(N) * (S * partition_series(N))
    return _series_check(f"moments[m={m}]", N, S, rhs)


def _partition_enumeration(N):
    m = build_product_matrix([(Fraction(1), lambda k: Fraction(1))], N)
    return enumerate_pfe(m, N)


def _verify_frequency_indicator(N, kmax):
    result = _partition_enumeration(N)
    Q = pentagonal_series(N)

    def pairs():
        for k in range(1, kmax + 1):
            lhs = Q * TruncatedSeries([result.freq(k, n) for n in range(N + 1)])
            for n in range(1, N + 1):
                yield (n, k), lhs[n], Fraction(1 if n % k == 0 else 0)

    return check_all(f"frequency_indicator[k<={kmax}]", N, pairs())


def _verify_mu_frequency(N):
    result = _partition_enumeration(N)
    lhs = [0] * (N + 1)
    for row, Fk in zip(result.rows, result._tables[1]):
        mu = mobius(row.step)
        if mu:
            lhs = [x + mu * f for x, f in zip(lhs, Fk)]
    return _series_check("mu_frequency", N, lhs, (0,) + result.P)


def _verify_ewell(N):
    J = jacobi_cube_series(N)
    rhs = J.weighted() * Fraction(-1, 3)
    return _series_check("ewell", N, _sigma_series(1, N) * J, rhs)


def _verify_sigma_convolution(N):
    S = _sigma_series(1, N)
    rhs = -(pentagonal_series(N).weighted() * partition_series(N).weighted())
    return _series_check("sigma_convolution", N, S * S, rhs)


def _verify_zeta_rec(N):
    return _series_check("zeta_rec", N, zeta_hat(N), zeta_hat_bernoulli(N))


def _verify_pr_ps(N, r, s, Q=None):
    r, s = Fraction(r), Fraction(s)
    if s == 0:
        raise ValueError("s must be nonzero")
    Q = partition_series(N) if Q is None else Q.truncate(N)
    Ps = Q.power(s)
    return _power_check(f"pr_ps[r={r},s={s}]", N, Ps, r / s, Q.power(r))


def _verify_lehmer_gen(N, r):
    r = Fraction(r)
    P = TruncatedSeries(partition_power(r, N, method="direct"))
    return _power_check(f"lehmer_gen[r={r}]", N, pentagonal_series(N), -r, P)


def _verify_ramanujan_gen(N, r):
    r = Fraction(r)
    P = TruncatedSeries(partition_power(r, N, method="direct"))
    return _power_check(f"ramanujan_gen[r={r}]", N, jacobi_cube_series(N), -r / 3, P)


def _verify_fibonacci_power(N, r):
    r = Fraction(r)
    f = fibonacci_power_series(r, N)
    Q = TruncatedSeries([1, -1, -1], N)
    return _power_check(f"fibonacci_power[r={r}]", N, Q, -r, f)


def _verify_squares_rec(N, k):
    k = Fraction(k)
    phi = phi_series(N)
    return _power_check(f"squares_rec[k={k}]", N, phi, k, phi.power(k))


def _verify_triangular_rec(N, k):
    k = Fraction(k)
    psi = psi_series(N)
    return _power_check(f"triangular_rec[k={k}]", N, psi, k, psi.power(k))


def _verify_jtp_power_rec(N, r, z):
    r, z = Fraction(r), Fraction(z)
    J = jtp_series(z, N)
    return _power_check(f"jtp_power_rec[r={r},z={z}]", N, J, r, J.power(r))


def gauss_g(N):
    """The divisor-type column sums of the theta product, as a list 0..N.

    g(2m-1) = 2*sigma1(2m-1); g(2m) = -2*sigma1(2m) + 2*sigma1(m).
    """
    s = _sigma_series(1, N)
    return [Fraction(0)] + [
        2 * s[n] if n % 2 else 2 * (s[n // 2] - s[n]) for n in range(1, N + 1)
    ]


def theta_product_matrix(z, N):
    """Matrix of (q^2;q^2)_inf (-zq;q^2)_inf (-q/z;q^2)_inf in q-steps."""
    z = Fraction(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    even = lambda k: Fraction(-1) if k % 2 == 0 else Fraction(0)
    odd = lambda k: Fraction(-1) if k % 2 == 1 else Fraction(0)
    return build_product_matrix([(Fraction(1), even), (-z, odd), (-1 / z, odd)], N)


def _verify_gauss_g(N):
    g = gauss_g(N)
    m = theta_product_matrix(Fraction(1), N)
    g_from_matrix = column_weight_sums(m, lambda k: Fraction(k), N)
    phi = phi_series(N)
    rec = TruncatedSeries(g) * phi

    def pairs():
        for n in range(1, N + 1):
            yield ("g", n), g[n], g_from_matrix[n]
        for n in range(1, N + 1):
            yield ("rec", n), rec[n], n * phi[n]

    return check_all("gauss_g", N, pairs())


def _verify_newton_symmetric(N, x):
    xs = [Fraction(v) for v in x]
    p = TruncatedSeries([0] + [sum(v ** k for v in xs) for k in range(1, N + 1)])
    return _log_derivative_check("newton_symmetric", N, p, symmetric_series(xs, N))


def _verify_sin_truncated(N, m):
    m = int(m)
    g = TruncatedSeries([0] + [
        -sum(Fraction(1, i ** (2 * n)) for i in range(1, m + 1))
        for n in range(1, N + 1)
    ])
    P = sin_normalized_series(m, N)
    return _log_derivative_check(f"sin_truncated[m={m}]", N, g, P)


def _verify_gamma_truncated(N, m):
    m = int(m)
    g = TruncatedSeries([0, 0] + [
        (-1) ** (n - 1) * sum(Fraction(1, i ** n) for i in range(1, m + 1))
        for n in range(2, N + 1)
    ])
    P = gamma_truncated_series(m, N)
    return _log_derivative_check(f"gamma_truncated[m={m}]", N, g, P)


_REGISTRY = {
    "euler_sigma": (_verify_euler_sigma, {"N": 200}),
    "ramanujan_partition": (_verify_ramanujan_partition, {"N": 200}),
    "plane_partition": (_verify_plane_partition, {"N": 100}),
    "colored": (_verify_colored, {"N": 80, "r": Fraction(3)}),
    "moments": (_verify_moments, {"N": 100, "m": 2}),
    "frequency_indicator": (_verify_frequency_indicator, {"N": 60, "kmax": 8}),
    "mu_frequency": (_verify_mu_frequency, {"N": 100}),
    "ewell": (_verify_ewell, {"N": 200}),
    "sigma_convolution": (_verify_sigma_convolution, {"N": 150}),
    "zeta_rec": (_verify_zeta_rec, {"N": 30}),
    "pr_ps": (_verify_pr_ps, {"N": 40, "r": Fraction(5, 2), "s": Fraction(-3)}),
    "lehmer_gen": (_verify_lehmer_gen, {"N": 100, "r": Fraction(-24)}),
    "ramanujan_gen": (_verify_ramanujan_gen, {"N": 100, "r": Fraction(-24)}),
    "fibonacci_power": (_verify_fibonacci_power, {"N": 60, "r": Fraction(2)}),
    "squares_rec": (_verify_squares_rec, {"N": 100, "k": 4}),
    "triangular_rec": (_verify_triangular_rec, {"N": 100, "k": 4}),
    "jtp_power_rec": (_verify_jtp_power_rec, {"N": 60, "r": Fraction(2), "z": Fraction(2)}),
    "gauss_g": (_verify_gauss_g, {"N": 150}),
    "newton_symmetric": (
        _verify_newton_symmetric,
        {"N": 30, "x": (Fraction(1), Fraction(-1, 2), Fraction(3))},
    ),
    "sin_truncated": (_verify_sin_truncated, {"N": 12, "m": 100}),
    "gamma_truncated": (_verify_gamma_truncated, {"N": 12, "m": 100}),
}

IDENTITY_KEYS = tuple(sorted(_REGISTRY))


def _lookup(key):
    """The check registered as key, its defaults and the names of its parameters."""
    try:
        fn, defaults = _REGISTRY[key]
    except KeyError:
        raise ValueError(f"unknown identity key: {key!r}") from None
    return fn, defaults, set(inspect.signature(fn).parameters)


def verify(key, N=None, **params):
    """Run one registered identity check; a bad key, parameter or N is a ValueError."""
    fn, defaults, names = _lookup(key)
    unknown = sorted(set(params) - names)
    if unknown:
        raise ValueError(f"identity {key!r} takes no parameter {', '.join(unknown)}")
    kwargs = dict(defaults)
    kwargs.update(params)
    if N is not None:
        kwargs["N"] = N
    if kwargs["N"] < 1:
        raise ValueError(f"order must be a positive integer, got {kwargs['N']}")
    return fn(**kwargs)
