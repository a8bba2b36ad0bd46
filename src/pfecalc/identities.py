"""Named series generators and the registry of exact identity checks.

Every check is coefficientwise over a finite window and bit-exact; a report
carries the first failing index when something does not hold.
"""

import inspect
import math
from fractions import Fraction
from functools import lru_cache

from .arith import (
    generalized_pentagonals,
    mobius,
    pentagonal_sign,
    sigma,
    triangular_numbers,
    bernoulli,
)
from .series import TruncatedSeries, power_rational
from .pfe import build_product_matrix, column_weight_sums, enumerate_pfe
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
    return power_rational(pentagonal_series(N), -1)


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
    return power_rational(pentagonal_series(N), -Fraction(r))

def eta_power_series(r, N):
    """(q;q)_inf^r (no fractional-power prefactor; indexed from q^0)."""
    return power_rational(pentagonal_series(N), Fraction(r))


@lru_cache(maxsize=None)
def fibonacci_series(N):
    """1/(1 - q - q^2): Fibonacci numbers 1, 1, 2, 3, 5, ..."""
    return power_rational(TruncatedSeries([1, -1, -1], N), -1)


def fibonacci_power_series(r, N):
    return power_rational(TruncatedSeries([1, -1, -1], N), -Fraction(r))


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
        return list(power_rational(pentagonal_series(N), -r).coeffs)
    if method == "triangular":
        return list(power_rational(jacobi_cube_series(N), -r / 3).coeffs)
    raise ValueError(f"unknown method: {method!r}")


def tau(N):
    """Ramanujan tau values as a list with tau[n] for 1 <= n <= N (tau[0] = 0)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    P = partition_power(-24, N - 1, method="pentagonal")
    return [Fraction(0)] + P


def zeta_hat(N):
    """zeta(2n)/pi^(2n) as exact rationals, for n = 1..N (index 0 unused)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    A = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        total = Fraction((-1) ** (n + 1) * n, math.factorial(2 * n + 1))
        for k in range(1, n):
            total += Fraction((-1) ** (k + 1), math.factorial(2 * k + 1)) * A[n - k]
        A[n] = total
    return A


def zeta_hat_bernoulli(N):
    """Independent values zeta(2n)/pi^(2n) = (-1)^(n+1) B_2n 4^n / (2 (2n)!)."""
    return [Fraction(0)] + [
        (-1) ** (n + 1) * bernoulli(2 * n) * 4 ** n / (2 * math.factorial(2 * n))
        for n in range(1, N + 1)
    ]


# ---------------------------------------------------------------------------
# identity verifiers


def _sigma1(n):
    return sigma(1, n)


def _log_derivative_pairs(N, g, P):
    for n in range(1, N + 1):
        yield n, sum(g[k] * P[n - k] for k in range(1, n + 1)), n * P[n]


def _log_derivative_check(name, N, g, P):
    """Check sum_{k<=n} g(k) P(n-k) = n P(n) for 1 <= n <= N."""
    return check_all(name, N, _log_derivative_pairs(N, g, P))


def _power_check(name, N, Q, k, B):
    """Check sum_{Q(j) != 0} (n - (k+1) j) Q(j) B(n-j) = 0 for 1 <= n <= N.

    This is the two-power recurrence that B = Q^k satisfies when Q(0) = 1.
    """
    k = Fraction(k)
    support = [(j, Q[j]) for j in range(N + 1) if Q[j]]

    def pairs():
        for n in range(1, N + 1):
            total = sum((n - (k + 1) * j) * q * B[n - j] for j, q in support if j <= n)
            yield n, total, Fraction(0)

    return check_all(name, N, pairs())


def _sign(j):
    # parity sign that stays an int for negative j, unlike (-1) ** j
    return -1 if j % 2 else 1


def _verify_euler_sigma(N):
    pents = generalized_pentagonals(N)

    def pairs():
        for n in range(1, N + 1):
            lhs = Fraction(0)
            for j, g in pents:
                if g < n:
                    lhs += -_sign(j) * _sigma1(n - g)
            yield n, lhs, n * pentagonal_sign(n)

    return check_all("euler_sigma", N, pairs())


def _verify_ramanujan_partition(N):
    g = [0] + [_sigma1(k) for k in range(1, N + 1)]
    return _log_derivative_check("ramanujan_partition", N, g, partition_series(N))


def _verify_plane_partition(N):
    g = [0] + [sigma(2, k) for k in range(1, N + 1)]
    return _log_derivative_check("plane_partition", N, g, plane_partition_series(N))


def _verify_colored(N, r):
    r = Fraction(r)
    g = [0] + [r * _sigma1(k) for k in range(1, N + 1)]
    return _log_derivative_check("colored", N, g, colored_series(r, N))


def _verify_moments(N, m):
    p = partition_series(N)
    M = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        M[n] = sum(sigma(m, d) * p[n - d] for d in range(1, n + 1))
    pents = generalized_pentagonals(N)

    def pairs():
        for n in range(1, N + 1):
            rhs = sum(_sign(j) * M[n - g] for j, g in pents if g <= n)
            yield n, Fraction(sigma(m, n)), rhs

    return check_all(f"moments[m={m}]", N, pairs())


def _partition_enumeration(N):
    m = build_product_matrix([(Fraction(1), lambda k: Fraction(1))], N)
    return enumerate_pfe(m, N)


def _verify_frequency_indicator(N, kmax):
    result = _partition_enumeration(N)
    pents = generalized_pentagonals(N)

    def pairs():
        for k in range(1, kmax + 1):
            for n in range(1, N + 1):
                lhs = Fraction(0)
                for j, g in pents:
                    if g <= n:
                        lhs += _sign(j) * result.freq(k, n - g)
                yield (n, k), lhs, Fraction(1 if n % k == 0 else 0)

    return check_all(f"frequency_indicator[k<={kmax}]", N, pairs())


def _verify_mu_frequency(N):
    result = _partition_enumeration(N)
    P = result.P

    def pairs():
        for n in range(1, N + 1):
            lhs = sum(mobius(k) * result.freq(k, n) for k in range(1, n + 1))
            yield n, lhs, P[n - 1]

    return check_all("mu_frequency", N, pairs())


def _verify_ewell(N):
    tris = triangular_numbers(N)

    def pairs():
        for n in range(1, N + 1):
            lhs = Fraction(0)
            for k, t in tris:
                if t < n:
                    lhs += (-1) ** k * (2 * k + 1) * _sigma1(n - t)
            rhs = Fraction(0)
            for k, t in tris:
                if t == n:
                    rhs = Fraction((-1) ** (k + 1) * k * (k + 1) * (2 * k + 1), 6)
            yield n, lhs, rhs

    return check_all("ewell", N, pairs())


def _verify_sigma_convolution(N):
    p = partition_series(N)
    pents = generalized_pentagonals(N)

    def pairs():
        for n in range(1, N + 1):
            lhs = sum(_sigma1(k) * _sigma1(n - k) for k in range(1, n))
            rhs = Fraction(0)
            for j, g in pents:
                if g <= n:
                    rhs += -_sign(j) * (n - g) * g * p[n - g]
            yield n, Fraction(lhs), rhs

    return check_all("sigma_convolution", N, pairs())


def _verify_zeta_rec(N):
    got = zeta_hat(N)
    want = zeta_hat_bernoulli(N)
    return check_all(
        "zeta_rec", N, ((n, got[n], want[n]) for n in range(1, N + 1))
    )


def _verify_pr_ps(N, r, s, Q=None):
    r, s = Fraction(r), Fraction(s)
    if s == 0:
        raise ValueError("s must be nonzero")
    Q = partition_series(N) if Q is None else Q.truncate(N)
    Ps = power_rational(Q, s)
    return _power_check(f"pr_ps[r={r},s={s}]", N, Ps, r / s, power_rational(Q, r))


def _verify_lehmer_gen(N, r):
    r = Fraction(r)
    P = partition_power(r, N, method="direct")
    return _power_check(f"lehmer_gen[r={r}]", N, pentagonal_series(N), -r, P)


def _verify_ramanujan_gen(N, r):
    r = Fraction(r)
    P = partition_power(r, N, method="direct")
    return _power_check(f"ramanujan_gen[r={r}]", N, jacobi_cube_series(N), -r / 3, P)


def _verify_fibonacci_power(N, r):
    r = Fraction(r)
    f = fibonacci_power_series(r, N)
    Q = TruncatedSeries([1, -1, -1], N)
    return _power_check(f"fibonacci_power[r={r}]", N, Q, -r, f)


def _verify_squares_rec(N, k):
    k = Fraction(k)
    phi = phi_series(N)
    return _power_check(f"squares_rec[k={k}]", N, phi, k, power_rational(phi, k))


def _verify_triangular_rec(N, k):
    k = Fraction(k)
    psi = psi_series(N)
    return _power_check(f"triangular_rec[k={k}]", N, psi, k, power_rational(psi, k))


def _verify_jtp_power_rec(N, r, z):
    r, z = Fraction(r), Fraction(z)
    J = jtp_series(z, N)
    return _power_check(f"jtp_power_rec[r={r},z={z}]", N, J, r, power_rational(J, r))


def gauss_g(N):
    """The divisor-type column sums of the theta product, as a list 0..N.

    g(2m-1) = 2*sigma1(2m-1); g(2m) = -2*sigma1(2m) + 2*sigma1(m).
    """
    g = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        if n % 2:
            g[n] = Fraction(2 * _sigma1(n))
        else:
            g[n] = Fraction(-2 * _sigma1(n) + 2 * _sigma1(n // 2))
    return g


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

    def pairs():
        for n in range(1, N + 1):
            yield ("g", n), g[n], g_from_matrix[n]
        for n, lhs, rhs in _log_derivative_pairs(N, g, phi_series(N)):
            yield ("rec", n), lhs, rhs

    return check_all("gauss_g", N, pairs())


def _verify_newton_symmetric(N, x):
    xs = [Fraction(v) for v in x]
    p = [0] + [sum(v ** k for v in xs) for k in range(1, N + 1)]
    return _log_derivative_check("newton_symmetric", N, p, symmetric_series(xs, N))


def _verify_sin_truncated(N, m):
    m = int(m)
    g = [0] + [
        -sum(Fraction(1, i ** (2 * n)) for i in range(1, m + 1))
        for n in range(1, N + 1)
    ]
    P = sin_normalized_series(m, N)
    return _log_derivative_check(f"sin_truncated[m={m}]", N, g, P)


def _verify_gamma_truncated(N, m):
    m = int(m)
    g = [0, 0] + [
        (-1) ** (n - 1) * sum(Fraction(1, i ** n) for i in range(1, m + 1))
        for n in range(2, N + 1)
    ]
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


def verify(key, N=None, **params):
    """Run one registered identity check; a bad key, parameter or N is a ValueError."""
    try:
        fn, defaults = _REGISTRY[key]
    except KeyError:
        raise ValueError(f"unknown identity key: {key!r}") from None
    unknown = sorted(set(params) - set(inspect.signature(fn).parameters))
    if unknown:
        raise ValueError(f"identity {key!r} takes no parameter {', '.join(unknown)}")
    kwargs = dict(defaults)
    kwargs.update(params)
    if N is not None:
        kwargs["N"] = N
    if kwargs["N"] < 1:
        raise ValueError(f"order must be a positive integer, got {kwargs['N']}")
    return fn(**kwargs)
