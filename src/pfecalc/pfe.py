"""Partition-frequency enumeration engine.

A sparse upper-triangular matrix, given implicitly by per-row specifications,
determines a coefficient sequence P(n) and a frequency table F_k(n) through
the two equations

    F_k(n) = sum_j a_k(j) P(n-j)          (row evaluation)
    V_n P(n) = sum_k U_k F_k(n)           (weighted column sums)

with P(0) = 1.  The default weights are U_k = k (k the row's step index) and
V_n = n.  Rows come in two flavours: product rows, whose entries b*z^r sit at
the multiples of a step k and encode a factor (1 - z q^k)^(-b); and explicit
rows holding an arbitrary finite sparse set of entries.

Swapping the two sums gives one recurrence on the U-weighted column sums
g(n) = sum_k U_k a_k(n), namely V_n P(n) = sum_{k<=n} g(k) P(n-k).  Three
helpers do all the arithmetic: _solve gets P from g and V; _invert is its
inverse for V_n = n, g(n) = n P(n) - sum_{k<n} g(k) P(n-k); _frequencies gets
one row's F from P, by the direct sum for explicit rows and otherwise by the
row recurrence F(n) = z F(n-k) + b z P(n-k), one state per (b, z) part.
Inside them a value is an int while it is integral and a Fraction from the
first inexact division on (arith.demote and arith.divide), so integer specs
run on int arithmetic.  The tables stay demoted inside this module.  Each
public call promotes them once, at its return, through one memo that builds a
single Fraction per distinct int, so every public result holds Fractions and
equal cells share one object.  The checkers read the demoted tables that
EnumerationResult caches instead of demoting its Fractions again.
"""

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Tuple

from .arith import demote, divide
from .report import IdentityReport, check_all

FORM1 = "form1"
FORM2 = "form2"


class EnumerationError(ValueError):
    pass


@dataclass(frozen=True)
class ProductRow:
    """Row of the factor (1 - z q^step)^(-b): entry b*z^r at column r*step."""

    step: int
    b: Fraction
    z: Fraction

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be a positive integer")
        if self.z == 0:
            raise ValueError("z must be nonzero")

    def entry(self, j):
        if j < 1 or j % self.step:
            return Fraction(0)
        return self.b * self.z ** (j // self.step)


@dataclass(frozen=True)
class CombinedRow:
    """Step-collapsed sum of product rows sharing one step index."""

    step: int
    parts: Tuple[Tuple[Fraction, Fraction], ...]  # (b, z) pairs

    def entry(self, j):
        if j < 1 or j % self.step:
            return Fraction(0)
        r = j // self.step
        return sum((b * z ** r for b, z in self.parts), Fraction(0))


@dataclass(frozen=True)
class ExplicitRow:
    """Row with a finite sparse set of entries, keyed by column index >= 1."""

    step: int
    entries: Mapping[int, Fraction]

    def __post_init__(self):
        if any(j < 1 for j in self.entries):
            raise ValueError("explicit row entries must have column index >= 1")

    def entry(self, j):
        return self.entries.get(j, Fraction(0))


@dataclass(frozen=True)
class PfeMatrix:
    rows: tuple
    layout: str = FORM2

    def __post_init__(self):
        if self.layout == FORM1:
            steps = [row.step for row in self.rows]
            if len(steps) != len(set(steps)):
                raise ValueError("form-1 layout requires distinct step indices")


class _Promoter(dict):
    """Demoted values to Fractions, one per distinct int; one per public call.

    A Fraction is kept as it is: hashing it for a lookup costs more than it saves.
    """

    def __missing__(self, n):
        f = self[n] = Fraction(n)
        return f

    def __call__(self, values):
        return [x if type(x) is Fraction else self[x] for x in values]


@dataclass(frozen=True)
class EnumerationResult:
    """P and the frequency tables F, as Fractions; _tables holds them demoted.

    enumerate_pfe seeds _tables with the tables it computed; a result built any
    other way (by hand, by dataclasses.replace) computes it from its fields.
    """

    P: tuple
    F: tuple  # F[i] is the table for rows[i], indexed 0..N; None if not kept
    rows: tuple

    @cached_property
    def _tables(self):
        F = None if self.F is None else [[demote(x) for x in Fi] for Fi in self.F]
        return [demote(x) for x in self.P], F

    @cached_property
    def _by_step(self):
        index = {}
        for i, row in enumerate(self.rows):
            index.setdefault(row.step, []).append(i)
        return index

    def freq(self, k, n):
        """Total frequency at step k, summed over all rows with that step."""
        return sum((self.F[i][n] for i in self._by_step.get(k, ())), Fraction(0))


def _bval(b, k):
    return Fraction(b(k)) if callable(b) else Fraction(b[k])


def build_product_matrix(factors, N):
    """Interleaved (form-2) matrix for a product of factor lists.

    Each factor is a pair (z, b) with z a nonzero rational and b the exponent
    sequence, given either as a callable k -> b_k or as a list indexed so that
    b[k] is valid for 1 <= k <= N.
    """
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    rows = []
    for k in range(1, N + 1):
        for z, b in factors:
            if Fraction(z) == 0:
                raise ValueError("z must be nonzero")
            rows.append(ProductRow(step=k, b=_bval(b, k), z=Fraction(z)))
    return PfeMatrix(rows=tuple(rows), layout=FORM2)


def _parts(row):
    """The (b, z) pairs of a product or combined row."""
    return ((row.b, row.z),) if isinstance(row, ProductRow) else row.parts


def collapse_form1(m):
    """Collapse a form-2 matrix to one row per step index.

    Product rows sharing a step become a combined row summing the factors'
    contributions; explicit rows sharing a step are merged entrywise.
    Enumeration results are identical under either layout.
    """
    by_step = {}
    for row in m.rows:
        by_step.setdefault(row.step, []).append(row)
    rows = []
    for k, group in by_step.items():
        if len(group) == 1:
            rows.append(group[0])
        elif all(isinstance(r, (ProductRow, CombinedRow)) for r in group):
            parts = tuple(part for r in group for part in _parts(r))
            rows.append(CombinedRow(step=k, parts=parts))
        elif all(isinstance(r, ExplicitRow) for r in group):
            merged = {}
            for r in group:
                for j, v in r.entries.items():
                    merged[j] = merged.get(j, Fraction(0)) + v
            rows.append(ExplicitRow(step=k, entries=merged))
        else:
            raise ValueError(
                f"cannot collapse mixed product/explicit rows at step {k}"
            )
    return PfeMatrix(rows=tuple(rows), layout=FORM1)


def _column_sums(rows, weights, N):
    """g(0..N), demoted, with g(n) = sum over rows of weight * a_row(n)."""
    g = [0] * (N + 1)
    for row, w in zip(rows, weights):
        if w == 0:
            continue
        w = demote(w)
        if isinstance(row, ExplicitRow):
            for j, v in row.entries.items():
                if j <= N:
                    g[j] += w * demote(v)
            continue
        for b, z in _parts(row):
            term, z = w * demote(b), demote(z)
            for j in range(row.step, N + 1, row.step):
                term *= z
                g[j] += term
    return [demote(x) for x in g]


def _solve(g, N, V=None):
    """P(0..N) from P(0) = 1 and V(n) P(n) = sum_{k<=n} g(k) P(n-k); g demoted."""
    P = [1]
    support = []
    for n in range(1, N + 1):
        if g[n]:
            support.append(n)
        Vn = n if V is None else demote(V(n))
        if Vn == 0:
            raise EnumerationError(f"V({n}) = 0: cannot solve for P({n})")
        P.append(divide(sum([g[k] * P[n - k] for k in support]), Vn))
    return P


def _invert(P):
    """The inverse of _solve with V(n) = n: g(n) = n P(n) - sum_{k<n} g(k) P(n-k)."""
    g = [0]
    for n in range(1, len(P)):
        g.append(demote(n * P[n] - sum([g[k] * P[n - k] for k in range(1, n)])))
    return g


def _exponents(g, z):
    """b(0..N) from g(n) = sum_{d|n} d b_d z^{n/d}, sieving each b_d's terms off."""
    g, N = list(g), len(g) - 1
    b = [0] * (N + 1)
    for n in range(1, N + 1):
        b[n] = divide(g[n], n * z)
        if b[n]:
            term = g[n]
            for m in range(2 * n, N + 1, n):
                term *= z
                g[m] -= term
    return b


def _frequencies(row, P, N):
    """F(0..N) of one row, demoted: a direct sum, or the row recurrence."""
    F = [0] * (N + 1)
    if isinstance(row, ExplicitRow):
        entries = [(j, demote(v)) for j, v in row.entries.items()]
        for n in range(1, N + 1):
            for j, v in entries:
                if j <= n:
                    F[n] += v * P[n - j]
        return F
    k = row.step
    for b, z in _parts(row):
        if b == 0:
            continue
        b, z = demote(b), demote(z)
        for start in range(k, min(2 * k, N + 1)):
            state = 0
            for n in range(start, N + 1, k):
                state = z * (state + b * P[n - k])
                F[n] += state
    return F


def enumerate_pfe(m, N, U=None, V=None, with_freq=True):
    """Run the enumeration: P(0) = 1, then alternate the two defining equations.

    U maps a row to its weight (default: the row's step index); V maps n to a
    nonzero weight (default: n).  Raises EnumerationError naming n if V(n) = 0.
    """
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    if U is None:
        U = lambda row: row.step
    rows = tuple(r for r in m.rows if not isinstance(r, ProductRow) or r.step <= N)
    g = _column_sums(rows, [U(row) for row in rows], N)
    P = _solve(g, N, V)
    F = [_frequencies(row, P, N) for row in rows] if with_freq else None
    promote = _Promoter()
    result = EnumerationResult(
        P=tuple(promote(P)),
        F=None if F is None else tuple(tuple(promote(Fi)) for Fi in F),
        rows=rows,
    )
    vars(result)["_tables"] = (P, F)
    return result


def column_weight_sums(m, f, N):
    """g(1..N) with g(n) = sum_k f(k) a_k(n), the f-weighted column sums.

    For a single product row per step this is g(n) = sum_{d|n} b_d f(d) z^{n/d}.
    Returned as a list indexed by n with g[0] = 0.
    """
    weights = [_bval(f, row.step) for row in m.rows]
    return _Promoter()(_column_sums(m.rows, weights, N))


def _product_frequencies(b, z, P, promote):
    """Frequency tables F[0..N] of the single-factor product matrix, promoted."""
    N = len(P) - 1
    return [promote([0] * (N + 1))] + [
        promote(_frequencies(ProductRow(k, b[k], z), P, N)) for k in range(1, N + 1)]


def series_to_pfe(P, z=1, with_freq=True):
    """Invert a coefficient sequence into its product exponents b.

    P is a list with P[0] = 1; z is the (known, nonzero) product parameter,
    1 for the plain series-to-product conversion.  The column sums g come
    from the inverse recurrence; then g(n) = sum_{d|n} d b_d z^{n/d} fixes
    b_n once the smaller divisors' terms are taken off, which a sieve over
    multiples does.  Returns (b, F) where F[k][n] is the frequency table of
    the recovered matrix (None when with_freq=False).
    """
    P = [demote(x) for x in P]
    if P[0] != 1:
        raise ValueError("series_to_pfe requires P(0) = 1")
    z = demote(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    b = _exponents(_invert(P), z)
    promote = _Promoter()
    F = _product_frequencies(b, z, P, promote) if with_freq else None
    return promote(b), F


def g_to_pfe(g, with_freq=True):
    """Matrix, sequence, and frequency table realizing given column sums g.

    g is a list indexed 1..N.  The exponents solve g(n) = sum_{d|n} d b_d by
    the sieve series_to_pfe uses; P satisfies n P(n) = sum_k g(k) P(n-k); F
    is the frequency table of the resulting z = 1 product matrix.
    Returns (b, P, F).
    """
    g = [demote(x) for x in g]
    b = _exponents(g, 1)
    P = _solve(g, len(g) - 1)
    promote = _Promoter()
    F = _product_frequencies(b, 1, P, promote) if with_freq else None
    return promote(b), promote(P), F


def verify_divisor_sum(m, f, result, N):
    """Check sum_k g(k) P(n-k) = sum_k f(k) F_k(n) for n <= N, exactly."""
    g = _column_sums(m.rows, [_bval(f, row.step) for row in m.rows], N)
    P, F = result._tables
    weights = [_bval(f, row.step) for row in result.rows]
    F = [(demote(w), Fi) for w, Fi in zip(weights, F) if w]

    def pairs():
        for n in range(1, N + 1):
            lhs = sum([g[k] * P[n - k] for k in range(1, n + 1)])
            rhs = sum([w * Fi[n] for w, Fi in F])
            yield n, lhs, rhs

    return check_all("divisor_sum", N, pairs())


def frequency_row_check(m, k, result, N):
    """Check the row recurrence F_k(n) = z F_k(n-k) + b_k z P(n-k) for n <= N.

    Requires a matrix of product rows with a single row at step k.
    """
    at_k = result._by_step.get(k, ())
    if not at_k:
        return IdentityReport(f"frequency_row[{k}]", N, True)
    row = result.rows[at_k[0]]
    if len(at_k) > 1 or not isinstance(row, ProductRow):
        raise ValueError("frequency_row_check needs a single product row per step")
    P, F = result._tables
    Fk = F[at_k[0]]
    b, z = demote(row.b), demote(row.z)

    def pairs():
        for n in range(1, N + 1):
            prev, pn = (Fk[n - k], P[n - k]) if n >= k else (0, 0)
            yield n, Fk[n], z * prev + b * z * pn

    return check_all(f"frequency_row[{k}]", N, pairs())
