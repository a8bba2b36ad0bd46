"""Reference checks for job outputs, run by the driver outside every timing.

No check calls the function whose output it checks.  Engine outputs are
compared with values the benchmark computes itself from the spec (column
sums, the divisor-sum recurrence, row sums) and, at the smaller order, with
``oracle.brute_expand``.  Series powers B = A**e are checked through
A*B' = e*A'*B modulo a 61-bit prime, which fixes every coefficient given
B(0) = 1, and exactly against each other where two jobs must agree.  CLI
outputs are compared with the in-process library or with the benchmark's own
values, and with the exit code each request must give.
"""

import json
from fractions import Fraction

from pfecalc import identities, oracle, pfe

PRIME = (1 << 61) - 1


def _mod(x):
    x = Fraction(x)
    return x.numerator % PRIME * pow(x.denominator, -1, PRIME) % PRIME


def power_ok(B, A, e):
    """B = A**e, given A(0) = 1: B(0) = 1 and, for n >= 1,
    sum_j a_j ((n - j) - e j) B(n - j) = 0 (mod PRIME)."""
    if B[0] != 1:
        return False
    b, em = [_mod(x) for x in B], _mod(e)
    support = [(j, _mod(a)) for j, a in enumerate(A[: len(B)]) if a]
    for n in range(1, len(B)):
        total = 0
        for j, a in support:
            if j > n:
                break
            total += a * ((n - j) - em * j) * b[n - j]
        if total % PRIME:
            return False
    return True


def euler(N):
    """(q;q)_inf to order N: (-1)^j at the generalized pentagonals."""
    c = [0] * (N + 1)
    for j in range(-N, N + 1):
        g = j * (3 * j - 1) // 2
        if g <= N:
            c[g] = -1 if j % 2 else 1
    return c


def theta(N, name):
    """phi (twos at the squares) or psi (ones at the triangular numbers)."""
    c = [0] * (N + 1)
    c[0] = 1
    k = 1
    while True:
        n = k * k if name == "phi" else k * (k + 1) // 2
        if n > N:
            return c
        c[n] = 2 if name == "phi" else 1
        k += 1


def divisor_sums(b, z, N):
    """g(n) = sum over d | n of d * b_d * z^(n/d), for n = 0..N (g(0) = 0)."""
    g = [0] * (N + 1)
    for d in range(1, N + 1):
        if b[d]:
            for n in range(d, N + 1, d):
                g[n] += d * b[d] * z ** (n // d)
    return g


def solve_P(g, N):
    """P(0) = 1, n P(n) = sum_{k=1..n} g(k) P(n - k)."""
    P = [Fraction(1)]
    for n in range(1, N + 1):
        P.append(sum(g[k] * P[n - k] for k in range(1, n + 1)) / n)
    return P


def g_of_P(P, N):
    """The inverse of solve_P: g(n) = n P(n) - sum_{k<n} g(k) P(n - k)."""
    g = [0] * (N + 1)
    for n in range(1, N + 1):
        g[n] = n * P[n] - sum(g[k] * P[n - k] for k in range(1, n))
    return g


def row_freq(parts, k, P, N):
    """F(n) = sum over (b, z) of b * sum_{r>=1} z^r P(n - r k), n = 0..N."""
    return [
        sum(b * sum(z ** r * P[n - r * k] for r in range(1, n // k + 1))
            for b, z in parts)
        for n in range(N + 1)
    ]


def _series_product(a, b, N):
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(N + 1)]


def _vp_positive(x, p):
    x = Fraction(x)
    return x == 0 or x.numerator % p == 0


class Checker:
    """Checks one pass's outputs in job order; outputs that later jobs must
    agree with are kept after their own check passed."""

    def __init__(self):
        self.powers = {}  # (r, N) -> verified coefficients of P_r
        self._spec_cache = (None, None)  # (group, expectations) of the last spec

    def check(self, job, out):
        """None when the output is right, else a one-line reason."""
        try:
            return getattr(self, "_" + job["op"])(job, out)
        except (TypeError, ValueError, IndexError, KeyError, AttributeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    # -- engine ------------------------------------------------------------

    def _spec(self, job):
        group, spec = self._spec_cache
        if group != job["group"]:
            N = job["N"]
            factors = [(Fraction(z), b[: N + 1]) for z, b in job["factors"]]
            g = [sum(col) for col in zip(*(divisor_sums(b, z, N) for z, b in factors))]
            P = solve_P(g, N)
            form2 = [(k, ((b[k], z),)) for k in range(1, N + 1) for z, b in factors]
            form1 = [(k, tuple((b[k], z) for z, b in factors)) for k in range(1, N + 1)]
            spec = (factors, g, P, form2, form1)
            self._spec_cache = (job["group"], spec)
        return spec

    @staticmethod
    def _rows(rows):
        out = []
        for row in rows:
            if isinstance(row, pfe.ProductRow):
                out.append((row.step, ((row.b, row.z),)))
            else:
                out.append((row.step, tuple(row.parts)))
        return out

    def _build(self, job, m):
        _, _, _, form2, _ = self._spec(job)
        if m.layout != pfe.FORM2 or self._rows(m.rows) != form2:
            return "matrix rows differ from the spec"
        return None

    def _collapse_form1(self, job, m):
        _, _, _, _, form1 = self._spec(job)
        if m.layout != pfe.FORM1 or self._rows(m.rows) != form1:
            return "collapsed rows differ from the spec"
        return None

    def _enumerate_form2(self, job, result):
        return self._enumeration(job, result, 1)

    def _enumerate_form1(self, job, result):
        return self._enumeration(job, result, 0)

    def _enumeration(self, job, result, form2):
        factors, _, P, *rows = self._spec(job)
        N = job["N"]
        if list(result.P) != P:
            return "P differs from the divisor-sum recurrence"
        if job["scale"] == 1 and form2:
            brute = oracle.brute_expand(factors, N).coeffs
            if list(brute) != P:
                return "P differs from oracle.brute_expand"
        if job["freq"]:
            expected = rows[0] if form2 else rows[1]
            if len(result.F) != len(expected):
                return "wrong number of frequency rows"
            for (k, parts), F in zip(expected, result.F):
                if list(F) != row_freq(parts, k, P, N):
                    return f"frequency row at step {k} is wrong"
        return None

    def _column_weight_sums(self, job, g):
        _, want, *_ = self._spec(job)
        return None if list(g) == want else "column sums differ from the spec"

    @staticmethod
    def _exponents_ok(b, z, g, N):
        return divisor_sums(b, z, N)[1:] == g[1:]

    @staticmethod
    def _freq_table_ok(F, b, z, P, N):
        for k in range(1, N + 1):
            if list(F[k]) != row_freq(((b[k], z),), k, P, N):
                return False
        return not any(F[0])

    def _g_to_pfe(self, job, out):
        _, g, P, *_ = self._spec(job)
        b, P_out, F = out
        N = job["N"]
        if list(P_out) != P:
            return "P differs from the divisor-sum recurrence"
        if not self._exponents_ok(b, 1, g, N):
            return "b does not reproduce the column sums"
        if job["freq"] and not self._freq_table_ok(F, b, 1, P, N):
            return "frequency table is wrong"
        return None

    def _series_to_pfe(self, job, out):
        factors, g, P, *_ = self._spec(job)
        b, F = out
        N, z = job["N"], Fraction(job["s2p_z"])
        if not self._exponents_ok(b, z, g, N):
            return "b does not reproduce the column sums"
        if len(factors) == 1 and factors[0][0] == z and list(b[1:]) != factors[0][1][1:]:
            return "b differs from the spec's exponents"
        if job["freq"] and not self._freq_table_ok(F, b, z, P, N):
            return "frequency table is wrong"
        return None

    def _integrality_check(self, job, res):
        _, g, *_ = self._spec(job)
        if not (res.p_integral and res.b_integral):
            return "integral P reported as non-integral"
        if not self._exponents_ok(res.b, 1, g, job["N"]):
            return "b does not reproduce the column sums"
        return None

    def _verify_divisor_sum(self, job, report):
        ok = report.passed and report.name == "divisor_sum" and report.order == job["N"]
        return None if ok else f"divisor-sum theorem reported {report.describe()}"

    def _frequency_row_check(self, job, reports):
        names = [f"frequency_row[{k}]" for k in range(1, job["N"] + 1)]
        if [r.name for r in reports] != names or not all(r.passed for r in reports):
            return "row recurrence reported failing"
        return None

    # -- rational powers ---------------------------------------------------

    def _power_job(self, job, coeffs, A, e, key=None):
        coeffs = list(coeffs)
        if len(coeffs) != job["N"] + 1:
            return "wrong length"
        if key in self.powers:
            return None if coeffs == self.powers[key] else "differs from another route"
        if not power_ok(coeffs, A, e):
            return "fails A*B' = e*A'*B"
        if key is not None:
            self.powers[key] = coeffs
        return None

    def _partition_power(self, job, P):
        r, N = Fraction(job["r"]), job["N"]
        return self._power_job(job, P, euler(N), -r, (r, N))

    def _named_series(self, job, series):
        name, N = job["name"], job["N"]
        if name == "jtp":
            z = Fraction(job["z"])
            want = [Fraction(0)] * (N + 1)
            want[0] = Fraction(1)
            k = 1
            while k * k <= N:
                want[k * k] = z ** k + z ** -k
                k += 1
            return None if list(series.coeffs) == want else "theta coefficients differ"
        r = Fraction(job["r"])
        if name == "colored":
            return self._power_job(job, series.coeffs, euler(N), -r, (r, N))
        if name == "eta_power":
            err = self._power_job(job, series.coeffs, euler(N), r, (-r, N))
            if err is None and job["scale"] == 1 and (r, N) in self.powers:
                prod = _series_product(self.powers[(r, N)], list(series.coeffs), N)
                if prod != [1] + [0] * N:
                    return "P_r * P_-r is not 1"
            return err
        if name == "fibonacci_power":
            f = list(series.coeffs)
            if f[0] != 1 or len(f) != N + 1:
                return "wrong constant term or length"
            for n in range(1, N + 1):
                rhs = (n - 1 + r) * f[n - 1] + (n - 2 + 2 * r) * (f[n - 2] if n >= 2 else 0)
                if n * f[n] != rhs:
                    return f"fibonacci power recurrence fails at {n}"
            return None
        raise ValueError(f"no check for series {name!r}")

    def _series_power(self, job, series):
        N = job["N"]
        return self._power_job(job, series.coeffs, theta(N, job["name"]), Fraction(job["r"]))

    def _check_family(self, job, report):
        r = Fraction(job["r"])
        name = f"congruence[p={job['p']},k={job['k']},r={r}]"
        if report.name != name or report.order != job["N"] or not report.passed:
            return f"family reported {report.describe()}"
        return None

    def _scan(self, job, table):
        p, M = job["p"], job["M"]
        want = {}
        for r in map(Fraction, job["rs"]):
            P = next((v for (s, n), v in self.powers.items()
                      if s == r and n >= job["N"]), None)
            if P is None:
                return f"no verified P_{r} to compare with"
            for k in range(p):
                want[(r, k)] = all(_vp_positive(P[p * m + k], p)
                                   for m in range(M + 1) if p * m + k >= 1)
        return None if table == want else "residue table differs"

    def _root_integrality(self, job, out):
        coeffs, integral = out
        P, m, s = job["P"], job["m"], job["s"]
        N = len(P) - 1
        if integral is not True or any(Fraction(c).denominator != 1 for c in coeffs):
            return "root not integral"
        power = [1] + [0] * N
        for _ in range(m ** s):
            power = _series_product(power, list(coeffs), N)
        return None if power == P else "root**(m^s) differs from P"

    # -- cli ---------------------------------------------------------------

    def _cli(self, job, out):
        _, code, stdout = out
        if code != job["exit"]:
            return f"exit {code}, expected {job['exit']}"
        if code == 2:
            return None if stdout == "" else "output on stdout with exit 2"
        kind = job["kind"]
        if kind == "verify":
            # Report names carry their parameters, as in "moments[m=2]".
            name, _, rest = stdout.partition(": ")
            ok = (name == job["key"] or name.startswith(job["key"] + "[")) and \
                rest == f"pass (checked through order {job['N']})\n"
            return None if ok else "verify output differs"
        if kind in ("roots-check", "congruence"):
            return None if stdout.splitlines() == job["expect"] else "report differs"
        if kind == "expand":
            params = {k: Fraction(v) for k, v in job["params"].items()}
            values = identities.named_series(job["name"], job["N"], **params).coeffs
            extra = {"name": job["name"], "params": job["params"], "order": job["N"]}
        elif kind == "to-product":
            P = job["P"]
            values = self._b_from_P(P, job["N"])
            extra = {"name": "product_exponents", "params": {"input": job["input"]},
                     "order": job["N"]}
        elif kind == "from-g":
            values = solve_P(job["g"], job["N"])
            extra = {"name": "from_column_sums", "params": {"input": job["input"]},
                     "order": job["N"], "exponents": _pairs(job["b"])}
        else:
            raise ValueError(f"no check for request kind {kind!r}")
        want = _render(values, job["format"], extra)
        return None if stdout == want else f"{kind} output differs"

    @staticmethod
    def _b_from_P(P, N):
        """Exponents b with sum_{d|n} d b_d = g(n), by the benchmark's own
        Mobius-free triangular solve."""
        g = g_of_P([Fraction(x) for x in P], N)
        b = [Fraction(0)] * (N + 1)
        for n in range(1, N + 1):
            b[n] = (g[n] - sum(d * b[d] for d in range(1, n) if n % d == 0)) / n
        return b


def _pairs(values):
    return [[str(Fraction(v).numerator), str(Fraction(v).denominator)] for v in values]


def _render(values, fmt, extra):
    """The CLI's documented stdout for a coefficient record."""
    if fmt == "json":
        record = {"name": extra["name"], "params": extra["params"],
                  "order": extra["order"], "coefficients": _pairs(values)}
        if "exponents" in extra:
            record["exponents"] = extra["exponents"]
        return json.dumps(record, indent=2) + "\n"
    if fmt == "bfile":
        return "".join(f"{n} {Fraction(v).numerator}\n" for n, v in enumerate(values))
    if fmt == "csv":
        return "n,numerator,denominator\n" + "".join(
            f"{n},{Fraction(v).numerator},{Fraction(v).denominator}\n"
            for n, v in enumerate(values))
    raise ValueError(fmt)
