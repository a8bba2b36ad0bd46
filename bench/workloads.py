"""Seeded job lists for the three benchmark workloads.

A job list is plain JSON data: the same (workload, seed) always gives the
same bytes under ``json.dumps(..., sort_keys=True)``.  Nothing here imports
pfecalc; the program only ever sees the inputs generated here.

Every job runs at an order N and again at 2N (its ``scale`` is 1 or 2), so
that ``order_scaling`` can compare the two.  Jobs that share a ``group`` form
a pipeline inside one pass: a later job reads the outputs of earlier ones.
"""

import random
from fractions import Fraction

WORKLOADS = ("engine_int", "rational_powers", "cli_requests")

# Orders are far below the sizes in the project's sizing table so that one
# pass holds about 100 jobs (p90 needs ten samples beyond it) and a run holds
# several passes.  Each spec (engine_int) or exponent (rational_powers) has
# its own fixed order, the same for every seed: the spread of orders smooths
# the latency distribution, so p50 does not sit in a gap between job classes.
ENGINE_N = (24, 27, 30, 33, 36, 30)  # the five single-factor kinds, then the pair
RATIONAL_N = (100, 110, 120, 130, 140)  # r with denominator 2, 3, 6, 7, then 1
FAMILY_M = 24  # check_family and scan run to about 5 * FAMILY_M
ROOT_N = 30  # root_integrality and the rational-z round trip

# Registered identity keys and their default orders (the CLI contract keeps
# both).  Listed here so that the generator does not import the program.
IDENTITY_DEFAULT_N = {
    "colored": 80,
    "euler_sigma": 200,
    "ewell": 200,
    "fibonacci_power": 60,
    "frequency_indicator": 60,
    "gamma_truncated": 12,
    "gauss_g": 150,
    "jtp_power_rec": 60,
    "lehmer_gen": 100,
    "moments": 100,
    "mu_frequency": 100,
    "newton_symmetric": 30,
    "plane_partition": 100,
    "pr_ps": 40,
    "ramanujan_gen": 100,
    "ramanujan_partition": 200,
    "sigma_convolution": 150,
    "sin_truncated": 12,
    "squares_rec": 100,
    "triangular_rec": 100,
    "zeta_rec": 30,
}
# Fixed (not seeded) so that every seed pays the same work at 2N;
# ramanujan_partition makes O(N^2) calls to arith.sigma.
VERIFY_AT_2N = ("ramanujan_partition", "euler_sigma", "lehmer_gen", "gauss_g")


def generate(workload, seed):
    """The job list of one pass of ``workload`` for ``seed``."""
    builders = {
        "engine_int": _engine_int,
        "rational_powers": _rational_powers,
        "cli_requests": _cli_requests,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed, **builders[workload](rng)}


def _q(x):
    return str(Fraction(x))


def _rational(rng, den, lo=-7, hi=7):
    """a/den in lowest terms with a nonzero and coprime to den."""
    while True:
        a = rng.randint(lo, hi)
        if a and Fraction(a, den).denominator == den:
            return Fraction(a, den)


# ---------------------------------------------------------------------------
# engine_int: integer product specs through the pfe engine


def _exponents(rng, kind, length):
    """Integer exponent sequence b[0..length-1], b[0] unused (0)."""
    if kind == "const":
        c = rng.choice((1, 2, 3))
        b = [c] * length
    elif kind == "linear":
        b = list(range(length))
    elif kind == "minus_one":
        b = [-1] * length
    elif kind == "periodic":
        pattern = [rng.choice((1, -1)) for _ in range(rng.choice((2, 3, 4)))]
        b = [pattern[k % len(pattern)] for k in range(length)]
    elif kind == "random":
        b = [rng.randint(-2, 2) for _ in range(length)]
    else:
        raise ValueError(kind)
    b[0] = 0
    return b


def _engine_int(rng):
    top = 2 * max(ENGINE_N) + 1
    kinds = ("const", "linear", "minus_one", "periodic", "random")
    specs = [[(rng.choice((1, -1)), kind)] for kind in kinds]
    # The pair's kinds are fixed, so that every seed does about the same
    # work; its signs and exponent values are still drawn.
    specs.append([(rng.choice((1, -1)), kind) for kind in ("periodic", "random")])
    jobs = []
    for i, spec in enumerate(specs):
        factors = [[z, _exponents(rng, kind, top)] for z, kind in spec]
        freq = i % 2 == 0  # half the specs keep frequency tables
        zs = {z for z, _ in factors}
        s2p_z = zs.pop() if len(zs) == 1 else 1
        for scale in (1, 2):
            N = scale * ENGINE_N[i]
            group = f"spec{i}@{N}"
            common = {"group": group, "scale": scale, "N": N, "spec": i,
                      "factors": factors}
            ops = ["build", "enumerate_form2", "collapse_form1", "enumerate_form1",
                   "column_weight_sums", "g_to_pfe", "series_to_pfe",
                   "integrality_check"]
            if freq:
                ops.append("verify_divisor_sum")
                if len(factors) == 1:
                    ops.append("frequency_row_check")
            for op in ops:
                jobs.append({**common, "op": op, "freq": freq, "s2p_z": s2p_z})
    return {"jobs": _number(jobs), "files": {}}


# ---------------------------------------------------------------------------
# rational_powers: Fraction-heavy series powers, congruences and roots


def _rational_powers(rng):
    rs = [_rational(rng, d) for d in (2, 3, 6, 7)]
    rs.append(Fraction(rng.choice((-24, -12, -8, -3, 2, 4, 6))))
    jobs = []
    for scale in (1, 2):
        for r, N in zip(rs, RATIONAL_N):
            N *= scale
            base = {"scale": scale, "N": N, "r": _q(r)}
            for method in ("triangular", "pentagonal", "direct"):
                jobs.append({**base, "op": "partition_power", "method": method})
            for name in ("colored", "eta_power", "fibonacci_power"):
                jobs.append({**base, "op": "named_series", "name": name})
            for name in ("phi", "psi"):
                jobs.append({**base, "op": "series_power", "name": name})
    z = _rational(rng, rng.choice((2, 3)), 1, 5)
    for scale in (1, 2):
        jobs.append({"op": "named_series", "name": "jtp", "scale": scale,
                     "N": scale * 5 * FAMILY_M, "z": _q(z)})

    # One family-compatible r per congruence family: r = c + 5a/d for mod 5
    # (rational, no 5 in d), r = 3t for mod 3.
    families = [(5, 1, 0), (5, 2, 2), (5, 3, 4), (5, 4, 1), (3, 1, 0), (3, 2, 0)]
    for p, k, c in families:
        if p == 5:
            r = c + 5 * _rational(rng, rng.choice((2, 3, 6, 7)), -3, 3)
        else:
            r = Fraction(3 * rng.choice((-8, -4, -2, -1, 1, 2, 4)))
        for scale in (1, 2):
            M = scale * 5 * FAMILY_M // p
            jobs.append({"op": "check_family", "p": p, "k": k, "r": _q(r),
                         "M": M, "scale": scale, "N": p * M + k})
    # Scans reuse r values whose partition_power jobs reach the scan order.
    for p in (5, 3):
        cands = [_q(r) for r in rng.sample(rs, 2)]
        for scale in (1, 2):
            M = scale * min(RATIONAL_N) // p - 1
            jobs.append({"op": "scan", "p": p, "rs": cands, "M": M,
                         "scale": scale, "N": p * M + p - 1})

    m, t = rng.choice(((2, 3), (3, 2), (2, 2)))
    s = rng.randrange(t)
    top = 2 * ROOT_N + 1
    P = [1] + [m ** t * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(top - 1)]
    zr = _rational(rng, rng.choice((2, 3)), 1, 4)
    b = [0] + [rng.randint(-2, 2) for _ in range(top - 1)]
    for scale in (1, 2):
        N = scale * ROOT_N
        jobs.append({"op": "root_integrality", "m": m, "t": t, "s": s,
                     "P": P[: N + 1], "scale": scale, "N": N})
        group = f"roundtrip@{N}"
        common = {"group": group, "scale": scale, "N": N,
                  "factors": [[_q(zr), b]]}
        jobs.append({**common, "op": "build"})
        jobs.append({**common, "op": "enumerate_form2", "freq": False})
        jobs.append({**common, "op": "series_to_pfe", "freq": False,
                     "s2p_z": _q(zr)})
    return {"jobs": _number(jobs), "files": {}}


# ---------------------------------------------------------------------------
# cli_requests: one `python -m pfecalc.cli` process per request


def _cli_requests(rng):
    jobs = []
    for key, N in IDENTITY_DEFAULT_N.items():
        jobs.append({"op": "cli", "kind": "verify", "key": key, "N": N,
                     "scale": 1, "argv": ["verify", key], "exit": 0})
    doubled = {}
    for key in VERIFY_AT_2N:
        N = 2 * IDENTITY_DEFAULT_N[key]
        doubled[key] = {"op": "cli", "kind": "verify", "key": key, "N": N,
                        "scale": 2, "argv": ["verify", key, "-n", str(N)],
                        "exit": 0}

    r1 = _rational(rng, rng.choice((2, 3, 6, 7)))
    r2 = _rational(rng, rng.choice((2, 3)), 1, 5)
    z = _rational(rng, rng.choice((2, 3)), 1, 5)
    expands = [
        ("partition", 200, {}, "json"),
        ("eta_power", 120, {"r": Fraction(rng.choice((-24, -12, -8)))}, "bfile"),
        ("colored", 100, {"r": r1}, "csv"),
        ("overpartition", 60, {}, "bfile"),
        ("jtp", 150, {"z": z}, "csv"),
        ("fibonacci_power", 80, {"r": r2}, "json"),
    ]
    for name, N, params, fmt in expands:
        argv = ["expand", name, "-n", str(N), "--format", fmt]
        for k, v in params.items():
            argv.append(f"--{k}={_q(v)}")  # "=": values may start with "-"
        jobs.append({"op": "cli", "kind": "expand", "name": name, "N": N,
                     "params": {k: _q(v) for k, v in params.items()},
                     "format": fmt, "argv": argv, "exit": 0})

    files = {}
    n_in = 60
    P = [1] + [rng.randint(-9, 9) for _ in range(n_in)]
    files["pvalues.txt"] = "".join(f"{v}\n" for v in P)
    b = [0] + [rng.randint(-3, 3) for _ in range(n_in)]
    g = [0] + [sum(d * b[d] for d in range(1, n + 1) if n % d == 0)
               for n in range(1, n_in + 1)]
    files["g.txt"] = "".join(f"{n} {g[n]}\n" for n in range(1, n_in + 1))
    p, r = 2, 3
    D = [1] + [p ** r * 3 * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(40)]
    files["divisible.txt"] = "".join(f"{n} {v}\n" for n, v in enumerate(D))
    gap = rng.randint(5, n_in - 5)
    files["gap.txt"] = "".join(f"{n} {P[n]}\n" for n in range(n_in + 1) if n != gap)

    for fmt in ("json", "csv"):
        jobs.append({"op": "cli", "kind": "to-product", "input": "pvalues.txt",
                     "P": P, "N": n_in, "format": fmt, "exit": 0,
                     "argv": ["to-product", "--input", "pvalues.txt",
                              "--order", str(n_in), "--format", fmt]})
    for fmt in ("json", "bfile"):
        jobs.append({"op": "cli", "kind": "from-g", "input": "g.txt", "g": g,
                     "b": b, "N": n_in, "format": fmt, "exit": 0,
                     "argv": ["from-g", "--input", "g.txt", "--order",
                              str(n_in), "--format", fmt]})
    jobs.append({"op": "cli", "kind": "roots-check", "N": n_in, "exit": 0,
                 "expect": ["integrality: P integral=True b integral=True"],
                 "argv": ["roots-check", "--input", "pvalues.txt", "--order",
                          str(n_in)]})
    jobs.append({"op": "cli", "kind": "roots-check", "N": 40, "exit": 0,
                 "expect": ["integrality: P integral=True b integral=True",
                            f"divisibility p={p} r={r}: pass",
                            f"root m={p} s=1: integral=True"],
                 "argv": ["roots-check", "--input", "divisible.txt", "--order",
                          "40", "--p", str(p), "--r", str(r), "--m", str(p),
                          "--t", str(r), "--s", "1"]})
    r5 = 1 + 5 * _rational(rng, rng.choice((2, 3, 6, 7)), -3, 3)
    r3 = 3 * rng.choice((-4, -2, 1, 2))
    for p, k, rr, M in ((5, 4, r5, 30), (3, 2, r3, 50)):
        jobs.append({"op": "cli", "kind": "congruence", "N": p * M + k, "exit": 0,
                     "expect": [f"congruence[p={p},k={k},r={Fraction(rr)}]: pass "
                                f"(checked through order {p * M + k})"],
                     "argv": ["congruence", "--p", str(p), f"--r={_q(rr)}",
                              "--family", str(k), "--max-m", str(M)]})

    bogus = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
    jobs.append({"op": "cli", "kind": "malformed", "exit": 2, "N": 0,
                 "argv": ["expand", f"no_{bogus}", "-n", "10"]})
    jobs.append({"op": "cli", "kind": "malformed", "exit": 2, "N": 0,
                 "argv": ["verify", f"no_{bogus}"]})
    jobs.append({"op": "cli", "kind": "malformed", "exit": 2, "N": 0,
                 "argv": ["to-product", "--input", "gap.txt", "--order",
                          str(n_in)]})
    rng.shuffle(jobs)
    # Each request at 2N runs right after the same request at N, so that
    # order_scaling compares two times taken at nearly the same host speed.
    jobs = [pair for job in jobs
            for pair in ([job, doubled[job["key"]]]
                         if job["kind"] == "verify" and job["key"] in doubled
                         else [job])]
    for job in jobs:
        job.setdefault("scale", 1)
    return {"jobs": _number(jobs), "files": files}


def _number(jobs):
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
