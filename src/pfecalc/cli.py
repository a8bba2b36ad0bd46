"""Command-line front end.

Subcommands: expand, to-product, from-g, verify, congruence, roots-check.
Exit codes: 0 success/pass, 1 verification failure, 2 usage or input error.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from . import congruences, identities, pfe, roots
from .series import TruncatedSeries


class UsageError(Exception):
    pass


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _parse_rational_list(text):
    return [_parse_rational(part) for part in text.split(",") if part.strip()]


def read_sequence_file(path, start=0):
    """One value per line: "value" (implicit index from start) or "n value".

    Rationals as a/b; '#' starts a comment.  Returns a dict index -> Fraction.
    """
    values = {}
    implicit = start
    try:
        handle = sys.stdin if path == "-" else open(path)
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc}") from None
    with handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if len(parts) == 1:
                    n, value = implicit, Fraction(parts[0])
                    implicit += 1
                elif len(parts) == 2:
                    n, value = int(parts[0]), Fraction(parts[1])
                else:
                    raise ValueError("expected 'value' or 'n value'")
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
            if n in values:
                raise UsageError(f"{path}:{lineno}: repeated index {n}")
            values[n] = value
    return values


def _check_order(N):
    if N < 0:
        raise UsageError(f"order must be non-negative, got {N}")


def _dense(values, start, N, what):
    _check_order(N)
    out = []
    for n in range(start, N + 1):
        if n not in values:
            raise UsageError(f"missing {what}({n}) in input")
        out.append(values[n])
    return [Fraction(0)] * start + out


def _report_dict(report):
    out = {"name": report.name, "order": report.order, "passed": report.passed}
    if not report.passed:
        out["first_failure"] = str(report.first_failure)
        out["lhs"] = str(report.lhs)
        out["rhs"] = str(report.rhs)
    return out


def emit(record, fmt, stream=None):
    """Render the whole record, then write it: a rendering error writes nothing."""
    coeffs = record.get("coefficients", [])
    if fmt == "json":
        lines = [json.dumps(record, indent=2)]
    elif fmt == "bfile":
        lines = []
        for n, (num, den) in enumerate(coeffs):
            if den != "1":
                raise UsageError(
                    f"bfile output needs integers; coefficient {n} is {num}/{den}"
                )
            lines.append(f"{n} {num}")
    elif fmt == "csv":
        lines = ["n,numerator,denominator"]
        lines += [f"{n},{num},{den}" for n, (num, den) in enumerate(coeffs)]
    else:
        raise UsageError(f"unknown format {fmt!r}")
    (sys.stdout if stream is None else stream).write("".join(s + "\n" for s in lines))


def _coeff_pairs(values):
    return [[str(Fraction(v).numerator), str(Fraction(v).denominator)] for v in values]


# Series parameters shared by expand and verify, in the order they are
# reported: flag -> parser of its text (None: argparse reads an int).
_PARAMS = {
    "r": _parse_rational,
    "s": _parse_rational,
    "z": _parse_rational,
    "a": _parse_rational,
    "m": None,
    "k": _parse_rational,
    "x": lambda text: tuple(_parse_rational_list(text)),
}


def _add_params(p, names, **helps):
    for name in names:
        p.add_argument(f"--{name}", type=None if _PARAMS[name] else int,
                       help=helps.get(name))


def _series_params(args):
    params = {}
    for name, parse in _PARAMS.items():
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value if parse is None else parse(value)
    return params


def cmd_expand(args):
    _check_order(args.order)
    params = _series_params(args)
    try:
        series = identities.named_series(args.name, args.order, **params)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from None
    record = {
        "name": args.name,
        "params": {k: str(v) for k, v in params.items()},
        "order": args.order,
        "coefficients": _coeff_pairs(series.coeffs),
    }
    emit(record, args.format)
    return 0


def cmd_to_product(args):
    values = read_sequence_file(args.input, start=0)
    P = _dense(values, 0, args.order, "P")
    if P[0] != 1:
        raise UsageError("input series must have constant term 1")
    b, _ = pfe.series_to_pfe(P, with_freq=False)
    record = {
        "name": "product_exponents",
        "params": {"input": args.input},
        "order": args.order,
        "coefficients": _coeff_pairs(b),
    }
    emit(record, args.format)
    return 0


def cmd_from_g(args):
    values = read_sequence_file(args.input, start=1)
    g = _dense(values, 1, args.order, "g")
    b, P, _ = pfe.g_to_pfe(g, with_freq=False)
    record = {
        "name": "from_column_sums",
        "params": {"input": args.input},
        "order": args.order,
        "coefficients": _coeff_pairs(P),
        "exponents": _coeff_pairs(b),
    }
    emit(record, args.format)
    return 0


def cmd_verify(args):
    if args.seed is not None and not args.random_series:
        raise UsageError("--seed needs --random-series")
    params = _series_params(args)
    flag = "--series" if args.series is not None else (
        "--random-series" if args.random_series else None)
    try:
        if flag and "Q" not in identities._lookup(args.key)[2]:
            raise ValueError(f"identity {args.key!r} takes no parameter {flag}")
        if args.series is not None:
            coeffs = _parse_rational_list(args.series)
            params["Q"] = TruncatedSeries(coeffs, args.order or len(coeffs) - 1)
        elif args.random_series:
            rng = random.Random(args.seed or 0)
            N = args.order or 40
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(N)
            ]
            params["Q"] = TruncatedSeries(coeffs)
        report = identities.verify(args.key, N=args.order, **params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    record = {
        "name": args.key,
        "params": {k: str(v) for k, v in params.items() if k != "Q"},
        "order": report.order,
        "report": _report_dict(report),
    }
    if args.format == "json":
        emit(record, "json")
    else:
        print(report.describe())
    return 0 if report.passed else 1


def cmd_congruence(args):
    r = _parse_rational(args.r)
    try:
        fam = congruences.family(args.p, args.family)
        report = congruences.check_family(fam, r, args.max_m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(report.describe())
    return 0 if report.passed else 1


def cmd_roots_check(args):
    if args.m is not None and (args.t is None or args.s is None):
        raise UsageError("--m needs --t and --s")
    values = read_sequence_file(args.input, start=0)
    P = _dense(values, 0, args.order, "P")
    if P[0] != 1:
        raise UsageError("input series must have constant term 1")
    result = roots.integrality_check(P)
    lines = [
        f"integrality: P integral={result.p_integral} "
        f"b integral={result.b_integral}"
    ]
    ok = result.p_integral == result.b_integral
    try:
        if args.p is not None:
            rep = roots.prime_power_divisibility(P, args.p, args.r)
            verdict = "pass" if rep.passed else "FAIL"
            lines.append(f"divisibility p={args.p} r={args.r}: {verdict}")
            ok = ok and rep.passed
        if args.m is not None:
            _, integral = roots.root_integrality(P, args.m, args.t, args.s)
            lines.append(f"root m={args.m} s={args.s}: integral={integral}")
            ok = ok and integral
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # written only now, so that an input error leaves stdout empty
    print("\n".join(lines))
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pfecalc",
        description="Exact partition-frequency enumeration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="emit a named series")
    p.add_argument("name", help=f"one of: {', '.join(identities.SERIES_NAMES)}")
    p.add_argument("--order", "-n", type=int, default=20)
    p.add_argument("--format", default="json", choices=["json", "bfile", "csv"])
    _add_params(p, "rzamx", x="comma-separated rationals for symmetric()")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("to-product", help="series -> product exponents b")
    p.add_argument("--input", required=True)
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--format", default="json", choices=["json", "bfile", "csv"])
    p.set_defaults(func=cmd_to_product)

    p = sub.add_parser("from-g", help="column sums g -> P and b")
    p.add_argument("--input", required=True)
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--format", default="json", choices=["json", "bfile", "csv"])
    p.set_defaults(func=cmd_from_g)

    p = sub.add_parser("verify", help="run a registered identity check")
    p.add_argument("key", help=f"one of: {', '.join(identities.IDENTITY_KEYS)}")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--format", default="text", choices=["text", "json"])
    _add_params(p, "rszmkx", k="power parameter for squares/triangular",
                x="comma-separated rationals for newton_symmetric")
    p.add_argument("--series", help="comma-separated coefficients of Q")
    p.add_argument("--random-series", action="store_true")
    p.add_argument("--seed", type=int, help="seed of --random-series (default 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("congruence", help="check one congruence family")
    p.add_argument("--p", type=int, required=True, choices=[3, 5])
    p.add_argument("--r", required=True)
    p.add_argument("--family", type=int, required=True, help="offset k of the family")
    p.add_argument("--max-m", type=int, default=50)
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("roots-check", help="integrality/divisibility of a series")
    p.add_argument("--input", required=True)
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--p", type=int, help="prime for divisibility check")
    p.add_argument("--r", type=int, default=1, help="prime power exponent")
    p.add_argument("--m", type=int, help="root base")
    p.add_argument("--t", type=int, help="divisibility exponent hypothesis")
    p.add_argument("--s", type=int, help="root exponent, s < t")
    p.set_defaults(func=cmd_roots_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
