"""One benchmark pass in a fresh interpreter.

    python bench/worker.py JOBS.json RESULT.json WORKDIR [--dump OUT.pkl]
        [--trace DIR] [--plant JOB_ID]

Runs every job of the list in order, timing only the call into pfecalc (for
cli_requests, the whole request process), with reference work from
calibrate.py timed next to it and the set-up probes first.  After each call,
outside the
timed region, it hashes the output and counts its numbers; ``--dump``
pickles the outputs for the caller's reference checks, ``--trace`` wraps the
traced functions first, reports per-layer stats and writes the spans to DIR,
and ``--plant`` adds a wrong value to one job's output so that the checks can
be seen to fail.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import re
import resource
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

import calibrate
import spans
from pfecalc import congruences, identities, pfe, roots
from pfecalc.pfe import CombinedRow, EnumerationResult, PfeMatrix, ProductRow
from pfecalc.report import IdentityReport
from pfecalc.roots import IntegralityResult
from pfecalc.series import TruncatedSeries

BENCH = Path(__file__).resolve().parent
REQUEST_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 1.0  # of jobs between two runs of calibrate.py
# setup_s probes a fresh interpreter that imports pfecalc and exits: every
# CLI call and every program that imports it pays that first.  A few probes
# per pass spread them over the whole run.
SETUP_PROBES = 3
SETUP_CODE = "import pfecalc"


# ---------------------------------------------------------------------------
# job preparation: everything outside the returned thunk is untimed


def _prepare(job, ctx, workdir, traced, peak):
    """A zero-argument callable that makes the job's one timed call."""
    op, N = job["op"], job["N"]
    if op == "build":
        factors = [(Fraction(z), b) for z, b in job["factors"]]
        return lambda: pfe.build_product_matrix(factors, N)
    if op in ("enumerate_form2", "enumerate_form1"):
        m = ctx["build" if op == "enumerate_form2" else "collapse_form1"]
        freq = job["freq"]
        return lambda: pfe.enumerate_pfe(m, N, with_freq=freq)
    if op == "collapse_form1":
        m = ctx["build"]
        return lambda: pfe.collapse_form1(m)
    if op == "column_weight_sums":
        m, weights = ctx["build"], list(range(N + 1))
        return lambda: pfe.column_weight_sums(m, weights, N)
    if op == "g_to_pfe":
        g, freq = ctx["column_weight_sums"], job["freq"]
        return lambda: pfe.g_to_pfe(g, with_freq=freq)
    if op == "series_to_pfe":
        P, z, freq = list(ctx["enumerate_form2"].P), Fraction(job["s2p_z"]), job["freq"]
        return lambda: pfe.series_to_pfe(P, z, with_freq=freq)
    if op == "integrality_check":
        P = list(ctx["enumerate_form2"].P)
        return lambda: roots.integrality_check(P)
    if op == "verify_divisor_sum":
        m, result, weights = ctx["build"], ctx["enumerate_form2"], list(range(N + 1))
        return lambda: pfe.verify_divisor_sum(m, weights, result, N)
    if op == "frequency_row_check":
        m, result = ctx["build"], ctx["enumerate_form2"]
        return lambda: tuple(
            pfe.frequency_row_check(m, k, result, N) for k in range(1, N + 1)
        )
    if op == "partition_power":
        r, method = Fraction(job["r"]), job["method"]
        return lambda: identities.partition_power(r, N, method=method)
    if op == "named_series":
        params = {k: Fraction(job[k]) for k in ("r", "z") if k in job}
        name = job["name"]
        return lambda: identities.named_series(name, N, **params)
    if op == "series_power":
        name, r = job["name"], Fraction(job["r"])
        return lambda: identities.named_series(name, N).power(r)
    if op == "check_family":
        fam, r, M = congruences.family(job["p"], job["k"]), Fraction(job["r"]), job["M"]
        return lambda: congruences.check_family(fam, r, M)
    if op == "scan":
        p, rs, M = job["p"], [Fraction(r) for r in job["rs"]], job["M"]
        return lambda: congruences.scan(p, rs, M)
    if op == "root_integrality":
        P, m, t, s = job["P"], job["m"], job["t"], job["s"]
        return lambda: roots.root_integrality(P, m, t, s)
    if op == "cli":
        return _request(job, workdir, traced, peak)
    raise ValueError(f"unknown op {op!r}")


def _env():
    return dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))


def _spawn(cmd, workdir, capture=False):
    """Run cmd to its exit: (exit code, stdout or None, peak RSS in KiB).

    The child is reaped with a blocking wait4.  Popen.wait(timeout) polls
    with sleeps of up to 50 ms, which would round every time taken around
    it; wait4 also gives this child's own peak RSS.
    """
    proc = subprocess.Popen(cmd, cwd=workdir, env=_env(), text=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = None
        if capture:
            stdout = proc.stdout.read()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def _time_process(cmd, workdir):
    """(start, seconds) of one process that must exit with 0."""
    t0 = time.perf_counter()
    code, _, _ = _spawn(cmd, workdir)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{cmd[1:]} exited with {code}")
    return t0, elapsed


def _calibrate(workdir):
    return _time_process([sys.executable, str(BENCH / "calibrate.py")], workdir)


def _request(job, workdir, traced, peak):
    """One request process; its peak RSS goes into peak[0]."""
    if traced:
        out = str(Path(traced) / f"job{job['id']}")
        cmd = [sys.executable, str(BENCH / "tracedcli.py"), out, *job["argv"]]
    else:
        cmd = [sys.executable, "-m", "pfecalc.cli", *job["argv"]]

    def call():
        code, stdout, maxrss = _spawn(cmd, workdir, capture=True)
        peak[0] = max(peak[0], maxrss)
        return ("cli", code, stdout)

    return call


# ---------------------------------------------------------------------------
# outputs: digest, number counts, planted faults


def _walk(obj, emit):
    """Feed a canonical token stream of a job output to emit()."""
    if obj is None or isinstance(obj, (bool, str)):
        emit(repr(obj))
    elif isinstance(obj, (int, Fraction)):
        x = Fraction(obj)
        emit(f"#{x.numerator:x}/{x.denominator:x}")
    elif isinstance(obj, TruncatedSeries):
        _walk(obj.coeffs, emit)
    elif dataclasses.is_dataclass(obj):
        emit(type(obj).__name__)
        for field in dataclasses.fields(obj):
            _walk(getattr(obj, field.name), emit)
    elif isinstance(obj, dict):
        emit("{")
        for key in sorted(obj, key=repr):
            _walk(key, emit)
            _walk(obj[key], emit)
        emit("}")
    elif isinstance(obj, (list, tuple)):
        emit("(")
        for item in obj:
            _walk(item, emit)
        emit(")")
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj):
    h = hashlib.blake2b(digest_size=16)
    _walk(obj, lambda token: h.update(token.encode() + b";"))
    return h.hexdigest()


_INT = re.compile(r"-?\d+")


def out_counts(obj):
    """(numbers, largest bit length, total bits) over the output's numbers.

    A CLI output counts the integers printed on stdout.
    """
    if isinstance(obj, tuple) and obj and obj[0] == "cli":
        values = [int(tok) for tok in _INT.findall(obj[2])]
        nums = [(v, 1) for v in values]
    else:
        nums = []

        def emit(token):
            if token[0] == "#":
                a, b = token[1:].split("/")
                nums.append((int(a, 16), int(b, 16)))

        _walk(obj, emit)
    bits = [max(abs(a).bit_length(), b.bit_length()) for a, b in nums]
    total = sum(abs(a).bit_length() + b.bit_length() for a, b in nums)
    return len(nums), max(bits, default=0), total


def plant(obj):
    """The output with one wrong value: the last coefficient of its first
    sequence plus one, a report's verdict flipped, or a changed stdout digit."""
    def bump_last(seq):
        return type(seq)(list(seq[:-1]) + [seq[-1] + 1])

    if isinstance(obj, tuple) and obj and obj[0] == "cli":
        stdout = obj[2]
        digits = [i for i, ch in enumerate(stdout) if ch.isdigit()]
        if digits:
            i = digits[-1]
            stdout = stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]
        else:
            stdout += "x"
        return ("cli", obj[1], stdout)
    if isinstance(obj, EnumerationResult):
        return dataclasses.replace(obj, P=bump_last(obj.P))
    if isinstance(obj, TruncatedSeries):
        return TruncatedSeries(bump_last(obj.coeffs))
    if isinstance(obj, IdentityReport):
        return dataclasses.replace(obj, passed=not obj.passed)
    if isinstance(obj, IntegralityResult):
        return dataclasses.replace(obj, b=bump_last(obj.b))
    if isinstance(obj, PfeMatrix):
        row = obj.rows[-1]
        if isinstance(row, ProductRow):
            row = dataclasses.replace(row, b=row.b + 1)
        else:
            (b, z), *rest = row.parts
            row = CombinedRow(row.step, ((b + 1, z), *rest))
        return dataclasses.replace(obj, rows=obj.rows[:-1] + (row,))
    if isinstance(obj, dict):
        key = min(obj, key=repr)
        return {**obj, key: not obj[key]}
    last = obj[-1] if isinstance(obj, (list, tuple)) else None
    if isinstance(last, (int, Fraction)) and not isinstance(last, bool):
        return bump_last(obj)
    if isinstance(obj, tuple):  # (b, F), (b, P, F), (root, flag), reports
        return (plant(obj[0]),) + obj[1:]
    raise TypeError(f"cannot plant into {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the pass


def run_pass(doc, workdir, dump=None, trace=None, plant_id=None):
    """Run every job once; returns the per-job records and pass totals."""
    tracer = None
    in_process = doc["workload"] != "cli_requests"
    if trace and in_process:
        cached = spans.cached_functions()
        tracer = spans.Tracer()
        undo = spans.install(tracer)
    records, peak = [], [0]
    totals = {"layers": {}, "cache": [0, 0], "startup_s": 0.0}
    ctx, group = {}, None
    clock = time.perf_counter
    # The host's speed drifts, so reference work of the same kind runs next
    # to every timing (calibrate.py): run.py scales each time by it.
    # The set-up probes are fresh interpreters, each between two runs of
    # calibrate.py; in-process jobs each follow one reference_work() call;
    # requests are fresh interpreters, with calibrate.py about once a second.
    cal, setup, ref = [_calibrate(workdir)], [], []
    for _ in range(SETUP_PROBES):
        setup.append(_time_process([sys.executable, "-c", SETUP_CODE], workdir))
        cal.append(_calibrate(workdir))
    try:
        for job in doc["jobs"]:
            if in_process:
                t0 = clock()
                calibrate.reference_work()
                ref.append((t0, clock() - t0))
            elif clock() - cal[-1][0] >= CALIBRATE_EVERY_S:
                cal.append(_calibrate(workdir))
            if job.get("group") != group:
                ctx, group = {}, job.get("group")
            record = {"id": job["id"], "error": None}
            try:
                call = _prepare(job, ctx, workdir, None if in_process else trace,
                                peak)
                if tracer is not None:
                    tracer.job = job["id"]
                t0 = clock()
                out = call()
                record["lat"] = clock() - t0
                record["t"] = t0
                ctx[job["op"]] = out
                if plant_id == job["id"]:
                    out = plant(out)
                record["digest"] = digest(out)
                record["out"] = out_counts(out)
                if dump is not None:
                    pickle.dump((job["id"], out), dump)
                if trace and not in_process:
                    _merge_request(Path(trace) / f"job{job['id']}.json", t0, totals)
            except Exception:
                record["error"] = traceback.format_exc(limit=3)
            records.append(record)
    finally:
        if tracer is not None:
            spans.uninstall(undo)
    ref_s = calibrate.WORK_S
    if not in_process:
        cal.append(_calibrate(workdir))
        ref, ref_s = cal, calibrate.SCRIPT_S
    result = {"jobs": records, "cal": cal, "setup": setup, "ref": ref, "ref_s": ref_s}
    if in_process:
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:  # the largest request process
        result["maxrss_kb"] = peak[0]
    if tracer is not None:
        tracer.write(Path(trace) / "pass.tsv")
        totals["layers"] = spans.layer_stats(tracer.spans)
        totals["cache"] = list(spans.cache_counts(cached))
    if trace:
        result["trace"] = totals
    return result


def _merge_request(path, t0, totals):
    """Fold one traced request's summary into the pass totals.  Its start-up
    time runs from just before the process started until ``import
    pfecalc.cli`` finished; both clocks are the system-wide monotonic one."""
    with open(path) as handle:
        summary = json.load(handle)
    spans.merge_stats(totals["layers"], summary["layers"])
    totals["cache"] = [a + b for a, b in zip(totals["cache"], summary["cache"])]
    totals["startup_s"] += summary["imported"] - t0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("workdir")
    parser.add_argument("--dump")
    parser.add_argument("--trace")
    parser.add_argument("--plant", type=int)
    args = parser.parse_args()
    with open(args.jobs) as handle:
        doc = json.load(handle)
    dump = open(args.dump, "wb") if args.dump else None
    try:
        result = run_pass(doc, args.workdir, dump, args.trace, args.plant)
    finally:
        if dump is not None:
            dump.close()
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
