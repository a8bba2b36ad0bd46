"""pfecalc benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md):
  engine_int       integer product specs through the pfe engine
  rational_powers  Fraction-heavy series powers, congruences and roots
  cli_requests     one `python -m pfecalc.cli` process per request

One client, closed loop: passes run one after another, each in a fresh
worker interpreter, until S seconds of passes have run and at least
MIN_PASSES passes are done.  The first pass's outputs are checked against
the references in checks.py; every later pass must reproduce their digests.
The last line of stdout is one JSON object: {correct, attempted, failed,
metrics}.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced passes and reports the per-layer metrics.

A job's time is the mean of its cold runs, one per pass, each first put on
a reference speed.  A shared 2-core virtual machine can run 1.7x slower
for stretches from seconds to minutes, as long as a whole run.  So the
worker times a fixed reference job (calibrate.py) about once a second, and
every time is scaled by how long that job took around it (see normalise).
"""

import argparse
import json
import math
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # runs per job that its mean time is taken over
PASS_TIMEOUT_S = 150
MAX_PASSES_S = 110  # stop starting passes after this, whatever MIN_PASSES says
NEAREST = 4  # reference times that each time is scaled by


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_worker(jobs_path, workdir, tag, dump=False, trace_dir=None, plant=None):
    """One pass in a fresh worker interpreter.

    A fresh interpreter per pass means the lru_cache tables in identities and
    arith, and any memo added later, start empty as they do for a CLI call;
    reuse inside one pass still counts, because a pass models one session.
    """
    result_path = workdir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(jobs_path),
           str(result_path), str(workdir)]
    dump_path = workdir / f"{tag}.pkl"
    if dump:
        cmd += ["--dump", str(dump_path)]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir)]
    if plant is not None:
        cmd += ["--plant", str(plant)]
    t0 = time.perf_counter()
    # Its own process group, so that a pass that overruns is stopped with
    # every request or calibration process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), start_new_session=True)
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    wall = time.perf_counter() - t0
    with open(result_path) as handle:
        result = json.load(handle)
    result["wall_s"] = wall
    if dump:
        outputs = {}
        with open(dump_path, "rb") as handle:  # written by our own worker
            while True:
                try:
                    job_id, out = pickle.load(handle)
                except EOFError:
                    break
                outputs[job_id] = out
        result["outputs"] = outputs
        dump_path.unlink()
    return result


def check_first_pass(doc, result):
    """Reference-check every output of the first pass; returns the digests
    that later passes must reproduce (None where the check failed)."""
    import checks  # imports pfecalc, so only once main() has put src on the path

    checker = checks.Checker()
    verified = {}
    outputs = result.pop("outputs")
    for job, record in zip(doc["jobs"], result["jobs"]):
        reason = record["error"]
        if reason is None:
            reason = checker.check(job, outputs[job["id"]])
        if reason is not None:
            print(f"job {job['id']} ({job['op']}) FAILED: {reason.strip()}",
                  file=sys.stderr)
        verified[job["id"]] = record["digest"] if reason is None else None
    return verified


def count_failed(result, verified):
    return sum(1 for rec in result["jobs"]
               if rec["error"] is not None or rec["digest"] != verified[rec["id"]])


def normalise(result):
    """Put one pass's times on the reference speed: sets rec["norm"] for
    every timed job and result["setup_norm"].

    The host's speed drifts by up to 1.7x over seconds to minutes, and by
    tens of percent from one second to the next.  Reference work that never
    touches pfecalc runs next to every timing, at whatever speed the host
    has then (see calibrate.py).  A time is scaled by the reference work's
    nominal time / the median of the NEAREST reference times around it,
    which takes the drift out and leaves the program's own cost.
    """
    def scaler(refs, nominal):
        mids = [(t + d / 2, d) for t, d in refs]

        def norm(t, d):
            mid = t + d / 2
            near = sorted(mids, key=lambda m: abs(m[0] - mid))[:NEAREST]
            return d * nominal / statistics.median(c for _, c in near)

        return norm

    norm = scaler(result["ref"], result["ref_s"])
    for rec in result["jobs"]:
        if "lat" in rec:
            rec["norm"] = norm(rec["t"], rec["lat"])
    norm = scaler(result["cal"], calibrate.SCRIPT_S)
    result["setup_norm"] = [norm(t, d) for t, d in result["setup"]]


def job_times(passes):
    """Each completed job's mean latency over the given passes, on the
    reference speed.  The mean, not the median: on engine_int a short job's
    times across passes often fall in two clusters about 1.5x apart, and
    the median jumps between them from run to run."""
    lats = {}
    for result in passes:
        for rec in result["jobs"]:
            if "lat" in rec:
                lats.setdefault(rec["id"], []).append(rec["norm"])
    return {job: statistics.mean(v) for job, v in lats.items()}


def _pair_key(job):
    skip = {"id", "scale", "N", "M", "group", "P", "argv"}
    return json.dumps({k: v for k, v in job.items() if k not in skip}, sort_keys=True)


def order_scaling(doc, times):
    """log2(total time at 2N / total time at N) over the jobs that run at
    both orders: the exponent a job mix of this shape grows with."""
    by_pair = {}
    for job in doc["jobs"]:
        if job["id"] in times:
            by_pair.setdefault(_pair_key(job), {})[job["scale"]] = times[job["id"]]
    both = [t for t in by_pair.values() if 1 in t and 2 in t]
    return math.log2(sum(t[2] for t in both) / sum(t[1] for t in both))


def end_to_end(doc, passes):
    per_job = job_times(passes)
    times = list(per_job.values())
    setup = [d for r in passes for d in r["setup_norm"]]
    print(f"{len(passes)} passes; p50/p90 over {len(times)} jobs' mean times; "
          f"setup_s over {len(setup)} probes; median reference time per pass: "
          + " ".join(f"{statistics.median(d for _, d in r['ref']):.4f}" for r in passes),
          file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "order_scaling": (order_scaling(doc, per_job), "log2"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in passes) / 1024, "MB"),
    }


def per_layer(plain, traced):
    """Medians over the traced passes; trace.overhead against the untraced."""
    def med(values):
        return statistics.median(list(values))

    metrics = {"cli.startup_s": (med(t["trace"]["startup_s"] for t in traced), "s")}
    for name, _, _ in spans.TARGETS:
        stats = [t["trace"]["layers"].get(name, [0, 0.0, 0.0]) for t in traced]
        if name != "cli.main":
            metrics[f"{name}.calls"] = (med(s[0] for s in stats), "count")
        metrics[f"{name}.busy_s"] = (med(s[1] for s in stats), "s")
        if not name.startswith("arith."):  # arith: calls and busy_s only
            metrics[f"{name}.self_s"] = (med(s[2] for s in stats), "s")
    ratios = []
    for t in traced:
        hits, misses = t["trace"]["cache"]
        ratios.append(hits / (hits + misses) if hits + misses else 0.0)
    metrics["identities.cache.hit_ratio"] = (med(ratios), "ratio")
    counts = [[rec["out"] for rec in t["jobs"] if "out" in rec] for t in traced]
    metrics["out.coeffs"] = (med(sum(c[0] for c in cs) for cs in counts), "count")
    metrics["out.max_bits"] = (med(max(c[1] for c in cs) for cs in counts), "bit")
    metrics["out.total_bits"] = (med(sum(c[2] for c in cs) for cs in counts), "bit")
    traced_t, plain_t = job_times(traced), job_times(plain)
    overhead = sum(traced_t.values()) / sum(plain_t[j] for j in traced_t) - 1
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def module_shares(traced):
    """Self time per module as a share of the traced pass time (stderr)."""
    totals = {}
    for t in traced:
        for name, (_, _, self_s) in t["trace"]["layers"].items():
            module = name.split(".")[0]
            totals[module] = totals.get(module, 0.0) + self_s / len(traced)
        totals["cli.startup"] = totals.get("cli.startup", 0.0) + \
            t["trace"]["startup_s"] / len(traced)
    busy = statistics.mean(
        sum(rec["lat"] for rec in t["jobs"] if "lat" in rec) for t in traced)
    totals["untraced code"] = busy - sum(totals.values())
    return {k: v / busy for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def run(workload, seed, seconds, trace, plant=None):
    doc = workloads.generate(workload, seed)
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    trace_root = base / f"trace-{workload}"
    if trace:
        shutil.rmtree(trace_root, ignore_errors=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        workdir = Path(tmp)
        for name, text in doc["files"].items():
            (workdir / name).write_text(text)
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps(doc))
        plain, traced, verified = [], [], None
        attempted = failed = 0
        elapsed = 0.0
        k = 0
        while True:
            is_traced = bool(trace) and k % 2 == 1
            result = run_worker(jobs_path, workdir, f"pass{k}", dump=k == 0,
                                trace_dir=trace_root / f"pass{k}" if is_traced else None,
                                plant=plant)
            normalise(result)
            if verified is None:
                verified = check_first_pass(doc, result)
            attempted += len(result["jobs"])
            failed += count_failed(result, verified)
            (traced if is_traced else plain).append(result)
            elapsed += result["wall_s"]
            k += 1
            enough = k >= MIN_PASSES and elapsed >= seconds
            if enough or (k >= 2 and elapsed >= MAX_PASSES_S):
                break

    if trace:
        metrics = per_layer(plain, traced)
        shares = module_shares(traced)
        print("self time share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()),
              file=sys.stderr)
    else:
        metrics = end_to_end(doc, plain)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", type=int, metavar="JOB_ID",
                        help="add a wrong value to this job's output in every "
                             "pass, to see the checks fail")
    args = parser.parse_args(argv)
    if not (SRC / "pfecalc" / "__init__.py").is_file():
        print(f"error: no pfecalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so that run_worker stops the pass's
    # whole process group on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    report = run(args.workload, args.seed, args.seconds, args.trace, args.plant)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
