"""Tests for the benchmark's own code: ``python -m pytest bench``."""

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    again = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    other = json.dumps(workloads.generate(workload, 8), sort_keys=True)
    assert first == again
    assert first != other
    jobs = workloads.generate(workload, 7)["jobs"]
    assert [job["id"] for job in jobs] == list(range(len(jobs)))


def _subset(workload):
    """A cheap slice of the workload that still holds every kind of job."""
    doc = workloads.generate(workload, 3)
    jobs = doc["jobs"]
    if workload == "engine_int":  # a single-factor and the two-factor spec
        keep = [j for j in jobs if j["group"] in ("spec0@24", "spec5@30")]
    elif workload == "rational_powers":
        keep = [j for j in jobs if j["scale"] == 1]
    else:
        cheap = {"malformed", "to-product", "from-g", "roots-check", "congruence"}
        keep = [j for j in jobs if j["kind"] in cheap
                or (j["kind"] == "expand" and j["N"] <= 150)
                or (j["kind"] == "verify" and j["key"] == "euler_sigma")]
    return {**doc, "jobs": keep}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_true_outputs_and_catch_planted_ones(workload, tmp_path):
    doc = _subset(workload)
    for name, text in doc["files"].items():
        (tmp_path / name).write_text(text)
    dump_path = tmp_path / "out.pkl"
    with open(dump_path, "wb") as dump:
        result = worker.run_pass(doc, str(tmp_path), dump=dump)
    assert all(rec["error"] is None for rec in result["jobs"])
    outputs = {}
    with open(dump_path, "rb") as handle:
        while True:
            try:
                job_id, out = pickle.load(handle)
            except EOFError:
                break
            outputs[job_id] = out

    honest, planted = checks.Checker(), checks.Checker()
    for job in doc["jobs"]:
        out = outputs[job["id"]]
        assert honest.check(job, out) is None, job
        assert planted.check(job, worker.plant(out)) is not None, job
        assert planted.check(job, out) is None, job


def test_planted_fault_counts_in_failed():
    doc = workloads.generate("engine_int", 5)
    target = next(j["id"] for j in doc["jobs"] if j["op"] == "enumerate_form2")
    report = run.run("engine_int", 5, seconds=0, trace=0, plant=target)
    assert report["attempted"] == run.MIN_PASSES * len(doc["jobs"])
    assert report["failed"] == run.MIN_PASSES
    assert report["correct"] is False


def test_times_are_put_on_the_reference_speed():
    # The host runs at full speed until t = 5, then 1.5x slower.  Each time
    # is scaled by the reference runs nearest to it.
    def speed(t):
        return 1.0 if t < 5 else 1.5

    ref = [[t, 0.003 * speed(t)] for t in range(10)]
    cal = [[t, 0.08] for t in range(3)]
    result = {"jobs": [{"id": 0, "t": 1.2, "lat": 0.2},
                       {"id": 1, "t": 8.2, "lat": 0.2 * 1.5}],
              "ref": ref, "ref_s": 0.004, "cal": cal, "setup": [[0.1, 0.05]]}
    run.normalise(result)
    norm = [rec["norm"] for rec in result["jobs"]]
    assert norm[0] == pytest.approx(0.2 * 0.004 / 0.003)
    assert norm[1] == pytest.approx(norm[0])
    assert result["setup_norm"] == pytest.approx(
        [0.05 * run.calibrate.SCRIPT_S / 0.08])
    other = {"jobs": [{"id": 0, "lat": 9, "norm": 1.0}]}
    assert run.job_times([result, other]) == pytest.approx(
        {0: (norm[0] + 1.0) / 2, 1: norm[1]})


def test_self_time_on_a_synthetic_span_tree():
    # name, start, end, parent, job
    tree = [
        ["a", 0.0, 10.0, -1, 0],  # 0
        ["b", 1.0, 4.0, 0, 0],    # 1
        ["c", 5.0, 9.0, 0, 0],    # 2
        ["b", 6.0, 8.0, 2, 0],    # 3: b again, not nested in b
        ["d", 11.0, 16.0, -1, 1],  # 4
        ["d", 12.0, 14.0, 4, 1],  # 5: d recursing into itself
    ]
    stats = spans.layer_stats(tree)
    assert stats["a"] == [1, 10.0, 3.0]
    assert stats["b"] == [2, 5.0, 5.0]
    assert stats["c"] == [1, 4.0, 2.0]
    assert stats["d"] == [2, 5.0, 5.0]


def test_every_alias_gets_its_wrapper():
    import pfecalc
    from pfecalc import arith, congruences, identities, pfe, roots
    from pfecalc.series import TruncatedSeries

    originals = {id(obj): obj for _, obj in spans.loaded_targets()}
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for ns in spans._namespaces():
            for key, value in vars(ns).items():
                assert id(value) not in originals, f"{ns.__name__}.{key} not wrapped"
        assert TruncatedSeries.__rmul__ is TruncatedSeries.__mul__
        assert identities.sigma is arith.sigma is pfecalc.sigma
        assert congruences.partition_power is identities.partition_power
        assert roots.series_to_pfe is pfe.series_to_pfe

        identities.verify("euler_sigma", N=6)
        verify_index = next(i for i, s in enumerate(tracer.spans)
                            if s[0] == "identities.verify")
        sigma = next(s for s in tracer.spans if s[0] == "arith.sigma")
        assert sigma[3] == verify_index
        assert any(s[0] == "arith.divisors" for s in tracer.spans)

        tracer.spans.clear()
        congruences.check_family(congruences.family(3, 1), 3, 2)
        roots.integrality_check([1, 1, 2, 3])
        names = {span[0] for span in tracer.spans}
        assert {"identities.partition_power", "arith.padic_valuation",
                "pfe.series_to_pfe"} <= names
    finally:
        spans.uninstall(undo)
    assert {id(obj) for _, obj in spans.loaded_targets()} == set(originals)
    assert identities.sigma is arith.sigma


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "engine_int", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
