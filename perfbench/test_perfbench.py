"""Tests of the benchmark itself, on jobs small enough for the unit suite."""

import json

import koszulcone
import koszulcone.cli  # noqa: F401  (run_job calls pkg.cli.main)

import calibrate
import run
import workloads
from tracer import LAYERS, Tracer
from workloads import Job, Ring

SMALL = (
    Job("betti-squares4-h3", ("betti",), Ring("squares", 4), workloads.check_betti, hmax=3),
    Job("resolve-poly3-cone", ("resolve", "--method", "cone"), Ring("poly", 3),
        workloads.check_resolve, hmax=3, dmax=4),
    Job("resolve-poly3-closed-qq", ("resolve", "--method", "closed"),
        Ring("poly", 3, workloads.QQ), workloads.check_resolve, hmax=3, dmax=4),
    Job("priddy-squares3", ("priddy",), Ring("squares", 3), workloads.check_priddy,
        hmax=3, dmax=4),
    Job("check-quotients-poly3", ("check", "quotients"), Ring("poly", 3),
        workloads.check_quotients, dmax=3),
    Job("check-strongly-koszul-conca", ("check", "strongly-koszul"), Ring("conca", 4),
        workloads.check_strongly_koszul, dmax=3, passes=False),
)


def run_small(tmp_path, seed, jobs=SMALL):
    workloads.write_inputs(jobs, seed, tmp_path)
    return [run.run_job(koszulcone, job, tmp_path) for job in jobs]


def test_small_jobs_pass_the_checker(tmp_path):
    for job, r in zip(SMALL, run_small(tmp_path, 0)):
        assert r.problems == [], job.name


def test_corrupted_betti_number_is_counted_as_failed(tmp_path):
    job = SMALL[0]
    good = run_small(tmp_path, 0, (job,))[0]
    doc = json.loads(good.out)
    doc["ideal"][1][2] += 1
    bad = run.JobRun(job, good.rc, json.dumps(doc), good.wall)
    tally = run.Tally()
    tally.record(job, good)
    tally.record(job, bad)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert any("ideal table" in p for p in bad.problems)


def test_wrong_exit_code_is_counted_as_failed():
    job = SMALL[-1]
    assert workloads.check_answer(job, 0, "{}") == ["exit code 0 != 1"]


def test_two_seeds_give_the_same_expected_values(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    runs_a, runs_b = run_small(a, 1), run_small(b, 2)
    for job, ra, rb in zip(SMALL, runs_a, runs_b):
        assert ra.problems == rb.problems == [], job.name
        assert ra.rc == rb.rc
    # the relabeling moved the names but not the answers
    ring = SMALL[0].ring.filename
    assert (a / ring).read_text() != (b / ring).read_text()
    assert json.loads(runs_a[0].out) == json.loads(runs_b[0].out)
    again = tmp_path / "again"
    workloads.write_inputs(SMALL, 1, again)
    assert (again / ring).read_bytes() == (a / ring).read_bytes()


def test_tracer_changes_no_output_byte_and_restores(tmp_path):
    workloads.write_inputs(SMALL, 0, tmp_path)
    original_rank = koszulcone.complexes.mat_rank
    tracer = Tracer(koszulcone)
    for job in SMALL:
        plain = run.run_job(koszulcone, job, tmp_path)
        tracer.reset()
        with tracer.installed():
            assert koszulcone.complexes.mat_rank is not original_rank
            traced = run.run_job(koszulcone, job, tmp_path)
        raw = tracer.snapshot()
        assert (traced.rc, traced.out) == (plain.rc, plain.out), job.name
        layers = sum(raw[f"{layer}.self_s"] for layer in LAYERS)
        assert 0 < layers <= traced.wall
        assert traced.wall - layers < 0.05
        if job.args[0] == "resolve":
            assert raw["linalg.rank_only_cells"] > 0
            assert raw["complexes.homology_calls"] > 0
        if job.args[0] == "betti":
            assert raw["linalg.rank_only_cells"] == 0
            assert raw["dual.component_calls"] > raw["dual.component_hits"] > 0
        if job.ring.field == workloads.QQ:
            assert raw["linalg.qq_self_s"] == raw["linalg.self_s"] > 0
        else:
            assert raw["linalg.qq_self_s"] == 0
    assert koszulcone.complexes.mat_rank is original_rank
    assert koszulcone.cli.main.__module__ == "koszulcone.cli"
    assert not hasattr(koszulcone.cli.main, "__wrapped__")


def test_calibration_kernel_does_fixed_work():
    a, b = calibrate.Kernel(), calibrate.Kernel()
    assert (a.matrix == b.matrix).all() and a.integers == b.integers and a.words == b.words
    before = a.matrix.copy()
    assert a() > 0
    assert (a.matrix == before).all()  # the timed call works on a copy
    assert calibrate.numpy_rank_mod_p(a.matrix.copy()) == 60
    assert calibrate.bareiss_rank(a.integers) == 12
    assert calibrate.squarefree_products(a.words) == 2540
