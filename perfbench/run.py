"""Time-to-certificate benchmark for koszulcone.

    python3 perfbench/run.py --workload complex-gf --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It imports koszulcone from ./src (nothing
to build), writes the seeded ring files of the workload, and runs the
workload's jobs back to back in a closed loop with one client: each job is one
in-process `koszulcone.cli.main([... , "--out", "json"])` call.  The loop
cycles through the jobs until --seconds have passed, and always finishes at
least one full pass.  Every job's exit code and JSON answer is checked
against closed formulas (workloads.py).

--trace 0 prints the end-to-end metrics, measured with no tracer installed,
with times in reference seconds (below):
  wall_s         sum over jobs of the job's time
  job_geomean_s  geometric mean over jobs of the job's time
  peak_rss_mb    peak resident memory of this process, in MB
  setup_s        the time of one set-up round: import koszulcone afresh and
                 write the inputs (a round runs before every job)
On a shared host a job's wall time moves by up to 40% between runs of the
benchmark with the neighbours' load, and the fastest of many runs does not
help, because whole runs fall inside a slow spell.  So the calibration kernel
(calibrate.py) runs between every two steps, and each set-up round and each
job run is timed as its wall time over the mean time of the two kernel runs
around it.  A job's time, and setup_s, is the median of these ratios over
the run, times calibrate.REFERENCE_S: the seconds the step takes when the
kernel takes REFERENCE_S.  These move by 1-5% between runs.  The lines above
the result also give the median wall seconds.
--trace 1 runs every job twice per pass, once plainly and once under the
outside tracer (tracer.py), in alternating order, checks that both print
the same bytes, and prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 1 when any job failed (an exception, a
wrong exit code, a wrong answer, or traced output differing from plain
output), and the process exits with an error and no result when koszulcone
cannot be imported from ./src.

The process starts no threads or subprocesses of its own, and numpy's
threading libraries are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench-work"


def fresh_import():
    """Import koszulcone from ./src, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "koszulcone" or m.startswith("koszulcone.")]:
        del sys.modules[name]
    pkg = importlib.import_module("koszulcone")
    importlib.import_module("koszulcone.cli")
    return pkg


class Setup:
    """Set-up rounds: import koszulcone afresh and write the inputs.

    One round runs before the first job and one before every job, so each
    job starts from a fresh import as a CLI process would, and the set-up
    time is sampled across the whole run.
    """

    def __init__(self, jobs, seed, workdir):
        import numpy  # noqa: F401  (a dependency: loaded once, outside the timing)

        self.jobs, self.seed, self.workdir = jobs, seed, workdir
        self.times = []

    def round(self):
        t0 = time.perf_counter()
        pkg = fresh_import()
        workloads.write_inputs(self.jobs, self.seed, self.workdir)
        self.times.append(time.perf_counter() - t0)
        return pkg


class JobRun:
    """Outcome of one job: exit code, stdout, wall seconds, problems found."""

    def __init__(self, job, rc, out, wall, error=None):
        self.rc, self.out, self.wall = rc, out, wall
        self.problems = [error] if error else workloads.check_answer(job, rc, out)


def run_job(pkg, job, workdir):
    out = io.StringIO()
    gc.collect()  # the previous job's garbage is not charged to this one
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = pkg.cli.main(job.argv(workdir))
    except SystemExit as e:
        rc = e.code
    except Exception:  # a crashing job is a failed job, not a crashed benchmark
        wall = time.perf_counter() - t0
        return JobRun(job, None, out.getvalue(), wall, traceback.format_exc())
    return JobRun(job, rc, out.getvalue(), time.perf_counter() - t0)


def closed_loop(jobs, seconds, run_once):
    """Cycle through the jobs until `seconds` pass; at least one full pass."""
    samples = [[] for _ in jobs]
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(jobs) or time.perf_counter() < deadline:
        i = k % len(jobs)
        samples[i].append(run_once(i, jobs[i], k // len(jobs)))
        k += 1
    return samples


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, job, run, label=""):
        self.attempted += 1
        if run.problems:
            self.failed += 1
            print(f"FAILED {job.name}{label}: {run.problems}", file=sys.stderr)


def plain_metrics(setup, jobs, seconds, workdir, tally):
    from calibrate import REFERENCE_S, Kernel  # imports numpy: after main() pinned it

    kernel = Kernel()
    previous = kernel()
    setup_ratios = []

    def once(i, job, _round):
        nonlocal previous
        pkg = setup.round()
        before = kernel()
        setup_ratios.append(setup.times[-1] / ((previous + before) / 2))
        run = run_job(pkg, job, workdir)
        previous = kernel()
        tally.record(job, run)
        return run.wall, run.wall / ((before + previous) / 2)

    samples = closed_loop(jobs, seconds, once)
    ref = [statistics.median(r for _, r in s) * REFERENCE_S for s in samples]
    for job, s, t in zip(jobs, samples, ref):
        print(f"  {job.name:44s} n={len(s)}  median {statistics.median(w for w, _ in s):8.3f} s"
              f"  reference {t:8.3f} s")
    print(f"  {'set-up round':44s} n={len(setup_ratios)}  median"
          f" {statistics.median(setup.times[1:]):8.3f} s")
    return {
        "wall_s": (sum(ref), "s"),
        "job_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in ref)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_ratios) * REFERENCE_S, "s"),
    }


def traced_metrics(setup, jobs, seconds, workdir, tally):
    def traced(pkg, job):
        tracer = Tracer(pkg)
        with tracer.installed():
            run = run_job(pkg, job, workdir)
        return run, tracer.snapshot()

    def once(i, job, rnd):
        pkg = setup.round()
        if (i + rnd) % 2:
            (run_t, raw), run_p = traced(pkg, job), run_job(pkg, job, workdir)
        else:
            run_p = run_job(pkg, job, workdir)
            run_t, raw = traced(pkg, job)
        if (run_t.rc, run_t.out) != (run_p.rc, run_p.out) and not run_t.problems:
            run_t.problems = ["traced stdout or exit code differs from the plain run"]
        tally.record(job, run_p, " (plain)")
        tally.record(job, run_t, " (traced)")
        raw["trace.wall_s"] = run_t.wall
        raw["plain_wall_s"] = run_p.wall
        raw["cli.out_bytes"] = len(run_p.out.encode())
        return raw

    samples = closed_loop(jobs, seconds, once)
    total = {}
    for job, runs in zip(jobs, samples):
        per_job = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        print(f"  {job.name:44s} n={len(runs)}  plain {per_job['plain_wall_s']:8.3f} s"
              f"  traced {per_job['trace.wall_s']:8.3f} s")
        for k, v in per_job.items():
            total[k] = max(total.get(k, 0), v) if k == "dual.max_ambient" else total.get(k, 0) + v
    out = layer_metrics(total, total["plain_wall_s"])
    return {k: (v, unit_of(k)) for k, v in sorted(out.items())}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # before numpy is first imported, in Setup()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    jobs = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    workdir = WORK / str(os.getpid())
    try:
        setup = Setup(jobs, args.seed, workdir)
        try:
            pkg = setup.round()
        except ImportError as e:
            print(f"cannot import koszulcone from {SRC}: {e}", file=sys.stderr)
            return 2
        if Path(pkg.__file__).resolve().parent.parent != SRC:
            print(f"koszulcone was imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tally = Tally()
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        measure = traced_metrics if args.trace else plain_metrics
        metrics = measure(setup, jobs, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
