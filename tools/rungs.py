"""Timings of the koszulcone CLI on rings too large for bench jobs.

    python tools/rungs.py CHECKOUT [--rung NAME ...] [--in-process N]

Writes the ring files of the ladder below into a temporary directory and runs
each rung there as its own `python -m koszulcone.cli ...` process, importing
koszulcone from CHECKOUT/src.  Each run prints one JSON line

    {"rung": ..., "argv": [...], "rc": ..., "wall_s": ..., "maxrss_mb": ...,
     "stdout_sha256": ...}

where wall_s includes interpreter start-up and import, maxrss_mb is the
child's own peak resident memory (from wait4), and stdout_sha256 lets two
checkouts be compared for byte identity.  The ring files do not depend on
CHECKOUT: the squares and polynomial rings are perfbench rings
(perfbench/workloads.py, seed 0), and the generic rings are complete
intersections of seeded dense quadrics.  Runs are sequential, one child at a
time; repeat the command for more samples.

To compare two checkouts, pair them rung by rung: run one rung on one
checkout, then the same rung on the other (`--rung NAME`), and alternate
which goes first.  A whole pass of one checkout followed by a whole pass of
the other puts the host's drift within a pass on one side only; over 8 such
passes one rung read 0.69x where rung-by-rung pairs read 1.14x.  Take
medians of at least 8 pairs.  wall_s carries the interpreter's start-up and
the import of koszulcone, about 0.09 s on a 2-core Xeon VM (0.22 s once
numpy loads), so a rung that runs under a second hides much of a gain or
loss in that floor: report those rungs' times in-process as well, as CPU
seconds of `koszulcone.cli.main` on the same arguments.

`--in-process N` does that.  It imports koszulcone from CHECKOUT/src into
this process and calls `koszulcone.cli.main` on each rung's arguments N + 1
times, in the ring directory, with stdout and stderr captured.  The first
call is not timed: it pays the import of numpy and fills the package's
caches of monomial tuples.  Each line is then

    {"rung": ..., "argv": [...], "rc": ..., "cpu_s": ..., "cpu_q1_s": ...,
     "cpu_q3_s": ..., "runs": N, "stdout_sha256": ...}

where cpu_s is the median process CPU time of the N timed calls, each after
a garbage collection, cpu_q1_s and cpu_q3_s their lower and upper quartiles
(inclusive method; all three are the one time when N is 1), and
stdout_sha256 is of the first call's stdout, encoded as UTF-8: the digest a
child process prints for the same rung.  To compare two checkouts, pair them
rung by rung as above, each side in its own `--in-process` command; the
quartiles tell whether a change in the median exceeds the spread of a side.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402

# name -> CLI arguments; the ring file named in them is written by ring_texts()
RUNGS = {
    "poly7-resolve": ("resolve", "--method", "cone", "poly7-gf101.ring", "--hmax", "4",
                      "--dmax", "5"),
    "squares7-verify": ("verify", "--method", "cone", "squares7-gf101.ring", "--hmax", "4",
                        "--dmax", "6"),
    "poly7-quotients": ("check", "quotients", "poly7-gf101.ring", "--dmax", "5"),
    # every variable-ideal dimension of the strongly Koszul check; --out json
    # makes the digest cover every (Y, x) entry, not only the verdict
    "squares7-strongly-koszul": ("check", "strongly-koszul", "squares7-gf101.ring", "--dmax",
                                 "4", "--out", "json"),
    # the closed form: explicit comparison maps and the regular-ordering check
    "poly7-closed": ("resolve", "--method", "closed", "poly7-gf101.ring", "--hmax", "3",
                     "--dmax", "4"),
    # the closed form over the rationals; --out json makes the digest cover
    # the whole exported complex, not only the verdicts of the checks
    "poly7-closed-qq": ("resolve", "--method", "closed", "poly7-gf101.ring", "--field", "q",
                        "--hmax", "3", "--dmax", "4", "--out", "json"),
    "squares6-verify": ("verify", "--method", "cone", "squares6-gf101.ring", "--hmax", "4",
                        "--dmax", "6"),
    # a whole resolve over the rationals: elimination and compositions over QQ
    "squares5-qq-resolve": ("resolve", "--method", "cone", "squares5-qq.ring", "--hmax", "4",
                            "--dmax", "6", "--field", "q"),
    "generic-0-4-3": ("priddy", "generic_0_4_3.ring", "--hmax", "4", "--dmax", "4",
                      "--field", "q"),
    "generic-1-3-2": ("resolve", "--method", "cone", "generic_1_3_2.ring", "--hmax", "4",
                      "--dmax", "5"),
    "generic-2-4-2": ("resolve", "--method", "cone", "generic_2_4_2.ring", "--hmax", "4",
                      "--dmax", "4"),
    "generic-5-5-4": ("dual", "generic_5_5_4.ring", "--hmax", "4", "--field", "q"),
    # dual components over GF(101) on dense rings: every normal form on the
    # two leading slots is dense
    "generic-5-5-4-dual-gf": ("dual", "generic_5_5_4.ring", "--hmax", "5"),
    "generic-2-4-2-dual-gf": ("dual", "generic_2_4_2.ring", "--hmax", "7"),
    # sparse components in wide tensor powers: 7^6 positions, and 8^6 through
    # the closed form's ordering check, which reads degree min(h, d) + 2
    "squares7-dual6": ("dual", "squares7-gf101.ring", "--hmax", "6"),
    # the regular-ordering check alone; --out json makes the digest cover
    # every detail and warning of the report, not only the verdict
    "poly7-regular": ("check", "regular", "poly7-gf101.ring", "--dmax", "4", "--out", "json"),
    "poly8-closed": ("resolve", "--method", "closed", "poly8-gf101.ring", "--hmax", "4",
                     "--dmax", "4"),
    # the generic cone on eight variables: its comparison-map lifts
    "poly8-resolve": ("resolve", "--method", "cone", "poly8-gf101.ring", "--hmax", "4",
                      "--dmax", "5", "--out", "json"),
    # degrees 6-13 of the algebra are zero: built with no elimination
    "squares5-resolve-d9": ("resolve", "--method", "cone", "squares5-gf101.ring", "--hmax", "4",
                            "--dmax", "9"),
    # a small rung for the tool's own test
    "hhr-resolve": ("resolve", "--method", "cone", "hhr_example.ring", "--hmax", "3",
                    "--dmax", "4"),
}
GENERIC = ((0, 4, 3), (1, 3, 2), (2, 4, 2), (5, 5, 4))


def generic_ring_text(seed, n, nrels):
    """Ring file over GF(101) whose nrels relations each use every quadratic
    monomial of x1..xn with a seeded random nonzero coefficient; ideal (x1)."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(1, n + 1)]
    quadrics = [f"{a}*{b}" if a != b else f"{a}^2" for a, b in
                itertools.combinations_with_replacement(names, 2)]
    lines = ["field p=101", "vars " + " ".join(names)]
    lines += ["rel " + " + ".join(f"{rng.randrange(1, 101)}*{m}" for m in quadrics)
              for _ in range(nrels)]
    lines.append("ideal x1")
    return "\n".join(lines) + "\n"


def write_rings(workdir):
    rings = (workloads.Ring("poly", 7), workloads.Ring("poly", 8),
             workloads.Ring("squares", 7), workloads.Ring("squares", 6),
             workloads.Ring("squares", 5), workloads.Ring("squares", 5, workloads.QQ))
    for ring in rings:
        (workdir / ring.filename).write_text(workloads.ring_text(ring, random.Random(0)))
    for seed, n, nrels in GENERIC:
        (workdir / f"generic_{seed}_{n}_{nrels}.ring").write_text(
            generic_ring_text(seed, n, nrels))
    shutil.copyfile(REPO / "fixtures" / "hhr_example.ring", workdir / "hhr_example.ring")


def run_rung(checkout, name, workdir):
    """One child process; returns the JSON-ready record of the run."""
    argv = list(RUNGS[name])
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "koszulcone.cli", *argv],
                                 cwd=workdir, env=env, stdout=out,
                                 stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {
        "rung": name,
        "argv": argv,
        "rc": child.returncode,
        "wall_s": round(wall, 3),
        # ru_maxrss is in KiB on Linux
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_sha256": digest,
    }


def in_process_runs(cli, name, workdir, runs):
    """The JSON-ready record of runs + 1 calls of cli.main on one rung, in
    this process; the first call is not timed."""
    argv = list(RUNGS[name])
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        times = []
        for k in range(runs + 1):
            out = io.StringIO()
            gc.collect()
            t0 = time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            times.append(time.process_time() - t0)
            if k == 0:
                first_rc, digest = rc, hashlib.sha256(out.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    timed = times[1:]
    q1, q2, q3 = statistics.quantiles(timed, method="inclusive") if runs > 1 else timed * 3
    return {
        "rung": name,
        "argv": argv,
        "rc": first_rc,
        "cpu_s": round(q2, 4),
        "cpu_q1_s": round(q1, 4),
        "cpu_q3_s": round(q3, 4),
        "runs": runs,
        "stdout_sha256": digest,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", help="directory holding src/koszulcone")
    p.add_argument("--rung", action="append", choices=sorted(RUNGS),
                   help="rung to run (repeatable; default every rung)")
    p.add_argument("--in-process", type=int, metavar="N",
                   help="time N calls of koszulcone.cli.main in this process, after "
                        "one untimed call, instead of one child process per rung")
    args = p.parse_args(argv)
    if args.in_process is not None and args.in_process < 1:
        p.error("--in-process needs at least one timed run")
    cli = None
    if args.in_process:
        sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
        cli = importlib.import_module("koszulcone.cli")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_rings(workdir)
        for name in args.rung or RUNGS:
            record = (in_process_runs(cli, name, workdir, args.in_process) if cli else
                      run_rung(args.checkout, name, workdir))
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
