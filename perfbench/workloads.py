"""Seeded inputs, the job table of each workload, and the answer checker.

Every expected value here comes from a closed formula or a pinned witness,
never from koszulcone itself:

- the minimal resolution of A/J, J = every degree-2 monomial, has module
  ranks 1, b_0, b_1, ... with b_i = (n-1)/(2+i) * n * C(n+i, n) over the
  squares ring k[x1..xn]/(xi^2) and b_i = (i+1) * C(n+1, i+2) over the
  polynomial ring, all generators of F_l in internal degree l+1;
- the degree-l dual component has dimension C(n+l-1, l) for the squares ring
  and C(n, l) for the polynomial ring, and these are the Priddy ranks;
- under the lex order the colon (m_1..m_{k-1} : m_k) of the polynomial ring
  generator x_a*x_b (a <= b) is generated by x_1..x_{b-1};
- the two pinned FAILs: regular-ordering condition (1) on the squares ring
  n=4, and the non-strongly-Koszul witness ((), b, 2) of fixtures/conca.ring.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONCA = REPO / "fixtures" / "conca.ring"

GF101 = "p=101"
QQ = "q"


@dataclass(frozen=True)
class Ring:
    """A generated ring file: kind is "squares", "poly" or "conca"."""

    kind: str
    n: int
    field: str = GF101

    @property
    def filename(self):
        if self.kind == "conca":
            return "conca.ring"
        tag = "gf101" if self.field == GF101 else "qq"
        return f"{self.kind}{self.n}-{tag}.ring"


def ideal_pairs(ring):
    """Index pairs (a, b), a <= b, of the degree-2 basis monomials, in lex order."""
    if ring.kind == "squares":
        return list(itertools.combinations(range(ring.n), 2))
    return list(itertools.combinations_with_replacement(range(ring.n), 2))


def ring_text(ring, rng):
    """Ring file text; the variable names are a seeded relabeling of x1..xn.

    Renaming variables is a ring automorphism of the squares and polynomial
    rings that fixes the ideal of all quadrics, so no expected value moves.
    """
    names = [f"x{i}" for i in range(1, ring.n + 1)]
    rng.shuffle(names)
    lines = [f"field {ring.field}", "vars " + " ".join(names)]
    if ring.kind == "squares":
        lines += [f"rel {v}^2" for v in names]
    monos = [f"{names[a]}^2" if a == b else f"{names[a]}*{names[b]}"
             for a, b in ideal_pairs(ring)]
    lines.append("ideal " + ", ".join(monos))
    return "\n".join(lines) + "\n"


def write_inputs(jobs, seed, workdir):
    """Write every ring file the jobs read into workdir; same seed, same bytes."""
    rng = random.Random(seed)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for ring in sorted({job.ring for job in jobs}, key=lambda r: r.filename):
        dest = workdir / ring.filename
        if ring.kind == "conca":
            # its greedy basis and pinned witness depend on the variable order
            shutil.copyfile(CONCA, dest)
        else:
            dest.write_text(ring_text(ring, rng))


# -- closed formulas ----------------------------------------------------------


def betti(ring, i):
    """Ideal-level Betti number b_i of J = all quadrics (linear resolution)."""
    n = ring.n
    if ring.kind == "squares":
        value = Fraction(n - 1, 2 + i) * n * comb(n + i, n)
        if value.denominator != 1:
            raise ValueError(f"non-integral Betti formula at n={n}, i={i}")
        return int(value)
    return (i + 1) * comb(n + 1, i + 2)


def dual_dim(ring, l):
    n = ring.n
    return comb(n + l - 1, l) if ring.kind == "squares" else comb(n, l)


# -- per-command checks: each returns a list of problems, empty when right ----


def _flags(checks):
    return [name for name, ok in checks if not ok]


def check_resolve(job, doc):
    ring, hmax = job.ring, job.hmax
    cx = doc.get("complex", {})
    modules = cx.get("modules", [])
    ranks = [len(m["basis"]) for m in modules]
    want = [1] + [betti(ring, l - 1) for l in range(1, hmax + 1)]
    degrees_ok = all(b["internal_degree"] == (l + 1 if l else 0)
                     for l, m in enumerate(modules) for b in m["basis"])
    ver = doc.get("verified", {})
    homology = ver.get("homology_ranks")
    return _flags([
        ("command", doc.get("command") == "resolve"),
        ("field", cx.get("field") == job.field_char),
        (f"ranks {ranks} != {want}", ranks == want),
        ("internal degrees", degrees_ok),
        ("d2_zero", ver.get("d2_zero") is True),
        ("minimal", ver.get("minimal") is True),
        ("exact", ver.get("exact_in_positive_degrees") is True),
        ("homology", bool(homology) and not any(homology.values())),
    ])


def check_priddy(job, doc):
    want = [dual_dim(job.ring, l) for l in range(job.hmax + 1)]
    homology = doc.get("homology", {})
    return _flags([
        ("command", doc.get("command") == "priddy"),
        (f"ranks {doc.get('ranks')} != {want}", doc.get("ranks") == want),
        ("passed", doc.get("passed") is True),
        ("witness", doc.get("witness") is None),
        ("homology window", len(homology) == (job.hmax - 1) * (job.dmax + 1)),
        ("homology", not any(homology.values())),
    ])


def check_dual(job, doc):
    want = {str(l): dual_dim(job.ring, l) for l in range(job.hmax + 1)}
    bases = doc.get("bases", {})
    return _flags([
        ("command", doc.get("command") == "dual"),
        (f"dims {doc.get('dims')} != {want}", doc.get("dims") == want),
        ("basis sizes", {k: len(v) for k, v in bases.items()} == want),
    ])


def check_betti(job, doc):
    ring, hmax = job.ring, job.hmax
    ideal = [[l, l + 2, betti(ring, l)] for l in range(hmax + 1) if betti(ring, l)]
    module = [[0, 0, 1]] + [[l + 1, d, v] for l, d, v in ideal]
    return _flags([
        ("command", doc.get("command") == "betti"),
        (f"ideal table {doc.get('ideal')} != {ideal}", doc.get("ideal") == ideal),
        ("module table", doc.get("module") == module),
        ("regularity", doc.get("regularity") == 2),
        ("linear", doc.get("linear_resolution") is True),
    ])


def check_quotients(job, doc):
    details = doc.get("details", [])
    want = [list(range(b)) for _, b in ideal_pairs(job.ring)]
    got = [d.get("colon_variables") for d in details]
    return _flags([
        ("command", doc.get("command") == "check quotients"),
        ("passed", doc.get("passed") is True),
        (f"colon variables {got} != {want}", got == want),
        ("linear", all(d.get("linear") is True for d in details)),
    ])


def check_regular(job, doc):
    conditions = {d["condition"] for d in doc.get("details", []) if "condition" in d}
    checks = [("command", doc.get("command") == "check regular"),
              ("passed", doc.get("passed") is job.passes)]
    if not job.passes:
        checks.append((f"failing conditions {conditions} != {{1}}", conditions == {1}))
    return _flags(checks)


def check_strongly_koszul(job, doc):
    checks = [("command", doc.get("command") == "check strongly-koszul"),
              ("passed", doc.get("passed") is job.passes)]
    if job.passes:
        checks.append(("witness", doc.get("first_witness") is None))
    else:
        checks.append((f"witness {doc.get('first_witness')}",
                       doc.get("first_witness") == [[], 1, 2]))
    return _flags(checks)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `koszulcone <args> RINGFILE --out json`."""

    name: str
    args: tuple
    ring: Ring
    check: object
    hmax: int = 4
    dmax: int = 4
    passes: bool = True

    @property
    def field_char(self):
        return 101 if self.ring.field == GF101 else 0

    @property
    def expected_rc(self):
        return 0 if self.passes else 1

    def argv(self, workdir):
        return [*self.args, str(Path(workdir) / self.ring.filename),
                "--hmax", str(self.hmax), "--dmax", str(self.dmax), "--out", "json"]


def _resolve(kind, n, method, hmax, dmax, field=GF101):
    ring = Ring(kind, n, field)
    return Job(f"resolve-{kind}{n}-{method}-h{hmax}d{dmax}",
               ("resolve", "--method", method), ring, check_resolve, hmax, dmax)


def _priddy(kind, n, hmax, dmax, field=GF101):
    return Job(f"priddy-{kind}{n}-h{hmax}d{dmax}", ("priddy",), Ring(kind, n, field),
               check_priddy, hmax, dmax)


def _check(what, kind, n, dmax, passes, check):
    return Job(f"check-{what}-{kind}{n}-d{dmax}", ("check", what),
               Ring(kind, n), check, dmax=dmax, passes=passes)


WORKLOADS = {
    # Jobs take 0.05-0.6 s each: short enough that the calibration kernel run
    # around a job sees the host speed the job saw (run.py), and a 30-second
    # run times every job 15 or more times.
    # rank-only elimination (homology_rank), lifts and d.d dominate
    "complex-gf": (
        _resolve("squares", 4, "cone", 4, 6),
        _resolve("squares", 5, "cone", 3, 5),
        _resolve("poly", 4, "closed", 4, 4),
        _resolve("poly", 4, "cone", 4, 5),
        _priddy("poly", 5, 4, 5),
    ),
    # dual components and ideal checks: kernels and intersections, no rank()
    "dual-gf": (
        Job("betti-squares5-h4", ("betti",), Ring("squares", 5), check_betti, hmax=4),
        Job("dual-squares5-h5", ("dual",), Ring("squares", 5), check_dual, hmax=5),
        _check("regular", "poly", 4, 4, True, check_regular),
        _check("regular", "squares", 4, 3, False, check_regular),
        _check("quotients", "poly", 4, 5, True, check_quotients),
        _check("strongly-koszul", "conca", 4, 4, False, check_strongly_koszul),
        _check("strongly-koszul", "squares", 5, 4, True, check_strongly_koszul),
    ),
    # QQ copies of complex-gf jobs, smaller: Bareiss elimination dominates
    "complex-qq": (
        _resolve("squares", 4, "cone", 3, 4, QQ),
        _resolve("poly", 4, "closed", 2, 4, QQ),
        _priddy("squares", 4, 3, 4, QQ),
    ),
}


def check_answer(job, rc, out):
    """Problems with one job's exit code and stdout; empty when all is right."""
    if rc != job.expected_rc:
        return [f"exit code {rc} != {job.expected_rc}"]
    try:
        doc = json.loads(out)
    except ValueError as e:
        return [f"stdout is not JSON: {e}"]
    return job.check(job, doc)
