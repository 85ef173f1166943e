"""Graded free complexes: Priddy, sub-Priddy, mapping cones, closed forms.

A ChainComplex holds labeled free modules per homological degree and
differential matrices with homogeneous algebra-element entries.  Everything
is verified exactly: d.d = 0 as symbolic matrix identities, minimality as a
constant-term scan, and homology by rank computations on the degreewise
k-matrices.  One sparse composition kernel (_compose_columns) serves d.d
and the lifts' right-hand sides: it adds the normal form of each product of
single-term entries, and the expansion of any other
(GradedAlgebra._expand), into {position: value} sums, reduced once per
column.  The trace differential of a dual or quotient dual depends on it
and hmax only, so it is built and its d.d certified once and kept on the
dual, like the action matrices it is read from.

Both resolutions of an ideal with linear quotients are one iterated mapping
cone over the generators against their certified sub-Priddy complexes, and
differ only in the comparison maps: the generic cone lifts them degreewise
on linalg.Solvers kept across its steps, and under a regular ordering the
closed form writes them out.  The generic path is the in-house oracle for
the closed form: both must verify.

Cone sign conventions: cone(psi: K -> F)_l = F_l (+) K_{l-1} with
differential (f, k) |-> (dF f + psi k, -dK k); the shifted copy carries the
negated differential, which matches the closed form's leading minus sign.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from operator import add

from .errors import (
    CalibrationFailure,
    ClosureFailure,
    ConeNotComplex,
    InputError,
    LiftingFailure,
    NonMinimalCone,
    NotRegular,
    RegularOrderingViolation,
)
from .linalg import Solver, _nonzeros, rank as mat_rank

__all__ = [
    "Generator",
    "ChainComplex",
    "BettiTable",
    "VerifyReport",
    "priddy_complex",
    "koszulness_certificate",
    "sub_priddy_complex",
    "iterated_mapping_cone",
    "closed_form_resolution",
    "verify_complex",
    "betti_table",
    "complex_to_json",
    "complex_from_json",
]


@dataclass(frozen=True)
class Generator:
    """A labeled free-module basis element.

    gen is the 1-based ideal-generator index (None for complexes not indexed
    by generators), dual_index the position in the attached dual-space basis,
    and dual_word the ambient tensor realization of that basis vector in
    V^(x l), dual_ambient = n^l wide: its sorted (position, nonzero value)
    pairs.
    """

    gen: int | None
    dual_index: int
    internal_degree: int
    dual_ambient: int
    dual_word: tuple


class ChainComplex:
    """modules[l] lists Generators; diffs[l] maps (row, col) -> AlgebraElement."""

    def __init__(self, algebra, modules, diffs, kind="complex"):
        self.algebra = algebra
        self.modules = modules
        self.diffs = diffs
        self.kind = kind

    @property
    def length(self):
        return len(self.modules) - 1

    def ranks(self):
        return [len(m) for m in self.modules]

    def graded_ranks(self):
        out = {}
        for l, mod in enumerate(self.modules):
            for g in mod:
                out[(l, g.internal_degree)] = out.get((l, g.internal_degree), 0) + 1
        return out

    # -- exact verification -------------------------------------------------

    def d_squared_witness(self):
        """None when d.d = 0 holds exactly, else (l, row, col) of a violation."""
        for l in range(2, len(self.modules)):
            for c, sums in _compose_columns(self.algebra, self.diffs[l - 1], self.diffs[l]):
                for (r, _), val in sums.items():
                    if val:
                        return (l, r, c)
        return None

    def minimality_witness(self):
        """None when no differential entry has a constant term."""
        for l in range(1, len(self.modules)):
            for (r, c), a in self.diffs[l].items():
                if a.degree == 0 and not a.is_zero:
                    return (l, r, c)
        return None

    # -- degreewise k-linear data ---------------------------------------------

    def block_dims(self, l, d):
        A = self.algebra
        return [A.dim(d - g.internal_degree) for g in self.modules[l]]

    def degreewise_matrix(self, l, d):
        """The k-matrix of diff l in internal degree d: (rows, nrows, ncols)
        with sparse rows {column: value}, one per row (may be [])."""
        blocks, row_off, col_off = self._blocks(l, d, 0)
        mat = [{} for _ in range(row_off[-1])]
        for ro, co, cols in blocks:
            for j, col in enumerate(cols):
                for i, x in col.items():
                    mat[ro + i][co + j] = x
        return mat, row_off[-1], col_off[-1]

    def _blocks(self, l, d, start):
        """(blocks, row offsets, column offsets) of diff l in internal degree
        d, each offset list ending with the total: (row offset, column offset,
        multiplication columns) per nonempty block from column start on."""
        A = self.algebra
        row_off = _offsets(self.block_dims(l - 1, d))
        col_off = _offsets(self.block_dims(l, d))
        blocks = []
        for (r, c), a in self.diffs[l].items():
            e = d - self.modules[l][c].internal_degree
            ro, co = row_off[r], col_off[c]
            if e >= 0 and co >= start and col_off[c + 1] > co and row_off[r + 1] > ro:
                blocks.append((ro, co, A.multiplication_columns(a, e)))
        return blocks, row_off, col_off

    def homology_rank(self, i, d, diff_ranks):
        """dim over k of the degree-d part of H_i (needs diffs i and i+1).

        diff_ranks maps (l, d) to the rank of diff l in degree d and is filled
        as ranks are computed.  Adjacent homology ranks share a differential,
        so the calls of one computation pass one dict (_homology); it is valid
        only while the differentials stay unchanged.
        """
        total = sum(self.block_dims(i, d))
        if total == 0:
            return 0
        rank_out = self._diff_rank(i, d, diff_ranks) if i >= 1 else 0
        rank_in = self._diff_rank(i + 1, d, diff_ranks) if i + 1 < len(self.modules) else 0
        return total - rank_out - rank_in

    def _diff_rank(self, l, d, diff_ranks):
        if (l, d) not in diff_ranks:
            m, _, nc = self.degreewise_matrix(l, d)
            diff_ranks[(l, d)] = mat_rank(self.algebra.field, m, nc) if m else 0
        return diff_ranks[(l, d)]


def _offsets(dims):
    """The offset of each block and, last, the total."""
    return [0, *accumulate(dims)]


def _compose_columns(algebra, first, second):
    """The columns of first o second, for entry dicts with exact algebra entries.

    Yields (col, sums) for each column of second in order of first
    appearance; sums maps (row, degree) to the sum of the nonzero products as
    a sparse dict {basis position: value}, empty when they cancel.  A key
    enters sums with its first nonzero product.  Each entry's nonzero terms
    are read once per call.  A product of single terms c*m and c'*m' is
    c*c' times the normal form of m*m', zero exactly when that is empty;
    other products are expanded on the nonzeros of their factors
    (GradedAlgebra._expand).  A column's sums are reduced once, at its end.
    Keying by degree too diagnoses inhomogeneous (corrupted) input instead
    of crashing on a mixed-degree sum.
    """
    by_inner = {}
    for (r, g), a in first.items():
        by_inner.setdefault(g, []).append((r, a.degree, algebra._terms(a)))
    by_col = {}
    for (g, c), b in second.items():
        by_col.setdefault(c, []).append((g, b.degree, algebra._terms(b)))
    degrees, p = {}, algebra.field.char
    for c, col_entries in by_col.items():
        sums = {}
        for g, db, tb in col_entries:
            for r, da, ta in by_inner.get(g, ()):
                d = da + db
                dd = degrees.get(d) or degrees.setdefault(d, algebra._product_degree(d))
                if len(ta) == len(tb) == 1:
                    (ma, ca), (mb, cb) = ta[0], tb[0]
                    if nf := dd.nf[dd.index[tuple(map(add, ma, mb))]]:
                        scale, acc = ca * cb, sums.setdefault((r, d), {})
                        for k, x in nf:
                            acc[k] = acc.get(k, 0) + scale * x
                elif prod := algebra._expand(dd, ta, tb):
                    acc = sums.setdefault((r, d), prod)
                    if acc is not prod:
                        for k, v in prod.items():
                            acc[k] = acc.get(k, 0) + v
        yield c, {key: _nonzeros(acc, p) for key, acc in sums.items()}


# -- Priddy and sub-Priddy complexes -----------------------------------------


def _trace_differential(algebra, acts):
    """Entries sum_j acts[j][r][c] x_j of the trace-element differential.

    acts[j] is the action matrix of x_j in dict rows.  x_j is a unit vector
    of A_1, so acts[j][r][c] is the entry's coordinate at x_j's basis
    position.
    """
    coords = {}
    for j, act in enumerate(acts):
        ((pos, _),) = algebra.var(j).terms
        for r, row in enumerate(act):
            for c, x in row.items():
                coords.setdefault((r, c), {})[pos] = x
    return {key: algebra.from_sparse(1, v) for key, v in coords.items()}


def _trace_complex(algebra, space, hmax, kind, failure, shift=0, gen=None):
    """A (x) space-component complex with the trace differential.

    space is a dual or a quotient dual; failure is the exception raised when
    d.d = 0 fails.  The entries depend on space and hmax only (shift and gen
    relabel generators), so they are built and certified once and kept on
    space; a space that fails is not kept.
    Each call gets its own Generator labels and copies of the entry dicts.
    """
    got = space._trace.get(hmax)
    if got is None:
        words = [[tuple(sorted(row.items())) for row in space.component(l).rows]
                 for l in range(hmax + 1)]
        diffs = [None]
        for l in range(1, hmax + 1):
            acts = [space.act_matrix(l, j) for j in range(algebra.n)]
            diffs.append(_trace_differential(algebra, acts))
        # d.d reads only the entries, so the unlabeled words serve as modules
        if ChainComplex(algebra, words, diffs).d_squared_witness() is not None:
            raise failure
        got = space._trace[hmax] = (words, diffs)
    words, diffs = got
    # component(l) lives in V^(x l), n^l wide
    modules = [[Generator(gen, i, l + shift, algebra.n ** l, w) for i, w in enumerate(ws)]
               for l, ws in enumerate(words)]
    return ChainComplex(algebra, modules, [None] + [dict(d) for d in diffs[1:]], kind=kind)


def priddy_complex(dual, hmax):
    """A (x) dual-component complex with the trace differential; d.d=0 asserted."""
    return _trace_complex(dual.algebra, dual, hmax, "priddy", CalibrationFailure(
        "trace differential failed d.d = 0 on the full dual"))


def sub_priddy_complex(dual, allowed, hmax, shift=0, gen=None):
    """The quotient-dual subcomplex; closure of the action is asserted.

    shift raises every internal degree (used when the complex enters a cone
    against multiplication by a degree-shift generator); gen labels the
    basis elements with an ideal-generator index.
    """
    return _trace_complex(dual.algebra, dual.quotient(allowed), hmax, "sub_priddy",
                          ClosureFailure("sub-Priddy differential failed d.d = 0"),
                          shift, gen)


def koszulness_certificate(dual, hmax, dmax):
    """Bounded acyclicity certificate for the Priddy complex.

    Zero homology in homological degrees 1..hmax-1 and internal degrees up to
    dmax certifies Koszulness in that window; any nonzero homology is a
    definitive witness against Koszulness.
    """
    c = priddy_complex(dual, hmax)
    homology = _homology(c, range(hmax), dmax)
    ranks = {key: h for key, h in homology.items() if key[0]}
    witness = next(((i, d, h) for (i, d), h in ranks.items() if h), None)
    # augmentation sanity: H_0 is the ground field in degree 0
    h0_ok = all(h == (d == 0) for (i, d), h in homology.items() if i == 0)
    return {
        "passed": witness is None and h0_ok,
        "witness": witness,
        "homology": ranks,
        "ranks": c.ranks(),
    }


def _homology(c, degrees, dmax):
    """{(i, d): dim H_i in internal degree d} for i in degrees and 0 <= d <=
    dmax, the differential ranks computed once for all of them."""
    diff_ranks = {}
    return {(i, d): c.homology_rank(i, d, diff_ranks) for i in degrees for d in range(dmax + 1)}


# -- iterated mapping cone ------------------------------------------------------


def _base_complex(algebra, hmax):
    modules = [[Generator(None, 0, 0, 1, ((0, algebra.field.one),))]]
    modules += [[] for _ in range(hmax)]
    diffs = [None] + [{} for _ in range(hmax)]
    return ChainComplex(algebra, modules, diffs, kind="resolution")


def _lift_comparison(F, K, m_element, solvers):
    """Chain-map lift of multiplication by a generator, degree by degree.

    psi[0] is the homothety entry; psi[l] maps K_l into F_l solving
    dF . psi_l = psi_{l-1} . dK, one Solver.solve per basis vector of K_l.
    solvers keeps one linalg.Solver per (l, D) across the steps of one cone:
    a step appends generators after F's, so the k-matrix of dF in degree D
    gains columns, fed once, and rows on which the old columns are zero.
    The solution zero on the dependent unknowns depends only on the columns
    and their order, so it is the one of a fresh elimination.
    """
    A = F.algebra
    psi = [{(0, 0): m_element}]
    for l in range(1, len(K.modules)):
        src = K.modules[l]
        if not src:
            psi.append({})
            continue
        # K already carries the generator's degree shift in its labels
        D = src[0].internal_degree
        solver = solvers.get((l, D)) or solvers.setdefault((l, D), Solver(A.field, 0))
        fed = solver.fed
        blocks, tgt_off, src_off = F._blocks(l, D, fed)
        # right-hand sides: psi_{l-1} o dK, flattened in internal degree D
        targets = [{} for _ in src]
        for c, sums in _compose_columns(A, psi[l - 1], K.diffs[l]):
            for (r, _), elem in sums.items():
                for k, x in elem.items():
                    targets[c][tgt_off[r] + k] = x
        if src_off[-1] == 0 and any(targets):
            raise LiftingFailure(f"nonzero lift target into a zero module at degree {l}")
        solver.widen(tgt_off[-1])
        new = [{} for _ in range(src_off[-1] - fed)]
        for ro, co, cols in blocks:
            for j, col in enumerate(cols, co - fed):
                for i, x in col.items():
                    new[j][ro + i] = x
        solver.extend(new)
        # split each solution, in unknown order, at the block offsets; an empty
        # block shares its offset with the next, so bisect_right finds the
        # block that holds w's key
        entries = {}
        for c, t in enumerate(targets):
            w = solver.solve(t)
            if w is None:
                raise LiftingFailure(f"no lift exists for target column {c}")
            parts = {}
            for k, x in sorted(w.items()):
                r = bisect_right(src_off, k) - 1
                parts.setdefault(r, {})[k - src_off[r]] = x
            for r, vec in parts.items():
                entries[(r, c)] = A.from_sparse(D - F.modules[l][r].internal_degree, vec)
        psi.append(entries)
    return psi


def _cone(F, K, psi, hmax):
    """cone(psi: K -> F): modules F_l (+) K_{l-1}, K-part differential negated."""
    A = F.algebra
    modules = [list(F.modules[0])] + [F.modules[l] + K.modules[l - 1] for l in range(1, hmax + 1)]
    diffs = [None]
    for l in range(1, hmax + 1):
        entries = dict(F.diffs[l])
        col_off = len(F.modules[l])
        row_off_k = len(F.modules[l - 1])
        for (r, c), a in psi[l - 1].items():
            entries[(r, col_off + c)] = a
        if l >= 2:
            for (r, c), a in K.diffs[l - 1].items():
                entries[(row_off_k + r, col_off + c)] = A.scale(A.field.neg(A.field.one), a)
        diffs.append(entries)
    return ChainComplex(A, modules, diffs, kind="resolution")


def _iterated_cone(ideal, hmax, step):
    """The iterated mapping cone over m_1, ..., m_r.

    Step i cones the resolution F of A/J_{i-1} against the i-th sub-Priddy
    complex K, built to hmax - 1 as the cone uses, whose negated differential
    is the diagonal block; step(F, K, i) returns the comparison map psi: K ->
    F.  The basis is gen-major: homological degree l holds m_i (x)
    (quotient-dual basis of degree l-1) for each generator i in order.
    """
    F = _base_complex(ideal.algebra, hmax)
    for i in range(1, ideal.r + 1):
        K = sub_priddy_complex(ideal.dual, ideal.colon_sets[i - 1], hmax - 1,
                               shift=ideal.degs[i - 1], gen=i)
        F = _cone(F, K, step(F, K, i), hmax)
    return F


def iterated_mapping_cone(ideal, hmax):
    """Resolution of A/J by successive cones over canonical chain-map lifts.

    Requires linear quotients (the caller is expected to have checked; the
    colon variable sets come from the ideal's cache).
    """
    solvers = {}
    F = _iterated_cone(ideal, hmax, lambda F, K, i: _lift_comparison(
        F, K, ideal.gen_elements[i - 1], solvers))
    w = F.d_squared_witness()
    if w is not None:
        raise ConeNotComplex(f"cone differential broke d.d = 0 at {w}", witness=w)
    m = F.minimality_witness()
    if m is not None:
        raise NonMinimalCone(f"constant entry at {m}")
    return F


# -- closed-form resolution -------------------------------------------------------


def _explicit_comparison(ideal, F, K, k):
    """The comparison map K -> F written out under a regular ordering.

    psi_0 = m_k and psi_l(m_k (x) f) = sum_{s; j < k} c_j(x_s m_k) (m_j (x)
    f.x_s^*), with c_j the decomposition coefficients.  A symbol m_j (x)
    f.x_s^* is valid only when the contraction lies in the j-th quotient
    dual; invalid symbols are zero by definition (as in the classical closed
    form, where a symbol with out-of-range support is zero).
    """
    A = ideal.algebra
    dual = ideal.dual
    quots = [dual.quotient(E) for E in ideal.colon_sets[:k - 1]]
    lower = {s: terms for s in range(A.n)
             if (terms := [(j, cf) for j, cf in ideal.decomposition.times_var(s, k) if j < k])}
    psi = [{(0, 0): ideal.gen_elements[k - 1]}]
    for l in range(1, len(K.modules)):
        # F_l is gen-major: m_j (x) (basis vector t) is row start[j] + t
        start = {}
        for r, g in enumerate(F.modules[l]):
            start.setdefault(g.gen, r)
        entries = {}
        for c, g in enumerate(K.modules[l]):
            word = dict(g.dual_word)
            for s, terms in lower.items():
                contracted = dual.contract(word, l, s)
                if not contracted:
                    continue
                for j, coeff in terms:
                    coords = quots[j - 1].component(l - 1).coords_of(contracted)
                    if coords is None:
                        continue  # invalid symbol
                    for t, x in coords.items():
                        key = (start[j] + t, c)
                        term = A.scale(x, coeff)
                        entries[key] = A.add(entries[key], term) if key in entries else term
        psi.append({key: v for key, v in entries.items() if not v.is_zero})
    return psi


def closed_form_resolution(ideal, hmax, check_regular=True, check_to=4):
    """The explicit differential for ideals admitting a regular ordering.

    d(m_k (x) f) = -sum_s x_s (m_k (x) f.x_s^*)
                   + sum_{s; j < k} c_j(x_s m_k) (m_j (x) f.x_s^*)
    for positive dual degree, and d(m_k (x) 1) = m_k: the iterated mapping
    cone over the explicit comparison maps (_explicit_comparison), the first
    sum being the sub-Priddy block.  Dropping invalid symbols is consistent
    by the well-definedness lemma, enforced as the exact d.d = 0 check on the
    whole complex, which raises RegularOrderingViolation.  Each sub-Priddy
    block is certified first, and raises ClosureFailure.  The sum has no
    j = k terms: with them (the printed convention) d.d = 0 still holds, but
    exactness fails beyond polynomial rings, as on the hhr fixture.
    """
    if check_regular:
        rep = ideal.check_regular_ordering(check_to=check_to)
        if not rep.passed:
            raise NotRegular(f"regular-ordering check failed: {rep.details[:1]}")
    F = _iterated_cone(ideal, hmax, lambda F, K, k: _explicit_comparison(ideal, F, K, k))
    w = F.d_squared_witness()
    if w is not None:
        raise RegularOrderingViolation(f"closed-form differential broke d.d = 0 at {w}",
                                       witness=w)
    return F


# -- verification and Betti tables --------------------------------------------------


@dataclass
class VerifyReport:
    d2_zero: bool
    minimal: bool
    homology: dict = dc_field(default_factory=dict)
    exact_positive: bool = True
    d2_witness: tuple | None = None
    minimality_witness: tuple | None = None

    @property
    def passed(self):
        return self.d2_zero and self.minimal and self.exact_positive

    def as_dict(self):
        return {
            "d2_zero": self.d2_zero,
            "minimal": self.minimal,
            "exact_in_positive_degrees": self.exact_positive,
            "homology_ranks": {f"{i},{d}": h for (i, d), h in sorted(self.homology.items())},
            "d2_witness": self.d2_witness,
            "minimality_witness": self.minimality_witness,
        }


def verify_complex(c, dmax, d2_certified=False):
    """d.d = 0, minimality, and homology ranks for 0 < i < length, d <= dmax.

    d2_certified says that c is a resolution just returned, unchanged, by
    iterated_mapping_cone or closed_form_resolution: each checks d.d = 0
    exactly on the whole complex and raises unless it holds, so the report
    reuses that certificate (d.d = 0, no witness) instead of composing the
    differentials again.  A complex from anywhere else is checked in full.
    """
    d2w = None if d2_certified else c.d_squared_witness()
    mw = c.minimality_witness()
    homology = _homology(c, range(1, c.length), dmax)
    return VerifyReport(d2w is None, mw is None, homology, not any(homology.values()), d2w, mw)


@dataclass
class BettiTable:
    """Graded Betti numbers of the ideal and of the quotient module.

    ideal[(l, d)] counts degree-d generators of the l-th step of the minimal
    resolution of J (so d = l + deg for a generator of degree deg); module is
    the table of A/J (one homological shift up).  regularity is the maximal
    generator degree; linear_resolution flags equigenerated ideals.
    """

    ideal: dict
    module: dict
    regularity: int
    linear_resolution: bool

    def as_dict(self):
        return {
            "ideal": [[l, d, v] for (l, d), v in sorted(self.ideal.items())],
            "module": [[l, d, v] for (l, d), v in sorted(self.module.items())],
            "regularity": self.regularity,
            "linear_resolution": self.linear_resolution,
        }

    def text(self):
        table = self.ideal
        lmax = max(l for l, _ in table)
        qs = sorted({d - l for (l, d) in table})
        lines = []
        header = ["      "] + [f"{l:>6}" for l in range(lmax + 1)]
        lines.append("".join(header))
        totals = [sum(v for (l, d), v in table.items() if l == i) for i in range(lmax + 1)]
        lines.append("".join(["total:"] + [f"{t:>6}" for t in totals]))
        for q in qs:
            row = [f"{q:>5}:"]
            for l in range(lmax + 1):
                v = table.get((l, l + q), 0)
                row.append(f"{v:>6}" if v else "     .")
            lines.append("".join(row))
        return "\n".join(lines)


def betti_table(ideal, hmax):
    """Betti numbers from quotient-dual ranks, per the rank-sum formula.

    The l-th ideal-level Betti number in internal degree l + deg(m_i) sums the
    degree-l quotient-dual ranks over generators of that degree; the module
    table of A/J is the same data shifted one homological step.  The formula
    assumes linear quotients and does not check them: without them the table
    is wrong, so callers check first (check_linear_quotients), as the CLI does.
    """
    dual = ideal.dual
    ideal_table = {}
    for i in range(1, ideal.r + 1):
        quot = dual.quotient(ideal.colon_sets[i - 1])
        q = ideal.degs[i - 1]
        for l in range(hmax + 1):
            rk = quot.rank(l)
            if rk:
                key = (l, l + q)
                ideal_table[key] = ideal_table.get(key, 0) + rk
    module_table = {(0, 0): 1}
    for (l, d), v in ideal_table.items():
        module_table[(l + 1, d)] = module_table.get((l + 1, d), 0) + v
    degs = set(ideal.degs)
    return BettiTable(
        ideal=ideal_table,
        module=module_table,
        regularity=ideal.max_degree,
        linear_resolution=len(degs) <= 1,
    )


# -- serialization -----------------------------------------------------------------


def complex_to_json(c):
    fld = c.algebra.field
    doc = {
        "kind": c.kind,
        "field": fld.char,
        "length": c.length,
        "modules": [],
        "differentials": [],
    }
    for l, mod in enumerate(c.modules):
        doc["modules"].append({
            "hom_degree": l,
            "basis": [
                {
                    "generator_index": g.gen,
                    "dual_word": [[i, fld.format(x)] for i, x in g.dual_word],
                    "dual_ambient": g.dual_ambient,
                    "internal_degree": g.internal_degree,
                }
                for g in mod
            ],
        })
    for l in range(1, len(c.modules)):
        entries = [
            {
                "row": r,
                "col": cc,
                "coefficient": {
                    "degree": a.degree,
                    "coords": [fld.format(x) for x in c.algebra.coords(a)],
                },
            }
            for (r, cc), a in sorted(c.diffs[l].items())
        ]
        doc["differentials"].append({"hom_degree": l, "entries": entries})
    return doc


def complex_from_json(algebra, doc):
    """Rebuild a complex_to_json document over algebra.

    Raises:
        InputError: if doc is not such a document over algebra's field: a
            missing key or a value of the wrong type, another field, a dual
            word outside its ambient n^k (k at most the homological degree),
            a generator label other than null or a positive integer, a
            negative internal degree, an entry outside its matrix or given
            twice, or a coefficient whose degree is not the column's internal
            degree minus the row's, or whose length is not that degree's
            dimension.
    """
    fld = algebra.field
    _json_need(isinstance(doc, dict), "the complex JSON must be an object")
    if type(doc.get("field")) is not int or doc["field"] != fld.char:
        raise InputError(f"the complex is over field {doc.get('field')!r}, "
                         f"the ring over {fld!r}")
    kind = doc.get("kind", "complex")
    _json_need(isinstance(kind, str), "kind must be a string")
    modules = []
    for l, mod in enumerate(_json_list(doc, "modules", "the complex")):
        where = f"modules[{l}]"
        _json_int(mod, "hom_degree", where, l, l)
        ambients = [algebra.n ** k for k in range(l + 1)]
        gens = []
        for b in _json_list(mod, "basis", where):
            at = f"{where}.basis[{len(gens)}]"
            gen = _json_get(b, "generator_index", at)
            if gen is not None:
                _json_int(b, "generator_index", at, 1)
            ambient = _json_int(b, "dual_ambient", at, 1)
            _json_need(ambient in ambients,
                       f"{at}: dual_ambient {ambient} is not n^k for n = {algebra.n}, k <= {l}")
            word = {}
            for pair in _json_list(b, "dual_word", at):
                _json_need(isinstance(pair, list) and len(pair) == 2,
                           f"{at}: dual_word items must be [index, scalar] pairs")
                i, x = pair
                _json_need(type(i) is int and 0 <= i < ambient,
                           f"{at}: dual_word index {i!r} outside 0..{ambient - 1}")
                word[i] = _json_scalar(fld, x, at)
            degree = _json_int(b, "internal_degree", at, 0)
            gens.append(Generator(gen, len(gens), degree, ambient,
                                  tuple(sorted((i, x) for i, x in word.items() if x))))
        modules.append(gens)
    _json_need(modules, "the complex has no modules")
    differentials = _json_list(doc, "differentials", "the complex")
    _json_need(len(differentials) == len(modules) - 1,
               f"{len(modules)} modules need {len(modules) - 1} differentials, "
               f"not {len(differentials)}")
    diffs = [None]
    for l, dd in enumerate(differentials, start=1):
        where = f"differentials[{l - 1}]"
        _json_int(dd, "hom_degree", where, l, l)
        entries = {}
        for e in _json_list(dd, "entries", where):
            at = f"{where}.entries[{len(entries)}]"
            r = _json_int(e, "row", at, 0, len(modules[l - 1]) - 1)
            c = _json_int(e, "col", at, 0, len(modules[l]) - 1)
            _json_need((r, c) not in entries, f"{at}: entry ({r}, {c}) given twice")
            coeff = _json_get(e, "coefficient", at)
            deg = modules[l][c].internal_degree - modules[l - 1][r].internal_degree
            _json_need(0 <= deg <= algebra.cutoff,
                       f"{at}: internal degrees give the entry degree {deg}, outside "
                       f"0..{algebra.cutoff}")
            _json_int(coeff, "degree", f"{at}.coefficient", deg, deg)
            coords = _json_list(coeff, "coords", f"{at}.coefficient")
            _json_need(len(coords) == algebra.dim(deg),
                       f"{at}: {len(coords)} coords for degree {deg}, which has "
                       f"dimension {algebra.dim(deg)}")
            entries[(r, c)] = algebra.element(
                deg, tuple(_json_scalar(fld, x, at) for x in coords))
        diffs.append(entries)
    return ChainComplex(algebra, modules, diffs, kind=kind)


def _json_need(ok, message):
    if not ok:
        raise InputError(message)


def _json_get(obj, key, where):
    _json_need(isinstance(obj, dict) and key in obj, f"{where}: missing {key!r}")
    return obj[key]


def _json_list(obj, key, where):
    value = _json_get(obj, key, where)
    _json_need(isinstance(value, list), f"{where}: {key} must be a list")
    return value


def _json_int(obj, key, where, lo, hi=None):
    value = _json_get(obj, key, where)
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        if hi is None:
            want = f"an integer >= {lo}"
        elif hi < lo:
            want = "absent, as that module is empty"
        else:
            want = str(lo) if hi == lo else f"an integer in {lo}..{hi}"
        raise InputError(f"{where}: {key} must be {want}, not {value!r}")
    return value


def _json_scalar(fld, text, where):
    _json_need(isinstance(text, str), f"{where}: scalar {text!r} must be a string")
    try:
        return fld.parse(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: bad scalar {text!r} for {fld!r}") from None
