"""Ordered monomial ideals: membership, colons, decompositions, ordering checks.

A monomial ideal here is an ordered list of chosen-basis monomials of the
ambient graded algebra.  All ideal-theoretic questions (membership, colon
ideals, minimality of generators) are answered degreewise by exact linear
algebra.  Every product row is read from GradedAlgebra.multiplication_columns
in the sparse row form {position: value}.

Membership is asked on the prefix filtration J_1 ⊂ J_2 ⊂ ... ⊂ J_r, which the
iterated mapping cone is built over (Herzog-Takayama, HHA 4, 2002).  Each
degree d keeps one linalg.Echelon, grown lazily: the multiples of m_1, m_2,
... are fed in that order, and the row count after the block of m_i is
dim (J_i)_d.  Membership in J_i is one head reduction against the first rows,
and the minimal prefix holding an element is the block of the last row its
reduction uses.  The canonical RREF of a prefix space (membership_space) is
those rows back-substituted, built only when a decomposition asks for it.

One colon rule serves every bounded check, and no colon is built above degree
1: m_i maps A_d onto (J_i / J_{i-1})_{d+e} (e = deg m_i) with kernel the colon,
so dim (J_{i-1} : m_i)_d = dim A_d - dim (J_i)_{d+e} + dim (J_{i-1})_{d+e}
(Herzog-Takayama, HHA 4, 2002); (Y) + (x) = (Y u {x}) gives the same identity
for variable ideals.  The ideal generated by the degree-1 part of a colon lies
inside it, so equal dimensions mean equal spaces.

The variable ideals (Y)_d those identities read are counted on one
forward-only linalg.Echelon per degree d too (_VariableIdealWalk).  A set Y
of variables is keyed by its variable indices (a bitmask), never by basis
positions of A_1, which a degree-1 prefer line permutes.  The sets are
visited in lexicographic order of their sorted indices, a preorder of their
trie: moving to the next set cuts the echelon back to the prefix the two
share and feeds the blocks x_j . A_{d-1} of the rest, and the row count
after each block is dim (Y)_d for that prefix.  Only ranks are read, with no
back-substitution; check_strongly_koszul collects every set it reads and
walks each degree once, and an ideal keeps one walk for its colon checks.

The decomposition table realizes the coefficient functions v = sum_i c_i(v) m_i
with the support guarantee c_i(v) m_i outside the earlier prefix ideal: the
algorithm peels off the minimal prefix containing v and solves the canonical
(echelon) witness at each step, so the table is deterministic.  Each (j, d)
keeps one linalg.Solver, fed the multiples m_j . A_{d - deg m_j} and then the
canonical basis rows of (J_{j-1})_d, so a peel step is one head reduction,
not one elimination; its answer, the canonical witness, is the solution that
is zero on the dependent unknowns.  The regular-ordering check reads that
table: condition (2) decides each left-ideal containment (E_j, prefix, E_k)
by one scan of the quotient dual's rows (dual.left_ideal_contains), and
condition (3) reads one whole decomposition of x_s x_t m_k per (k, s, t) and
sums every i's right-hand side in one pass over those of x_t m_k and x_s m_j.
The solvers are dropped when the check returns: what the closed form reads
afterwards is cached per entry, and a later decomposition rebuilds them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations

from .dual import QuadraticDual, left_ideal_contains
from .errors import DecompositionFailure, NotInIdeal, NotMultigraded
from .linalg import Echelon, Solver, kernel, rank

__all__ = [
    "MonomialIdeal",
    "DecompositionTable",
    "CheckReport",
    "check_strongly_koszul",
]


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: list = dc_field(default_factory=list)
    warnings: list = dc_field(default_factory=list)
    first_witness: tuple | None = None

    def as_dict(self):
        return {
            "check": self.name,
            "passed": self.passed,
            "details": self.details,
            "warnings": self.warnings,
            "first_witness": self.first_witness,
        }


def _indices(mask):
    """The variable indices of a bitmask, in increasing order."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


class _VariableIdealWalk:
    """dim (Y)_d of variable ideals, from one forward-only Echelon per degree d
    (the walk of the module docstring); a set Y is the bitmask of its
    variables, and every prefix set fed has its dimension recorded."""

    def __init__(self, algebra):
        self.algebra = algebra
        self._walks = {}  # d -> (Echelon, the variables fed, in order)
        self._dims = {}  # (mask, d) -> dim (Y)_d

    def at(self, mask, d):
        """The degree-d Echelon holding exactly the blocks of the variables of mask."""
        A = self.algebra
        walk = self._walks.get(d)
        if walk is None:
            walk = self._walks[d] = (Echelon(A.field, A.dim(d)), [])
            self._dims[0, d] = 0
        ech, path = walk
        ys = _indices(mask)
        k = 0
        for a, b in zip(path, ys):
            if a != b:
                break
            k += 1
        if k < len(path):
            ech.truncate(k)
            del path[k:]
        for j in ys[k:]:
            ech.extend(A.multiplication_columns(A.var(j), d - 1))
            path.append(j)
            self._dims[mask & ((2 << j) - 1), d] = ech.counts[-1]
        return ech

    def dim(self, mask, d):
        """dim (Y)_d for the variables of mask, walked to unless recorded."""
        got = self._dims.get((mask, d))
        if got is None:
            got = self.at(mask, d).counts[-1]
        return got

    def fill(self, masks, d):
        """Record dim (Y)_d for every mask, walking them in trie preorder."""
        for mask in sorted(masks, key=_indices):
            self.dim(mask, d)


def _span_rank(algebra, rows, d):
    """dim of the degree-d part of the ideal generated by the degree-1
    elements with the dict rows, as the rank of their product rows."""
    cols = [col for w in rows
            for col in algebra.multiplication_columns(algebra.from_sparse(1, w), d - 1)]
    return rank(algebra.field, cols, algebra.dim(d))


def _colon_against_space(algebra, m_element, d, target_space):
    """{v in A_d : v * m lies in target_space}, target in degree d + deg m."""
    stacked = {}  # the residuals modulo target_space, as sparse rows
    for j, col in enumerate(algebra.multiplication_columns(m_element, d)):
        if target_space.dim:
            col = target_space.reduce(col)[0]
        for r, x in col.items():
            stacked.setdefault(r, {})[j] = x
    return kernel(algebra.field, list(stacked.values()), algebra.dim(d))


class MonomialIdeal:
    """An ordered monomial ideal (m_1, ..., m_r) in a graded algebra.

    Generators must be chosen-basis monomials of nondecreasing degree, and
    each must lie outside the ideal of the previous ones (minimality).
    """

    def __init__(self, algebra, generators):
        self.algebra = algebra
        self.field = algebra.field
        self.gens = [tuple(g) for g in generators]
        self.degs = [sum(g) for g in self.gens]
        for g, d in zip(self.gens, self.degs):
            if d < 1:
                raise ValueError("ideal generators must have positive degree")
            if g not in set(algebra.basis(d)):
                raise ValueError(
                    f"generator {algebra.format_monomial(g)} is not a chosen-basis monomial"
                )
        if any(a > b for a, b in zip(self.degs, self.degs[1:])):
            raise ValueError("generator degrees must be nondecreasing")
        self.gen_elements = [algebra.monomial_element(g) for g in self.gens]
        self._filtrations = {}
        self._var_ideal_walk = _VariableIdealWalk(algebra)
        self._dual = None
        self.decomposition = DecompositionTable(self)
        for i in range(len(self.gens)):
            if self.contains(self.gen_elements[i], prefix=i):
                raise ValueError(
                    f"generator {algebra.format_monomial(self.gens[i])} is redundant"
                )

    @property
    def r(self):
        return len(self.gens)

    @property
    def max_degree(self):
        return max(self.degs) if self.gens else 0

    @property
    def dual(self):
        if self._dual is None:
            self._dual = QuadraticDual(self.algebra)
        return self._dual

    # -- membership ---------------------------------------------------------

    def _filtration(self, d, prefix):
        """The Echelon of degree d, fed with the blocks of m_1..m_prefix."""
        ech = self._filtrations.get(d)
        if ech is None:
            ech = self._filtrations[d] = Echelon(self.field, self.algebra.dim(d))
        A = self.algebra
        for i in range(len(ech.counts) - 1, prefix):
            e = d - self.degs[i]
            ech.extend(A.multiplication_columns(self.gen_elements[i], e) if e >= 0 else ())
        return ech

    def _prefix_dim(self, prefix, d):
        """dim (J_prefix)_d, the ideal of the first `prefix` generators in degree d."""
        return self._filtration(d, prefix).counts[prefix]

    def membership_space(self, prefix, d):
        """(J_prefix)_d as a canonical Subspace, built from the filtration rows."""
        return self._filtration(d, prefix).span(self._prefix_dim(prefix, d))

    def contains(self, element, prefix):
        if element.is_zero:
            return True
        if prefix == 0:
            return False
        ech = self._filtration(element.degree, prefix)
        return ech.locate(element.terms, ech.counts[prefix]) is not None

    # -- colon ideals ----------------------------------------------------------

    @cached_property
    def colon_sets(self):
        """The exact colon variable sets E_i = {j : x_j m_i in J_{i-1}}, i = 1..r."""
        A = self.algebra
        return tuple(frozenset(j for j in range(A.n)
                               if self.contains(A.multiply(A.var(j), mel), i))
                     for i, mel in enumerate(self.gen_elements))

    # -- ordering checks -----------------------------------------------------------

    def check_linear_quotients(self, check_to=4):
        """E_i with bounded linearity verification, one detail per generator.

        For 2 <= d <= check_to the check compares dim (J_{i-1} : m_i)_d =
        dim A_d - dim (J_i)_{d+e} + dim (J_{i-1})_{d+e} (e = deg m_i) with the
        dimension of the ideal E_i generates in degree d, read from the
        prefix filtration and from the ideal's variable-ideal walk: linear up
        to the bound, or the first failing degree.
        """
        A = self.algebra
        report = CheckReport("linear-quotients", True)
        for i, (E, e) in enumerate(zip(self.colon_sets, self.degs), 1):
            mask = sum(1 << j for j in E)
            fail_degree = None
            for d in range(2, check_to + 1):
                colon_dim = A.dim(d) - self._prefix_dim(i, d + e) + self._prefix_dim(i - 1, d + e)
                if self._var_ideal_walk.dim(mask, d) != colon_dim:
                    fail_degree = d
                    report.passed = False
                    break
            report.details.append({
                "generator": i,
                "colon_variables": sorted(E),
                "checked_to": check_to,
                "linear": fail_degree is None,
                "fail_degree": fail_degree,
            })
        return report

    def check_regular_ordering(self, check_to=4, mode="symmetric"):
        """The three compatibility conditions making cone comparison maps explicit.

        mode selects the reading of condition (1)'s last summand: "symmetric"
        (the form the chain-map computation needs) or "literal" (as printed);
        both are always evaluated and any disagreement is reported.
        Condition (2)(b) concludes s outside E_j (the well-definedness lemma's
        form); the naive `s outside E_k` evaluation is reported alongside.
        """
        if mode not in ("symmetric", "literal"):
            raise ValueError(f"mode must be 'symmetric' or 'literal', not {mode!r}")
        report = CheckReport("regular-ordering", True)
        lq = self.check_linear_quotients(check_to)
        if not lq.passed:
            report.passed = False
            report.warnings.append("linear-quotients precondition failed")
            report.details.append(lq.as_dict())
            return report
        try:
            self._check_condition_one(report, mode)
            self._check_condition_two(report, check_to)
            self._check_condition_three(report)
        finally:
            # what the closed form reads after the check is cached per entry
            self.decomposition._solvers.clear()
        return report

    def _check_condition_one(self, report, mode):
        A = self.algebra
        dec = self.decomposition
        coeffs = A.structure_coefficients()
        disagreements = []
        for (u, v) in A.non_basis_pairs():
            expansion = coeffs[(u, v)]
            for k in range(1, self.r + 1):
                for j in range(1, k + 1):
                    lhs = A.add(
                        A.multiply(A.var(u), dec._coeff(j, k, v)),
                        A.multiply(A.var(v), dec._coeff(j, k, u)),
                    )
                    rhs_sym = A.zero(lhs.degree)
                    rhs_lit = A.zero(lhs.degree)
                    lit_ok = True
                    for (s, t), f in expansion.items():
                        first = A.multiply(A.var(s), dec._coeff(j, k, t))
                        sym = A.multiply(A.var(t), dec._coeff(j, k, s))
                        rhs_sym = A.add(rhs_sym, A.scale(f, A.add(first, sym)))
                        # the printed reading m_j^*(x_s m_j) is inhomogeneous
                        # unless deg m_j = deg m_k; treat that as ill-typed
                        lit_term = A.multiply(A.var(t), dec._coeff(j, j, s))
                        if lit_term.degree == first.degree:
                            rhs_lit = A.add(rhs_lit, A.scale(f, A.add(first, lit_term)))
                        elif lit_term.is_zero:
                            rhs_lit = A.add(rhs_lit, A.scale(f, first))
                        else:
                            lit_ok = False
                    if not lit_ok or rhs_sym != rhs_lit:
                        disagreements.append({"pair": (u, v), "j": j, "k": k,
                                              "literal_well_typed": lit_ok})
                    chosen = rhs_sym if mode == "symmetric" else rhs_lit
                    if (mode == "literal" and not lit_ok) or lhs != chosen:
                        report.passed = False
                        report.details.append({
                            "condition": 1,
                            "pair": (u, v),
                            "j": j,
                            "k": k,
                            "lhs": A.format_element(lhs),
                            "rhs": A.format_element(chosen) if lit_ok or mode == "symmetric"
                                   else "ill-typed (inhomogeneous literal reading)",
                        })
        if disagreements:
            report.warnings.append(
                f"condition (1) readings disagree on {len(disagreements)} instances; "
                f"first: {disagreements[0]}"
            )

    def _check_condition_two(self, report, check_to):
        colon_sets = self.colon_sets
        dec = self.decomposition
        dual = self.dual
        for k in range(2, self.r + 1):
            Ek = colon_sets[k - 1]
            for t in sorted(Ek):
                for j in range(1, k):
                    if dec._coeff(j, k, t).is_zero:
                        continue
                    Ej = colon_sets[j - 1]
                    if not Ej <= Ek:
                        report.passed = False
                        report.details.append({
                            "condition": "2a", "j": j, "k": k, "t": t,
                            "E_j": sorted(Ej), "E_k": sorted(Ek),
                        })
                        continue
                    if left_ideal_contains(dual, Ej, (t,), Ek, check_to):
                        continue
                    for s in range(self.algebra.n):
                        if dual.pair_word_is_zero(t, s) or \
                                not left_ideal_contains(dual, Ej, (t, s), Ek, check_to):
                            continue
                        if s in Ej:
                            report.passed = False
                            report.details.append({
                                "condition": "2b", "j": j, "k": k, "t": t, "s": s,
                                "conclusion": "s not in E_j violated",
                            })
                        if s in Ek:
                            report.warnings.append(
                                f"literal 2b reading (s not in E_k) fails at "
                                f"j={j}, k={k}, t={t}, s={s}"
                            )

    def _check_condition_three(self, report):
        colon_sets = self.colon_sets
        A = self.algebra
        dec = self.decomposition
        for k in range(2, self.r + 1):
            Ek = sorted(colon_sets[k - 1])
            for s in Ek:
                for t in Ek:
                    # rhs_i = sum over j of c_i(x_s m_j) c_j(x_t m_k), every i at once
                    rhs = {}
                    for j, b in dec.times_var(t, k):
                        for i, a in dec.times_var(s, j):
                            c = A.multiply(a, b)
                            rhs[i] = A.add(rhs[i], c) if i in rhs else c
                    lhs = dict(dec.times_var_var(s, t, k))
                    for i in range(1, k):
                        got, want = lhs.get(i), rhs.get(i)
                        if got == want or got is None and want.is_zero:
                            continue
                        zero = A.zero(self.degs[k - 1] + 2 - self.degs[i - 1])
                        report.passed = False
                        report.details.append({
                            "condition": 3, "i": i, "k": k, "s": s, "t": t,
                            "lhs": A.format_element(zero if got is None else got),
                            "rhs": A.format_element(zero if want is None else want),
                        })

    def check_star_condition(self):
        """The multigraded sufficient condition for a regular ordering.

        Requires every defining relation to be a single monomial.  Checks that
        each support variable of the relations either kills a generator or
        keeps its multiple outside the earlier prefix, and that the induced
        decomposition function is regular on colon-variable sets.
        """
        A = self.algebra
        rel_support = set()
        for rel in A.presentation.relations:
            if len(rel) != 1:
                raise NotMultigraded("a defining relation is not a monomial")
            _, (i, j) = rel[0]
            rel_support |= {i, j}
        report = CheckReport("star-condition", True)
        for i in range(1, self.r + 1):
            for y in sorted(rel_support):
                w = A.multiply(A.var(y), self.gen_elements[i - 1])
                if w.is_zero:
                    continue
                if self.contains(w, prefix=i - 1):
                    report.passed = False
                    report.details.append({
                        "clause": "star", "generator": i, "variable": y,
                    })
        colon_sets = self.colon_sets
        for i in range(1, self.r + 1):
            for s in sorted(colon_sets[i - 1]):
                v = A.multiply(A.var(s), self.gen_elements[i - 1])
                if v.is_zero:
                    continue
                j = self._minimal_prefix(v, self.r)
                if j is not None and not colon_sets[j - 1] <= colon_sets[i - 1]:
                    report.passed = False
                    report.details.append({
                        "clause": "regular-decomposition", "generator": i,
                        "variable": s, "g_index": j,
                    })
        report.details.append({"regular_ordering_guaranteed": report.passed})
        return report

    def _minimal_prefix(self, element, bound):
        """The least j <= bound with element in J_j, or None; one reduction
        finds the last filtration row the element's expression uses."""
        ech = self._filtration(element.degree, bound)
        need = ech.locate(element.terms, ech.counts[bound])
        if need is None:
            return None
        j = bisect_left(ech.counts, need, 1)  # the zero element lies in J_1
        return j if j <= bound else None


class DecompositionTable:
    """Cached decomposition coefficients over the ordered generators.

    times_var(s, k) decomposes x_s m_k (honoring the convention that the
    coefficient is x_s on m_k itself when x_s m_k stays outside the earlier
    prefix); times_var_var(s, t, k) decomposes x_s x_t m_k; of_element
    decomposes an arbitrary ideal element.  Entries are lists of
    (generator index, coefficient) with nonzero AlgebraElement coefficients.
    """

    def __init__(self, ideal):
        self.ideal = ideal
        self._var_gen = {}
        self._var_var_gen = {}
        self._solvers = {}

    def _solver(self, j, d):
        """The Solver of v = c m_j + u (u in J_{j-1}) in degree d: its unknowns
        are the multiples m_j . A_{d - deg m_j}, then the rows of the canonical
        basis of (J_{j-1})_d, which fixes the coefficient on m_j."""
        got = self._solvers.get((j, d))
        if got is None:
            J = self.ideal
            A = J.algebra
            got = self._solvers[j, d] = Solver(J.field, A.dim(d))
            got.extend(A.multiplication_columns(J.gen_elements[j - 1], d - J.degs[j - 1]))
            got.extend(J.membership_space(j - 1, d).rows)
        return got

    def times_var(self, s, k):
        key = (s, k)
        got = self._var_gen.get(key)
        if got is not None:
            return got
        J = self.ideal
        A = J.algebra
        v = A.multiply(A.var(s), J.gen_elements[k - 1])
        if v.is_zero:
            entries = []
        elif not J.contains(v, prefix=k - 1):
            entries = [(k, A.var(s))]
        else:
            entries = self.of_element(v, bound=k - 1)
        self._var_gen[key] = entries
        return entries

    def times_var_var(self, s, t, k):
        key = (min(s, t), max(s, t), k)
        got = self._var_var_gen.get(key)
        if got is not None:
            return got
        J = self.ideal
        A = J.algebra
        v = A.multiply(A.var(s), A.multiply(A.var(t), J.gen_elements[k - 1]))
        entries = [] if v.is_zero else self.of_element(v, bound=J.r)
        self._var_var_gen[key] = entries
        return entries

    def _coeff(self, i, k, s):
        """Coefficient on m_i in the decomposition of x_s m_k; a degree-typed
        zero if absent."""
        for j, c in self.times_var(s, k):
            if j == i:
                return c
        J = self.ideal
        return J.algebra.zero(J.degs[k - 1] + 1 - J.degs[i - 1])

    def of_element(self, element, bound):
        """Greedy top-down decomposition with canonical echelon witnesses.

        Peels the minimal prefix j with v in J_j, solves v = u + c m_j with u
        in J_{j-1} canonically, by one head reduction on the cached Solver of
        (j, deg v), and recurses on u.  Checks the support guarantee: each
        extracted c m_j lies outside J_{j-1}.

        Raises:
            NotInIdeal: if element is outside the prefix ideal J_bound.
            DecompositionFailure: if a step breaks the support guarantee; the
                witness is (j, degree of the remainder).
        """
        J = self.ideal
        A = J.algebra
        entries = []
        v = element
        while not v.is_zero:
            j = J._minimal_prefix(v, bound)
            if j is None:
                raise NotInIdeal(
                    f"element of degree {element.degree} is not in the prefix ideal"
                )
            d = v.degree
            cdeg = d - J.degs[j - 1]
            gel = J.gen_elements[j - 1]
            sol = self._solver(j, d).solve(v.terms)
            if sol is None:
                raise DecompositionFailure(
                    f"degree-{d} element in J_{j} has no expression over m_{j} and J_{j - 1}",
                    witness=(j, d))
            # the first dim A_cdeg unknowns are the coefficients of the multiples
            nmult = A.dim(cdeg)
            coeff = A.from_sparse(cdeg, {k: x for k, x in sol.items() if k < nmult})
            if coeff.is_zero:
                raise DecompositionFailure(
                    f"support guarantee: coefficient on m_{j} vanished in degree {d}",
                    witness=(j, d))
            piece = A.multiply(coeff, gel)
            if J.contains(piece, prefix=j - 1):
                raise DecompositionFailure(
                    f"support guarantee: coefficient times m_{j} fell into J_{j - 1} "
                    f"in degree {d}", witness=(j, d))
            entries.append((j, coeff))
            v = A.sub(v, piece)
            bound = j - 1
        entries.reverse()
        return entries


def check_strongly_koszul(algebra, check_to=4):
    """Bounded certificate that variable-ideal colons are linear.

    For each subset Y of the variables (every subset when n <= 10, else those
    of size at most 2) and each variable x outside Y, the degree-1 part Z of
    ((Y):x) is computed exactly and the bounded check verifies
    ((Y):x)_d = (Z . A_{d-1}) for 2 <= d <= check_to.  Only
    dimensions are compared: dim ((Y):x)_d = dim A_d - dim (Y u {x})_{d+1} +
    dim (Y)_{d+1}, and (Z . A_{d-1}) lies inside the colon.  The first
    failing witness (Y, x, d) is reported; whether Z is spanned by variables
    is a per-pair diagnostic (the strict subset-of-variables reading).

    Every variable-ideal dimension is read from one walk per degree over the
    sets it needs.  The degree-2 walk also gives Z: x_j lies in Z exactly
    when x_j x lies in (Y)_2, and dim Z = n - dim (Y u {x})_2 + dim (Y)_2, so
    Z is spanned by variables when they count up to dim Z.  Only a Z that
    variables do not span is built as a subspace, and its ideal is ranked
    from its product rows.
    """
    n = algebra.n
    report = CheckReport("strongly-koszul", True)
    max_size = n if n <= 10 else 2
    pairs = []  # (Y, x, mask of Y, mask of Y u {x})
    for size in range(max_size + 1):
        for Y in combinations(range(n), size):
            ym = sum(1 << j for j in Y)
            pairs += [(Y, x, ym, ym | 1 << x) for x in range(n) if not ym >> x & 1]
    walk = _VariableIdealWalk(algebra)
    sets = {m for _, _, ym, yxm in pairs for m in (ym, yxm)}
    ymasks = {ym for _, _, ym, _ in pairs}
    # x . x_j is column (position of x_j in A_1) of multiplication by x
    pos = [algebra.var(j).terms[0][0] for j in range(n)]
    times = [algebra.multiplication_columns(algebra.var(x), 1) for x in range(n)]
    zvars = {}  # (mask of Y, x) -> the variables of Z, read at Y on the degree-2 walk
    for m in sorted(sets, key=_indices):
        ech = walk.at(m, 2)
        if m in ymasks:
            count = ech.counts[-1]
            for x in range(n):
                if not m >> x & 1:
                    # x_j in Y puts x_j x in (Y)
                    zvars[m, x] = [j for j in range(n) if m >> j & 1
                                   or ech.locate(times[x][pos[j]], count) is not None]
    colons = []
    for Y, x, ym, yxm in pairs:
        zv = zvars[ym, x]
        z1dim = n - walk.dim(yxm, 2) + walk.dim(ym, 2)
        # variable rows are distinct unit vectors of A_1, hence independent
        zm = sum(1 << j for j in zv) if len(zv) == z1dim else None
        colons.append((zv, z1dim, zm))
    zsets = {zm for _, _, zm in colons if zm is not None}
    for d in range(2, check_to + 2):
        walk.fill(sets | zsets if d <= check_to else sets, d)

    first_witness = None
    for (Y, x, ym, yxm), (zv, z1dim, zm) in zip(pairs, colons):
        entry = {
            "Y": list(Y), "x": x, "colon_degree1_dim": z1dim,
            "colon_vars": zv, "variable_spanned": zm is not None,
        }
        z1 = None
        if zm is None:
            report.warnings.append(
                f"(({list(Y)}):x_{x}) has non-variable degree-1 part"
            )
            ech = walk.at(ym, 2)
            z1 = _colon_against_space(algebra, algebra.var(x), 1, ech.span(ech.counts[-1]))
        fail_d = None
        for d in range(2, check_to + 1):
            colon_dim = algebra.dim(d) - walk.dim(yxm, d + 1) + walk.dim(ym, d + 1)
            z_dim = walk.dim(zm, d) if z1 is None else _span_rank(algebra, z1.rows, d)
            if z_dim != colon_dim:
                fail_d = d
                break
        if fail_d is not None:
            report.passed = False
            entry["fail_degree"] = fail_d
            if first_witness is None:
                first_witness = (Y, x, fail_d)
        report.details.append(entry)
    report.first_witness = first_witness
    if first_witness is not None:
        report.warnings.insert(
            0,
            f"first witness: Y={list(first_witness[0])}, x=x_{first_witness[1]}, "
            f"degree {first_witness[2]}",
        )
    return report
