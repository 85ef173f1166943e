"""Oracles of koszulcone.ideals: canonical spaces and the ordering check, from scratch.

koszulcone.ideals reads dim (Y)_d from one forward-only echelon per degree
and ranks a non-variable degree-1 part from its product rows; neither builds
a basis.  variable_ideal_space builds the canonical reduced row echelon basis
of the same span from scratch, set by set, with no walk shared between sets.

The regular-ordering check decomposes on one cached linalg.Solver per
(j, d), memoises the left-ideal containments of condition (2) and sums
condition (3) for every i at once.  Decomposition and
regular_ordering_report do none of that: each peel step is one solve_columns
elimination, each containment is decided afresh, and condition (3) is summed
one i at a time.

annihilator_vars reads the degree-1 annihilator of a monomial class and
whether it generates the annihilator up to a bound, by the colon rule with
J_{i-1} = 0: dim (0:m)_d = dim A_d - rank(m . A_d).  No CLI command reads
annihilators; the package asks the same question only of the colons
((Y) : x) of variable ideals (check_strongly_koszul).
"""

from koszulcone.dual import left_ideal_contains
from koszulcone.errors import DecompositionFailure, NotInIdeal
from koszulcone.ideals import CheckReport, _colon_against_space, _span_rank
from koszulcone.linalg import Subspace, rank

from linalg_oracle import solve_columns


def variable_ideal_space(algebra, rows, d):
    """Degree-d span of the ideal generated by the dict rows of degree-1 elements."""
    rows = [col for w in rows
            for col in algebra.multiplication_columns(algebra.from_sparse(1, w), d - 1)]
    return Subspace.from_rows(algebra.field, rows, algebra.dim(d))


def annihilator_vars(algebra, exp, check_to=0):
    """Degree-1 annihilator data of a monomial class.

    Returns (variables, degree1_space, report): the variable indices killed by
    the monomial, the full degree-1 part of (0:m) as a subspace of A_1, and
    for each 2 <= d <= check_to whether (0:m)_d is generated by the degree-1
    part (False flags a higher minimal generator of the annihilator).
    """
    mel = algebra.monomial_element(tuple(exp))
    vars_ = frozenset(j for j in range(algebra.n)
                      if algebra.multiply(algebra.var(j), mel).is_zero)
    zero_target = Subspace.zero(algebra.field, algebra.dim(1 + mel.degree))
    deg1 = _colon_against_space(algebra, mel, 1, zero_target)
    report = {}
    for d in range(2, check_to + 1):
        # dim (0:m)_d = dim A_d - rank(m . A_d), and the span lies inside (0:m)_d
        colon_dim = algebra.dim(d) - rank(algebra.field, algebra.multiplication_columns(mel, d),
                                          algebra.dim(d + mel.degree))
        report[d] = _span_rank(algebra, deg1.rows, d) == colon_dim
    return vars_, deg1, report


class Decomposition:
    """DecompositionTable's entries, solving v = u + c m_j (u in J_{j-1})
    with one solve_columns elimination per peel step."""

    def __init__(self, ideal):
        self.ideal = ideal
        self._entries = {}  # (variables, k) -> entries, as the table caches them

    def times_var(self, s, k):
        got = self._entries.get(((s,), k))
        if got is None:
            J = self.ideal
            A = J.algebra
            v = A.multiply(A.var(s), J.gen_elements[k - 1])
            if v.is_zero:
                got = []
            elif not J.contains(v, prefix=k - 1):
                got = [(k, A.var(s))]
            else:
                got = self.of_element(v, bound=k - 1)
            self._entries[(s,), k] = got
        return got

    def times_var_var(self, s, t, k):
        key = ((min(s, t), max(s, t)), k)
        got = self._entries.get(key)
        if got is None:
            J = self.ideal
            A = J.algebra
            v = A.multiply(A.var(s), A.multiply(A.var(t), J.gen_elements[k - 1]))
            got = self._entries[key] = [] if v.is_zero else self.of_element(v, bound=J.r)
        return got

    def coeff(self, i, k, *variables):
        entries = (self.times_var(*variables, k) if len(variables) == 1
                   else self.times_var_var(*variables, k))
        for j, c in entries:
            if j == i:
                return c
        J = self.ideal
        return J.algebra.zero(J.degs[k - 1] + len(variables) - J.degs[i - 1])

    def of_element(self, element, bound):
        J = self.ideal
        A = J.algebra
        entries = []
        v = element
        while not v.is_zero:
            j = J._minimal_prefix(v, bound)
            if j is None:
                raise NotInIdeal("element is not in the prefix ideal")
            d = v.degree
            cdeg = d - J.degs[j - 1]
            gel = J.gen_elements[j - 1]
            multiples = A.multiplication_columns(gel, cdeg)
            prev = J.membership_space(j - 1, d).rows
            # rows^T . c = v over the multiples, then the rows of J_{j-1}
            eqs = [{} for _ in range(A.dim(d))]
            for k, col in enumerate([*multiples, *prev]):
                for c, x in col.items():
                    eqs[c][k] = x
            sols, _ = solve_columns(J.field, eqs, len(multiples) + len(prev), [dict(v.terms)])
            if sols is None:
                raise DecompositionFailure("no expression", witness=(j, d))
            coeff = A.from_sparse(cdeg, {k: x for k, x in sols[0].items() if k < len(multiples)})
            piece = A.multiply(coeff, gel)
            if coeff.is_zero or J.contains(piece, prefix=j - 1):
                raise DecompositionFailure("support guarantee", witness=(j, d))
            entries.append((j, coeff))
            v = A.sub(v, piece)
            bound = j - 1
        entries.reverse()
        return entries


def regular_ordering_report(J, check_to, mode="symmetric"):
    """MonomialIdeal.check_regular_ordering on the Decomposition above."""
    report = CheckReport("regular-ordering", True)
    lq = J.check_linear_quotients(check_to)
    if not lq.passed:
        report.passed = False
        report.warnings.append("linear-quotients precondition failed")
        report.details.append(lq.as_dict())
        return report
    colon_sets = J.colon_sets
    dec = Decomposition(J)
    _condition_one(J, dec, report, mode)
    _condition_two(J, dec, report, colon_sets, check_to)
    _condition_three(J, dec, report, colon_sets)
    return report


def _condition_one(J, dec, report, mode):
    A = J.algebra
    coeffs = A.structure_coefficients()
    disagreements = []
    for (u, v) in A.non_basis_pairs():
        for k in range(1, J.r + 1):
            for j in range(1, k + 1):
                lhs = A.add(A.multiply(A.var(u), dec.coeff(j, k, v)),
                            A.multiply(A.var(v), dec.coeff(j, k, u)))
                rhs_sym = A.zero(lhs.degree)
                rhs_lit = A.zero(lhs.degree)
                lit_ok = True
                for (s, t), f in coeffs[(u, v)].items():
                    first = A.multiply(A.var(s), dec.coeff(j, k, t))
                    sym = A.multiply(A.var(t), dec.coeff(j, k, s))
                    rhs_sym = A.add(rhs_sym, A.scale(f, A.add(first, sym)))
                    lit_term = A.multiply(A.var(t), dec.coeff(j, j, s))
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
                        "condition": 1, "pair": (u, v), "j": j, "k": k,
                        "lhs": A.format_element(lhs),
                        "rhs": A.format_element(chosen) if lit_ok or mode == "symmetric"
                               else "ill-typed (inhomogeneous literal reading)",
                    })
    if disagreements:
        report.warnings.append(
            f"condition (1) readings disagree on {len(disagreements)} instances; "
            f"first: {disagreements[0]}")


def _condition_two(J, dec, report, colon_sets, check_to):
    dual = J.dual
    for k in range(2, J.r + 1):
        Ek = colon_sets[k - 1]
        for t in sorted(Ek):
            for j in range(1, k):
                if dec.coeff(j, k, t).is_zero:
                    continue
                Ej = colon_sets[j - 1]
                if not Ej <= Ek:
                    report.passed = False
                    report.details.append({"condition": "2a", "j": j, "k": k, "t": t,
                                           "E_j": sorted(Ej), "E_k": sorted(Ek)})
                    continue
                if left_ideal_contains(dual, Ej, (t,), Ek, check_to):
                    continue
                for s in range(J.algebra.n):
                    if dual.pair_word_is_zero(t, s):
                        continue
                    if not left_ideal_contains(dual, Ej, (t, s), Ek, check_to):
                        continue
                    if s in Ej:
                        report.passed = False
                        report.details.append({"condition": "2b", "j": j, "k": k, "t": t,
                                               "s": s, "conclusion": "s not in E_j violated"})
                    if s in Ek:
                        report.warnings.append(
                            f"literal 2b reading (s not in E_k) fails at "
                            f"j={j}, k={k}, t={t}, s={s}")


def _condition_three(J, dec, report, colon_sets):
    A = J.algebra
    for k in range(2, J.r + 1):
        Ek = sorted(colon_sets[k - 1])
        for s in Ek:
            for t in Ek:
                b = dict(dec.times_var(t, k))
                for i in range(1, k):
                    lhs = dec.coeff(i, k, s, t)
                    rhs = A.zero(lhs.degree)
                    for j in range(i, k):
                        a = dict(dec.times_var(s, j)).get(i)
                        if a is not None and j in b:
                            rhs = A.add(rhs, A.multiply(a, b[j]))
                    if lhs != rhs:
                        report.passed = False
                        report.details.append({
                            "condition": 3, "i": i, "k": k, "s": s, "t": t,
                            "lhs": A.format_element(lhs), "rhs": A.format_element(rhs)})
