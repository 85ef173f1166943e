import gc
import random
from collections import Counter

import pytest

import koszulcone.ideals
from koszulcone.errors import DecompositionFailure, NotInIdeal, NotMultigraded
from koszulcone.algebra import GradedAlgebra, RingPresentation
from koszulcone.cli import parse_ring_text
from koszulcone.ideals import (MonomialIdeal, _colon_against_space, _indices,
                               _VariableIdealWalk, check_strongly_koszul)
from koszulcone.linalg import GF, QQ, Echelon, PrimeField, Subspace

import algebra_oracle
from ideal_oracle import Decomposition, annihilator_vars, regular_ordering_report
from ideal_oracle import variable_ideal_space as _variable_ideal_space
from rowform import canonical_qq, dense, sparse
from test_algebra import hhr_ring, poly_ring, squares_ring, sym_relation_ring
from test_dual import FIXTURES, oracle_algebras

F101 = GF(101)


def conca_ring(cutoff=7):
    # k[a,b,c,d]/(ac, ad, ab-bd, a^2+bc, b^2)
    from koszulcone.algebra import GradedAlgebra, RingPresentation
    one = F101.one
    rels = (
        ((one, (0, 2)),),
        ((one, (0, 3)),),
        ((one, (0, 1)), (F101.neg(one), (1, 3))),
        ((one, (0, 0)), (one, (1, 2))),
        ((one, (1, 1)),),
    )
    return GradedAlgebra(RingPresentation(("a", "b", "c", "d"), F101, rels), cutoff)


def hhr_ideal(cutoff=8):
    A = hhr_ring(cutoff)
    return MonomialIdeal(A, [(1, 1, 0), (0, 1, 1)])


def sym_ideal():
    A = sym_relation_ring()
    return MonomialIdeal(A, [(1, 1, 0), (0, 1, 1)])


def md_squares(n, d, cutoff=10):
    A = squares_ring(n, cutoff=cutoff)
    return MonomialIdeal(A, list(A.basis(d)))


def poly_m2(n, cutoff=9):
    A = poly_ring(n, cutoff=cutoff)
    return MonomialIdeal(A, list(A.basis(2)))


def test_generator_validation():
    A = sym_relation_ring()
    with pytest.raises(ValueError):
        MonomialIdeal(A, [(1, 0, 1)])  # xz is not a chosen-basis monomial
    with pytest.raises(ValueError):
        MonomialIdeal(A, [(0, 1, 1), (1, 1, 0), (1, 1, 0)])  # redundant repeat
    B = poly_ring(2)
    with pytest.raises(ValueError):
        MonomialIdeal(B, [(1, 1), (1, 0)])  # degrees must be nondecreasing


def test_membership_spec_examples():
    J = sym_ideal()
    A = J.algebra
    assert J.contains(J.gen_elements[0], prefix=1)
    xz = A.monomial_element((1, 0, 1))
    assert J.contains(xz, J.r)  # xz = -xy - yz lies in (xy, yz)
    xsq = A.monomial_element((2, 0, 0))
    assert not J.contains(xsq, J.r)
    assert not J.contains(xz, prefix=1)  # xz is not a multiple of xy alone


def test_colon_vars_hhr():
    J = hhr_ideal()
    assert J.colon_sets == (frozenset({2}), frozenset({0, 2}))
    assert [d["linear"] for d in J.check_linear_quotients(4).details] == [True, True]


def test_colon_vars_md_squares_closed_form():
    # (m^d)_{<sigma} : x_sigma = (x_i | i <= max sigma), 0-indexed
    for n, d in ((3, 2), (4, 2), (4, 3)):
        J = md_squares(n, d)
        for i, g in enumerate(J.gens, start=1):
            maxv = max(k for k, e in enumerate(g) if e)
            assert J.colon_sets[i - 1] == set(range(maxv + 1)), (n, d, i)


def test_first_generator_colon_is_kill_set():
    J = md_squares(3, 2)
    assert J.colon_sets[0] == {0, 1}  # x1 x2: both squares vanish


def test_check_linear_quotients():
    assert md_squares(3, 2).check_linear_quotients(4).passed
    assert hhr_ideal().check_linear_quotients(4).passed
    A = poly_ring(3)
    single = MonomialIdeal(A, [(1, 1, 0)])
    assert single.check_linear_quotients(4).passed


def test_annihilator_vars_squares():
    A = squares_ring(2, cutoff=6)
    vars_, deg1, report = annihilator_vars(A, (1, 0), check_to=4)
    assert vars_ == {0}
    assert deg1.dim == 1
    assert all(report.values())


def test_annihilator_vars_unit():
    A = squares_ring(2, cutoff=6)
    vars_, deg1, report = annihilator_vars(A, (0, 0), check_to=3)
    assert vars_ == frozenset()
    assert deg1.dim == 0
    assert all(report.values())


def test_annihilator_vars_conca_b():
    A = conca_ring()
    vars_, deg1, report = annihilator_vars(A, (0, 1, 0, 0), check_to=3)
    assert vars_ == {1}
    # the relation (a-d) b = 0 puts a non-variable form in the degree-1 part
    assert deg1.dim == 2
    assert report[2] is False  # c^2 b = 0 is a minimal degree-2 relation


def test_strongly_koszul_positive():
    for A in (poly_ring(3), squares_ring(3), hhr_ring()):
        rep = check_strongly_koszul(A, check_to=4)
        assert rep.passed
        assert rep.first_witness is None


def test_strongly_koszul_conca_witness():
    rep = check_strongly_koszul(conca_ring(), check_to=3)
    assert not rep.passed
    assert rep.first_witness == ((), 1, 2)  # Y empty, x = b, degree 2


def test_decompose_minimal_generator():
    J = sym_ideal()
    entries = J.decomposition.of_element(J.gen_elements[1], J.r)
    assert len(entries) == 1
    j, c = entries[0]
    assert j == 2 and c == J.algebra.monomial_element((0, 0, 0))


def test_decompose_sym_ring_spec_example():
    # xz = -xy - yz with coefficients m_1^* = -1, m_2^* = -1
    J = sym_ideal()
    A = J.algebra
    entries = dict(J.decomposition.of_element(A.monomial_element((1, 0, 1)), J.r))
    assert A.coords(entries[1]) == [100]
    assert A.coords(entries[2]) == [100]


def test_decompose_convention_times_var():
    J = hhr_ideal()
    A = J.algebra
    # x1 m_1 = x1^2 x2 is outside J_0, so the table returns x1 on m_1
    entries = J.decomposition.times_var(0, 1)
    assert entries == [(1, A.var(0))]
    # x1 m_2 = x1 x2 x3 = 0
    assert J.decomposition.times_var(0, 2) == []
    # x3 m_2 = 0 as well
    assert J.decomposition.times_var(2, 2) == []


def test_decompose_reconstruction_random():
    for J in (sym_ideal(), hhr_ideal(), md_squares(3, 2)):
        A = J.algebra
        for s in range(A.n):
            for k in range(1, J.r + 1):
                v = A.multiply(A.var(s), J.gen_elements[k - 1])
                entries = J.decomposition.times_var(s, k)
                acc = A.zero(v.degree)
                for j, c in entries:
                    acc = A.add(acc, A.multiply(c, J.gen_elements[j - 1]))
                assert acc == v


def test_decompose_not_in_ideal():
    J = sym_ideal()
    A = J.algebra
    with pytest.raises(NotInIdeal):
        J.decomposition.of_element(A.monomial_element((2, 0, 0)), J.r)


def test_regular_ordering_hhr():
    rep = hhr_ideal().check_regular_ordering(check_to=4)
    assert rep.passed, rep.details


def test_regular_ordering_poly_stable():
    for J in (poly_m2(2), poly_m2(3)):
        rep = J.check_regular_ordering(check_to=4)
        assert rep.passed, rep.details


def test_regular_ordering_poly_mixed_degrees():
    A = poly_ring(2, cutoff=9)
    J = MonomialIdeal(A, [(2, 0), (1, 1), (0, 3)])  # (x^2, xy, y^3), stable
    rep = J.check_regular_ordering(check_to=4)
    assert rep.passed, rep.details


def test_regular_ordering_condition1_trivial_in_poly_ring():
    # no excluded pairs in a polynomial ring, so condition (1) is vacuous
    J = poly_m2(2)
    assert J.algebra.non_basis_pairs() == []
    rep = J.check_regular_ordering(check_to=3)
    assert not any(d.get("condition") == 1 for d in rep.details)


def test_condition_one_readings_disagree_and_are_reported():
    # on the symmetric-relation fixture the printed and symmetric readings of
    # condition (1) genuinely differ; the report must surface it
    J = sym_ideal()
    rep = J.check_regular_ordering(check_to=3)
    assert not rep.passed
    assert any("readings disagree" in w for w in rep.warnings)


def test_condition_one_literal_reading_is_ill_typed_across_degrees():
    # the relation and prefer line of the symmetric-relation fixture with
    # ideal x, y^2: deg m_1 != deg m_2, so the printed reading m_j^*(x_s m_j)
    # of condition (1) is inhomogeneous at (j, k) = (1, 2); both readings fail
    J = MonomialIdeal(sym_relation_ring(), [(1, 0, 0), (0, 2, 0)])
    lhs = "2*x^2*y + 2*x^2*z + 99*x*y^2"
    sym = J.check_regular_ordering(3)
    assert not sym.passed
    assert sym.warnings == ["condition (1) readings disagree on 1 instances; first: "
                            "{'pair': (0, 2), 'j': 1, 'k': 2, 'literal_well_typed': False}"]
    assert sym.details[0] == {"condition": 1, "pair": (0, 2), "j": 1, "k": 2, "lhs": lhs,
                              "rhs": "x^2*y + x^2*z + 100*x*y^2"}
    literal = J.check_regular_ordering(3, mode="literal")
    assert not literal.passed and literal.warnings == sym.warnings
    assert literal.details[0] == {"condition": 1, "pair": (0, 2), "j": 1, "k": 2, "lhs": lhs,
                                  "rhs": "ill-typed (inhomogeneous literal reading)"}
    assert literal.details[1:] == sym.details[1:]


def test_condition_one_literal_reading_takes_a_zero_term_of_another_degree():
    # a printed term x_t m_j^*(x_s m_j) with deg m_j != deg m_k that vanishes
    # adds nothing to the literal reading instead of making it ill-typed
    A = sym_relation_ring()
    literal = []
    for gens in ([(1, 0, 0), (0, 1, 0), (0, 0, 2)], [(1, 0, 0), (0, 0, 1), (0, 2, 0)]):
        J = MonomialIdeal(A, gens)
        dec = J.decomposition
        zero_terms = [
            (j, k, s, t)
            for (u, v) in A.non_basis_pairs() for (s, t) in A.structure_coefficients()[u, v]
            for k in range(1, J.r + 1) for j in range(1, k + 1)
            if (term := A.multiply(A.var(t), dec._coeff(j, j, s))).is_zero
            and term.degree != A.multiply(A.var(s), dec._coeff(j, k, t)).degree]
        assert zero_terms, gens
        literal.append(J.check_regular_ordering(3, mode="literal"))
    # ideal x, y, z^2: (1, 3) and (2, 3) are ill-typed by their other terms
    assert [(d["j"], d["k"], d["rhs"]) for d in literal[0].details] == [
        (1, 2, "100*x*y + y^2"), (2, 2, "100*x*y + 100*y*z"),
        (1, 3, "ill-typed (inhomogeneous literal reading)"),
        (2, 3, "ill-typed (inhomogeneous literal reading)"), (3, 3, "100*y*z")]
    # ideal x, z, y^2: every printed term of another degree at (2, 3) vanishes,
    # so the literal reading is well typed there and holds
    assert literal[1].warnings == [
        "condition (1) readings disagree on 2 instances; first: "
        "{'pair': (0, 2), 'j': 1, 'k': 2, 'literal_well_typed': True}"]
    assert [(d["j"], d["k"]) for d in literal[1].details] == [(1, 2), (2, 2), (1, 3), (3, 3)]


def test_star_condition_hhr_passes():
    rep = hhr_ideal().check_star_condition()
    assert rep.passed
    assert rep.details[-1]["regular_ordering_guaranteed"]


def test_star_condition_poly_vacuous():
    J = poly_m2(2)
    assert J.check_star_condition().passed


def test_star_condition_counterexample():
    # in the squares ring, x1 * (x2 x3) = x3 * (x1 x2) is a nonzero element
    # of the earlier prefix, violating the star clause
    J = md_squares(3, 2)
    rep = J.check_star_condition()
    assert not rep.passed
    assert any(d.get("clause") == "star" for d in rep.details)


def test_star_condition_regular_decomposition_clause():
    # hhr ring, ideal x1, x2: E_1 = {x3} and E_2 = {x1}; x1 x2 lies in J_1,
    # but E_1 is not inside E_2
    J = MonomialIdeal(hhr_ring(), [(1, 0, 0), (0, 1, 0)])
    assert J.colon_sets == (frozenset({2}), frozenset({0}))
    rep = J.check_star_condition()
    assert not rep.passed
    assert rep.details == [
        {"clause": "star", "generator": 2, "variable": 0},
        {"clause": "regular-decomposition", "generator": 2, "variable": 0, "g_index": 1},
        {"regular_ordering_guaranteed": False}]


def test_star_condition_requires_monomial_relations():
    with pytest.raises(NotMultigraded):
        sym_ideal().check_star_condition()


def test_colon_sets_match_left_ideal_containment():
    # E_j in E_k iff L^k in L^j (degree-1 generator test)
    from koszulcone.dual import left_ideal_contains
    J = md_squares(3, 2)
    sets = J.colon_sets
    for j in range(J.r):
        for k in range(J.r):
            assert left_ideal_contains(J.dual, sets[k], (), sets[j], 3) == (sets[j] <= sets[k])


@pytest.mark.parametrize("breakage", ["unsolvable", "zero-coefficient", "piece-in-prefix"])
def test_decomposition_support_guarantees_are_typed(breakage, monkeypatch):
    # the peel step of of_element is one Solver.solve: None is no solution, and
    # the empty solution is zero on every unknown
    J = hhr_ideal()
    if breakage == "unsolvable":
        monkeypatch.setattr(koszulcone.ideals.Solver, "solve", lambda self, vec: None)
    elif breakage == "zero-coefficient":
        monkeypatch.setattr(koszulcone.ideals.Solver, "solve", lambda self, vec: {})
    else:
        monkeypatch.setattr(J, "contains", lambda element, prefix: True)
    with pytest.raises(DecompositionFailure) as e:
        J.decomposition.of_element(J.gen_elements[0], J.r)
    assert e.value.witness == (1, 2)


def ordering_rings(field, cutoff=7):
    """squares(4), poly(3), poly(4), hhr and sym_relation over one field."""
    one = field.one
    names = ("x1", "x2", "x3")
    hhr = (((one, (0, 2)),), ((one, (2, 2)),))
    sym = (((one, (0, 1)), (one, (0, 2)), (one, (1, 2))),)
    return {
        "squares4": squares_ring(4, cutoff, field),
        "poly3": poly_ring(3, cutoff, field),
        "poly4": poly_ring(4, cutoff, field),
        "hhr": GradedAlgebra(RingPresentation(names, field, hhr), cutoff),
        "sym_relation": GradedAlgebra(
            RingPresentation(names, field, sym, ((1, 1, 0), (0, 1, 1))), cutoff),
    }


def random_ordering(A, rng):
    """Degree-2 monomials in a random order, each kept when it lies outside
    the ideal of those kept before it."""
    cands = list(A.basis(2))
    rng.shuffle(cands)
    gens = []
    for g in cands[:rng.randint(2, len(cands))]:
        try:
            MonomialIdeal(A, gens + [g])
        except ValueError:  # redundant after the earlier ones
            continue
        gens.append(g)
    return MonomialIdeal(A, gens)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=repr)
def test_regular_ordering_report_equals_the_oracle(field):
    # the cached solvers, the memoised containments and the all-i pass of
    # condition (3) give the report of one elimination per peel step, detail
    # by detail and warning by warning, in order
    rng = random.Random(2100 + field.char)
    failed = Counter()
    for name, A in ordering_rings(field).items():
        for _ in range(20):
            J = random_ordering(A, rng)
            mode = rng.choice(("symmetric", "literal"))
            got = J.check_regular_ordering(3, mode=mode).as_dict()
            assert got == regular_ordering_report(J, 3, mode).as_dict(), (name, J.gens)
            failed.update(d.get("condition") for d in got["details"])
            if name != "sym_relation":
                continue
            # a non-monomial relation: the entries themselves, value types included
            dec, oracle = J.decomposition, Decomposition(J)
            for k in range(1, J.r + 1):
                for s in range(A.n):
                    assert repr(dec.times_var(s, k)) == repr(oracle.times_var(s, k))
                    for t in range(s, A.n):
                        assert (repr(dec.times_var_var(s, t, k))
                                == repr(oracle.times_var_var(s, t, k)))
            v = A.zero(3)
            for k, m in enumerate(J.gen_elements, 1):
                for s in range(A.n):
                    v = A.add(v, A.scale(field.of(rng.randint(-2, 2)),
                                         A.multiply(A.var(s), m)))
            assert repr(dec.of_element(v, J.r)) == repr(oracle.of_element(v, J.r))
    # the sample holds failures of conditions (1), (2a) and (3)
    assert failed[1] and failed["2a"] and failed[3], failed


def test_ordering_check_releases_its_decomposition_solvers():
    # the check builds one solver per (j, d) and drops them all on return; a
    # later decomposition rebuilds its solver and gets the same answer
    J = poly_m2(3)
    assert J.check_regular_ordering(check_to=4).passed
    dec = J.decomposition
    assert dec._solvers == {}
    A = J.algebra
    v = A.add(A.multiply(A.var(0), J.gen_elements[-1]), A.multiply(A.var(2), J.gen_elements[0]))
    got = dec.of_element(v, J.r)
    assert dec._solvers
    assert repr(got) == repr(Decomposition(J).of_element(v, J.r))


def test_regular_ordering_mode_is_a_value_error():
    with pytest.raises(ValueError, match="symmetric"):
        hhr_ideal().check_regular_ordering(mode="printed")


# -- colon dimensions against the kernel oracle -------------------------------

def random_ideal(A, rng):
    """Minimal generators of degree 2 and 3 in a random order within each degree."""
    cands = [m for d in (2, 3) for m in A.basis(d)]
    gens = []
    for g in sorted(rng.sample(cands, min(len(cands), rng.randint(2, 4))), key=sum):
        try:
            MonomialIdeal(A, gens + [g])
        except ValueError:  # redundant after the earlier ones
            continue
        gens.append(g)
    return MonomialIdeal(A, gens)


def var_rows(A, vars_):
    return [dict(A.var(j).terms) for j in sorted(vars_)]


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_colon_dimension_identity_matches_kernel_oracle(field):
    # dim (J_{i-1} : m_i)_d = dim A_d - dim (J_i)_{d+e} + dim (J_{i-1})_{d+e},
    # against the kernel of multiplication by m_i modulo J_{i-1}
    rng = random.Random(6060 + getattr(field, "char", 0))
    outcomes = []
    for name, A in oracle_algebras(field).items():
        pure_cubes = [MonomialIdeal(A, [(3, 0, 0), (0, 3, 0)])] if name == "poly" else []
        for J in [random_ideal(A, rng) for _ in range(3)] + pure_cubes:
            details = J.check_linear_quotients(4).details
            for i in range(1, J.r + 1):
                mel, e = J.gen_elements[i - 1], J.degs[i - 1]
                data = details[i - 1]
                deg1 = _colon_against_space(A, mel, 1, J.membership_space(i - 1, 1 + e))
                assert J.colon_sets[i - 1] == {j for j in range(A.n)
                                               if deg1.contains(dict(A.var(j).terms))}
                assert data["colon_variables"] == sorted(J.colon_sets[i - 1])
                expected = None
                for d in range(2, 5):
                    kernel_dim = _colon_against_space(
                        A, mel, d, J.membership_space(i - 1, d + e)).dim
                    identity = (A.dim(d) - J.membership_space(i, d + e).dim
                                + J.membership_space(i - 1, d + e).dim)
                    assert kernel_dim == identity, (name, J.gens, i, d)
                    span = _variable_ideal_space(A, var_rows(A, J.colon_sets[i - 1]), d)
                    if expected is None and span.dim != kernel_dim:
                        expected = d
                assert (data["fail_degree"], data["linear"]) == (expected, expected is None), \
                    (name, J.gens, i)
                outcomes.append(expected)
    assert {None, 2, 3} <= set(outcomes)  # failing orderings are covered


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_strongly_koszul_fail_degrees_match_kernel_oracle(field):
    algebras = oracle_algebras(field, cutoff=6)
    spanned, failed = set(), set()
    for name in ("conca", "sym_relation", "hhr_example", "squares", "random-0", "random-1",
                 "random-2", "random-3"):
        A = algebras[name]
        rep = check_strongly_koszul(A, check_to=3)
        witness = None
        for entry in rep.details:
            Y, x = entry["Y"], entry["x"]
            xel = A.var(x)
            y_rows = var_rows(A, Y)
            z1 = _colon_against_space(A, xel, 1, _variable_ideal_space(A, y_rows, 2))
            expected = None
            for d in (2, 3):
                colon = _colon_against_space(A, xel, d, _variable_ideal_space(A, y_rows, d + 1))
                if _variable_ideal_space(A, z1.rows, d).dim != colon.dim:
                    expected = d
                    break
            assert (entry["colon_degree1_dim"], entry.get("fail_degree")) == (z1.dim, expected), \
                (name, Y, x)
            spanned.add(entry["variable_spanned"])
            failed.add(expected is not None)
            if witness is None and expected is not None:
                witness = (tuple(Y), x, expected)
        assert (rep.passed, rep.first_witness) == (witness is None, witness), name
    assert spanned == {True, False} and failed == {True, False}


def test_back_to_back_objects_give_independent_answers():
    # caches live on the ideal or the call; one keyed by id() would hand an
    # answer to a later algebra that reuses a collected algebra's address
    n3 = (lambda: poly_ring(3, cutoff=7), lambda: squares_ring(3, cutoff=7),
          lambda: hhr_ring(cutoff=7), lambda: sym_relation_ring(cutoff=7))
    n4 = ((lambda: conca_ring(cutoff=5), ((), 1, 2)),
          (lambda: poly_ring(4, cutoff=5), None), (lambda: squares_ring(4, cutoff=5), None))
    for _ in range(8):
        for build in n3:
            A = build()
            J = MonomialIdeal(A, [(1, 1, 0), (0, 1, 1)])
            assert [d["fail_degree"] for d in J.check_linear_quotients(4).details] == [None, None]
            rep = check_strongly_koszul(A, check_to=3)
            assert rep.passed and all("fail_degree" not in e for e in rep.details)
            del A, J, rep
            gc.collect()
    for _ in range(3):
        for build, witness in n4:
            assert check_strongly_koszul(build(), check_to=3).first_witness == witness
            gc.collect()
    A = poly_ring(2, cutoff=8)  # two ideals of one algebra
    assert MonomialIdeal(A, [(2, 0), (1, 1)]).check_linear_quotients(4).passed
    assert MonomialIdeal(A, [(2, 0), (0, 2)]).check_linear_quotients(4).details[1][
        "fail_degree"] == 2


@pytest.mark.parametrize("field", [F101, QQ], ids=repr)
@pytest.mark.parametrize("e", [2, 3])
def test_failing_ordering_witness_is_pinned(field, e):
    # (x^e, y^e): (x^e) : y^e = (x^e) has no degree-1 part, so the check fails in degree e
    rep = MonomialIdeal(poly_ring(2, cutoff=8, field=field), [(e, 0), (0, e)]) \
        .check_linear_quotients(4)
    assert not rep.passed
    assert rep.details == [
        {"generator": 1, "colon_variables": [], "checked_to": 4, "linear": True,
         "fail_degree": None},
        {"generator": 2, "colon_variables": [], "checked_to": 4, "linear": False,
         "fail_degree": e},
    ]


# -- products against the plain multiply oracle ---------------------------------

def product_rows(A, g, d):
    """Rows of mu * g for the basis monomials mu of A_{d - deg g}, by multiply."""
    return [A.coords(A.multiply(A.monomial_element(mu), g))
            for mu in A.basis(d - g.degree)]


def random_element(A, d, rng):
    fld = A.field
    return A.element(d, [fld.of(rng.randint(-3, 3)) for _ in range(A.dim(d))])


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_multiplication_columns_match_multiply(field):
    rng = random.Random(7070 + getattr(field, "char", 0))
    for name, A in oracle_algebras(field, cutoff=6).items():
        for deg in (1, 2, 3):
            for _ in range(2):
                a = random_element(A, deg, rng)
                for e in range(6 - deg + 1):
                    cols = A.multiplication_columns(a, e)
                    assert len(cols) == A.dim(e)
                    for mu, col in zip(A.basis(e), cols):
                        prod = A.coords(A.multiply(A.monomial_element(mu), a))
                        nonzeros = {k: x for k, x in enumerate(prod) if x}
                        assert type(col) is dict
                        assert col == nonzeros, (name, a, e, mu)
                        assert {k: type(x) for k, x in col.items()} == \
                            {k: type(x) for k, x in nonzeros.items()}


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_multiplication_columns_match_per_column_expansion(field):
    # the one-pass block of a unit, a scaled and a two-term element against
    # one GradedAlgebra._expand per column: equal dicts, equal value types
    from test_cli import generic_ring_text  # test_cli imports this module
    rng = random.Random(9090 + getattr(field, "char", 0))
    cutoff = 5
    rings = oracle_algebras(field, cutoff)
    override = "q" if field == QQ else str(field.char)
    for seed, n, nrels in ((0, 4, 3), (1, 3, 2)):
        js = parse_ring_text(generic_ring_text(seed, n, nrels), field_override=override)
        rings[f"generic-{seed}-{n}-{nrels}"] = GradedAlgebra(js.presentation(), cutoff)
    value_ok = canonical_qq if field == QQ else (lambda x: type(x) is int)
    kinds = Counter()
    for name, A in rings.items():
        for deg in range(3):
            if A.dim(deg) < 2:
                continue
            k, j = rng.sample(range(A.dim(deg)), 2)
            c = field.of(rng.randint(2, 100)) or field.one  # GF(2) has no other unit
            elements = [A.from_sparse(deg, {k: field.one}), A.from_sparse(deg, {k: c, j: c})]
            if c != field.one:
                elements.append(A.from_sparse(deg, {k: c}))
            for a in elements:
                kind = "two-term" if len(a.terms) > 1 else \
                    "unit" if a.terms[0][1] == field.one else "scaled"
                for e in range(cutoff - deg + 1):
                    cols = A.multiplication_columns(a, e)
                    assert cols == algebra_oracle.multiplication_columns(A, a, e), \
                        (name, a, e)
                    assert all(value_ok(x) for col in cols for x in col.values())
                    kinds[kind] += len(cols)
    assert kinds["unit"] and kinds["two-term"]
    assert bool(kinds["scaled"]) == (field != GF(2))


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_membership_and_variable_ideal_spaces_match_product_oracle(field):
    rng = random.Random(8080 + getattr(field, "char", 0))
    cutoff = 6
    for name, A in oracle_algebras(field, cutoff=cutoff).items():
        for J in [random_ideal(A, rng) for _ in range(2)]:
            for prefix in range(J.r + 1):
                for d in range(cutoff + 1):
                    rows = [row for g, gd in zip(J.gen_elements[:prefix], J.degs)
                            if gd <= d for row in product_rows(A, g, d)]
                    expected = Subspace.from_rows(field, sparse(rows), A.dim(d))
                    got = J.membership_space(prefix, d)
                    assert (got.rows, got.pivots) == (expected.rows, expected.pivots), \
                        (name, J.gens, prefix, d)
        n = A.n
        subsets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(2)]
        mixed = sparse([[field.of(rng.randint(-3, 3)) for _ in range(n)] for _ in range(2)])
        for rows1 in [var_rows(A, Y) for Y in subsets] + [mixed, mixed[:1]]:
            for d in range(2, cutoff + 1):
                rows = [row for w in dense(rows1, n, field.zero)
                        for row in product_rows(A, A.element(1, w), d)]
                assert _variable_ideal_space(A, rows1, d) == \
                    Subspace.from_rows(field, sparse(rows), A.dim(d)), (name, rows1, d)


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_filtration_matches_per_prefix_oracle(field):
    # one forward-only echelon per degree gives the prefix dimensions,
    # membership and the minimal prefix; the oracle eliminates the product
    # rows of every prefix afresh.  The random rings make pivots non-units.
    rng = random.Random(9090 + getattr(field, "char", 0))
    cutoff = 6
    seen = {"inside": 0, "outside": 0, "later prefix": 0}
    for name, A in oracle_algebras(field, cutoff=cutoff).items():
        for J in [random_ideal(A, rng) for _ in range(2)]:
            for d in range(cutoff + 1):
                spaces = [Subspace.from_rows(field, sparse([
                    row for g, gd in zip(J.gen_elements[:prefix], J.degs) if gd <= d
                    for row in product_rows(A, g, d)]), A.dim(d)) for prefix in range(J.r + 1)]
                assert J._filtration(d, J.r).counts == [s.dim for s in spaces], (name, J.gens, d)
                for prefix, space in enumerate(spaces):
                    samples = [random_element(A, d, rng)]
                    if space.dim:
                        basis = dense(space.rows, A.dim(d), field.zero)
                        coeffs = [field.of(rng.randint(-3, 3)) for _ in basis]
                        samples.append(A.element(d, [
                            sum((field.mul(c, row[k]) for c, row in zip(coeffs, basis)),
                                field.zero) for k in range(A.dim(d))]))
                    for v in samples:
                        coords = dict(v.terms)
                        member = space.contains(coords)
                        assert J.contains(v, prefix) == member, (name, J.gens, prefix, d)
                        first = next((j for j in range(1, prefix + 1)
                                      if spaces[j].contains(coords)), None)
                        assert J._minimal_prefix(v, prefix) == first, (name, J.gens, prefix, d)
                        if not v.is_zero:
                            seen["inside" if member else "outside"] += 1
                            seen["later prefix"] += first is not None and first > 1
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_annihilator_reports_match_kernel_oracle(field):
    # report[d] comes from dim A_d - rank(m . A_d); the oracle is the kernel of
    # multiplication by m into the zero space
    outcomes = set()
    for name, A in oracle_algebras(field, cutoff=6).items():
        for exp in list(A.basis(1)) + list(A.basis(2)):
            mel = A.monomial_element(exp)
            vars_, deg1, report = annihilator_vars(A, exp, check_to=4)
            zero = [Subspace.zero(field, A.dim(d + mel.degree)) for d in range(5)]
            assert deg1 == _colon_against_space(A, mel, 1, zero[1])
            assert vars_ == {j for j in range(A.n) if deg1.contains(dict(A.var(j).terms))}
            assert sorted(report) == [2, 3, 4]
            for d in (2, 3, 4):
                kernel_dim = _colon_against_space(A, mel, d, zero[d]).dim
                span_dim = _variable_ideal_space(A, deg1.rows, d).dim
                assert report[d] == (span_dim == kernel_dim), (name, exp, d)
                outcomes.add(report[d])
    assert outcomes == {True, False}


# -- variable-ideal dimensions from one walk per degree ------------------------

def walk_rings(field, cutoff):
    """squares, poly, conca, sym_relation, a generic ring, and conca with the
    degree-1 basis permuted by prefer d, c, over one field."""
    from test_cli import generic_ring_text  # test_cli imports this module
    algebras = oracle_algebras(field, cutoff)
    rings = {name: algebras[name] for name in ("squares", "poly", "conca", "sym_relation")}
    override = "q" if field == QQ else str(field.char)
    conca = (FIXTURES / "conca.ring").read_text()
    for name, text in (("generic-0-4-3", generic_ring_text(0, 4, 3)),
                       ("conca-prefer-d-c", conca + "prefer d, c\n")):
        js = parse_ring_text(text, field_override=override)
        rings[name] = GradedAlgebra(js.presentation(), cutoff)
    return rings


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_variable_ideal_walk_matches_canonical_spaces(field):
    # seeded random variable sets in random order, so that the walk cuts back
    # and feeds again, against the canonical space of each set built afresh
    rng = random.Random(5050 + getattr(field, "char", 0))
    cutoff = 5
    rings = walk_rings(field, cutoff)
    assert rings["conca-prefer-d-c"].var(0).terms[0][0] == 2  # a sits at position 2
    cuts = 0
    for name, A in rings.items():
        walk = _VariableIdealWalk(A)
        queries = [(rng.randrange(1 << A.n), d) for d in range(2, cutoff + 1) for _ in range(10)]
        rng.shuffle(queries)
        for mask, d in queries:
            ys = list(_indices(mask))
            held = list(walk._walks[d][1]) if d in walk._walks else []
            cuts += held != ys[:len(held)]
            expected = _variable_ideal_space(A, var_rows(A, ys), d).dim
            assert walk.dim(mask, d) == expected, (name, mask, d)
            assert walk.at(mask, d).counts[-1] == expected, (name, mask, d)
            assert walk._walks[d][1] == ys
    assert cuts > 100


def test_strongly_koszul_feeds_each_set_once_per_degree(monkeypatch):
    # squares n = 5, check_to 4: one variable block per (set, degree) node of
    # the trie of sets, and no reduced elimination: every colon's degree-1
    # part is spanned by variables
    A = squares_ring(5, cutoff=6)
    blocks = {}
    for d in range(2, 6):
        for j in range(5):
            blocks[id(A.multiplication_columns(A.var(j), d - 1))] = (j, d)
    fed = []

    class Counting(Echelon):
        def __init__(self, field, ambient):
            super().__init__(field, ambient)
            self.chain = []

        def extend(self, rows):
            j, d = blocks[id(rows)]
            self.chain.append(j)
            fed.append((d, frozenset(self.chain)))
            super().extend(rows)

        def truncate(self, level):
            del self.chain[level:]
            super().truncate(level)

    modes = []
    rref = PrimeField.rref

    def counting_rref(self, rows, ncols, reduced=True):
        modes.append(reduced)
        return rref(self, rows, ncols, reduced)

    monkeypatch.setattr(koszulcone.ideals, "Echelon", Counting)
    monkeypatch.setattr(PrimeField, "rref", counting_rref)
    rep = check_strongly_koszul(A, check_to=4)
    assert rep.passed and all(e["variable_spanned"] for e in rep.details)
    assert True not in modes
    assert len(fed) == len(set(fed))
    per_degree = Counter(d for d, _ in fed)
    assert sorted(per_degree) == [2, 3, 4, 5] and max(per_degree.values()) <= 2 ** 5, per_degree
