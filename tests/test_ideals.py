import pytest

import koszulcone.ideals
from koszulcone.errors import DecompositionFailure, NotInIdeal, NotMultigraded
from koszulcone.ideals import MonomialIdeal, annihilator_vars, check_strongly_koszul
from koszulcone.linalg import GF

from test_algebra import hhr_ring, poly_ring, squares_ring, sym_relation_ring

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
    assert J.contains(xz)  # xz = -xy - yz lies in (xy, yz)
    xsq = A.monomial_element((2, 0, 0))
    assert not J.contains(xsq)
    assert not J.contains(xz, prefix=1)  # xz is not a multiple of xy alone


def test_supp():
    J = hhr_ideal()
    assert J.supp((1, 1, 0)) == {0, 1}
    assert J.supp() == {0, 1, 2}
    # support of the defining relations of the hhr ring is {x1, x3}
    rel_support = set()
    for rel in J.algebra.presentation.relations:
        for _, (i, jj) in rel:
            rel_support |= {i, jj}
    assert rel_support == {0, 2}


def test_colon_vars_hhr():
    J = hhr_ideal()
    assert J.colon_vars(1, check_to=4).variables == {2}
    data = J.colon_vars(2, check_to=4)
    assert data.variables == {0, 2}
    assert data.linear


def test_colon_vars_md_squares_closed_form():
    # (m^d)_{<sigma} : x_sigma = (x_i | i <= max sigma), 0-indexed
    for n, d in ((3, 2), (4, 2), (4, 3)):
        J = md_squares(n, d)
        for i, g in enumerate(J.gens, start=1):
            maxv = max(k for k, e in enumerate(g) if e)
            assert J.colon_vars(i, check_to=3).variables == set(range(maxv + 1)), (n, d, i)


def test_first_generator_colon_is_kill_set():
    J = md_squares(3, 2)
    assert J.colon_vars(1).variables == {0, 1}  # x1 x2: both squares vanish


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
    entries = J.decomposition.of_element(J.gen_elements[1])
    assert len(entries) == 1
    j, c = entries[0]
    assert j == 2 and c == J.algebra.one()


def test_decompose_sym_ring_spec_example():
    # xz = -xy - yz with coefficients m_1^* = -1, m_2^* = -1
    J = sym_ideal()
    A = J.algebra
    entries = dict(J.decomposition.of_element(A.monomial_element((1, 0, 1))))
    assert entries[1].coords == (100,)
    assert entries[2].coords == (100,)


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
        J.decomposition.of_element(A.monomial_element((2, 0, 0)))


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


def test_star_condition_requires_monomial_relations():
    with pytest.raises(NotMultigraded):
        sym_ideal().check_star_condition()


def test_colon_sets_match_left_ideal_containment():
    # E_j in E_k iff L^k in L^j (degree-1 generator test)
    from koszulcone.dual import left_ideal_contains
    J = md_squares(3, 2)
    sets = J.colon_variable_sets()
    for j in range(J.r):
        for k in range(J.r):
            rep = left_ideal_contains(J.dual, sets[k], (), sets[j], 3)
            assert rep.holds == (sets[j] <= sets[k])


@pytest.mark.parametrize("breakage", ["unsolvable", "zero-coefficient", "piece-in-prefix"])
def test_decomposition_support_guarantees_are_typed(breakage, monkeypatch):
    J = hhr_ideal()
    if breakage == "unsolvable":
        monkeypatch.setattr(koszulcone.ideals, "solve_membership", lambda *args: None)
    elif breakage == "zero-coefficient":
        monkeypatch.setattr(koszulcone.ideals, "solve_membership",
                            lambda fld, target, rows: [fld.zero] * len(rows))
    else:
        monkeypatch.setattr(J, "contains", lambda element, prefix=None: True)
    with pytest.raises(DecompositionFailure) as e:
        J.decomposition.of_element(J.gen_elements[0])
    assert e.value.witness == (1, 2)


def test_regular_ordering_mode_is_a_value_error():
    with pytest.raises(ValueError, match="symmetric"):
        hhr_ideal().check_regular_ordering(mode="printed")
