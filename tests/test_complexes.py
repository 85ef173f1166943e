import json
import random
from collections import Counter
from math import comb

import pytest

import koszulcone.complexes
from koszulcone.algebra import GradedAlgebra
from koszulcone.cli import parse_ring_text
from koszulcone.complexes import (
    ChainComplex,
    betti_table,
    closed_form_resolution,
    complex_from_json,
    complex_to_json,
    iterated_mapping_cone,
    koszulness_certificate,
    priddy_complex,
    sub_priddy_complex,
    verify_complex,
)
from koszulcone.dual import QuadraticDual
from koszulcone.errors import (
    ConeNotComplex,
    NotRegular,
    RegularOrderingViolation,
)
from koszulcone.ideals import MonomialIdeal
from koszulcone.linalg import GF, QQ

import algebra_oracle
from dual_oracle import annihilator_component
from linalg_oracle import solve_columns
from rowform import sparse
from syzygy_oracle import brute_force_betti
from test_algebra import hhr_ring, poly_ring, squares_ring, sym_relation_ring
from test_ideals import conca_ring, hhr_ideal, md_squares, ordering_rings, poly_m2


def poly_mixed_ideal():
    return MonomialIdeal(poly_ring(2, cutoff=9), [(2, 0), (1, 1), (0, 3)])


def poly_vars_ideal(n=2):
    A = poly_ring(n, cutoff=8)
    gens = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        gens.append(tuple(e))
    return MonomialIdeal(A, gens)


REGULAR_FIXTURES = [hhr_ideal, lambda: poly_m2(2), lambda: poly_m2(3),
                    poly_mixed_ideal, poly_vars_ideal]


def test_priddy_polynomial_is_koszul_complex():
    for n in (2, 3, 4):
        D = QuadraticDual(poly_ring(n, cutoff=8))
        c = priddy_complex(D, n + 1)
        assert c.ranks() == [comb(n, l) for l in range(n + 2)]


def test_priddy_squares_ring_ranks():
    D = QuadraticDual(squares_ring(2, cutoff=8))
    c = priddy_complex(D, 4)
    assert c.ranks() == [1, 2, 3, 4, 5]


def test_priddy_h0_truncation():
    D = QuadraticDual(poly_ring(2, cutoff=6))
    c = priddy_complex(D, 0)
    assert c.ranks() == [1]


def test_koszulness_certificate_positive():
    for mk, h, d in ((lambda: poly_ring(3, cutoff=8), 4, 6),
                     (lambda: squares_ring(3, cutoff=8), 4, 6),
                     (lambda: hhr_ring(8), 4, 6)):
        cert = koszulness_certificate(QuadraticDual(mk()), h, d)
        assert cert["passed"], cert["witness"]


def test_koszulness_certificate_quadric_hypersurface():
    # one generic quadric: dual dims 1, 3, 4, 4, ... and bounded acyclicity
    D = QuadraticDual(sym_relation_ring(cutoff=8))
    assert [D.component(l).dim for l in range(5)] == [1, 3, 4, 4, 4]
    cert = koszulness_certificate(D, 4, 6)
    assert cert["passed"], cert["witness"]


def test_koszulness_certificate_conca():
    # the ring is Koszul even though (b) has no linear resolution
    cert = koszulness_certificate(QuadraticDual(conca_ring()), 4, 5)
    assert cert["passed"], cert["witness"]


# k[x,y,z]/(x^2, yz, xz - y^2), a quadratic algebra that is not Koszul
NON_KOSZUL_RING_TEXT = "field p=101\nvars x y z\nrel x^2\nrel y*z\nrel x*z - y^2\n"


@pytest.mark.parametrize("field", ["101", "q"])
def test_koszulness_certificate_fails_on_a_non_koszul_ring(field):
    A = GradedAlgebra(parse_ring_text(NON_KOSZUL_RING_TEXT, field).presentation(), 5)
    D = QuadraticDual(A)
    # Froberg's criterion, independently of the Priddy complex: the t^4
    # coefficient of H_A(t) H_{A^!}(-t) is 1 != 0, so A is not Koszul
    hilbert = [A.dim(d) for d in range(5)]
    dual_dims = [annihilator_component(D, l).dim for l in range(5)]
    assert (hilbert, dual_dims) == ([1, 3, 3, 1, 1], [1, 3, 6, 10, 15])
    assert sum(hilbert[i] * dual_dims[4 - i] * (-1) ** (4 - i) for i in range(5)) == 1
    # the certificate passes below the first homology, and fails at it
    assert koszulness_certificate(D, 4, 3)["passed"]
    cert = koszulness_certificate(D, 4, 5)
    # H_0 is the ground field in degree 0: the failure is in H_2, not the augmentation
    c = priddy_complex(D, 4)
    assert not cert["passed"]
    assert [c.homology_rank(0, d, {}) for d in range(6)] == [1, 0, 0, 0, 0, 0]
    assert cert["witness"] == (2, 4, 1)


def test_corrupted_differential_detected():
    D = QuadraticDual(poly_ring(3, cutoff=8))
    c = priddy_complex(D, 3)
    l = 2
    (r, cc), a = next(iter(c.diffs[l].items()))
    A = c.algebra
    c.diffs[l][(r, cc)] = A.add(a, A.var(0))
    assert c.d_squared_witness() is not None


def test_sub_priddy_full_set_is_priddy():
    D = QuadraticDual(poly_ring(3, cutoff=8))
    full = sub_priddy_complex(D, range(3), 4)
    priddy = priddy_complex(D, 4)
    assert full.ranks() == priddy.ranks()
    assert all(full.diffs[l] == priddy.diffs[l] for l in range(1, 5))


def test_sub_priddy_ranks():
    Dp = QuadraticDual(poly_ring(4, cutoff=8))
    Ds = QuadraticDual(squares_ring(4, cutoff=8))
    for m in (1, 2, 3):
        cp = sub_priddy_complex(Dp, range(m), 4)
        assert cp.ranks() == [comb(m, l) for l in range(5)]
        cs = sub_priddy_complex(Ds, range(m), 4)
        assert cs.ranks() == [comb(l + m - 1, m - 1) for l in range(5)]


def homology_window(c, i_range):
    """Homology ranks (i, j) on the diagonals internal = initial + i + j, j = 0, 1.

    The two-diagonal window characterizes linear strands of modules; it is
    also the bounded exactness statement for sub-Priddy complexes.
    """
    initial = min((g.internal_degree for g in c.modules[0]), default=0)
    diff_ranks = {}
    out = {}
    for i in i_range:
        for j in (0, 1):
            out[(i, j)] = c.homology_rank(i, initial + i + j, diff_ranks)
    return out


def test_sub_priddy_homology_window():
    # H_i vanishes on the two leading diagonals for i > 0
    cases = [
        (QuadraticDual(poly_ring(3, cutoff=9)), ({0}, {0, 1}, {0, 1, 2}, {1, 2})),
        (QuadraticDual(squares_ring(3, cutoff=9)), ({0}, {0, 2}, {0, 1, 2})),
        (QuadraticDual(hhr_ring(9)), ({2}, {0, 2}, {0, 1, 2})),
        (QuadraticDual(conca_ring(9)), ({0, 1}, {2, 3})),
    ]
    for D, subsets in cases:
        for E in subsets:
            c = sub_priddy_complex(D, E, 5)
            window = homology_window(c, range(1, 4))
            assert all(v == 0 for v in window.values()), (sorted(E), window)


def test_cone_of_variables_is_koszul_complex():
    J = poly_vars_ideal(2)
    F = iterated_mapping_cone(J, 4)
    assert F.ranks() == [1, 2, 1, 0, 0]
    rep = verify_complex(F, 6)
    assert rep.passed


def ideal_betti(F):
    """Ideal-level Betti counts of a resolution F of A/J: its graded ranks
    above homological degree 0, shifted down by one."""
    return {(l - 1, d): v for (l, d), v in F.graded_ranks().items() if l}


def test_cone_md_squares_betti_row():
    # beta_{1,3} of the squarefree-square power ideal over the squares ring
    J = md_squares(3, 2)
    F = iterated_mapping_cone(J, 3)
    counts = ideal_betti(F)
    assert counts[(0, 2)] == 3
    assert counts[(1, 3)] == 8
    assert counts[(2, 4)] == 15


def test_closed_form_matches_cone_on_all_fixtures():
    for mk in REGULAR_FIXTURES:
        J = mk()
        Fc = iterated_mapping_cone(J, 4)
        Ff = closed_form_resolution(J, 4)
        assert Fc.graded_ranks() == Ff.graded_ranks()
        # the canonical echelon lifts reproduce the explicit comparison maps,
        # so the matrices agree entry for entry on every fixture
        assert all(Fc.diffs[l] == Ff.diffs[l] for l in range(1, 5))
        # three-way rank agreement with the quotient-dual rank sums
        bt = betti_table(J, 4)
        expected = {k: v for k, v in bt.ideal.items() if k[0] <= 3}
        assert ideal_betti(Ff) == expected
        assert ideal_betti(Fc) == expected


def test_closed_form_and_cone_verify():
    for mk in REGULAR_FIXTURES:
        J = mk()
        for F in (iterated_mapping_cone(J, 4), closed_form_resolution(J, 4)):
            rep = verify_complex(F, 8)
            assert rep.d2_zero and rep.minimal and rep.exact_positive, rep.as_dict()


def test_closed_form_requires_regular_ordering():
    J = md_squares(3, 2)  # linear quotients but condition (1) fails
    with pytest.raises(NotRegular):
        closed_form_resolution(J, 3)


def printed_closed_form(J, hmax):
    """The closed form with the printed convention's j = k terms.

    Those terms +x_s (m_k (x) f.x_s^*), for the x_s with x_s m_k outside
    J_{k-1} (times_var(s, k) is x_s m_k itself), cancel the self-terms of x_s
    in the diagonal blocks: the strict closed form with those terms dropped
    from every entry between basis elements of one generator k.
    """
    A = J.algebra
    F = closed_form_resolution(J, hmax, check_regular=False)
    cancelled = {k: {A.var(s).terms[0][0] for s in range(A.n)
                     if J.decomposition.times_var(s, k) == [(k, A.var(s))]}
                 for k in range(1, J.r + 1)}
    for l in range(2, hmax + 1):
        for (r, c), a in list(F.diffs[l].items()):
            k = F.modules[l][c].gen
            if F.modules[l - 1][r].gen == k:
                kept = {pos: x for pos, x in a.terms if pos not in cancelled[k]}
                if kept:
                    F.diffs[l][(r, c)] = A.from_sparse(a.degree, kept)
                else:
                    del F.diffs[l][(r, c)]
    return F


def test_printed_self_term_mode_is_not_exact_on_hhr():
    # negative control: the j = k convention terms cancel self-terms the
    # resolution needs once the quotient dual is not support-antisymmetric
    J = hhr_ideal()
    F = printed_closed_form(J, 4)
    assert F.diffs != closed_form_resolution(J, 4).diffs
    rep = verify_complex(F, 8)
    assert rep.d2_zero
    assert not rep.exact_positive


def test_printed_and_strict_agree_on_polynomial_rings():
    for mk in (lambda: poly_m2(2), lambda: poly_m2(3), poly_mixed_ideal):
        J = mk()
        a = closed_form_resolution(J, 4)
        b = printed_closed_form(J, 4)
        assert all(a.diffs[l] == b.diffs[l] for l in range(1, 5))


def test_self_terms_only_on_colon_variables_in_polynomial_rings():
    # spec note: no self-term with x_s m_k outside the prefix survives, so
    # over a polynomial ring the printed convention gives the same complex
    for mk in (lambda: poly_m2(2), lambda: poly_m2(3), poly_mixed_ideal):
        J = mk()
        F = closed_form_resolution(J, 4)
        sets = J.colon_sets
        A = J.algebra
        for l in range(2, 5):
            for (r, c), a in F.diffs[l].items():
                row = F.modules[l - 1][r]
                col = F.modules[l][c]
                if row.gen == col.gen and a.degree == 1:
                    for s, _ in a.terms:
                        assert s in sets[col.gen - 1]


def test_psi_degree_one_is_decomposition():
    J = hhr_ideal()
    K, F, psi = sliced_comparison_maps(J, 2, 4)
    A = J.algebra
    # psi_1 on m_2 (x) e_t equals the coefficients of x_t m_2 over earlier gens
    for c, gen in enumerate(K.modules[1]):
        (t, _), = gen.dual_word
        expected = {j: coeff for j, coeff in J.decomposition.times_var(t, 2) if j < 2}
        got = {F.modules[1][r].gen: a for (r, cc), a in psi[1].items() if cc == c}
        assert got == expected


def test_betti_table_md_squares():
    bt = betti_table(md_squares(3, 2), 4)
    assert bt.ideal[(0, 2)] == 3
    assert bt.ideal[(1, 3)] == 8
    assert bt.ideal[(2, 4)] == 15
    assert bt.regularity == 2
    assert bt.linear_resolution


def test_betti_table_formula_all_cases():
    # (n-d+1)/(d+i) C(n,d-1) C(n+i,n) for the power ideal over the squares ring
    from fractions import Fraction
    for n in (1, 2, 3, 4):
        for d in range(1, n + 1):
            J = md_squares(n, d, cutoff=max(6, d + 6))
            bt = betti_table(J, 4)
            for i in range(0, 5):
                expected = Fraction(n - d + 1, d + i) * comb(n, d - 1) * comb(n + i, n)
                assert expected.denominator == 1
                assert bt.ideal.get((i, i + d), 0) == int(expected), (n, d, i)


def test_betti_single_generator():
    A = squares_ring(2, cutoff=8)
    J = MonomialIdeal(A, [(1, 0)])
    bt = betti_table(J, 4)
    # ann vars of x1 is {x1}: ranks C(l+0, 0) = 1 in every degree
    assert all(bt.ideal[(l, l + 1)] == 1 for l in range(5))


def test_betti_stable_polynomial_rank_sums():
    J = poly_m2(3)
    bt = betti_table(J, 4)
    sets = J.colon_sets
    for l in range(4):
        expected = sum(comb(len(E), l) for E in sets)
        got = sum(v for (ll, d), v in bt.ideal.items() if ll == l)
        assert got == expected


def test_betti_module_table_is_shift():
    J = hhr_ideal()
    bt = betti_table(J, 3)
    assert bt.module[(0, 0)] == 1
    for (l, d), v in bt.ideal.items():
        assert bt.module[(l + 1, d)] == v


def test_betti_text_renders():
    text = betti_table(md_squares(3, 2), 2).text()
    assert "total:" in text and "3" in text and "8" in text


def test_oracle_koszul_complex():
    A = poly_ring(2, cutoff=6)
    got = brute_force_betti(A, [(1, 0), (0, 1)], 2, 4)
    assert got == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_oracle_m2_n2():
    A = poly_ring(2, cutoff=6)
    got = brute_force_betti(A, [(2, 0), (1, 1), (0, 2)], 3, 5)
    assert got == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_oracle_infinite_resolution():
    A = squares_ring(1, cutoff=6)
    got = brute_force_betti(A, [(1,)], 3, 5)
    assert got == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}


def test_oracle_matches_betti_table():
    # the random ideals with linear quotients check the colon dimensions the
    # membership filtration supplies against independent syzygy kernels, and
    # the mapping cone's graded ranks against both
    fixed = [mk() for mk in (hhr_ideal, lambda: poly_m2(2), poly_mixed_ideal,
                             lambda: md_squares(3, 2))]
    randoms = [J for J in random_ideals(seed=11, count=80) if J.check_linear_quotients(4).passed]
    assert len(randoms) >= 30
    for J in fixed + randoms:
        dmax = J.max_degree + 4
        oracle = brute_force_betti(J.algebra, J.gens, 3, dmax)
        bt = betti_table(J, 3)
        expected = {(0, 0): 1}
        for (l, d), v in bt.ideal.items():
            if l <= 2 and d <= dmax:
                expected[(l + 1, d)] = v
        assert oracle == expected, (oracle, expected)
        cone = ideal_betti(iterated_mapping_cone(J, 3))
        assert cone == {k: v for k, v in bt.ideal.items() if k[0] <= 2}, J.gens


def test_json_round_trip():
    J = hhr_ideal()
    F = closed_form_resolution(J, 4)
    doc = complex_to_json(F)
    back = complex_from_json(J.algebra, doc)
    assert complex_to_json(back) == doc
    assert back.graded_ranks() == F.graded_ranks()
    assert back.d_squared_witness() is None


@pytest.mark.parametrize("field", [GF(101), QQ], ids=repr)
def test_export_import_round_trip_on_random_ideals(field):
    # every random ideal with linear quotients: the exported JSON text reads
    # back into the same generators (dual words and ambients included; the
    # JSON does not carry dual_index), exports to the same document and
    # verifies with the same report
    def labels(c):
        return [[(g.gen, g.internal_degree, g.dual_ambient, g.dual_word) for g in mod]
                for mod in c.modules]

    checked = 0
    for J in random_ideals(seed=11, count=80, field=field):
        if not J.check_linear_quotients(4).passed:
            continue
        F = iterated_mapping_cone(J, 3)
        doc = json.loads(json.dumps(complex_to_json(F)))
        back = complex_from_json(J.algebra, doc)
        assert labels(back) == labels(F), J.gens
        assert complex_to_json(back) == doc, J.gens
        assert verify_complex(back, 5).as_dict() == verify_complex(F, 5).as_dict(), J.gens
        checked += 1
    assert checked >= 30


def test_closed_form_without_precheck_raises_on_broken_ordering():
    from koszulcone.errors import RegularOrderingViolation
    with pytest.raises(RegularOrderingViolation):
        closed_form_resolution(md_squares(3, 2), 3, check_regular=False)


def test_lifting_failure_on_inconsistent_system(monkeypatch):
    from koszulcone.errors import LiftingFailure
    from koszulcone.linalg import GF, Solver
    f = GF(101)
    solver = Solver(f, 2)
    solver.extend(sparse([[1, 0], [0, 0]]))
    assert solver.solve({1: 1}) is None
    # the lift turns an unsolvable target into LiftingFailure
    monkeypatch.setattr(Solver, "solve", lambda self, vec: None)
    with pytest.raises(LiftingFailure, match="target column 0"):
        iterated_mapping_cone(hhr_ideal(), 3)


def test_characteristic_two_smoke():
    # the asymmetric relation lift needs no halving, so F_2 is supported
    from koszulcone.algebra import GradedAlgebra, RingPresentation
    from koszulcone.linalg import GF
    f2 = GF(2)
    pres = RingPresentation(("x", "y"), f2, (((f2.one, (0, 0)),), ((f2.one, (1, 1)),)))
    A = GradedAlgebra(pres, 8)
    assert [A.dim(d) for d in range(4)] == [1, 2, 1, 0]
    D = QuadraticDual(A)
    assert [D.component(l).dim for l in range(4)] == [1, 2, 3, 4]
    J = MonomialIdeal(A, [(1, 1)])
    F = iterated_mapping_cone(J, 3)
    assert verify_complex(F, 6).passed


def test_rational_field_end_to_end():
    from koszulcone.algebra import GradedAlgebra, RingPresentation
    from koszulcone.linalg import QQ
    pres = RingPresentation(("x", "y"), QQ)
    A = GradedAlgebra(pres, 7)
    J = MonomialIdeal(A, [(2, 0), (1, 1), (0, 2)])
    Fc = iterated_mapping_cone(J, 3)
    Ff = closed_form_resolution(J, 3)
    assert Fc.graded_ranks() == Ff.graded_ranks()
    assert verify_complex(Ff, 6).passed
    bt = betti_table(J, 3)
    assert bt.ideal[(0, 2)] == 3 and bt.ideal[(1, 3)] == 2


def test_verify_complex_reports_minimality_violation():
    D = QuadraticDual(poly_ring(2, cutoff=6))
    c = priddy_complex(D, 3)
    A = c.algebra
    c.diffs[1][(0, 0)] = A.monomial_element((0, 0))
    rep = verify_complex(c, 3)
    assert not rep.minimal


def corrupt_lifts(monkeypatch):
    """Double one entry in the top nonzero degree of every comparison-map
    lift.  Over a polynomial ring that breaks the chain-map identity, so the
    cone has d.d != 0."""
    lift = koszulcone.complexes._lift_comparison

    def corrupted(F, *args):
        psi = lift(F, *args)
        A = F.algebra
        top = next((entries for entries in reversed(psi[1:]) if entries), None)
        if top is not None:
            key = next(iter(top))
            top[key] = A.scale(A.field.of(2), top[key])
        return psi

    monkeypatch.setattr(koszulcone.complexes, "_lift_comparison", corrupted)


def test_cone_d_squared_failure_is_typed_with_witness(monkeypatch):
    corrupt_lifts(monkeypatch)
    with pytest.raises(ConeNotComplex) as e:
        iterated_mapping_cone(poly_m2(2), 3)
    l, row, col = e.value.witness
    assert 2 <= l <= 3 and row >= 0 and col >= 0


def oracle_lift(F, K, m_element):
    """The comparison-map lift of _lift_comparison from scratch: at each
    (l, D), one solve_columns elimination of F's whole degreewise matrix."""
    A = F.algebra
    psi = [{(0, 0): m_element}]
    for l in range(1, len(K.modules)):
        entries = {}
        if K.modules[l]:
            D = K.modules[l][0].internal_degree
            tgt_off = [0]
            for d in F.block_dims(l - 1, D):
                tgt_off.append(tgt_off[-1] + d)
            targets = [{} for _ in K.modules[l]]
            for c, sums in koszulcone.complexes._compose_columns(A, psi[l - 1], K.diffs[l]):
                for (r, _), elem in sums.items():
                    for k, x in elem.items():
                        targets[c][tgt_off[r] + k] = x
            mat, _, ncols = F.degreewise_matrix(l, D)
            sols, bad = solve_columns(A.field, mat, ncols, targets)
            assert bad is None
            # the block of an unknown: the last generator whose columns start
            # at or before it
            starts = []
            for r, d in enumerate(F.block_dims(l, D)):
                starts += [r] * d
            offset = {}
            for k, r in enumerate(starts):
                offset.setdefault(r, k)
            for c, w in enumerate(sols):
                blocks = {}
                for k, x in sorted(w.items()):
                    blocks.setdefault(starts[k], {})[k - offset[starts[k]]] = x
                for r, vec in blocks.items():
                    entries[(r, c)] = A.from_sparse(D - F.modules[l][r].internal_degree, vec)
        psi.append(entries)
    return psi


def random_linear_quotient_ideals(A, rng, count):
    """Up to count seeded ideals with linear quotients: up to one variable,
    then degree-2 and degree-3 monomials, each outside the ideal of those
    before it."""
    for _ in range(count):
        gens = []
        for d, most in ((1, 1), (2, 6), (3, 3)):
            cands = list(A.basis(d))
            rng.shuffle(cands)
            for g in cands[:rng.randint(0, most)]:
                try:
                    MonomialIdeal(A, gens + [g])
                except ValueError:  # redundant after the earlier ones
                    continue
                gens.append(g)
        if gens:
            J = MonomialIdeal(A, gens)
            if J.check_linear_quotients(4).passed:
                yield J


@pytest.mark.parametrize("field", [GF(2), GF(101), QQ], ids=repr)
def test_cone_on_kept_solvers_equals_the_oracle_cone(field):
    # the lifts on one Solver per (l, D), kept across the cone's steps and
    # fed only the new columns, give the complex of one elimination of the
    # whole degreewise matrix per lift, byte for byte
    rng = random.Random(2300 + field.char)
    hmax = 4
    compared = set()
    for name, A in ordering_rings(field, cutoff=8).items():
        for J in random_linear_quotient_ideals(A, rng, 10):
            cone = iterated_mapping_cone(J, hmax)
            oracle = koszulcone.complexes._iterated_cone(
                J, hmax, lambda F, K, i: oracle_lift(F, K, J.gen_elements[i - 1]))
            assert complex_to_json(cone) == complex_to_json(oracle), (name, J.gens)
            compared.add((name, J.r > 4, len(set(J.degs)) > 1))
    # every ring, with many generators and with mixed degrees among them
    assert {name for name, _, _ in compared} == set(ordering_rings(field))
    assert any(many for _, many, _ in compared)
    assert any(mixed for _, _, mixed in compared)


def test_each_kept_solver_is_fed_every_column_once(monkeypatch):
    # per (l, D), the vectors fed to its one Solver over the whole cone are
    # the columns of the last lift's degreewise matrix, in order, each once
    from koszulcone.linalg import Solver, transpose
    fed = {}
    extend = Solver.extend

    def logged_extend(self, vectors):
        fed.setdefault(id(self), []).extend(dict(v) for v in vectors)
        extend(self, vectors)

    last, uses = {}, Counter()
    lift = koszulcone.complexes._lift_comparison

    def logged_lift(F, K, m_element, solvers):
        psi = lift(F, K, m_element, solvers)
        for l in range(1, len(K.modules)):
            if K.modules[l]:
                key = (l, K.modules[l][0].internal_degree)
                assert last.get(key, (None, solvers[key]))[1] is solvers[key]
                last[key] = (F, solvers[key])
                uses[key] += 1
        return psi

    monkeypatch.setattr(Solver, "extend", logged_extend)
    monkeypatch.setattr(koszulcone.complexes, "_lift_comparison", logged_lift)
    most = 0
    for J in (hhr_ideal(), poly_mixed_ideal(), md_squares(3, 2), poly_m2(3)):
        fed.clear()
        last.clear()
        uses.clear()
        iterated_mapping_cone(J, 4)
        most = max(most, *uses.values())
        for (l, D), (F, solver) in last.items():
            mat, nrows, ncols = F.degreewise_matrix(l, D)
            assert fed.get(id(solver), []) == transpose(mat, ncols), (J.gens, l, D)
            assert (solver.fed, solver.ambient) == (ncols, nrows), (J.gens, l, D)
    # some solver serves the lifts of three or more steps
    assert most >= 3


# -- d.d witnesses on corrupted complexes ----------------------------------------


def corrupted(c, seed):
    """Corrupt one entry in each of up to three columns of one differential.

    One entry is doubled, one is multiplied by a variable (a degree the
    grading does not allow, so d.d has mixed-degree sums) and one is replaced
    by a random element of its degree.
    """
    rng = random.Random(seed)
    A = c.algebra
    # one of the two highest differentials, so the witness row is not always 0
    levels = [l for l in range(2, len(c.modules)) if len({k[1] for k in c.diffs[l]}) >= 2]
    l = rng.choice(levels[-2:])
    cols = sorted({k[1] for k in c.diffs[l]})
    for action, col in enumerate(rng.sample(cols, min(3, len(cols)))):
        key = rng.choice(sorted(k for k in c.diffs[l] if k[1] == col))
        a = c.diffs[l][key]
        if action == 0:
            c.diffs[l][key] = A.scale(A.field.of(2), a)
        elif action == 1:
            c.diffs[l][key] = A.multiply(A.var(rng.randrange(A.n)), a)
        else:
            coords = [A.field.of(rng.randrange(100)) for _ in range(A.dim(a.degree))]
            c.diffs[l][key] = A.element(a.degree, coords)
    return c


def violating_columns(c):
    """Every (l, col) where d.d is nonzero, by a direct double loop."""
    A = c.algebra
    out = []
    for l in range(2, len(c.modules)):
        for col in range(len(c.modules[l])):
            sums = {}
            for (g, cc), a in c.diffs[l].items():
                for (r, gg), b in c.diffs[l - 1].items():
                    if cc == col and gg == g:
                        prod = A.multiply(b, a)
                        key = (r, prod.degree)
                        sums[key] = A.add(sums[key], prod) if key in sums else prod
            if any(not v.is_zero for v in sums.values()):
                out.append((l, col))
    return out


CORRUPTION_CASES = [
    (name, path, seed)
    for name in ("hhr", "poly_m2_3", "poly_mixed", "poly_vars_3")
    for path in ("cone", "closed")
    for seed in (1, 2, 3)
] + [("md_squares", "cone", seed) for seed in (1, 2, 3)]


def corrupted_case(name, path, seed):
    J = {"hhr": hhr_ideal, "poly_m2_3": lambda: poly_m2(3), "poly_mixed": poly_mixed_ideal,
         "poly_vars_3": lambda: poly_vars_ideal(3), "md_squares": lambda: md_squares(3, 2),
         }[name]()
    build = iterated_mapping_cone if path == "cone" else closed_form_resolution
    return corrupted(build(J, 4), seed)


# recorded from the three-loop d_squared_witness that the composition kernel
# replaced: the first violating column at the lowest level, first row in it
PINNED_WITNESSES = {
    ('hhr', 'cone', 1): (3, 0, 1),
    ('hhr', 'cone', 2): (3, 0, 1),
    ('hhr', 'cone', 3): (3, 1, 3),
    ('hhr', 'closed', 1): (3, 0, 1),
    ('hhr', 'closed', 2): (3, 0, 1),
    ('hhr', 'closed', 3): (3, 1, 3),
    ('poly_m2_3', 'cone', 1): (2, 0, 0),
    ('poly_m2_3', 'cone', 2): (2, 0, 0),
    ('poly_m2_3', 'cone', 3): (2, 0, 2),
    ('poly_m2_3', 'closed', 1): (2, 0, 0),
    ('poly_m2_3', 'closed', 2): (2, 0, 0),
    ('poly_m2_3', 'closed', 3): (2, 0, 2),
    ('poly_mixed', 'cone', 1): (2, 0, 0),
    ('poly_mixed', 'cone', 2): (2, 0, 0),
    ('poly_mixed', 'cone', 3): (2, 0, 0),
    ('poly_mixed', 'closed', 1): (2, 0, 0),
    ('poly_mixed', 'closed', 2): (2, 0, 0),
    ('poly_mixed', 'closed', 3): (2, 0, 0),
    ('poly_vars_3', 'cone', 1): (2, 0, 0),
    ('poly_vars_3', 'cone', 2): (2, 0, 0),
    ('poly_vars_3', 'cone', 3): (2, 0, 0),
    ('poly_vars_3', 'closed', 1): (2, 0, 0),
    ('poly_vars_3', 'closed', 2): (2, 0, 0),
    ('poly_vars_3', 'closed', 3): (2, 0, 0),
    ('md_squares', 'cone', 1): (3, 0, 9),
    ('md_squares', 'cone', 2): (3, 0, 1),
    ('md_squares', 'cone', 3): (3, 0, 2),
}


@pytest.mark.parametrize("case", CORRUPTION_CASES,
                         ids=["-".join(map(str, case)) for case in CORRUPTION_CASES])
def test_d_squared_witness_is_pinned_on_corrupted_complexes(case):
    c = corrupted_case(*case)
    assert len(violating_columns(c)) >= 2
    assert c.d_squared_witness() == PINNED_WITNESSES[case]


# -- comparison maps: one step of the closed form -----------------------------------


def test_comparison_maps_require_a_regular_ordering():
    J = md_squares(3, 2)  # linear quotients but condition (1) fails
    for r in range(1, J.r + 1):
        with pytest.raises(RegularOrderingViolation) as e:
            sliced_comparison_maps(J, r, 3)
        assert e.value.witness is not None


def test_comparison_maps_keep_the_sliced_closed_form_witness():
    J = md_squares(3, 2)  # linear quotients but condition (1) fails
    with pytest.raises(RegularOrderingViolation) as whole:
        closed_form_resolution(J, 4, check_regular=False)
    for r in range(1, J.r + 1):
        with pytest.raises(RegularOrderingViolation) as got:
            sliced_comparison_maps(J, r, 3)
        # the slice raises the witness of the closed form it is cut from
        assert got.value.witness == whole.value.witness == (3, 0, 6)


def random_ideals(seed, count, field=GF(101)):
    """Seeded monomial ideals over polynomial and squares rings, n <= 3.

    Up to one variable, then up to three quadrics and three cubics, each
    outside the ideal of the earlier ones, in random order within a degree.
    The ideals do not depend on the field.
    """
    rng = random.Random(seed)
    rings = [mk(n, cutoff=8, field=field) for mk in (poly_ring, squares_ring) for n in (2, 3)]
    seen = set()
    for _ in range(count):
        ring = rng.randrange(len(rings))
        A = rings[ring]
        gens = []
        for d in (1, 2, 3):
            new = [m for m in A.basis(d)
                   if not any(all(a <= b for a, b in zip(g, m)) for g in gens)]
            gens += rng.sample(new, rng.randint(0, min(len(new), 3 if d > 1 else 1)))
        if gens and (ring, tuple(gens)) not in seen:
            seen.add((ring, tuple(gens)))
            yield MonomialIdeal(A, gens)


def test_star_condition_implies_a_regular_ordering_on_random_ideals():
    # the star condition is sufficient for a regular ordering, so on ideals
    # with linear quotients no draw passes it and fails the ordering check
    passed = Counter()
    for J in random_ideals(seed=28, count=80):
        if not J.check_linear_quotients(4).passed:
            continue
        star = J.check_star_condition().passed
        regular = J.check_regular_ordering(4).passed
        assert regular or not star, J.gens
        passed[star, regular] += 1
    assert passed[True, True] >= 10 and passed[False, False] >= 1, passed


def test_random_regular_ideals_cone_equals_closed_form():
    hmax = 3
    regular = 0
    for J in random_ideals(seed=4, count=60):
        if not J.check_regular_ordering(4).passed:
            continue
        regular += 1
        cone = iterated_mapping_cone(J, hmax)
        closed = closed_form_resolution(J, hmax, check_regular=False)
        assert cone.modules == closed.modules, J.gens
        assert all(cone.diffs[l] == closed.diffs[l] for l in range(1, hmax + 1)), J.gens
        for F in (cone, closed):
            assert verify_complex(F, J.max_degree + hmax).passed, J.gens
        for r in range(1, J.r + 1):
            K, F, psi = sliced_comparison_maps(J, r, hmax)
            assert dense_verify_chain_map(F, K, psi, hmax) == (True, None), (J.gens, r)
    assert regular >= 10


def test_resolutions_need_dual_components_below_hmax_only(monkeypatch):
    # degree l of a resolution holds the degree l - 1 quotient duals, so
    # neither path may build component(hmax): here it is over the limit,
    # which admits exactly the candidate entries of component(hmax - 1)
    from koszulcone.errors import AmbientTooLarge
    hmax = 5
    probe = hhr_ideal().dual
    limit = probe.n * sum(map(len, probe.component(hmax - 2).rows))
    monkeypatch.setattr(koszulcone.dual, "CANDIDATE_ENTRY_LIMIT", limit)
    for build in (iterated_mapping_cone,
                  lambda J, h: closed_form_resolution(J, h, check_regular=False)):
        J = hhr_ideal()
        F = build(J, hmax)
        assert F.ranks() == [1, 2, 3, 5, 8, 13]
        assert verify_complex(F, J.max_degree + hmax).passed
        with pytest.raises(AmbientTooLarge):
            J.dual.component(hmax)
    K, F, psi = sliced_comparison_maps(J, 2, hmax - 1)
    assert dense_verify_chain_map(F, K, psi, hmax - 1) == (True, None)


def sliced_comparison_maps(ideal, r, hmax):
    """The comparison map of step r of the closed form, cut out of it.

    (K, F, psi): the r-th sub-Priddy complex K, the resolution F of the
    prefix before r and psi: K -> F, all to hmax.  The closed form built to
    hmax + 1 is triangular in generator index, so F is its restriction to
    the generators before r, and psi[l] is the (gens < r) x (gen r) block of
    its differential l + 1.  Its d.d = 0 check raises
    RegularOrderingViolation when the ordering is not regular.
    """
    full = closed_form_resolution(ideal, hmax + 1, check_regular=False)
    # gen-major bases: the generators before r are a prefix of every module
    lo = [sum(1 for g in mod if g.gen is None or g.gen < r) for mod in full.modules]
    modules = [full.modules[l][: lo[l]] for l in range(hmax + 1)]
    diffs = [None] + [{(i, c): a for (i, c), a in full.diffs[l].items() if c < lo[l]}
                      for l in range(1, hmax + 1)]
    F = ChainComplex(ideal.algebra, modules, diffs, kind="resolution")
    K = sub_priddy_complex(ideal.dual, ideal.colon_sets[r - 1], hmax,
                           shift=ideal.degs[r - 1], gen=r)
    psi = []
    for l in range(hmax + 1):
        hi = lo[l + 1] + len(K.modules[l])
        psi.append({(i, c - lo[l + 1]): a for (i, c), a in full.diffs[l + 1].items()
                    if lo[l + 1] <= c < hi and i < lo[l]})
    return K, F, psi


def test_a_second_resolve_leaves_the_product_cache_unchanged():
    # product columns are cached and shared as dict rows; elimination and
    # membership copy them, so a second resolve finds them as they were
    ideals = [hhr_ideal(), md_squares(3, 2), poly_mixed_ideal(),
              MonomialIdeal(poly_ring(3, cutoff=8, field=QQ), [(2, 0, 0), (1, 1, 0), (0, 1, 1)])]
    for J in ideals:
        F = iterated_mapping_cone(J, 4)
        assert verify_complex(F, J.max_degree + 4).passed
        before = repr(J.algebra._mult_columns)
        assert J.algebra._mult_columns
        F = iterated_mapping_cone(J, 4)
        assert verify_complex(F, J.max_degree + 4).passed
        assert repr(J.algebra._mult_columns) == before, J.gens


def test_one_verification_ranks_each_differential_once(monkeypatch):
    # adjacent homology ranks share a differential; one call builds its
    # degreewise matrix once per (l, d), and a second call builds it afresh
    built = []
    build = koszulcone.complexes.ChainComplex.degreewise_matrix

    def counting(self, l, d):
        built.append((l, d))
        return build(self, l, d)

    D = QuadraticDual(poly_ring(3, cutoff=9))
    F = iterated_mapping_cone(md_squares(3, 2), 4)
    unshared = {(i, d): F.homology_rank(i, d, {}) for i in range(1, F.length) for d in range(7)}
    monkeypatch.setattr(koszulcone.complexes.ChainComplex, "degreewise_matrix", counting)
    calls = (
        lambda: verify_complex(F, 6).homology == unshared,
        lambda: koszulness_certificate(D, 4, 5)["passed"],
        lambda: all(v == 0 for v in homology_window(
            sub_priddy_complex(D, {0, 1}, 5), range(1, 4)).values()),
    )
    for call in calls:
        for _ in range(2):
            built.clear()
            assert call()
            assert built and len(built) == len(set(built)), built


# -- the sparse composition kernel against a dense oracle --------------------------


def dense_compose_columns(A, first, second):
    """Dense oracle for _compose_columns: one multiply, is_zero and add per
    pair of entries, on dense coordinate tuples."""
    by_inner = {}
    for (r, g), a in first.items():
        by_inner.setdefault(g, []).append((r, a))
    by_col = {}
    for (g, c), b in second.items():
        by_col.setdefault(c, []).append((g, b))
    for c, col_entries in by_col.items():
        sums = {}
        for g, b in col_entries:
            for r, a in by_inner.get(g, ()):
                prod = A.multiply(a, b)
                if prod.is_zero:
                    continue
                key = (r, prod.degree)
                sums[key] = A.add(sums[key], prod) if key in sums else prod
        yield c, sums


def assert_same_columns(A, first, second):
    """Column by column, key order included, the sparse sums equal the dense ones."""
    sparse = [(c, list(sums.items()))
              for c, sums in koszulcone.complexes._compose_columns(A, first, second)]
    dense = [(c, [(key, dict(v.terms)) for key, v in sums.items()])
             for c, sums in dense_compose_columns(A, first, second)]
    assert sparse == dense
    return sparse


def dense_verify_chain_map(F, K, psi, hmax):
    A = F.algebra

    def compose(first, second):
        return {(r, d, c): dict(v.terms) for c, sums in dense_compose_columns(A, first, second)
                for (r, d), v in sums.items() if not v.is_zero}

    for l in range(1, hmax + 1):
        if compose(F.diffs[l], psi[l]) != compose(psi[l - 1], K.diffs[l]):
            return False, l
    return True, None


def quadric_ring(field, cutoff=8):
    # k[x,y,z]/(xy + xz - yz, x^2 - 2yz): normal forms with several terms
    from koszulcone.algebra import GradedAlgebra, RingPresentation
    one, neg = field.of(1), field.of(-1)
    rels = (((one, (0, 1)), (one, (0, 2)), (neg, (1, 2))),
            ((one, (0, 0)), (field.of(-2), (1, 2))))
    return GradedAlgebra(RingPresentation(("x", "y", "z"), field, rels), cutoff)


FIELDS = {"gf101": GF(101), "gf2": GF(2), "qq": QQ}
RINGS = {"poly": lambda f: poly_ring(3, cutoff=8, field=f),
         "squares": lambda f: squares_ring(3, cutoff=8, field=f),
         "quadric": quadric_ring}


@pytest.mark.parametrize("case", CORRUPTION_CASES,
                         ids=["-".join(map(str, case)) for case in CORRUPTION_CASES])
def test_sparse_composition_matches_dense_on_corrupted_complexes(case):
    c = corrupted_case(*case)
    for l in range(2, len(c.modules)):
        assert_same_columns(c.algebra, c.diffs[l - 1], c.diffs[l])


def random_entries(A, rng, nrows, ninner, ncols):
    """Entry dicts first: inner -> rows and second: cols -> inner over A.

    Generators get internal degrees so that most entries are homogeneous of
    degree 0..2; some entries are zero elements, some coordinates are zero,
    and one entry in ten has a degree one too high (inhomogeneous input).
    """
    deg = {"r": [rng.randrange(2) for _ in range(nrows)]}
    deg["g"] = [2 + rng.randrange(2) for _ in range(ninner)]
    deg["c"] = [4 + rng.randrange(2) for _ in range(ncols)]

    def element(d):
        if rng.random() < 0.1:
            d += 1
        if rng.random() < 0.1:
            return A.zero(d)
        return A.element(d, [A.field.of(rng.choice((0, 0, 1, -1, 2, 5))) for _ in A.basis(d)])

    def entries(src, tgt):
        keys = [(t, s) for t in range(len(deg[tgt])) for s in range(len(deg[src]))
                if rng.random() < 0.6]
        rng.shuffle(keys)
        return {(t, s): element(deg[src][s] - deg[tgt][t]) for t, s in keys}

    return entries("g", "r"), entries("c", "g")


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_sparse_composition_matches_dense_on_random_entries(ring, field):
    A = RINGS[ring](FIELDS[field])
    rng = random.Random(f"{ring}-{field}")
    nonzero = 0
    for _ in range(25):
        first, second = random_entries(A, rng, 3, 4, 4)
        for c, sums in assert_same_columns(A, first, second):
            nonzero += sum(1 for _, v in sums if v)
    assert nonzero > 0


def test_sparse_composition_keeps_cancelled_sums_as_empty_dicts():
    A = poly_ring(2, cutoff=6)
    x, y = A.var(0), A.var(1)
    minus_x = A.scale(A.field.of(-1), x)
    # column 0: x*y - y*x cancels; column 1: x*x
    first = {(0, 0): x, (0, 1): y}
    second = {(0, 0): y, (1, 0): minus_x, (0, 1): x}
    cols = assert_same_columns(A, first, second)
    assert cols == [(0, [((0, 2), {})]), (1, [((0, 2), {0: 1})])]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_composition_keys_match_the_per_product_expansion(field):
    # a key enters sums with its first nonzero product, as in the loop of one
    # GradedAlgebra._expand per product that the kernel replaced
    fld = FIELDS[field]

    def columns(A, first, second):
        got = [(c, list(sums.items()))
               for c, sums in koszulcone.complexes._compose_columns(A, first, second)]
        want = [(c, list(sums.items()))
                for c, sums in algebra_oracle.compose_columns(A, first, second)]
        assert got == want
        types = [[{k: type(x) for k, x in v.items()} for _, v in sums] for _, sums in got]
        assert types == [[{k: type(x) for k, x in v.items()} for _, v in sums]
                         for _, sums in want]
        return got

    S = squares_ring(2, cutoff=6, field=fld)
    x1, x2 = S.var(0), S.var(1)
    x1x2 = dict(S.multiply(x1, x2).terms)
    # a unit x unit product whose normal form is empty: x1*x1 = 0
    assert columns(S, {(0, 0): x1}, {(0, 0): x1}) == [(0, [])]
    # a two-term product that cancels inside itself: (x1 + x2)(x1 - x2) = 0
    assert columns(S, {(0, 0): S.add(x1, x2)}, {(0, 0): S.sub(x1, x2)}) == [(0, [])]
    # a zero product, then a nonzero one: the key enters with the second
    assert columns(S, {(0, 0): x1, (0, 1): x2}, {(0, 0): x1, (1, 0): x1}) == \
        [(0, [((0, 2), x1x2)])]
    # products that cancel across entries keep their key with {}
    P = poly_ring(2, cutoff=6, field=fld)
    y1, y2 = P.var(0), P.var(1)
    minus_y1 = P.scale(fld.of(-1), y1)
    assert columns(P, {(0, 0): y1, (0, 1): y2}, {(0, 0): y2, (1, 0): minus_y1}) == \
        [(0, [((0, 2), {})])]
    # a single-term and a two-term product on one key: y1*y2 + (y1 + y2)*y2
    assert columns(P, {(0, 0): y1, (0, 1): P.add(y1, y2)}, {(0, 0): y2, (1, 0): y2}) == \
        [(0, [((0, 2), dict(P.multiply(P.add(P.scale(fld.of(2), y1), y2), y2).terms))])]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_chain_map_with_a_corrupted_entry_fails_at_the_dense_level(field):
    fld = FIELDS[field]
    A = poly_ring(3, cutoff=9, field=fld)
    J = MonomialIdeal(A, list(A.basis(2)))
    hmax = 3
    rng = random.Random(field)
    checked = 0
    for r in range(2, J.r + 1):
        K, F, psi = sliced_comparison_maps(J, r, hmax)
        assert dense_verify_chain_map(F, K, psi, hmax) == (True, None)
        for l in range(1, hmax + 1):
            if not psi[l]:
                continue
            bad = [dict(entries) for entries in psi]
            key = rng.choice(sorted(bad[l]))
            a = bad[l][key]
            bump = [fld.zero] * A.dim(a.degree)
            bump[rng.randrange(len(bump))] = fld.one
            bad[l][key] = A.add(a, A.element(a.degree, bump))
            got = dense_verify_chain_map(F, K, bad, hmax)
            assert got == (False, l), (r, l, key)
            checked += 1
    assert checked >= 4


# -- one certified trace differential per quotient dual ---------------------------


def test_sub_priddy_calls_share_entries_but_not_dicts():
    D = QuadraticDual(squares_ring(3, cutoff=8))
    a = sub_priddy_complex(D, {0, 2}, 4, shift=2, gen=3)
    b = sub_priddy_complex(D, [2, 0], 4)
    assert a.ranks() == b.ranks()
    for l in range(1, 5):
        assert a.diffs[l] == b.diffs[l] and a.diffs[l]
        assert a.diffs[l] is not b.diffs[l]
    for l, (ma, mb) in enumerate(zip(a.modules, b.modules)):
        assert all((g.gen, g.internal_degree) == (3, l + 2) for g in ma)
        assert all((g.gen, g.internal_degree) == (None, l) for g in mb)
        assert [(g.dual_ambient, g.dual_word) for g in ma] == \
            [(g.dual_ambient, g.dual_word) for g in mb]


def test_corrupting_one_trace_complex_leaves_the_next_clean():
    D = QuadraticDual(poly_ring(3, cutoff=8))
    for build in (lambda: priddy_complex(D, 3), lambda: sub_priddy_complex(D, {0, 1}, 3)):
        c = build()
        l = 2
        (r, cc), a = next(iter(c.diffs[l].items()))
        A = c.algebra
        c.diffs[l][(r, cc)] = A.add(a, A.var(0))
        assert c.d_squared_witness() is not None
        fresh = build()
        assert fresh.d_squared_witness() is None
        assert fresh.diffs[l][(r, cc)] == a
        assert c.d_squared_witness() is not None


def test_a_failing_space_raises_on_every_call(monkeypatch):
    from koszulcone.errors import CalibrationFailure, ClosureFailure
    # a corrupted first differential fails d.d = 0
    build = koszulcone.complexes._trace_differential

    def corrupted(A, acts):
        entries = build(A, acts)
        # each action matrix has one row per basis vector of the target
        if len(acts[0]) == 1 and entries:
            entries[(0, 0)] = A.add(entries[(0, 0)], A.var(0))
        return entries

    D = QuadraticDual(poly_ring(3, cutoff=8))
    monkeypatch.setattr(koszulcone.complexes, "_trace_differential", corrupted)
    for _ in range(2):
        with pytest.raises(ClosureFailure):
            sub_priddy_complex(D, {0, 1}, 3)
        with pytest.raises(CalibrationFailure):
            priddy_complex(D, 3)
    monkeypatch.undo()
    assert sub_priddy_complex(D, {0, 1}, 3).d_squared_witness() is None
    assert priddy_complex(D, 3).d_squared_witness() is None
    # an action leaving the quotient dual is not closed
    Q = QuadraticDual(poly_ring(3, cutoff=8))
    monkeypatch.setattr(QuadraticDual, "contract", lambda self, vec, l, j: {2: 1})
    for _ in range(2):
        with pytest.raises(ClosureFailure):
            sub_priddy_complex(Q, {0, 1}, 2)
