import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from koszulcone.algebra import GradedAlgebra, RingPresentation
from koszulcone.cli import parse_ring_text
from koszulcone import dual
from koszulcone.dual import QuadraticDual, left_ideal_contains
from koszulcone.errors import (
    AmbientTooLarge,
    ClosureFailure,
    DimensionMismatch,
)
from koszulcone.linalg import GF, QQ, Subspace

from dual_oracle import (
    _invert,
    annihilated_component,
    annihilator_component,
    contracted_left_ideal_contains,
    deg2_consistency,
    deg2_labeled_duals,
    deg2_relations,
    last_slot_act_matrix,
    last_slot_contraction,
)
from rowform import canonical_qq, sparse
from test_algebra import hhr_ring, poly_ring, squares_ring, sym_relation_ring

F101 = GF(101)


def dual_of(A):
    return QuadraticDual(A)


def test_relation_space_polynomial_ring():
    D = dual_of(poly_ring(2))
    assert D.relation_space.dim == 1
    # spanned by the commutator x(x)y - y(x)x
    assert D.relation_space.rows == sparse([[0, 1, 100, 0]])


def test_relation_space_dims():
    assert dual_of(squares_ring(2)).relation_space.dim == 3
    assert dual_of(sym_relation_ring()).relation_space.dim == 4
    assert dual_of(hhr_ring()).relation_space.dim == 5


def test_exterior_component_dims():
    D = dual_of(poly_ring(3))
    assert [D.component(l).dim for l in range(5)] == [1, 3, 3, 1, 0]
    D4 = dual_of(poly_ring(4))
    assert [D4.component(l).dim for l in range(6)] == [1, 4, 6, 4, 1, 0]


def test_squares_ring_component_dims():
    for n in (1, 2, 3):
        D = dual_of(squares_ring(n))
        for l in range(5):
            assert D.component(l).dim == comb(n + l - 1, l)


def test_component_dim_matches_excluded_pair_count():
    for A in (poly_ring(3), squares_ring(3), sym_relation_ring(), hhr_ring()):
        D = dual_of(A)
        assert D.component(2).dim == len(D.ordered_excluded_pairs())
        assert D.component(2).dim == A.n ** 2 - A.dim(2)


def test_recursion_matches_naive_intersection():
    for A in (poly_ring(3), squares_ring(2), sym_relation_ring(), hhr_ring()):
        D = dual_of(A)
        for l in (3, 4):
            assert D.component(l) == annihilator_component(D, l)


def oracle_rings(field):
    """Presentations over field for the block-step oracle, n = 3."""
    names = ("x", "y", "z")
    one = field.one
    pairs = list(combinations_with_replacement(range(3), 2))
    rings = {
        # every quadric is a relation: dim A_2 = 0, no constraint survives
        "all-quadrics": RingPresentation(names, field, tuple(((one, q),) for q in pairs)),
        "poly": RingPresentation(names, field),
        "squares": RingPresentation(names, field, tuple(((one, (i, i)),) for i in range(3))),
        "hhr": RingPresentation(names, field, (((one, (0, 2)),), ((one, (2, 2)),))),
        "sym": RingPresentation(names, field, (((one, (0, 1)), (one, (0, 2)), (one, (1, 2))),),
                                ((1, 1, 0), (0, 1, 1))),
    }
    rng = random.Random(20261018)
    for k in range(10):
        rels = tuple(
            tuple((field.of(rng.choice((1, -1, 2, 3))), q)
                  for q in rng.sample(pairs, rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3)))
        rings[f"random-{k}"] = RingPresentation(names, field, rels)
    return rings


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def oracle_algebras(field, cutoff=8):
    """The n = 3 oracle rings (10 random quadratic ones among them) and every
    fixture ring, over one field."""
    out = {name: GradedAlgebra(pres, cutoff) for name, pres in oracle_rings(field).items()}
    override = "q" if field == QQ else str(field.char)
    for path in sorted(FIXTURES.glob("*.ring")):
        js = parse_ring_text(path.read_text(), field_override=override)
        out[path.stem] = GradedAlgebra(js.presentation(), cutoff)
    return out


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_block_step_matches_naive_intersection(field):
    # component() builds comp(l) block by block from comp(l-1); the
    # intersection of every embedding of the relation space, taken as one
    # kernel of their stacked annihilators, is independent
    dims = {}
    for name, pres in oracle_rings(field).items():
        D = QuadraticDual(GradedAlgebra(pres, 6))
        for l in range(6):
            assert D.component(l) == annihilator_component(D, l), (name, l)
        dims[name] = tuple(D.component(l).dim for l in range(6))
    assert dims["all-quadrics"] == tuple(3 ** l for l in range(6))
    assert len({dims[f"random-{k}"] for k in range(10)}) > 1


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_quotient_components_match_the_dense_annihilation(field):
    # QuotientDual.component imposes the last-slot annihilation at the pivot
    # columns of comp(l-1) only; the oracle imposes it at every position
    for name, pres in oracle_rings(field).items():
        D = QuadraticDual(GradedAlgebra(pres, 6))
        for k in (1, 2):
            for S in combinations(range(3), k):
                for l in range(1, 5):
                    assert D.quotient(S).component(l) == \
                        annihilated_component(D, S, l), (name, S, l)


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_components_are_the_canonical_rref_of_their_rows(field):
    # components are assembled without elimination; Subspace.from_rows of
    # their own rows is the canonical form they must already be in
    for name, A in oracle_algebras(field, cutoff=3).items():
        D = QuadraticDual(A)
        subsets = [frozenset(c) for k in range(A.n + 1) for c in combinations(range(A.n), k)]
        for l in range(6):
            comps = [D.component(l)] + [D.quotient(S).component(l) for S in subsets]
            for S, comp in zip([None] + subsets, comps):
                ref = Subspace.from_rows(field, comp.rows, comp.ambient)
                assert (comp.rows, comp.pivots) == (ref.rows, ref.pivots), (name, l, S)
                assert [{j: type(x) for j, x in r.items()} for r in comp.rows] == \
                    [{j: type(x) for j, x in r.items()} for r in ref.rows], (name, l, S)


def test_qq_components_hold_the_one_value_form():
    # over QQ, the entries of the dense ring's comp(0..5) and of its
    # quotients by one excluded variable include integral sums of Fraction
    # products; every stored value must be in the one value form
    from test_cli import generic_ring_text  # test_cli imports this module
    js = parse_ring_text(generic_ring_text(2, 4, 2), field_override="q")
    D = QuadraticDual(GradedAlgebra(js.presentation(), 2))
    spaces = [D] + [D.quotient(S) for S in combinations(range(4), 3)]
    values = [x for space in spaces for l in range(6)
              for row in space.component(l).rows for x in row.values()]
    assert len(values) > 10_000 and any(type(x) is Fraction for x in values)
    assert all(canonical_qq(x) for x in values)


def test_hhr_dual_dims_match_inverted_hilbert_series():
    # H_dual(t) * H_A(-t) = 1 for a Koszul algebra; the ring is multigraded
    # quadratic monomial, hence Koszul
    D = dual_of(hhr_ring())
    assert [D.component(l).dim for l in range(5)] == [1, 3, 5, 8, 13]


def test_dual_dims_invert_hilbert_series_on_koszul_rings():
    # same identity on every Koszul fixture ring, dual dims computed from the
    # tensor-power intersections, algebra dims from the graded basis
    from test_ideals import conca_ring
    for mk in (lambda: poly_ring(3, cutoff=6), lambda: squares_ring(3, cutoff=6),
               lambda: hhr_ring(6), lambda: sym_relation_ring(cutoff=6),
               conca_ring):
        A = mk()
        D = dual_of(A)
        window = 5
        a = [A.dim(d) for d in range(window)]
        b = [D.component(l).dim for l in range(window)]
        for m in range(1, window):
            acc = sum((-1) ** d * a[d] * b[m - d] for d in range(m + 1))
            assert acc == 0, (A.presentation.var_names, m)


def test_ambient_limit(monkeypatch):
    # comp(2) of the polynomial ring in 3 variables is 3 commutators of 2
    # entries each, so the degree-3 step has 3 * 6 = 18 candidate entries
    monkeypatch.setattr(dual, "CANDIDATE_ENTRY_LIMIT", 17)
    D = QuadraticDual(poly_ring(3, cutoff=4))
    assert D.component(2).dim == 3
    with pytest.raises(AmbientTooLarge, match="18 candidate entries exceed the limit 17"):
        D.component(3)


def test_contraction_slots():
    D = dual_of(poly_ring(2))
    q = D.component(2).rows[0]  # x(x)y - y(x)x normalized
    assert D.contract(q, 2, 0) == {1: 1}
    assert D.contract(q, 2, 1) == {0: 100}
    assert last_slot_contraction(D, q, 0) == {1: 100}
    assert last_slot_contraction(D, q, 1) == {0: 1}


def test_degree1_action_pairs_variables():
    D = dual_of(poly_ring(3))
    v = {1: 1}
    assert D.contract(v, 1, 1) == {0: 1}
    assert D.contract(v, 1, 0) == {}


def test_act_matrix_shapes():
    D = dual_of(squares_ring(2))
    for m in (D.act_matrix(3, 0), last_slot_act_matrix(D, 3, 0)):
        assert len(m) == D.component(2).dim
        assert all(0 <= c < D.component(3).dim for row in m for c in row)


def test_quotient_full_set_reproduces_component():
    for A in (poly_ring(3), squares_ring(3), hhr_ring()):
        D = dual_of(A)
        Q = D.quotient(range(A.n))
        for l in range(4):
            assert Q.component(l) == D.component(l)


def test_quotient_dims_polynomial():
    D = dual_of(poly_ring(4))
    for m in range(1, 5):
        Q = D.quotient(range(m))
        for l in range(5):
            assert Q.rank(l) == comb(m, l)


def test_quotient_dims_squares():
    D = dual_of(squares_ring(4))
    for m in range(1, 5):
        Q = D.quotient(range(m))
        for l in range(5):
            assert Q.rank(l) == comb(l + m - 1, m - 1)


def test_quotient_killed_by_excluded_actions():
    # last-slot action by an excluded variable annihilates the quotient dual,
    # and the quotient is the maximal such subspace (rank check)
    for A in (poly_ring(3), squares_ring(3), hhr_ring()):
        D = dual_of(A)
        E = {0, 2}
        Q = D.quotient(E)
        for l in (1, 2, 3):
            comp = Q.component(l)
            for b in comp.rows:
                assert last_slot_contraction(D, b, 1) == {}
            full = D.component(l)
            killed = [b for b in full.rows if not last_slot_contraction(D, b, 1)]
            # maximality: count independent vectors of the full component
            # killed by the excluded action
            from koszulcone.linalg import Subspace
            sub = Subspace.from_rows(F101, killed, A.n ** l)
            assert comp.dim >= sub.dim  # killed basis rows are a lower bound
            assert all(comp.contains(r) for r in sub.rows)


def test_quotient_action_closure_first_slot():
    for A in (poly_ring(3), squares_ring(3), hhr_ring()):
        D = dual_of(A)
        Q = D.quotient({0, 1})
        for l in (1, 2, 3):
            for j in range(A.n):
                Q.act_matrix(l, j)  # raises ClosureFailure on a bug


def test_deg2_relations_polynomial_ring():
    D = dual_of(poly_ring(2))
    rels = deg2_relations(D)
    assert rels[(0, 0)] == {}
    assert rels[(1, 1)] == {}
    assert rels[(0, 1)] == {(1, 0): 100}  # X0 X1 = -X1 X0


def test_deg2_relations_squares_ring():
    D = dual_of(squares_ring(2))
    assert D.ordered_excluded_pairs() == [(0, 0), (1, 0), (1, 1)]
    assert deg2_relations(D) == {(0, 1): {(1, 0): 100}}


def test_deg2_relations_sym_ring():
    D = dual_of(sym_relation_ring())
    rels = deg2_relations(D)
    assert rels[(0, 1)][(0, 2)] == 1  # spec: coefficient +1 on x*_x x*_z
    assert rels[(0, 1)][(2, 0)] == 1
    assert rels[(0, 1)][(1, 0)] == 100


def test_deg2_consistency_all_rings():
    for A in (poly_ring(3), squares_ring(3), sym_relation_ring(), hhr_ring()):
        assert deg2_consistency(dual_of(A))


def test_deg2_labeled_duals_pairing():
    for A in (poly_ring(2), sym_relation_ring()):
        D = dual_of(A)
        labels, rows = deg2_labeled_duals(D)
        n = A.n
        for i, (u, v) in enumerate(labels):
            for k, (u2, v2) in enumerate(labels):
                expect = 1 if i == k else 0
                assert rows[i][u2 * n + v2] == expect


def test_labeled_dual_contraction_sign():
    # dual of x1* x2* in the exterior algebra contracts to +-(dual of x1*)
    D = dual_of(poly_ring(2))
    labels, rows = deg2_labeled_duals(D)
    f = rows[labels.index((1, 0))]
    img = D.contract(sparse([f])[0], 2, 1)
    assert img in ({0: 1}, {0: 100})


def test_left_ideal_contains_identity():
    D = dual_of(poly_ring(3))
    # True is the bounded answer: the containment holds up to degree 4
    assert left_ideal_contains(D, {0, 1}, (), {0, 1}, 4) is True


def test_left_ideal_contains_generator_test():
    D = dual_of(squares_ring(3))
    # L^k subset L^j iff E_j subset E_k
    # src allows everything => L_src = 0... dst smaller
    assert left_ideal_contains(D, {0, 1, 2}, (), {0, 1}, 4)
    assert not left_ideal_contains(D, {0}, (), {0, 1}, 4)
    assert left_ideal_contains(D, {0, 1}, (), {0}, 4)


def test_left_ideal_observation_polynomial():
    # in an exterior algebra, under the hypotheses of the well-definedness
    # lemma (t in Ek, Ej in Ek, nonzero word x_t* x_s*):
    # x_t* x_s* L^j in L^k with x_t* L^j not in L^k forces x_s* in L^j
    D = dual_of(poly_ring(3))
    subsets = [frozenset(s) for r in range(4) for s in combinations(range(3), r)]
    checked = 0
    for Ej in subsets:
        for Ek in subsets:
            if not Ej <= Ek:
                continue
            for t in Ek:
                for s in range(3):
                    if D.pair_word_is_zero(t, s):
                        continue
                    if left_ideal_contains(D, Ej, (t,), Ek, 3):
                        continue
                    if left_ideal_contains(D, Ej, (t, s), Ek, 3):
                        checked += 1
                        assert s not in Ej, (sorted(Ej), sorted(Ek), t, s)
    assert checked > 0


def test_left_ideal_naive_literal_reading_has_degenerate_gap():
    # the witness that the literal "s not in Ek" conclusion over-rejects:
    # Ej empty, Ek = {0,1}, t=0, s=1: the only c1 witness is u=1=s and
    # x_t* x_s* x_s* = 0, so the double-prefix containment holds with s in Ek
    D = dual_of(poly_ring(3))
    # the failing degree is the least bound that gives False: 1
    assert [left_ideal_contains(D, frozenset(), (0,), {0, 1}, lmax) for lmax in range(4)] \
        == [True, False, False, False]
    assert left_ideal_contains(D, frozenset(), (0, 1), {0, 1}, 3)
    assert 1 in {0, 1}  # s lies in Ek; the sound conclusion is s not in Ej


@pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=repr)
def test_left_ideal_scan_matches_the_contraction_oracle(field):
    # the package reads the support of the dst quotient's rows; the oracle
    # contracts them by the prefix and asks the src quotient dual
    from test_cli import generic_ring_text  # test_cli imports this module
    override = "q" if field == QQ else str(field.char)
    algebras = oracle_algebras(field, cutoff=2)
    for seed, n, nrels in ((1, 3, 2), (7, 4, 1)):
        js = parse_ring_text(generic_ring_text(seed, n, nrels), field_override=override)
        algebras[f"generic-{seed}-{n}-{nrels}"] = GradedAlgebra(js.presentation(), 2)
    rng = random.Random(31)
    answers = Counter()
    for name, A in algebras.items():
        D = QuadraticDual(A)
        for _ in range(12):
            src, dst = (frozenset(j for j in range(A.n) if rng.random() < 0.6)
                        for _ in range(2))
            prefix = tuple(rng.randrange(A.n) for _ in range(rng.randint(0, 2)))
            lmax = rng.randint(1, 3)
            got = left_ideal_contains(D, src, prefix, dst, lmax)
            assert got == contracted_left_ideal_contains(D, src, prefix, dst, lmax), \
                (name, sorted(src), prefix, sorted(dst), lmax)
            answers[got] += 1
    assert answers[True] > 20 and answers[False] > 20


def test_left_ideal_contains_contracts_nothing_and_builds_no_src_quotient(monkeypatch):
    calls = []
    contract = QuadraticDual.contract
    monkeypatch.setattr(QuadraticDual, "contract",
                        lambda self, *args: calls.append(args) or contract(self, *args))
    D = dual_of(hhr_ring())
    answers = set()
    for src in (frozenset(), frozenset({0}), frozenset({1, 2})):
        for prefix in ((), (0,), (2, 1)):
            for dst in (frozenset({0, 1}), frozenset({2})):
                answers.add(left_ideal_contains(D, src, prefix, dst, 3))
                assert D.quotient(src)._components == {}
    assert answers == {True, False}
    assert calls == []


def test_calibration_first_slot_action_last_slot_membership():
    # the quotient dual is cut out by last-slot annihilation; the first-slot
    # contraction preserves it, the last-slot contraction does not.  This is
    # the d.d = 0 calibration that fixes the action convention globally.
    D = dual_of(hhr_ring())
    Q = D.quotient({2})
    for j in range(3):
        Q.act_matrix(2, j)  # closure holds
    with pytest.raises(ClosureFailure):
        last_slot_act_matrix(D, 2, 2, allowed={2})


def test_full_component_trace_complex_closes_both_slots():
    # on the full dual components both contractions yield d.d = 0; only the
    # quotient duals distinguish them
    from koszulcone.complexes import _trace_differential, ChainComplex, Generator
    for mk in (poly_ring, squares_ring):
        A = mk(3, cutoff=6)
        D = dual_of(A)
        for slot, act in (("first", D.act_matrix),
                          ("last", lambda l, j: last_slot_act_matrix(D, l, j))):
            modules = []
            for l in range(4):
                comp = D.component(l)
                modules.append([Generator(None, i, l, comp.ambient, tuple(sorted(r.items())))
                                for i, r in enumerate(comp.rows)])
            diffs = [None]
            for l in range(1, 4):
                diffs.append(_trace_differential(A, [act(l, j) for j in range(A.n)]))
            c = ChainComplex(A, modules, diffs)
            assert c.d_squared_witness() is None, (mk.__name__, slot)


def test_action_leaving_the_dual_component_is_typed_with_witness(monkeypatch):
    D = dual_of(poly_ring(3))
    assert (D.component(3).dim, D.component(2).dim) == (1, 3)
    outside = {0: 1}  # x0 (x) x0 is not in the exterior component(2)
    monkeypatch.setattr(QuadraticDual, "contract", lambda self, vec, l, j: outside)
    with pytest.raises(ClosureFailure) as e:
        D.act_matrix(3, 2)
    assert e.value.witness == (3, 2, 0)


def test_quotient_action_leaving_the_component_is_typed_with_witness(monkeypatch):
    Q = dual_of(poly_ring(3)).quotient({0, 1})
    assert (Q.rank(2), Q.rank(1)) == (1, 2)
    outside = {2: 1}  # x2 is excluded
    monkeypatch.setattr(QuadraticDual, "contract", lambda self, vec, l, j: outside)
    with pytest.raises(ClosureFailure) as e:
        Q.act_matrix(2, 1)
    assert e.value.witness == (2, 1, 0)


def test_relation_space_dimension_is_checked(monkeypatch):
    A = poly_ring(3)
    D = dual_of(A)
    monkeypatch.setattr(A, "dim", lambda d: 5)
    with pytest.raises(DimensionMismatch) as e:
        D.relation_space
    assert e.value.witness == (3, 4)


def test_invert_refuses_a_singular_matrix():
    with pytest.raises(ValueError, match=r"^3 x 3 matrix to invert has rank 2$"):
        _invert(F101, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert _invert(F101, [[2, 0], [0, 1]]) == [[51, 0], [0, 1]]
