import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from koszulcone.algebra import GradedAlgebra, RingPresentation, monomials_of_degree
from koszulcone.cli import parse_ring_text
from koszulcone.errors import DegreeOverflow, ElementMismatch
from koszulcone.linalg import GF, QQ, Echelon, Subspace, rank, transpose

import algebra_oracle
from linalg_oracle import solve_columns
from rowform import canonical_qq, dense, sparse

F101 = GF(101)


def poly_ring(n, cutoff=6, field=F101):
    names = tuple(f"x{i+1}" for i in range(n))
    return GradedAlgebra(RingPresentation(names, field), cutoff)


def squares_ring(n, cutoff=8, field=F101):
    names = tuple(f"x{i+1}" for i in range(n))
    rels = tuple((( field.one, (i, i)),) for i in range(n))
    return GradedAlgebra(RingPresentation(names, field, rels), cutoff)


def sym_relation_ring(preferred=((1, 1, 0), (0, 1, 1)), cutoff=6):
    # k[x,y,z]/(xy + xz + yz)
    rel = ((F101.one, (0, 1)), (F101.one, (0, 2)), (F101.one, (1, 2)))
    return GradedAlgebra(
        RingPresentation(("x", "y", "z"), F101, (rel,), preferred), cutoff
    )


def hhr_ring(cutoff=8):
    # k[x1,x2,x3]/(x1*x3, x3^2)
    rels = (((F101.one, (0, 2)),), ((F101.one, (2, 2)),))
    return GradedAlgebra(RingPresentation(("x1", "x2", "x3"), F101, rels), cutoff)


def conca_for_algebra_tests(cutoff=6):
    one = F101.one
    rels = (
        ((one, (0, 2)),),
        ((one, (0, 3)),),
        ((one, (0, 1)), (F101.neg(one), (1, 3))),
        ((one, (0, 0)), (one, (1, 2))),
        ((one, (1, 1)),),
    )
    return GradedAlgebra(RingPresentation(("a", "b", "c", "d"), F101, rels), cutoff)


def test_monomial_enumeration_descending_lex():
    assert monomials_of_degree(3, 2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )


def test_free_ring_degree2_basis_is_everything():
    A = poly_ring(3)
    assert A.dim(2) == 6
    assert list(A.basis(2)) == list(monomials_of_degree(3, 2))
    assert A.basis_pairs() == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert A.non_basis_pairs() == []
    assert A.structure_coefficients() == {}


def test_preferred_basis_selection():
    A = sym_relation_ring()
    basis = list(A.basis(2))
    # xy and yz first (preferred), xz excluded, squares retained
    assert basis[0] == (1, 1, 0) and basis[1] == (0, 1, 1)
    assert (1, 0, 1) not in basis
    assert len(basis) == 5


def test_normal_form_spec_examples():
    A = sym_relation_ring()
    xy = A.monomial_element((1, 1, 0))
    assert A.coords(xy) == [1, 0, 0, 0, 0]
    xz = A.monomial_element((1, 0, 1))
    # xz = -xy - yz
    assert A.coords(xz) == [100, 100, 0, 0, 0]
    mul = A.multiply(A.var(0), A.var(2))
    assert mul == xz


def test_squares_ring_hilbert():
    A = squares_ring(2, cutoff=4)
    assert [A.dim(d) for d in range(5)] == [1, 2, 1, 0, 0]
    x1sq = A.monomial_element((2, 0))
    assert x1sq.is_zero
    assert A.multiply(A.monomial_element((1, 1)), A.var(0)).is_zero


def test_unit_multiplication():
    A = sym_relation_ring()
    m = A.monomial_element((0, 1, 1))
    assert A.multiply(A.monomial_element((0, 0, 0)), m) == m


def test_structure_coefficients_sym_ring():
    A = sym_relation_ring()
    coeffs = A.structure_coefficients()
    assert set(coeffs) == {(0, 2)}
    assert coeffs[(0, 2)] == {(0, 1): 100, (1, 2): 100}


def test_structure_coefficients_hhr_ring():
    A = hhr_ring()
    coeffs = A.structure_coefficients()
    assert coeffs == {(0, 2): {}, (2, 2): {}}


def test_pair_expansion_consistency():
    # x_u x_v == sum f^{uv}_{st} x_s x_t under normal forms, for every pair
    for A in (sym_relation_ring(), hhr_ring(), squares_ring(3)):
        for (u, v), expansion in A.structure_coefficients().items():
            lhs = A.multiply(A.var(u), A.var(v))
            rhs = A.zero(2)
            for (s, t), f in expansion.items():
                rhs = A.add(rhs, A.scale(f, A.multiply(A.var(s), A.var(t))))
            assert lhs == rhs


def test_hilbert_functions():
    for n in (1, 2, 3, 4):
        A = poly_ring(n)
        for d in range(5):
            assert A.dim(d) == comb(n + d - 1, d)
        B = squares_ring(n, cutoff=max(2, n + 1))
        for d in range(n + 2):
            assert B.dim(d) == comb(n, d)


def test_dim_degree1_always_n():
    for A in (poly_ring(4), squares_ring(4), hhr_ring(), sym_relation_ring()):
        assert A.dim(1) == A.n


def test_multiplication_commutative_random():
    rng = random.Random(5)
    for A in (sym_relation_ring(), hhr_ring(), squares_ring(3)):
        for _ in range(10):
            da, db = rng.randint(1, 2), rng.randint(1, 2)
            a = A.element(da, [rng.randrange(101) for _ in range(A.dim(da))])
            b = A.element(db, [rng.randrange(101) for _ in range(A.dim(db))])
            assert A.multiply(a, b) == A.multiply(b, a)


def test_multiplication_associative_random():
    rng = random.Random(9)
    for A in (hhr_ring(), conca_for_algebra_tests()):
        for _ in range(8):
            a = A.element(1, [rng.randrange(101) for _ in range(A.dim(1))])
            b = A.element(1, [rng.randrange(101) for _ in range(A.dim(1))])
            c = A.element(2, [rng.randrange(101) for _ in range(A.dim(2))])
            assert A.multiply(A.multiply(a, b), c) == A.multiply(a, A.multiply(b, c))


def test_normal_form_linear():
    # 2xz + 3y^2 = -2xy - 2yz + 3y^2 over the basis xy, yz, x^2, y^2, z^2
    A = sym_relation_ring()
    a = A.scale(2, A.monomial_element((1, 0, 1)))
    b = A.scale(3, A.monomial_element((0, 2, 0)))
    assert A.coords(A.add(a, b)) == [99, 99, 0, 3, 0]


def test_degree_overflow():
    A = poly_ring(2, cutoff=3)
    with pytest.raises(DegreeOverflow):
        A.dim(4)
    with pytest.raises(DegreeOverflow):
        a = A.element(2, [1, 0, 0])
        A.multiply(a, a)


def test_inconsistent_preferred_reported():
    # prefer both xy and xz; after xy (and the relation) xz is dependent only
    # together with yz... here prefer xy, xz, yz: the third must be skipped
    A = sym_relation_ring(preferred=((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    basis = list(A.basis(2))
    assert (1, 1, 0) in basis and (1, 0, 1) in basis
    assert (0, 1, 1) not in basis
    assert any("dependent" in w for w in A.warnings)


def test_conca_ring_degree2():
    # k[a,b,c,d]/(ac, ad, ab-bd, a^2+bc, b^2)
    one = F101.one
    rels = (
        ((one, (0, 2)),),
        ((one, (0, 3)),),
        ((one, (0, 1)), (F101.neg(one), (1, 3))),
        ((one, (0, 0)), (one, (1, 2))),
        ((one, (1, 1)),),
    )
    A = GradedAlgebra(RingPresentation(("a", "b", "c", "d"), F101, rels), 6)
    assert A.dim(2) == 5
    # bc = -a^2, bd = ab
    assert A.monomial_element((1, 1, 0, 0)) == A.monomial_element((0, 1, 0, 1))
    bc = A.monomial_element((0, 1, 1, 0))
    a2 = A.monomial_element((2, 0, 0, 0))
    assert A.add(bc, a2).is_zero


def test_rational_field_ring():
    A = sym_relation_ring()
    names = ("x", "y", "z")
    rel = ((QQ.one, (0, 1)), (QQ.one, (0, 2)), (QQ.one, (1, 2)))
    B = GradedAlgebra(RingPresentation(names, QQ, (rel,), ((1, 1, 0), (0, 1, 1))), 4)
    assert [B.dim(d) for d in range(4)] == [A.dim(d) for d in range(4)]
    xz = B.monomial_element((1, 0, 1))
    assert [str(c) for c in B.coords(xz)] == ["-1", "-1", "0", "0", "0"]


def test_element_checks_are_typed_errors():
    A = poly_ring(2)
    with pytest.raises(ElementMismatch):
        A.element(2, [1, 0])
    a, b = A.var(0), A.monomial_element((1, 1))
    with pytest.raises(ElementMismatch):
        A.add(a, b)
    with pytest.raises(ElementMismatch):
        A.sub(a, b)


def greedy_reference(presentation, d):
    """Basis, normal forms and warnings of degree d, chosen one candidate at a
    time: a candidate joins the basis iff its class is independent of the
    relation span together with the candidates chosen so far."""
    fld = presentation.field
    n = presentation.nvars
    mons = monomials_of_degree(n, d)
    index = {m: i for i, m in enumerate(mons)}

    def unit(m):
        v = [fld.zero] * len(mons)
        v[index[m]] = fld.one
        return v

    relations = []
    for mu in monomials_of_degree(n, d - 2):
        for rel in presentation.relations:
            v = [fld.zero] * len(mons)
            for coeff, (i, j) in rel:
                t = list(mu)
                t[i] += 1
                t[j] += 1
                v[index[tuple(t)]] = fld.add(v[index[tuple(t)]], fld.of(coeff))
            relations.append(v)
    preferred = [m for m in presentation.preferred if sum(m) == d]
    candidates = preferred + [m for m in mons if m not in preferred]
    basis, warnings = [], []
    for m in candidates:
        before = relations + [unit(b) for b in basis]
        if rank(fld, sparse(before + [unit(m)]), len(mons)) > rank(fld, sparse(before), len(mons)):
            basis.append(m)
        elif m in preferred:
            name = "*".join(presentation.var_names[i] + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(m) if e)
            warnings.append(f"InconsistentPreferred: monomial {name} "
                            f"is dependent in degree {d}; skipped")
    nf = {}
    for m in mons:
        gens = [unit(b) for b in basis] + relations
        sols, _ = solve_columns(fld, transpose(sparse(gens), len(mons)), len(gens),
                                sparse([unit(m)]))
        nf[m] = tuple(dense(sols, len(gens), fld.zero)[0][:len(basis)])
    return basis, nf, warnings


def random_presentation(rng, field, p):
    n = rng.randint(2, 4)
    names = tuple(f"x{i + 1}" for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    # one monomial relation makes its monomial a dependent preferred choice
    dead = rng.choice(pairs)
    rels = [((field.one, dead),)]
    for _ in range(rng.randint(0, 3)):
        terms = rng.sample(pairs, rng.randint(1, 3))
        rels.append(tuple((field.of(rng.randrange(1, p)), t) for t in terms))

    def exp(pair):
        e = [0] * n
        for i in pair:
            e[i] += 1
        return tuple(e)

    preferred = [exp(t) for t in rng.sample(pairs, rng.randint(1, len(pairs)))]
    preferred.insert(rng.randrange(len(preferred) + 1), exp(dead))
    preferred.append(rng.choice(preferred))  # a repeated preferred monomial
    preferred.append(tuple(3 if i == 0 else 0 for i in range(n)))
    return RingPresentation(names, field, tuple(rels), tuple(preferred))


@pytest.mark.parametrize("p, trials, cutoff", [(2, 12, 4), (101, 12, 4), (0, 5, 3)])
def test_basis_choice_matches_incremental_greedy(p, trials, cutoff):
    field = QQ if p == 0 else GF(p)
    rng = random.Random(1000 + p)
    for _ in range(trials):
        pres = random_presentation(rng, field, p or 7)
        A = GradedAlgebra(pres, cutoff)
        expected_warnings = []
        for d in range(cutoff + 1):
            basis, nf, warnings = greedy_reference(pres, d)
            expected_warnings += warnings
            assert list(A.basis(d)) == basis
            index = {m: i for i, m in enumerate(monomials_of_degree(A.n, d))}
            relations = Subspace.from_rows(field, A._relation_rows(d, index), len(index))
            for m, coords in nf.items():
                assert tuple(A.coords(A.monomial_element(m))) == coords
                # m - nf(m) lies in the relation span
                v = [field.zero] * len(nf)
                v[index[m]] = field.one
                for b, c in zip(basis, coords):
                    v[index[b]] = field.sub(v[index[b]], c)
                assert relations.contains(sparse([v])[0])
        assert A.warnings == expected_warnings
        assert any("InconsistentPreferred" in w for w in expected_warnings)


# -- degrees above a zero degree ---------------------------------------------------

def full_elimination_reference(presentation, d):
    """Basis and normal forms of degree d from all of its relation rows: the
    greedy basis read off one Echelon fed the relation rows and then each
    candidate that is new, and each monomial's normal form as the unique
    combination of basis monomials that differs from it by a relation."""
    fld = presentation.field
    mons = monomials_of_degree(presentation.nvars, d)
    index = {m: i for i, m in enumerate(mons)}
    relations = []
    for mu in monomials_of_degree(presentation.nvars, d - 2):
        for rel in presentation.relations:
            row = {}
            for coeff, (i, j) in rel:
                t = list(mu)
                t[i] += 1
                t[j] += 1
                row[index[tuple(t)]] = fld.add(row.get(index[tuple(t)], fld.zero), fld.of(coeff))
            relations.append({c: v for c, v in row.items() if v})
    ech = Echelon(fld, len(mons))
    ech.extend(relations)
    basis = []
    preferred = [m for m in presentation.preferred if sum(m) == d]
    for m in dict.fromkeys(preferred + list(mons)):
        if ech.locate({index[m]: fld.one}, ech.counts[-1]) is None:
            basis.append(m)
            ech.extend([{index[m]: fld.one}])
    span = Subspace.from_rows(fld, relations, len(mons))
    return index, basis, span


@pytest.mark.parametrize("field", [F101, GF(2), QQ], ids=["gf101", "gf2", "qq"])
def test_degrees_above_a_zero_degree_match_full_elimination(field, monkeypatch):
    # squares n is zero from degree n + 1 on; degrees n + 2 .. n + 4 are built
    # with no elimination at all
    rref = type(field).rref
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return rref(self, *args, **kwargs)

    monkeypatch.setattr(type(field), "rref", counted)
    for n in range(2, 6):
        A = squares_ring(n, cutoff=n + 4, field=field)
        for d in range(n + 5):
            before = len(calls)
            dim = A.dim(d)
            assert (len(calls) == before) == (d >= n + 2), (n, d)
            index, basis, span = full_elimination_reference(A.presentation, d)
            assert A._degree(d).index == index
            assert list(A.basis(d)) == basis and dim == len(basis) == (comb(n, d) if d <= n else 0)
            for m, i in index.items():
                nf = A.monomial_element(m)
                assert nf.degree == d
                v = {i: field.one}
                for k, c in nf.terms:
                    j = index[basis[k]]
                    v[j] = field.sub(v.get(j, field.zero), c)
                assert span.contains(v), (n, d, m)
        assert A.warnings == []


def test_a_preferred_monomial_of_a_zero_degree_still_warns():
    js = parse_ring_text("field p=101\nvars x y\nrel x^2\nrel y^2\n"
                         "prefer x*y, x^2*y^2, x*y^3, x^2*y^2\nideal x\n")
    A = GradedAlgebra(js.presentation(), 6)
    assert [A.dim(d) for d in range(7)] == [1, 2, 1, 0, 0, 0, 0]
    assert A.warnings == [
        f"InconsistentPreferred: monomial {m} is dependent in degree 4; skipped"
        for m in ("x^2*y^2", "x*y^3", "x^2*y^2")]
    # degree 4 asked for before degree 3 is eliminated in full, and warns alike
    B = GradedAlgebra(js.presentation(), 6)
    assert (B.dim(4), B.dim(3)) == (0, 0) and B.warnings == A.warnings


# -- the canonical element form against a dense oracle ---------------------------

def assert_canonical(A, x):
    """x.terms: sorted distinct basis positions, nonzero values, in [0, p) over GF(p)."""
    positions = [k for k, _ in x.terms]
    assert positions == sorted(set(positions))
    assert all(0 <= k < A.dim(x.degree) for k in positions)
    assert all(v for _, v in x.terms)
    p = A.field.char
    if p:
        assert all(type(v) is int and 0 <= v < p for _, v in x.terms)


def dense_product(A, a, b):
    """Coordinates of a * b, summed over pairs of dense coordinates."""
    fld = A.field
    out = [fld.zero] * A.dim(a.degree + b.degree)
    for x, ma in zip(A.coords(a), A.basis(a.degree)):
        for y, mb in zip(A.coords(b), A.basis(b.degree)):
            nf = A.coords(A.monomial_element(tuple(i + j for i, j in zip(ma, mb))))
            out = [fld.add(o, fld.mul(fld.mul(x, y), z)) for o, z in zip(out, nf)]
    return out


@pytest.mark.parametrize("p", [101, 2, 0])
def test_element_form_is_canonical_and_agrees_with_dense_coordinates(p):
    field = QQ if p == 0 else GF(p)
    rng = random.Random(1800 + p)
    cutoff = 4
    for _ in range(6):
        A = GradedAlgebra(random_presentation(rng, field, p or 7), cutoff)
        fld = A.field

        def random_coords(d):
            # sparse and dense vectors, often with zeros
            density = rng.choice([0.0, 0.3, 1.0])
            return [fld.of(rng.randint(-3, 3)) if rng.random() < density else fld.zero
                    for _ in range(A.dim(d))]

        for d in range(cutoff + 1):
            if not A.dim(d):
                continue
            ca, cb = random_coords(d), random_coords(d)
            a, b = A.element(d, ca), A.element(d, cb)
            c = fld.of(rng.randint(-3, 3))
            results = {
                "add": (A.add(a, b), [fld.add(x, y) for x, y in zip(ca, cb)]),
                "sub": (A.sub(a, b), [fld.sub(x, y) for x, y in zip(ca, cb)]),
                "scale": (A.scale(c, a), [fld.mul(c, x) for x in ca]),
                "scale by 0": (A.scale(fld.zero, a), [fld.zero] * len(ca)),
            }
            for e in range(cutoff - d + 1):
                if A.dim(e):
                    f = A.element(e, random_coords(e))
                    results[f"multiply {e}"] = (A.multiply(a, f), dense_product(A, a, f))
            for name, (got, want) in results.items():
                assert_canonical(A, got)
                assert A.coords(got) == want, name
                assert got.is_zero == (not any(want)), name
            for x, cx in ((a, ca), (b, cb)):
                assert_canonical(A, x)
                assert A.coords(x) == cx
                assert x.is_zero == (not any(cx))
            # equal exactly when the dense coordinates are
            assert (a == b) == (ca == cb)
            if a == b:
                assert hash(a) == hash(b)
            # every constructor gives the one form of an element
            pairs = [(k, v) for k, v in enumerate(ca) if v]
            rng.shuffle(pairs)
            from_sparse = A.from_sparse(d, dict(pairs))
            assert from_sparse == a and hash(from_sparse) == hash(a)
            assert from_sparse.terms == a.terms
            cancelled = A.add(a, A.scale(fld.of(-1), a))
            assert cancelled == A.zero(d) and hash(cancelled) == hash(A.zero(d))
            assert cancelled.is_zero and A.zero(d).is_zero
            assert A.scale(fld.zero, a) == A.zero(d)
            for m in list(A.basis(d)) + list(monomials_of_degree(A.n, d)[:4]):
                mono = A.monomial_element(m)
                assert_canonical(A, mono)
                assert mono == A.element(d, A.coords(mono))
                assert hash(mono) == hash(A.element(d, A.coords(mono)))
                if d == 0:
                    continue
                lead = next(i for i, e in enumerate(m) if e)
                smaller = tuple(e - (i == lead) for i, e in enumerate(m))
                product = A.multiply(A.var(lead), A.monomial_element(smaller))
                assert product == mono and hash(product) == hash(mono)
        with pytest.raises(DegreeOverflow):
            A.zero(cutoff + 1)
        with pytest.raises(ElementMismatch):
            A.element(1, [fld.one] * (A.dim(1) + 1))


# -- products of single terms against the general expansion -----------------------

# k[x,y,z]/(2xy - 3xz + 5yz): the symmetric relation of the sym_relation
# fixture with non-unit coefficients, so that over QQ the normal form of x*z,
# and the products and differentials built on it, hold proper fractions
FRACTIONAL_RING_TEXT = """\
field q
vars x y z
rel 2*x*y - 3*x*z + 5*y*z
prefer x*y, y*z
ideal x*y, y*z
"""


def fractional_ring(cutoff=6):
    return GradedAlgebra(parse_ring_text(FRACTIONAL_RING_TEXT).presentation(), cutoff)


def test_the_fractional_ring_has_proper_fractions_in_its_normal_forms():
    A = fractional_ring()
    xz = A.monomial_element((1, 0, 1))
    assert xz.terms == ((0, Fraction(2, 3)), (1, Fraction(5, 3)))
    assert A.format_element(xz) == "2/3*x*y + 5/3*y*z"
    assert all(canonical_qq(x) for d in range(5) for nf in A._degree(d).nf for _, x in nf)


@pytest.mark.parametrize("p", [2, 101, 0])
def test_multiply_matches_the_general_expansion(p):
    # a product of single terms c*m and c'*m' is c*c' times one normal-form
    # lookup; the oracle expands every product, as multiply did before
    field = QQ if p == 0 else GF(p)
    rng = random.Random(2700 + p)
    cutoff = 5
    coefficients = [field.one] if p == 2 else [
        field.of(c) for c in (1, -1, 2, Fraction(2, 3), Fraction(-5, 2))]
    value_ok = canonical_qq if p == 0 else (lambda x: type(x) is int and 0 < x < p)
    rings = [poly_ring(3, cutoff, field), squares_ring(3, cutoff, field)]
    rings += [GradedAlgebra(random_presentation(rng, field, p or 7), cutoff) for _ in range(4)]
    if p == 0:
        rings.append(fractional_ring(cutoff))

    def elements(A, d):
        dim = A.dim(d)
        out = [A.from_sparse(d, {rng.randrange(dim): rng.choice(coefficients)})
               for _ in range(3)]
        if dim > 1:
            k, j = rng.sample(range(dim), 2)
            out.append(A.from_sparse(d, {k: rng.choice(coefficients), j: field.one}))
        return out + [A.zero(d)]

    kinds = Counter()
    for A in rings:
        for da in range(3):
            for db in range(3):
                if not (A.dim(da) and A.dim(db)):
                    continue
                for a in elements(A, da):
                    for b in elements(A, db):
                        got, want = A.multiply(a, b), algebra_oracle.multiply(A, a, b)
                        assert got == want, (A.presentation, a, b)
                        assert [type(v) for _, v in got.terms] == \
                            [type(v) for _, v in want.terms]
                        assert all(value_ok(v) for _, v in got.terms)
                        single = len(a.terms) == len(b.terms) == 1
                        kinds[(single, bool(got.terms))] += 1
    # single x single products that vanish (x1*x1 in the squares ring) and
    # that do not, and multi-term or zero factors
    assert all(kinds[key] for key in ((True, True), (True, False), (False, True)))
    if p == 0:
        A = rings[-1]
        x, z = A.var(0), A.var(2)
        assert A.multiply(A.scale(Fraction(3, 2), x), z).terms == ((0, 1), (1, Fraction(5, 2)))
