import math
import random
from fractions import Fraction

import pytest

from koszulcone import linalg
from koszulcone.dual import _assemble
from koszulcone.linalg import (
    GF,
    QQ,
    Echelon,
    Solver,
    Subspace,
    kernel,
    rank,
    transpose,
)

from linalg_oracle import solve_columns
from rowform import canonical_qq, dense, sparse

F101 = GF(101)


def unit(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


# the test_echelonize_* tests check the RREF, rank and kernel of one matrix together
def test_echelonize_identity():
    rows = sparse([unit(F101, 3, i) for i in range(3)])
    rref, pivots = F101.rref(rows, 3)
    assert rank(F101, rows, 3) == 3 and pivots == [0, 1, 2] and kernel(F101, rows, 3).dim == 0
    assert rref == rows


def test_echelonize_zero_matrix():
    rows = sparse([[0, 0, 0, 0], [0, 0, 0, 0]])
    assert rank(F101, rows, 4) == 0 and kernel(F101, rows, 4).dim == 4


def test_echelonize_rank_one():
    rows = sparse([[1, 1], [2, 2]])
    _, pivots = F101.rref(rows, 2)
    assert rank(F101, rows, 2) == 1 and pivots == [0]
    ker = kernel(F101, rows, 2)
    assert ker.dim == 1
    assert ker.rows == sparse([[1, 100]])  # (1, -1) mod 101


def test_echelonize_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = sparse([[rng.randrange(101) for _ in range(n)] for _ in range(m)])
        rref, pivots = F101.rref(rows, n)
        again, pivots2 = F101.rref(rref, n)
        assert again == rref and pivots2 == pivots
        assert rank(F101, rref, n) == rank(F101, rows, n) == len(pivots)


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = sparse([[rng.randrange(101) for _ in range(n)] for _ in range(m)])
        assert rank(F101, rows, n) == rank(F101, transpose(rows, n), m)


def test_rank_nullity():
    rng = random.Random(13)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(2, 8)
        rows = [[rng.randrange(101) for _ in range(n)] for _ in range(m)]
        ker = kernel(F101, sparse(rows), n)
        assert rank(F101, sparse(rows), n) + ker.dim == n
        for v in dense(ker.rows, n):
            assert all(sum(r * x for r, x in zip(row, v)) % 101 == 0 for row in rows)


def solve_membership(field, target, gens):
    """target over the span of the rows gens: solve_columns on the transpose."""
    sols, _ = solve_columns(field, transpose(sparse(gens), len(target)), len(gens),
                            sparse([target]))
    return None if sols is None else dense(sols, len(gens), field.zero)[0]


def test_solve_columns_batches_targets_and_names_the_first_unsolvable():
    # one elimination serves every target, with the same canonical answers
    # as one target at a time; a failure names the first unsolvable target
    rng = random.Random(29)
    for field in (F101, QQ):
        for _ in range(20):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[field.of(rng.randrange(-3, 4)) for _ in range(ncols)] for _ in range(nrows)]
            targets = []
            for _ in range(rng.randint(1, 4)):
                w = [field.of(rng.randrange(-3, 4)) for _ in range(ncols)]
                targets.append([sum((a * b for a, b in zip(row, w)), field.zero) for row in rows])
            targets = [[field.of(x) for x in t] for t in targets]
            sols, bad = solve_columns(field, sparse(rows), ncols, sparse(targets))
            assert bad is None
            assert sols == [solve_columns(field, sparse(rows), ncols, sparse([t]))[0][0]
                            for t in targets]
            for w, t in zip(dense(sols, ncols, field.zero), targets):
                assert [field.of(sum((a * b for a, b in zip(row, w)), field.zero))
                        for row in rows] == t
    rows = sparse([[1, 0], [0, 0], [0, 0]])
    assert solve_columns(F101, rows, 2, sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (None, 1)
    assert solve_columns(F101, rows, 2, sparse([[3, 0, 0]])) == (sparse([[3, 0]]), None)

def test_solve_membership_zero_target():
    gens = [[1, 0], [0, 1]]
    assert solve_membership(F101, [0, 0], gens) == [0, 0]


def test_solve_membership_generator_row():
    gens = [[1, 2, 3], [4, 5, 6]]
    assert solve_membership(F101, [4, 5, 6], gens) == [0, 1]


def test_solve_membership_canonical_free_coords():
    gens = [[1, 0], [0, 1], [1, 1]]
    assert solve_membership(F101, [1, 1], gens) == [1, 1, 0]


def test_solve_membership_outside_span():
    gens = [[1, 0, 0]]
    assert solve_membership(F101, [0, 1, 0], gens) is None


def test_solve_membership_reproduces_target_random():
    rng = random.Random(23)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        gens = [[rng.randrange(101) for _ in range(n)] for _ in range(m)]
        coeffs = [rng.randrange(101) for _ in range(m)]
        target = [sum(c * row[j] for c, row in zip(coeffs, gens)) % 101 for j in range(n)]
        sol = solve_membership(F101, target, gens)
        assert sol is not None
        back = [sum(c * row[j] for c, row in zip(sol, gens)) % 101 for j in range(n)]
        assert back == target


def test_rational_rref_matches_prime_free_case():
    rows = sparse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(1)]])
    rref, pivots = QQ.rref(rows, 2)
    assert len(pivots) == 2 and kernel(QQ, rows, 2).dim == 0
    assert rref == sparse([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])


def test_rational_rref_random_consistency():
    # fraction-free elimination must agree with a naive reconstruction check
    rng = random.Random(31)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = sparse([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                       for _ in range(m)])
        rref, pivots = QQ.rref(rows, n)
        assert len(pivots) + kernel(QQ, rows, n).dim == n
        # every original row reduces to zero against the echelon basis
        sub = Subspace(QQ, n, rref, pivots)
        for row in rows:
            assert sub.contains(row)
        for r, c in enumerate(pivots):
            assert rref[r][c] == 1
            assert all(c not in rref[rr] for rr in range(len(rref)) if rr != r)


def test_rational_kernel_exact():
    rows = sparse([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    ker = kernel(QQ, rows, 2)
    assert ker.dim == 1
    assert ker.rows == sparse([[Fraction(1), Fraction(-1, 2)]])


def test_subspace_coords_roundtrip():
    s = Subspace.from_rows(F101, sparse([[1, 2, 3], [0, 1, 7]]), 3)
    a, b = dense(s.rows, 3)
    v = sparse([[(1 * x + 5 * y) % 101 for x, y in zip(a, b)]])[0]
    coords = s.coords_of(v)
    assert coords == {0: 1, 1: 5}
    assert s.coords_of({0: 1}) is None


def _random_matrix(rng, p, nrows, ncols, rank_cap):
    """Product of random nrows x rank_cap and rank_cap x ncols matrices, with
    a random set of columns zeroed: rank at most rank_cap, empty columns."""
    left = [[rng.randrange(p) for _ in range(rank_cap)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank_cap)]
    m = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]
    dead = {c for c in range(ncols) if rng.random() < 0.25}
    return sparse([[0 if c in dead else x for c, x in enumerate(row)] for row in m])


@pytest.mark.parametrize("p", [2, 3, 101])
def test_forward_rank_equals_rref_pivot_count(p):
    F = GF(p)
    rng = random.Random(p)
    shapes = [(1, 1), (1, 9), (9, 1), (3, 12), (12, 3), (8, 8), (20, 6), (6, 20)]
    for nrows, ncols in shapes:
        for cap in range(1, min(nrows, ncols) + 2):
            rows = _random_matrix(rng, p, nrows, ncols, cap)
            full, pivots = F.rref(rows, ncols)
            assert F.rref(rows, ncols, reduced=False) == (None, pivots)
            assert rank(F, rows, ncols) == len(pivots) == len(full)
    assert rank(F, [], 5) == 0
    assert rank(F, sparse([[0] * 7] * 3), 7) == 0


def test_forward_rank_over_rationals():
    rng = random.Random(23)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = sparse([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
                       for _ in range(nrows)])
        _, pivots = QQ.rref(rows, ncols)
        assert QQ.rref(rows, ncols, reduced=False) == (None, pivots)
        assert rank(QQ, rows, ncols) == len(pivots)


def test_prime_field_results_are_python_ints():
    rows = sparse([[3, 5, 7], [2, 4, 100]])
    rref, _ = F101.rref(rows, 3)
    basis = Subspace.from_rows(F101, rows, 3)
    residual, coeffs = Subspace.from_rows(F101, rows[:1], 3).reduce({0: 1, 1: 2, 2: 3})
    assembled = _assemble(F101, Subspace.full(F101, 4), basis, 6).rows
    dense_kernel = linalg._dense_rref(rows, 3, 101, True)[0]
    for vec in rref + [residual, coeffs] + assembled + dense_kernel:
        assert all(type(j) is int and type(x) is int for j, x in vec.items())


def _fraction_gauss_jordan(rows, ncols):
    """Reference RREF: textbook Gauss-Jordan on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


BIG_DENOMINATOR = 10 ** 12 + 39


def _random_rational_entry(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 3:
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, BIG_DENOMINATOR))
    return rng.choice((-1, 1)) * rng.randint(2 ** 63, 2 ** 70)


def _random_rational_matrix(rng, nrows, ncols, rank_cap):
    """Rows are sparse random combinations of rank_cap sparse random rows
    (so dependent when nrows > rank_cap), some columns are zero, and entries
    with denominator 1 are handed in as ints half of the time."""
    basis = [[_random_rational_entry(rng) for _ in range(ncols)] for _ in range(rank_cap)]
    dead = {c for c in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7, BIG_DENOMINATOR)))
                  if rng.random() < 0.5 else 0 for _ in range(rank_cap)]
        row = [0 if c in dead else sum(k * b[c] for k, b in zip(coeffs, basis))
               for c in range(ncols)]
        rows.append([int(x) if x.denominator == 1 and rng.random() < 0.5 else x
                     for x in map(Fraction, row)])
    return rows


def _qq_monomial_rows(rng, nrows, ncols):
    """Monomial matrices over QQ: one or two nonzeros per row, handed in as
    ints, integral Fractions between copies of the shared zero QQ.zero, or
    fractions with small denominators."""
    rows = _monomial_rows(rng, 7, nrows, ncols)
    kind = rng.randrange(3)
    if kind == 0:
        return rows
    if kind == 1:
        return [[Fraction(x) if x else QQ.zero for x in row] for row in rows]
    return [[Fraction(x, rng.randint(1, 5)) for x in row] for row in rows]


def _mixed_rows(rng, nrows, ncols):
    """Sparse rows in which ints and fractional entries sit side by side."""
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for c in rng.sample(range(ncols), min(ncols, rng.randint(1, 4))):
            row[c] = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(2, 6))))
        rows.append(row)
    return rows


def _rational_inputs(rng):
    """(rows, ncols): random low-rank, monomial, mixed int/fraction and fully
    dense matrices."""
    shapes = [(1, 1), (1, 9), (9, 1), (3, 12), (12, 3), (6, 6), (16, 5), (5, 16)]
    for nrows, ncols in shapes:
        for cap in range(1, min(nrows, ncols) + 2):
            yield _random_rational_matrix(rng, nrows, ncols, cap), ncols
    for nrows, ncols in [(1, 1), (5, 7), (30, 30), (40, 12), (12, 40)]:
        yield _qq_monomial_rows(rng, nrows, ncols), ncols
        yield _mixed_rows(rng, nrows, ncols), ncols
    for nrows, ncols in [(12, 12), (40, 8), (8, 40)]:
        yield [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)]
               for _ in range(nrows)], ncols


_WORK_BUDGET = linalg._work_budget


def scale_work_budget(monkeypatch, scale):
    """Patch the F_p work budget to scale times its rule: 0 sends every
    nonzero matrix to the dense kernel, 10**12 keeps every one on the sparse
    kernel, 1 is the rule itself.  Repeated calls do not compound."""
    monkeypatch.setattr(linalg, "_work_budget",
                        lambda nrows, ncols: scale * _WORK_BUDGET(nrows, ncols))


def test_rational_rref_matches_fraction_gauss_jordan(monkeypatch):
    # the budget of the F_p kernels does not reach the rationals
    scale_work_budget(monkeypatch, 0)
    rng = random.Random(47)
    for rows, ncols in _rational_inputs(rng):
        m = sparse(rows)
        before = [dict(row) for row in m]
        types = [{j: type(x) for j, x in row.items()} for row in m]
        got, pivots = QQ.rref(m, ncols)
        want, want_pivots = _fraction_gauss_jordan(rows, ncols)
        assert (got, pivots) == (sparse(want), want_pivots)
        assert QQ.rref(m, ncols, reduced=False) == (None, pivots)
        _check_row_form(QQ, m, ncols, rng)
        assert m == before
        assert [{j: type(x) for j, x in row.items()} for row in m] == types
    assert QQ.rref([], 4) == ([], [])
    assert QQ.rref(sparse([[0, Fraction(0)]] * 3), 2) == ([], [])


def _check_row_form(field, rows, ncols, rng):
    """The row form of every answer on the dict rows of a matrix: RREF,
    kernel and Subspace rows hold nonzero field values at columns below
    ncols (canonical_qq over QQ, ints in [0, p) over F_p); reduce leaves the
    residual zero at every pivot, and coords_of rebuilds the members of the
    row space and returns None off it."""
    p = field.char
    rref, pivots = field.rref(rows, ncols)
    sub = Subspace.from_rows(field, rows, ncols)
    assert (sub.rows, sub.pivots) == (rref, pivots)
    ker = kernel(field, rows, ncols)
    for row in rref + sub.rows + ker.rows:
        assert all(type(j) is int and 0 <= j < ncols for j in row)
        if p:
            assert all(type(x) is int and 0 < x < p for x in row.values())
        else:
            assert all(canonical_qq(x) and x for x in row.values())

    def combine(pairs):
        """sum k * row over (field element k, dict row) pairs, as a dict row."""
        out = {}
        for k, row in pairs:
            for j, x in row.items():
                out[j] = field.add(out.get(j, field.zero), field.mul(k, x))
        return {j: x for j, x in out.items() if x}

    one = field.one
    free = [c for c in range(ncols) if c not in set(pivots)]
    for _ in range(3):
        member = combine((field.of(rng.randint(-3, 3)), row) for row in rows)
        coords = sub.coords_of(member)
        assert coords is not None and sub.contains(member)
        assert combine((c, sub.rows[k]) for k, c in coords.items()) == member
        assert list(coords) == sorted(coords) and all(coords.values())
        vec = {j: field.of(rng.randint(-3, 3)) for j in range(ncols) if rng.random() < 0.5}
        residual, coeffs = sub.reduce(vec)
        assert not set(residual) & set(pivots)
        assert all(residual.values()) and all(coeffs.values())
        assert combine([(one, residual), *((c, sub.rows[k]) for k, c in coeffs.items())]) == \
            combine([(one, vec)])
        if free:
            off = combine([(one, member), (one, {rng.choice(free): one})])
            assert sub.coords_of(off) is None and not sub.contains(off)


def _count_calls(monkeypatch, name):
    calls = []
    kernel = getattr(linalg, name)

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(linalg, name, counting)
    return calls


def _dense_reduce(sub, vec):
    """Reference QQ reduction: the full-width loop over every basis row."""
    v = list(vec)
    coeffs = []
    for row, c in zip(dense(sub.rows, sub.ambient), sub.pivots):
        f = v[c]
        coeffs.append(f)
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v, coeffs


def test_rational_reduce_matches_the_dense_loop():
    rng = random.Random(61)
    for _ in range(40):
        ambient = rng.randint(1, 12)
        gens = _random_rational_matrix(rng, rng.randint(1, 6), ambient, rng.randint(1, 4))
        sub = Subspace.from_rows(QQ, sparse(gens), ambient)
        ks = [rng.randint(-3, 3) for _ in gens]
        inside = [sum((Fraction(k) * g[j] for k, g in zip(ks, gens)), Fraction(0))
                  for j in range(ambient)]
        vecs = [inside, [rng.randint(-3, 3) for _ in range(ambient)],
                [int(x) if x.denominator == 1 else x for x in map(Fraction, inside)],
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ambient)]]
        for vec in sparse(vecs):
            before = dict(vec)
            residual, coeffs = sub.reduce(vec)
            want_residual, want_coeffs = _dense_reduce(sub, dense([vec], ambient)[0])
            assert dense([residual], ambient)[0] == want_residual
            assert dense([coeffs], sub.dim)[0] == want_coeffs
            assert all(canonical_qq(x) and x for x in [*residual.values(), *coeffs.values()])
            assert vec == before
        assert sub.contains(sparse([inside])[0]) and sub.contains(sparse(vecs[2:3])[0])


KERNEL_PRIMES = [2, 3, 101, 1048573]


def _entry(rng, p):
    """A nonzero-or-not representative from [-2p, 2p): negatives, multiples of
    p and values >= p all occur."""
    return rng.randrange(-2 * p, 2 * p)


def _monomial_rows(rng, p, nrows, ncols):
    """One or two nonzeros per row, in shuffled rows and columns."""
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for c in rng.sample(range(ncols), min(ncols, rng.randint(1, 2))):
            row[c] = rng.randrange(1, p) * rng.choice((1, -1))
        rows.append(row)
    perm = list(range(ncols))
    rng.shuffle(perm)
    rng.shuffle(rows)
    return [[row[c] for c in perm] for row in rows]


def _kernel_inputs(rng, p):
    """(label, rows, ncols): monomial-like, 1-5% and 10-30% dense, fully
    dense, edge cases."""
    for nrows, ncols in [(1, 1), (5, 7), (30, 30), (120, 90), (40, 160), (160, 40)]:
        yield "monomial", _monomial_rows(rng, p, nrows, ncols), ncols
    for nrows, ncols, lo, hi in [(60, 60, 0.01, 0.05), (100, 120, 0.01, 0.05),
                                 (150, 100, 0.01, 0.05), (8, 12, 0.1, 0.3),
                                 (25, 40, 0.1, 0.3), (40, 25, 0.1, 0.3)]:
        density = rng.uniform(lo, hi)
        rows = [[_entry(rng, p) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        yield "sparse", rows, ncols
    for nrows, ncols in [(3, 3), (20, 8), (8, 20), (60, 60)]:
        yield "dense", [[_entry(rng, p) for _ in range(ncols)] for _ in range(nrows)], ncols
    base = _monomial_rows(rng, p, 12, 10) + [[_entry(rng, p) for _ in range(10)]]
    repeated = base + [[0] * 10] * 3 + [list(row) for row in base[::2]]
    rng.shuffle(repeated)
    yield "repeated", repeated, 10
    yield "multiples of p", [[p, -p, 0, 2 * p], [0, 0, 3 * p, 0]], 4
    yield "zero", [[0] * 6 for _ in range(4)], 6
    yield "no columns", [[] for _ in range(3)], 0
    yield "tall", [[_entry(rng, p) for _ in range(3)] for _ in range(70)], 3
    yield "wide", [[_entry(rng, p) for _ in range(90)] for _ in range(2)], 90


@pytest.mark.parametrize("scale", [0, 1, 10 ** 12])
@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_sparse_kernel_matches_dense_kernel(p, scale, monkeypatch):
    # scale 0 sends every nonzero matrix to the dense kernel, 10**12 keeps
    # every one on the sparse kernel, 1 is the budget rule itself
    scale_work_budget(monkeypatch, scale)
    F = GF(p)
    rng = random.Random(1000 + p)
    for label, rows, ncols in _kernel_inputs(rng, p):
        m = sparse(rows)
        before = [dict(row) for row in m]
        for reduced in (True, False):
            want = linalg._dense_rref(m, ncols, p, reduced)
            got = F.rref(m, ncols, reduced=reduced)
            assert got == want, (label, reduced)
            assert m == before, label
        got_rows, pivots = F.rref(m, ncols)
        assert all(type(c) is int for c in pivots), label
        assert got_rows == sparse(_textbook_rref_mod_p(rows, ncols, p)), label
        _check_row_form(F, m, ncols, rng)


def _textbook_rref_mod_p(rows, ncols, p):
    """Reference RREF over F_p: textbook Gauss-Jordan on reduced ints."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return m[:r]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_choice_follows_the_work_budget(p, monkeypatch):
    calls = _count_calls(monkeypatch, "_dense_rref")
    F = GF(p)
    rng = random.Random(2000 + p)
    for nrows, ncols in [(1, 1), (30, 30), (200, 200), (300, 80), (80, 300)]:
        for reduced in (True, False):
            F.rref(sparse(_monomial_rows(rng, p, nrows, ncols)), ncols, reduced=reduced)
    assert calls == []
    full = sparse([[rng.randrange(1, p) for _ in range(60)] for _ in range(60)])
    F.rref(full, 60)
    assert len(calls) == 1
    # under budget by its nonzero count, over it by the fill-in of the
    # forward pass: the elimination starts sparse and restarts dense
    thin = sparse([[rng.randrange(1, p) if rng.random() < 0.03 else 0 for _ in range(200)]
                   for _ in range(200)])
    nnz = sum(map(len, thin))
    assert nnz <= 4 * 400 + 200 * 200 // 16
    assert linalg._forward(linalg._entries(thin, p), {}, [], 200, p, nnz,
                           4 * 400 + 200 * 200 // 16) is None
    assert F.rref(thin, 200) == linalg._dense_rref(thin, 200, p, True)
    assert len(calls) == 3


@pytest.mark.parametrize("p", [2, 101, 32749])
def test_matrix_over_the_budget_takes_the_numpy_kernel(p, monkeypatch):
    # numpy is imported inside the kernel, not with linalg: a dense matrix
    # over the work budget still goes through it, once per rref, and gets
    # the RREF and pivots of the sparse kernel run without a budget
    rng = random.Random(2200 + p)
    F = GF(p)
    for nrows, ncols in [(40, 40), (25, 60), (60, 25)]:
        rows = sparse([[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])
        assert sum(map(len, rows)) > linalg._work_budget(nrows, ncols)
        for reduced in (True, False):
            calls = _count_calls(monkeypatch, "_dense_rref")
            got = F.rref([dict(row) for row in rows], ncols, reduced=reduced)
            assert len(calls) == 1
            assert got == linalg._rref(rows, ncols, p, math.inf, reduced)
            monkeypatch.undo()


def test_back_substitution_over_budget_restarts_dense(monkeypatch):
    # every row's lead column is new, so the forward pass does no update and
    # its work is the nonzero count; back-substitution fills each tail with
    # the tails of the rows below it, and that goes over budget
    rows = [{i: 1, i + 1: 1, 200 + i % 50: 1} for i in range(199)] + [{199: 1, 200: 1}]
    before = [dict(row) for row in rows]
    budget = linalg._work_budget(200, 250)
    kept = []
    work = linalg._forward(linalg._entries(rows, 101), {}, kept, 250, 101,
                           sum(map(len, rows)), budget)
    assert [c for c, _ in kept] == list(range(200)) and work == 599 < budget == 4925
    assert linalg._back_substitute(kept, work, 101, budget) is None
    want = linalg._dense_rref(rows, 250, 101, True)
    assert want == linalg._rref(rows, 250, 101, math.inf, True)
    calls = _count_calls(monkeypatch, "_dense_rref")
    assert F101.rref(rows, 250) == want
    assert len(calls) == 1
    assert rows == before


def _check_dict_rows_give_the_dense_answers(field, rows, ncols, rng):
    """rref, rank, kernel and solve_columns on the dict rows of a dense
    matrix give the answers of textbook elimination on the dense matrix, and
    leave the dict rows as they were: cached product columns are passed in
    as rows."""
    p = field.char
    m = sparse(rows)
    before = [dict(row) for row in m]
    types = [{j: type(x) for j, x in row.items()} for row in m]

    def textbook(rows, ncols):
        if not p:
            return _fraction_gauss_jordan(rows, ncols)
        reduced = _textbook_rref_mod_p(rows, ncols, p)
        return reduced, [next(j for j, x in enumerate(row) if x) for row in reduced]

    want, pivots = textbook(rows, ncols)
    assert field.rref(m, ncols) == (sparse(want), pivots)
    assert field.rref(m, ncols, reduced=False) == (None, pivots)
    assert rank(field, m, ncols) == len(pivots)
    ker = dense(kernel(field, m, ncols).rows, ncols)
    assert len(ker) == ncols - len(pivots)
    assert all(not field.of(sum(a * b for a, b in zip(row, v))) for row in rows for v in ker)
    entry_ok = (lambda x: type(x) is int) if p else canonical_qq
    targets = [[field.of(rng.randint(-3, 3)) for _ in rows] for _ in range(3)]
    sols, bad = solve_columns(field, m, ncols, sparse(targets))
    solvable = [len(textbook([row + [t[r]] for r, row in enumerate(rows)], ncols + 1)[1]) ==
                len(pivots) for t in targets]
    if bad is None:
        assert all(solvable)
        for w, t in zip(dense(sols, ncols, field.zero), targets):
            assert all(entry_ok(x) for x in w)
            assert all(not w[c] for c in range(ncols) if c not in pivots)
            assert [field.of(sum(a * x for a, x in zip(row, w))) for row in rows] == t
    else:
        assert solvable.index(False) == bad
    zero = [field.zero] * ncols
    assert solve_columns(field, m, ncols, sparse([[field.zero] * len(rows)])) == \
        (sparse([zero]), None)
    assert m == before
    assert [{j: type(x) for j, x in row.items()} for row in m] == types


@pytest.mark.parametrize("scale", [0, 1, 10 ** 12])
def test_dict_rows_give_the_dense_answers_over_a_prime_field(scale, monkeypatch):
    # scale 0 sends every nonzero matrix to the dense kernel, which builds its
    # array from the dict rows
    scale_work_budget(monkeypatch, scale)
    calls = _count_calls(monkeypatch, "_dense_rref")
    rng = random.Random(3000)
    for _, rows, ncols in _kernel_inputs(rng, 101):
        _check_dict_rows_give_the_dense_answers(F101, rows, ncols, rng)
    assert (len(calls) > 0) == (scale != 10 ** 12)


def test_dict_rows_give_the_dense_answers_over_the_rationals():
    rng = random.Random(3001)
    for rows, ncols in _rational_inputs(rng):
        _check_dict_rows_give_the_dense_answers(QQ, rows, ncols, rng)


# -- rank without back-substitution ----------------------------------------------

def _rank_matrices(rng, entry, p):
    """Dense-list matrices for rank: low-rank products of entry() draws (left
    unreduced, so negatives, values >= p and multiples of p occur over F_p),
    each with an empty row and a duplicate row added, a row of multiples of
    p, and dense matrices, past the work budget over F_p."""
    for nrows, ncols in [(1, 1), (4, 9), (9, 4), (12, 12), (30, 8), (8, 30)]:
        cap = rng.randint(1, min(nrows, ncols))
        left = [[entry() for _ in range(cap)] for _ in range(nrows)]
        right = [[entry() if rng.random() < 0.5 else 0 for _ in range(ncols)]
                 for _ in range(cap)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        m += [[0] * ncols, list(m[rng.randrange(nrows)])]
        rng.shuffle(m)
        yield m, ncols
    if p:
        yield [[p * rng.randint(-3, 3) for _ in range(6)], [rng.randrange(-2 * p, 2 * p)
                                                           for _ in range(6)]], 6
    # the rationals have no budget, and their entries grow: keep them small
    for nrows, ncols in [(40, 40), (50, 20), (20, 50)] if p else [(10, 10), (12, 5)]:
        m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        m.append(list(m[0]))
        yield m, ncols


@pytest.mark.parametrize("p", [2, 101, 0])
def test_rank_is_the_pivot_count_and_the_dense_rank(p):
    field = GF(p) if p else QQ
    rng = random.Random(4000 + p)
    entry = (lambda: rng.randrange(-2 * p, 2 * p)) if p else (
        lambda: _random_rational_entry(rng))
    over_budget = 0
    for rows, ncols in _rank_matrices(rng, entry, p):
        m = sparse(rows)
        before = [dict(row) for row in m]
        if p:
            want = len(_textbook_rref_mod_p(rows, ncols, p))
            over_budget += sum(map(len, m)) > linalg._work_budget(len(m), ncols)
        else:
            want = len(_fraction_gauss_jordan(rows, ncols)[1])
        assert rank(field, m, ncols) == len(field.rref(m, ncols)[1]) == want
        assert m == before
    assert over_budget >= (2 if p else 0)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_rank_mod_p_is_at_most_the_rational_rank(p):
    # clear denominators: a minor that vanishes over QQ vanishes mod p
    rng = random.Random(4100 + p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = sparse([[rng.randint(-2 * p, 2 * p) for _ in range(ncols)]
                       for _ in range(nrows)])
        over_q, over_p = rank(QQ, rows, ncols), rank(GF(p), rows, ncols)
        assert over_p <= over_q
    scaled = sparse([[p * (i == j) for j in range(4)] for i in range(4)])
    assert (rank(GF(p), scaled, 4), rank(QQ, scaled, 4)) == (0, 4)


def _solver_vectors(rng, field, n, count):
    """count dense vectors of length n: random ones, and among them zero
    vectors, duplicates and combinations of the vectors before them."""
    vecs = []
    for _ in range(count):
        kind = rng.randrange(5) if vecs else 0
        if kind == 1:
            v = [field.zero] * n
        elif kind == 2:
            v = list(rng.choice(vecs))
        elif kind == 3:
            a, b = rng.choice(vecs), rng.choice(vecs)
            f, g = field.of(rng.randint(-3, 3)), field.of(rng.randint(-3, 3))
            v = [field.add(field.mul(f, x), field.mul(g, y)) for x, y in zip(a, b)]
        else:
            v = [field.of(rng.randint(-3, 3)) if rng.random() < 0.5 else field.zero
                 for _ in range(n)]
        vecs.append(v)
    return vecs


@pytest.mark.parametrize("p", [2, 101, 0])
def test_solver_matches_solve_columns_on_every_prefix(p):
    # Solver: one echelon with provenance, fed in random blocks, against one
    # solve_columns elimination per target over the vectors fed so far
    field = GF(p) if p else QQ
    rng = random.Random(5300 + p)
    solved = unsolvable = 0
    for _ in range(60):
        n, count = rng.randint(1, 7), rng.randint(1, 10)
        vecs = _solver_vectors(rng, field, n, count)
        rows = sparse(vecs)
        before = [dict(row) for row in rows]
        solver, fed = Solver(field, n), 0
        while fed < count:
            step = rng.randint(1, count - fed)
            solver.extend(rows[fed:fed + step])
            fed += step
            assert solver.fed == fed
            eqs = transpose(rows[:fed], n)
            for _ in range(4):
                w = [field.of(rng.randint(-2, 2)) for _ in range(fed)]
                t = [field.zero] * n
                for c, v in zip(w, vecs):
                    t = [field.add(x, field.mul(c, y)) for x, y in zip(t, v)]
                if rng.random() < 0.3:
                    i = rng.randrange(n)
                    t[i] = field.add(t[i], field.one)
                want, _ = solve_columns(field, eqs, fed, sparse([t]))
                got = solver.solve(sparse([t])[0])
                assert got == (None if want is None else want[0])
                if got is None:
                    unsolvable += 1
                    continue
                solved += 1
                # field values of the same type as solve_columns gives
                assert all(type(x) is int if p else canonical_qq(x) for x in got.values())
                if p:
                    assert all(0 < x < p for x in got.values())
        assert rows == before
    assert solved > 100 and unsolvable > 20
    # (column, value) pairs are targets too, and the zero target has the zero solution
    solver = Solver(field, 2)
    solver.extend(sparse([[1, 0], [2, 0]]))
    assert solver.solve(((0, field.of(3)),)) == {0: field.of(3)}
    assert solver.solve({}) == {}
    assert solver.solve({1: field.one}) is None


def test_forward_loop_stops_once_every_column_is_a_lead(monkeypatch):
    # rows fed to a full echelon lie in its span: the shared loop reduces
    # none of them, a Solver still counts them as fed and solves over them,
    # and a widened Solver takes rows again
    calls = _count_calls(monkeypatch, "_head_reduce")
    ech = Echelon(F101, 2)
    ech.extend([{0: 1}, {1: 3}, {0: 2, 1: 5}])
    ech.extend([{1: 7}])
    assert (ech.counts, calls) == ([0, 2, 2], [])
    solver = Solver(F101, 2)
    solver.extend([{0: 1, 1: 1}, {1: 1}, {0: 4}])
    assert (solver.fed, calls) == (3, [])
    assert solver.solve({0: 1}) == {0: 1, 1: 100}
    solver.widen(3)
    solver.extend([{0: 1}, {2: 2}])
    assert solver.fed == 5 and len(solver._rows) == 3
    assert solver.solve({0: 1, 2: 1}) == {0: 1, 1: 100, 4: 51}


@pytest.mark.parametrize("p", [2, 101, 0])
def test_widened_solver_matches_solve_columns(p):
    # the cone's Solver: each block of vectors is fed after widening to the
    # coordinates it uses, on which the vectors before it are zero, so the
    # system grows by columns and by zero rows under the old columns
    field = GF(p) if p else QQ
    rng = random.Random(5350 + p)
    solved = unsolvable = widened = 0
    for _ in range(60):
        solver, rows, n = Solver(field, 0), [], 0
        for _ in range(rng.randint(1, 4)):
            grow = rng.randint(0, 4)
            widened += grow > 0
            n += grow
            solver.widen(n)
            block = sparse(_solver_vectors(rng, field, n, rng.randint(0, 4)))
            solver.extend(block)
            rows += block
            assert (solver.ambient, solver.fed) == (n, len(rows))
            eqs = transpose(rows, n)
            for _ in range(3):
                t = {i: x for i in range(n) if (x := field.of(rng.randint(-2, 2)))}
                if rng.random() < 0.7:
                    t = {}
                    for row in rows:
                        c = field.of(rng.randint(-2, 2))
                        for i, x in row.items():
                            t[i] = field.add(t.get(i, field.zero), field.mul(c, x))
                    t = {i: x for i, x in t.items() if x}
                want, _ = solve_columns(field, eqs, len(rows), [t])
                got = solver.solve(t)
                assert got == (None if want is None else want[0])
                solved += got is not None
                unsolvable += got is None
    assert solved > 100 and unsolvable > 20 and widened > 60


@pytest.mark.parametrize("p", [2, 101, 0])
def test_echelon_span_is_the_canonical_subspace_of_the_rows_fed(p):
    # span(count) back-substitutes copies of the echelon rows: it must give
    # Subspace.from_rows of what was fed, and leave the rows as they were,
    # which locate reads (a fed vector still needs no row fed after it)
    field = GF(p) if p else QQ
    entry_ok = (lambda x: type(x) is int) if p else canonical_qq
    rng = random.Random(5400 + p)
    spans = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        ech, blocks = Echelon(field, n), []
        for _ in range(rng.randint(1, 6)):
            if len(blocks) > 1 and rng.random() < 0.3:
                level = rng.randrange(len(blocks))
                ech.truncate(level)
                del blocks[level:]
            block = sparse(_solver_vectors(rng, field, n, rng.randint(0, 4)))
            ech.extend(block)
            blocks.append(block)
            for level, count in enumerate(ech.counts):
                fed = [row for block in blocks[:level] for row in block]
                got = ech.span(count)
                assert got == Subspace.from_rows(field, fed, n)
                assert all(entry_ok(x) for row in got.rows for x in row.values())
                spans += 1
            for level, block in enumerate(blocks, 1):
                for row in block:
                    assert ech.locate(row, ech.counts[-1]) <= ech.counts[level]
    assert spans > 300
