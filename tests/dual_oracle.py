"""Independent cross-checks of the quadratic dual components.

The degree-l dual component is the intersection of the embeddings
V^(x j) (x) R (x) V^(x l-2-j) of the tensor relation space R.  A vector lies in
one embedding iff it pairs to zero with V*^(x j) (x) R^perp (x) V*^(x l-2-j),
so the intersection is the kernel of all those annihilator rows at once:
annihilator_component() builds them and takes one kernel per degree.  It
shares no code with the block-by-block recursion of QuadraticDual.component
(no comp(l-1), no normal-form constraints on the leading pair).
annihilated_component() does the same for quotient duals: it imposes the
last-slot annihilation at every position, where QuotientDual.component reads
the pivot columns of comp(l-1) only.

The package acts by the first-slot contraction only.  last_slot_contraction
and last_slot_act_matrix are the other convention, kept here to show why:
the last-slot action closes on the full dual components but not on quotient
duals, which last-slot annihilation cuts out.

The degree-2 helpers check component(2) against the presentation of the dual
algebra by excluded-pair words: the rewriting rules of the basis-pair words,
and the basis of component(2) dual to the excluded-pair word classes.
"""

from koszulcone.errors import ClosureFailure
from koszulcone.linalg import Subspace, kernel

from rowform import dense, sparse


def annihilator_component(D, l):
    """comp(l) of the QuadraticDual D as the kernel of the stacked annihilators.

    R^perp is the kernel of the relation space rows in V (x) V.  For every
    slot pair (j, j+1), prefix index and suffix index, each w in R^perp gives
    the row pairing w with a tensor at those two slots.
    """
    fld, n = D.field, D.n
    perp = dense(kernel(fld, D.relation_space.rows, n * n).rows, n * n)
    rows = []
    for j in range(l - 1):
        right = n ** (l - 2 - j)
        for w in perp:
            entries = [(a * n + b, x) for a in range(n) for b in range(n)
                       if (x := w[a * n + b])]
            for a_pre in range(n ** j):
                for b_post in range(right):
                    # int zeros: both fields eliminate ints, and over QQ
                    # they are cheaper to read than Fraction(0)
                    row = [0] * (n ** l)
                    for ab, x in entries:
                        row[(a_pre * n * n + ab) * right + b_post] = x
                    rows.append(row)
    return kernel(fld, sparse(rows), n ** l)


def annihilated_component(D, allowed, l):
    """comp(l) of the quotient dual D.quotient(allowed), taken densely.

    The elements of comp(l) whose last-slot contraction by every excluded
    variable vanishes at every position of V^(x l-1): one kernel over the
    basis of comp(l), with no pivot columns of comp(l-1) consulted.
    """
    fld, n = D.field, D.n
    full = dense(D.component(l).rows, n ** l, fld.zero)
    excluded = [j for j in range(n) if j not in allowed]
    rows = [[b[r * n + j] for b in full] for j in excluded for r in range(n ** (l - 1))]
    coeffs = dense(kernel(fld, sparse(rows), len(full)).rows, len(full), fld.zero)
    span = []
    for cs in coeffs:
        v = [fld.zero] * (n ** l)
        for x, b in zip(cs, full):
            if x:
                v = [fld.add(acc, fld.mul(x, y)) for acc, y in zip(v, b)]
        span.append(v)
    return Subspace.from_rows(fld, sparse(span), n ** l)


def last_slot_contraction(D, vec, j):
    """f |-> f(w x_j^*) on a dict tensor of the dual D: the trailing slot at
    index j dropped."""
    n = D.n
    return {pos // n: x for pos, x in vec.items() if pos % n == j}


def last_slot_act_matrix(D, l, j, allowed=None):
    """D.act_matrix(l, j), or that of D.quotient(allowed), with the
    last-slot contraction; ClosureFailure when a contraction leaves
    component(l-1)."""
    space = D if allowed is None else D.quotient(allowed)
    dst = space.component(l - 1)
    mat = [{} for _ in range(dst.dim)]
    for i, b in enumerate(space.component(l).rows):
        coords = dst.coords_of(last_slot_contraction(D, b, j))
        if coords is None:
            raise ClosureFailure(f"last-slot action x_{j} left degree {l}", witness=(l, j, i))
        for r, x in coords.items():
            mat[r][i] = x
    return mat


def pair_expansion(A, a, b):
    """Normal-form coordinates of x_a x_b indexed by chosen pairs (any order)."""
    spairs = A.basis_pairs()
    nf = A.monomial_element(A.pair_monomial(a, b)).terms
    return {spairs[k]: c for k, c in nf}


def deg2_relations(D):
    """Rewriting of each basis-pair word over the excluded-pair dual basis.

    For a chosen pair (s,t) the degree-2 dual algebra satisfies
    x_s^* x_t^* = sum over excluded ordered (u,v) of -(expansion of x_u x_v
    at x_s x_t) x_u^* x_v^*.  Zero coefficients are omitted.
    """
    A = D.algebra
    out = {}
    for (s, t) in A.basis_pairs():
        rewr = {}
        for (u, v) in D.ordered_excluded_pairs():
            f = pair_expansion(A, u, v).get((s, t))
            if f:
                rewr[(u, v)] = D.field.neg(f)
        out[(s, t)] = rewr
    return out


def deg2_labeled_duals(D):
    """Basis of component(2) dual to the excluded-pair word classes.

    Returns (labels, rows): labels[i] is the ordered pair (u, v) and
    rows[i] the unique tensor in the relation space pairing to the
    indicator of that pair on excluded-pair coordinates.
    """
    fld, n = D.field, D.n
    comp = D.component(2)
    labels = D.ordered_excluded_pairs()
    positions = [u * n + v for (u, v) in labels]
    basis = dense(comp.rows, n * n, fld.zero)
    restricted = [[row[p] for p in positions] for row in basis]
    inv = _invert(fld, restricted)
    rows = []
    for coeffs in inv:
        row = [fld.zero] * (n * n)
        for x, b in zip(coeffs, basis):
            row = [fld.add(acc, fld.mul(x, y)) for acc, y in zip(row, b)]
        rows.append(row)
    return labels, rows


def deg2_consistency(D):
    """Check the degree-2 presentation against the subspace realization."""
    n, fld = D.n, D.field
    comp = D.component(2)
    if comp.dim != len(D.ordered_excluded_pairs()):
        return False
    rels = deg2_relations(D)
    for q in dense(comp.rows, n * n, fld.zero):
        for (s, t), rewr in rels.items():
            acc = q[s * n + t]
            for (u, v), c in rewr.items():
                acc = fld.sub(acc, fld.mul(c, q[u * n + v]))
            if acc != fld.zero:
                return False
    return True


def _invert(fld, rows):
    m = len(rows)
    aug = [list(r) + [fld.one if j == i else fld.zero for j in range(m)]
           for i, r in enumerate(rows)]
    rref, pivots = fld.rref(sparse(aug), 2 * m)
    if pivots[:m] != list(range(m)):
        rk = sum(1 for c in pivots if c < m)
        raise ValueError(f"{m} x {m} matrix to invert has rank {rk}")
    return [row[m:] for row in dense(rref, 2 * m, fld.zero)]
