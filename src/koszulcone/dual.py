"""Quadratic dual components realized inside tensor powers of the degree-one part.

The graded dual of the quadratic dual algebra lives in V^(tensor l): degree l
is the intersection of all embeddings V^j (x) R (x) V^(l-2-j) of the tensor
relation space R (commutators plus asymmetric lifts of the defining quadrics).
Components are computed by the equivalent recursion

    comp(l) = (V (x) comp(l-1))  intersect  (R (x) V^(l-2)),

built block by block: the candidate e_i (x) b, for b in comp(l-1), is b in
column block i of V^(x l) and zero elsewhere.  So the constraints from the
degree-2 normal form on the two leading slots (read at the pivot columns of
comp(l-2)) and their kernel are n * dim comp(l-1) columns wide, and the rows
of comp(l) are blockwise products with comp(l-1); no n^l wide candidate row
is written out.  Quotient duals cut comp(l) down by annihilation conditions
coming from left ideals generated by excluded dual variables.  _assemble
writes out both kinds of component, and no elimination runs on rows of
V^(x l): its rows are RREF.

Components exist only as dict rows {position in V^(x l): value}, over every
field; each emitted entry is reduced mod p once over F_p, and put in the one
value form once over QQ (linalg._nonzeros).  The bound is on
what a step stores, not on n^l: its n * (sum of the row lengths of
comp(l-1)) candidate entries, at most CANDIDATE_ENTRY_LIMIT.

Slot conventions (fixed by the d.d = 0 calibration on polynomial rings and
documented in the README): the module action f |-> f.x_j^* used by all
differentials is the FIRST-slot contraction (pairing against words with x_j^*
prepended); membership in a quotient dual is LAST-slot annihilation (the left
ideal is spanned by words with an excluded variable in the final slot).
Closure of every quotient-dual action is checked.
"""

from __future__ import annotations

from .errors import AmbientTooLarge, ClosureFailure, DimensionMismatch
from .linalg import Subspace, _nonzeros, kernel

# bound on the candidate entries of one component step: degree l builds on
# n * (sum of the row lengths of comp(l-1)) of them
CANDIDATE_ENTRY_LIMIT = 10 ** 6


class QuadraticDual:
    """Graded dual components of the quadratic dual of a commutative quadratic algebra."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.field = algebra.field
        self.n = algebra.n
        self._components = {}
        self._trace = {}  # hmax -> certified trace differential (complexes)
        self._quotients = {}
        self._relation_space = None
        self._nf2 = None

    # -- tensor relation space ---------------------------------------------

    @property
    def relation_space(self):
        """Kernel of V (x) V -> A_2: commutators plus lifted quadrics."""
        if self._relation_space is None:
            fld, n = self.field, self.n
            rows = [{u * n + v: fld.one, v * n + u: fld.neg(fld.one)}
                    for u in range(n) for v in range(u + 1, n)]
            for rel in self.algebra.presentation.relations:
                row = {}
                for coeff, (i, j) in rel:
                    row[i * n + j] = fld.add(row.get(i * n + j, fld.zero), fld.of(coeff))
                rows.append(row)
            space = Subspace.from_rows(fld, rows, n * n)
            expected = n * n - self.algebra.dim(2)
            if space.dim != expected:
                raise DimensionMismatch(
                    f"relation space of V (x) V has dimension {space.dim}, "
                    f"expected n^2 - dim A_2 = {expected}", witness=(space.dim, expected))
            self._relation_space = space
        return self._relation_space

    # -- components ----------------------------------------------------------

    def component(self, l):
        """Canonical echelon basis of the degree-l dual component in V^(x l)."""
        got = self._components.get(l)
        if got is not None:
            return got
        n = self.n
        if l == 0:
            comp = Subspace.full(self.field, 1)
        else:
            prev = self.component(l - 1)
            entries = n * sum(map(len, prev.rows))
            if entries > CANDIDATE_ENTRY_LIMIT:
                raise AmbientTooLarge(
                    f"degree {l} dual component: {entries} candidate entries exceed "
                    f"the limit {CANDIDATE_ENTRY_LIMIT}")
            if l == 1:
                comp = Subspace.full(self.field, n)
            elif l == 2:
                comp = self.relation_space
            else:
                comp = self._component_step(l, prev)
        self._components[l] = comp
        return comp

    def _nf2_columns(self):
        # the degree-2 normal form of each ordered pair (a, b), at a * n + b,
        # as a dict {degree-2 basis position: value}
        if self._nf2 is None:
            n, A = self.n, self.algebra
            self._nf2 = [dict(A.monomial_element(A.pair_monomial(a, b)).terms)
                         for a in range(n) for b in range(n)]
        return self._nf2

    def _component_step(self, l, prev):
        """comp(l) = (V (x) comp(l-1)) intersect (R (x) V^(l-2)), block by block.

        Candidate (i, kk) is e_i (x) prev[kk]: it is zero outside column
        block i of V^(x l), where it equals prev[kk].  Its image under the
        degree-2 normal form on the two leading slots is therefore, at key
        (t, r), sum_a nf2[i*n+a][t] * prev[kk][a*rest+r], with rest =
        n^(l-2).  The kernel C of these constraints (rows in ascending
        (t, r), all-zero rows dropped) spans comp(l), and block i of its row
        d is sum_kk C[d][i*k+kk] * prev[kk], with k = dim comp(l-1) (_assemble).
        Only keys with r a pivot column of comp(l-2) are needed: comp(l-1)
        lies in V (x) comp(l-2), so the image at each t lies in comp(l-2),
        where a vector that is zero at the pivot columns is zero.
        """
        fld, n = self.field, self.n
        if prev.dim == 0:
            return Subspace.zero(fld, n ** l)
        rows = _leading_pair_constraints(fld, self._nf2_columns(), prev, n,
                                         set(self.component(l - 2).pivots))
        return _assemble(fld, kernel(fld, rows, n * prev.dim), prev, n ** l)

    # -- contractions and actions ---------------------------------------------

    def contract(self, vec, l, j):
        """f |-> f.x_j^* on a degree-l dict tensor: the pairing f(x_j^* w),
        i.e. the leading slot at index j dropped (first-slot contraction)."""
        tail = self.n ** (l - 1)
        lo = j * tail
        return {pos - lo: x for pos, x in vec.items() if lo <= pos < lo + tail}

    def act_matrix(self, l, j):
        """Matrix of f -> f.x_j^* from component(l) coords to component(l-1) coords."""
        return _act_matrix(self, self, l, j)

    # -- quotient duals ---------------------------------------------------------

    def quotient(self, allowed):
        allowed = frozenset(allowed)
        got = self._quotients.get(allowed)
        if got is None:
            got = QuotientDual(self, allowed)
            self._quotients[allowed] = got
        return got

    # -- degree-2 presentation ---------------------------------------------------

    def ordered_excluded_pairs(self):
        """Ordered pairs (a, b) whose word class spans the degree-2 dual basis."""
        chosen = set(self.algebra.basis_pairs())
        return [(a, b) for a in range(self.n) for b in range(self.n)
                if not (a <= b and (a, b) in chosen)]

    def pair_word_is_zero(self, a, b):
        """Whether the length-2 dual word x_a^* x_b^* vanishes in the dual algebra.

        True iff every degree-2 dual-component tensor pairs to zero against
        the word, i.e. the (a,b) coordinate of the component is identically 0.
        """
        pos = a * self.n + b
        return all(pos not in row for row in self.component(2).rows)


def _leading_pair_constraints(fld, nf2, prev, n, keep):
    """Dict rows keyed by ascending (t, r) with r in keep, columns by
    candidate (i, kk); zero rows dropped.  nf2 holds the dict normal form of
    each pair a * n + b over the basis monomials of degree 2."""
    p = fld.char
    k = prev.dim
    rest = prev.ambient // n
    constraints = {}
    for kk, b in enumerate(prev.rows):
        slices = {}  # a -> [(r, x)] with r in keep
        for pos, x in b.items():
            a, r = divmod(pos, rest)
            if r in keep:
                slices.setdefault(a, []).append((r, x))
        for i in range(n):
            img = {}  # key t * rest + r orders the constraints as (t, r) does
            for a, pairs in slices.items():
                for t, f in nf2[i * n + a].items():
                    for r, x in pairs:
                        img[t * rest + r] = img.get(t * rest + r, 0) + f * x
            c = i * k + kk
            for key, val in img.items():
                constraints.setdefault(key, {})[c] = val
    return [row for key in sorted(constraints) if (row := _nonzeros(constraints[key], p))]


def _assemble(fld, coeffs, basis, ambient):
    """The span of coeffs over the block candidates of basis, as a Subspace.

    Candidate c = i * basis.dim + kk is basis row kk placed in column block
    i, each block basis.ambient wide (ambient // basis.ambient blocks); row d
    of the result is sum_c coeffs[d][c] * candidate c.  No elimination runs:
    basis is RREF, so candidate c is 1 at column P(c) = i * basis.ambient +
    basis.pivots[kk], zero left of it and zero at every other candidate's
    P, and P increases with c.  coeffs is RREF too, so row d is 1 at P of
    its pivot, zero at P of every other coeffs pivot, and zero left of its
    own P: the rows are the canonical RREF, with those pivots.
    """
    p = fld.char
    k, width = basis.dim, basis.ambient
    pivots = [i * width + basis.pivots[kk] for i, kk in (divmod(c, k) for c in coeffs.pivots)]
    rows = []
    for crow in coeffs.rows:
        row = {}
        get = row.get
        for c, y in crow.items():
            i, kk = divmod(c, k)
            off = i * width
            for pos, x in basis.rows[kk].items():
                key = off + pos
                row[key] = get(key, 0) + y * x
        rows.append(_nonzeros(row, p))
    return Subspace(fld, ambient, rows, pivots)


class QuotientDual:
    """Graded dual of the quotient of the dual algebra by excluded variables.

    allowed is the set of retained variable indices; the quotient kills the
    left ideal L spanned by words ending in an excluded dual variable.  Its
    graded dual is the annihilator of L (Polishchuk-Positselski, Quadratic
    Algebras, ch. 1): component(l) is the part of comp(l) with no support on
    a word of V^(x l) whose last letter is excluded.
    """

    def __init__(self, parent, allowed):
        self.parent = parent
        self.allowed = frozenset(allowed)
        self.field = parent.field
        self._components = {}
        self._trace = {}

    def component(self, l):
        got = self._components.get(l)
        if got is not None:
            return got
        parent = self.parent
        fld, n = self.field, parent.n
        full = parent.component(l)
        excluded = set(range(n)) - self.allowed
        if l == 0 or not excluded or full.dim == 0:
            comp = full
        else:
            # a last-slot contraction of comp(l) lies in comp(l-1): read it at its pivots
            keep = set(parent.component(l - 1).pivots)
            constraints = {}
            for c, b in enumerate(full.rows):
                for pos, x in b.items():
                    r, j = divmod(pos, n)
                    if j in excluded and r in keep:
                        constraints.setdefault((j, r), {})[c] = x
            rows = [constraints[k] for k in sorted(constraints)]
            comp = _assemble(fld, kernel(fld, rows, full.dim), full, n ** l)
        self._components[l] = comp
        return comp

    def rank(self, l):
        return self.component(l).dim

    def act_matrix(self, l, j):
        """Action f -> f.x_j^* in quotient coordinates; closure is checked."""
        return _act_matrix(self, self.parent, l, j, self.allowed)


def _act_matrix(space, dual, l, j, allowed=None):
    """The matrix of f -> f.x_j^* on the components of space, as dict rows.

    Row r is {c: coefficient of basis vector r of component(l-1) in the
    image of basis vector c of component(l)}, with c ascending.  space is
    dual itself or a quotient of it (allowed its retained variables), and
    dual contracts the tensors.  A contraction outside component(l-1) of
    space raises ClosureFailure.  Nothing is cached: the trace differential
    built from these matrices is kept instead (complexes._trace_complex).
    """
    src = space.component(l)
    dst = space.component(l - 1)
    mat = [{} for _ in range(dst.dim)]
    for i, b in enumerate(src.rows):
        coords = dst.coords_of(dual.contract(b, l, j))
        if coords is None:
            where = "the dual component (" if allowed is None else \
                f"the quotient dual (allowed={sorted(allowed)}, "
            raise ClosureFailure(
                f"action x_{j} left {where}degree {l}, basis vector {i}, slot first)",
                witness=(l, j, i))
        for r, x in coords.items():
            mat[r][i] = x
    return mat


def left_ideal_contains(dual, src_allowed, prefix, dst_allowed, lmax):
    """Whether prefix . L_src lies in L_dst in every degree up to lmax.

    L_E is the left ideal of the dual algebra generated by the dual variables
    with indices outside E.  True is a bounded certificate (the containment
    holds up to lmax); False is definitive, and the least lmax that gives it
    is the failing degree.

    In degree d it says: each row f of the dst quotient in degree
    d + len(prefix), contracted by the prefix, lies in the src quotient (and
    then so does their span).  That contraction is f's block at
    lo <= pos < lo + n^d, lo the prefix's word index times n^d; it lies in
    comp(d), as _assemble writes each row of comp(l) as blocks of comp(l-1)
    rows, and it keeps each last letter pos % n.  So by the support fact of
    QuotientDual one scan of f decides it: no contraction is built, and no
    component of the src quotient.
    """
    n = dual.n
    word = sum(t * n ** i for i, t in enumerate(reversed(prefix)))
    for d in range(1, lmax + 1):
        lo, hi = word * n ** d, (word + 1) * n ** d
        for f in dual.quotient(dst_allowed).component(d + len(prefix)).rows:
            for pos in f:
                if lo <= pos < hi and pos % n not in src_allowed:
                    return False
    return True
