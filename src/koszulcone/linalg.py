"""Exact linear algebra over prime fields F_p and the rationals.

Everything downstream (graded bases, dual components, differentials, homology
ranks) reduces to the operations here, so exactness is non-negotiable: prime
field elements are Python ints kept in [0, p), and a rational is an int when
integral, else a fractions.Fraction (_qq_value), from parsing to output.

Matrices are lists of rows, and a row is a sparse dict {column: value} with
no zero values: that is the one row form taken and handed back here, by
rref, the kernels, every Subspace, and Solver, whose vectors, right-hand
sides and solutions are dict rows too.  It is also the form of an algebra
element: algebra.AlgebraElement.terms holds the same pairs, sorted, so
elements reach elimination without conversion.  Dense arrays exist only
inside the numpy kernel, built from the dict rows and read back into them
once, at that boundary, and numpy is imported only when that kernel runs.
The kernel copies each row it reads, so a caller's row (a cached product
column among them) is never mutated.

rref, Echelon and Solver over both fields run one sparse elimination loop
(_forward): each row is head-reduced (_head_reduce), subtracting the kept
row whose lead is the row's minimum column until none fits, and its
remainder is kept with its lead scaled to 1 (_keep).  The matrices of monomial ideals hold one or two
nonzeros per row, so it touches nonzeros only: mod p over F_p, and over the
rationals exactly, on ints while the entries are integral and on Fractions
otherwise.  rref runs it over copies of the rows, which gives the pivots:
the lead columns of any echelon basis are the RREF pivots, so rank() stops
there.  The reduced rows come from back-substitution on that echelon, from
the last lead to the first (_back_substitute; Golub and Van Loan, Matrix
Computations, sec. 3.1).  Over F_p the work of both passes, the input's
nonzero count plus one per entry updated, has a budget of 4 (nrows + ncols)
+ nrows ncols / 16.  A matrix that goes over it (a dense input by its
nonzero count alone, before any elimination) is made dense and eliminated
column by column in numpy int64 instead (products stay below 2**63 because
p is capped), below each pivot only when not reduced, and its rows are read
back as dict rows of Python ints.  The rationals have no dense kernel: the
sparse loop drops dependent rows as soon as they reduce to zero, which on
the tall, generic QQ matrices of dual components is much faster than
fraction-free (Bareiss) elimination over every row.  The reduced row
echelon form of a matrix is unique, so both F_p kernels return the same
rows and pivots, and every Subspace has a unique representation.

Echelon holds a chain of subspaces V_1 ⊂ V_2 ⊂ ... as one forward-only
echelon basis, fed block by block: dim V_i is a row count, and membership in
V_i is a head reduction against the first rows, with no elimination per
subspace.  It is the filtration of a monomial ideal by its prefixes.  A
chain can be cut back to an earlier V_i and fed again, which walks the
variable ideals (Y)_d of a degree d along a trie of variable sets.  Solver
is that echelon with provenance: each kept row carries its expression in the
vectors fed, so a system asked for many right-hand sides, such as one peel
step of a decomposition or one lift of a mapping cone, is solved by one head
reduction per target.  It is the package's only linear solver.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

# int64 products p^2 * n_cols must stay below 2**63 during elimination
MAX_PRIME = 1 << 20


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """Arithmetic in F_p with int representatives in [0, p)."""

    def __init__(self, p):
        # the bound first: trial division of a large p runs for minutes
        if p > MAX_PRIME:
            raise ValueError(f"{p} exceeds the supported prime bound {MAX_PRIME}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.char = p

    def __repr__(self):
        return f"GF({self.char})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("GF", self.char))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, n):
        if isinstance(n, Fraction):
            return self.mul(self.of(n.numerator), self.inv(self.of(n.denominator)))
        return n % self.char

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.char - 2, self.char)

    def format(self, a):
        return str(a % self.char)

    def parse(self, s):
        return int(s) % self.char

    # -- elimination ----------------------------------------------------------

    def rref(self, rows, ncols, reduced=True):
        """(rref_rows, pivot_columns); rref_rows is None when not reduced.

        The sparse kernel while its work stays within _work_budget, the dense
        numpy kernel otherwise (_rref).
        """
        return _rref(rows, ncols, self.char, _work_budget(len(rows), ncols), reduced)


def _work_budget(nrows, ncols):
    """Work the sparse kernel may do over F_p (the input's nonzero count plus
    one per entry updated) before the matrix goes to the numpy kernel."""
    return 4 * (nrows + ncols) + nrows * ncols // 16


def _rref(rows, ncols, p, budget, reduced):
    """The body of both fields' rref, over F_p when p is a prime and over the
    rationals (budget math.inf) when p is 0.

    The forward loop (_forward) on copies of the rows gives the pivots, and
    back-substitution (_back_substitute) the reduced rows.  A matrix whose
    work goes over budget in either pass, a dense one by its nonzero count
    before any row is copied, is eliminated by the numpy kernel instead.
    The RREF is unique, so the answer does not depend on the kernel.
    """
    if not rows:
        return [], []
    work = sum(map(len, rows))
    if work <= budget:
        leads, kept = {}, []
        work = _forward(_entries(rows, p), leads, kept, ncols, p, work, budget)
        if work is not None:
            if not reduced:
                return None, sorted(leads)
            found = _back_substitute(kept, work, p, budget)
            if found is not None:
                return _rows_of(found, p)
    return _dense_rref(rows, ncols, p, reduced)


def _forward(rows, leads, kept, ambient, p, work=0, budget=math.inf):
    """Feed fresh dict rows to the forward-only echelon (leads, kept) in
    place; the work done, or None once it exceeds budget.

    The one loop of every RREF, rank, Echelon and Solver.  Each row is
    head-reduced against the rows kept before it (_head_reduce, not called
    while its minimum column is no lead), and its remainder is kept as
    (lead, tail) with its lead scaled to 1 (_keep) if it has an entry left
    of ambient.  The kept rows have distinct lead columns, and the lead set
    of an echelon basis is the RREF pivot set; once every column left of
    ambient is a lead, no row can be kept, and the loop stops.  Work counts
    one per entry updated.
    """
    for r in rows:
        if len(kept) == ambient:
            break
        if not r:
            continue
        c = min(r)
        # most monomial rows open a new lead and need no reduction
        if c in leads:
            r, _, spent = _head_reduce(r, leads, kept, len(kept), p)
            work += spent
            if work > budget:
                return None
            if not r:
                continue
            c = min(r)
        if c < ambient:
            _keep(r, c, leads, kept, p)
    return work


def _back_substitute(kept, work, p, budget):
    """{pivot column: tail} of the RREF of the echelon rows kept, (lead,
    tail) pairs with distinct leads, or None once the work exceeds budget.

    The tails are reduced in place from the last lead to the first: the rows
    with later leads are already zero at every other lead column, so
    subtracting them (_sub_multiple) clears each lead column of a tail, and
    no lead column comes back.  Work counts one per entry updated.
    """
    done = {}
    for c, tail in sorted(kept, reverse=True):
        if tail:
            for d in [d for d in tail if d in done]:
                t = done[d]
                work += len(t)
                _sub_multiple(tail, tail.pop(d), t, p)
            if work > budget:
                return None
        done[c] = tail
    return done


def _qq_value(x):
    """The rational x in QQ's one value form: an int when integral, else x."""
    return x.numerator if x.denominator == 1 else x


def _nonzeros(row, p):
    """A fresh copy of the dict row or sparse accumulator, without zeros: its
    values reduced mod p, or over the rationals (p = 0) in the value form of
    _qq_value."""
    if p:
        return {j: x for j, v in row.items() if (x := v % p)}
    return {j: _qq_value(v) for j, v in row.items() if v}


def _entries(rows, p):
    """_nonzeros of each dict row."""
    return [_nonzeros(row, p) for row in rows]


def _keep(r, c, leads, rows, p):
    """Append the nonzero dict row r to the echelon rows as (lead, tail): its
    minimum column c, and the other entries scaled so that the lead entry
    would be 1.  Over the rationals a pivot f is inverted as 1 / Fraction(f),
    an int when integral, so unit pivots keep the arithmetic on ints."""
    f = r.pop(c)
    if f != 1:
        if p:
            inv = pow(f, p - 2, p)
            r = {j: v * inv % p for j, v in r.items()}
        else:
            inv = -1 if f == -1 else _qq_value(1 / Fraction(f))
            r = {j: v * inv for j, v in r.items()}
    leads[c] = len(rows)
    rows.append((c, r))


def _head_reduce(r, leads, rows, count, p):
    """(remainder, rows used, work) of head reduction of the dict row r, in
    place, against the first count echelon rows.

    rows holds (lead column, the row without its lead entry, which is 1) and
    leads maps each lead column to its row index.  While the minimum column
    of r is the lead of a row below count, that row's multiple is subtracted.
    rows used is one more than the largest index subtracted (0 if none), and
    work counts the entries updated.
    """
    used = work = 0
    while r:
        c = min(r)
        k = leads.get(c, count)
        if k >= count:
            break
        tail = rows[k][1]
        work += len(tail)
        # r -= f * tail, inline: this loop runs once per row of every rank
        f = r.pop(c)
        for j, v in tail.items():
            x = r.get(j, 0) - f * v
            if p:
                x %= p
            if x:
                r[j] = x
            else:
                del r[j]
        if k >= used:
            used = k + 1
    return r, used, work


def _sub_multiple(r, f, tail, p):
    """r -= f * tail on dict rows in place, mod p when p is nonzero; an entry
    that cancels is deleted."""
    for j, v in tail.items():
        x = r.get(j, 0) - f * v
        if p:
            x %= p
        if x:
            r[j] = x
        else:
            del r[j]


def _rows_of(found, p):
    """(rref_rows, pivot_columns) of {pivot: tail}: each row is {pivot: 1,
    **tail}, its values in the form of _qq_value over the rationals (p = 0)."""
    pivots = sorted(found)
    tails = [found[c] for c in pivots]
    return [{c: 1, **t} for c, t in zip(pivots, tails if p else _entries(tails, p))], pivots


def _array(rows, ncols):
    """The dict rows as a dense int64 array, the entry of the numpy kernel."""
    import numpy as np
    m = np.zeros((len(rows), ncols), dtype=np.int64)
    lens = [len(row) for row in rows]
    m[np.repeat(np.arange(len(rows)), lens),
      np.fromiter(chain.from_iterable(rows), np.int64, sum(lens))] = \
        np.fromiter(chain.from_iterable(map(dict.values, rows)), np.int64, sum(lens))
    return m


def _dict_rows(m):
    """The rows of a 2-d int64 array as dict rows of Python ints, the exit of
    the numpy kernel."""
    import numpy as np
    ri, ci = np.nonzero(m)
    cols, vals = ci.tolist(), m[ri, ci].tolist()
    ends = np.cumsum(np.bincount(ri, minlength=m.shape[0])).tolist()
    out = []
    start = 0
    for end in ends:
        out.append(dict(zip(cols[start:end], vals[start:end])))
        start = end
    return out


def _dense_rref(rows, ncols, p, reduced):
    """The numpy int64 kernel: column by column over the whole matrix."""
    import numpy as np
    m = _array(rows, ncols) % p
    nrows = m.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        # rows r.. vanish left of c, so every update starts at column c
        m[r, c:] = (m[r, c:] * pow(int(m[r, c]), p - 2, p)) % p
        top = 0 if reduced else r + 1
        others = top + np.nonzero(m[top:, c])[0]
        others = others[others != r]
        if others.size:
            m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return (_dict_rows(m[:r]) if reduced else None), pivots


class RationalField:
    """Exact rational arithmetic on ints and fractions.Fraction (_qq_value).

    rref runs the sparse kernel shared with F_p, exactly and without a work
    budget; the reduced rows hold values in that form.
    """

    char = 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, n):
        return n if type(n) is int else _qq_value(Fraction(n))

    def add(self, a, b):
        return _qq_value(a + b)

    def sub(self, a, b):
        return _qq_value(a - b)

    def mul(self, a, b):
        return _qq_value(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _qq_value(1 / Fraction(a))

    def format(self, a):
        return str(a)  # "n/d" for a Fraction, which is never integral

    def parse(self, s):
        return _qq_value(Fraction(s))

    def rref(self, rows, ncols, reduced=True):
        """(rref_rows, pivot_columns); rref_rows is None when not reduced.
        The sparse kernel whatever the density (_rref)."""
        return _rref(rows, ncols, 0, math.inf, reduced)


QQ = RationalField()


def GF(p):
    return PrimeField(p)


class Subspace:
    """A subspace of k^ambient held as a canonical reduced-row-echelon basis.

    The rows are dict rows.  The representation is unique for a given
    subspace, so equality of subspaces is equality of basis rows.
    """

    __slots__ = ("field", "ambient", "rows", "pivots", "_row_at")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._row_at = {c: k for k, c in enumerate(pivots)}

    @classmethod
    def from_rows(cls, field, rows, ambient):
        rref, pivots = field.rref(list(rows), ambient)
        return cls(field, ambient, rref, pivots)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [], [])

    @classmethod
    def full(cls, field, ambient):
        one = field.one
        return cls(field, ambient, [{i: one} for i in range(ambient)], list(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def reduce(self, vec):
        """Reduce the dict vector vec modulo the basis rows; vec is not mutated.

        Returns (residual, coeffs), dicts without zero values: residual
        {column: value} is zero on every pivot column, coeffs {basis row:
        value} is in ascending row order, and vec = sum_k coeffs[k] rows[k] +
        residual.  Over F_p the values are ints in [0, p); over QQ they are
        in the form of _qq_value, like the basis rows.
        """
        p = self.field.char
        v = _nonzeros(vec, p)
        # a row's coefficient is vec's entry at its pivot, because every
        # other basis row is zero there
        row_at, coeffs = self._row_at, {}
        for k in sorted(row_at[c] for c in v if c in row_at):
            f = coeffs[k] = v[self.pivots[k]]
            _sub_multiple(v, f, self.rows[k], p)
        return (v, coeffs) if p else tuple(_entries((v, coeffs), p))

    def contains(self, vec):
        residual, _ = self.reduce(vec)
        return not residual

    def coords_of(self, vec):
        """Coordinates {basis row: value} of vec over the echelon basis, or
        None if vec is outside the subspace."""
        residual, coeffs = self.reduce(vec)
        return None if residual else coeffs


class Echelon:
    """A chain of subspaces V_1 ⊂ V_2 ⊂ ... of k^ambient as forward-only echelon rows.

    Each extend() call feeds copies of the spanning rows of the next
    subspace, sparse dicts with reduced field values, to the loop _forward:
    a row is head-reduced against the rows kept before it, and its
    remainder, if any, is kept with its leading (minimum) column scaled to
    1.  Kept rows are zero left of their distinct lead columns and never
    change, so the first counts[i] rows are a basis of V_i (counts[0] = 0,
    the zero subspace).  A vector in their span has a unique expression over
    them, and head reduction finds it: subtract the row whose lead is the
    vector's minimum column until none fits.  span(count) back-substitutes
    copies of the first count rows each time it is called.
    """

    __slots__ = ("field", "ambient", "counts", "_rows", "_leads")

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self.counts = [0]
        self._rows = []  # (lead column, the row without its lead entry)
        self._leads = {}  # lead column -> row index

    def extend(self, rows):
        """Feed the rows spanning V_i over V_{i-1}, the last subspace fed."""
        _forward(map(dict, rows), self._leads, self._rows, self.ambient, self.field.char)
        self.counts.append(len(self._rows))

    def truncate(self, level):
        """Cut the chain back to V_level, dropping the rows fed after it."""
        count = self.counts[level]
        for c, _ in self._rows[count:]:
            del self._leads[c]
        del self._rows[count:], self.counts[level + 1:]

    def locate(self, vec, count):
        """How many leading rows a sparse vector needs, or None outside their span.

        vec is a dict row or its (column, value) pairs, such as an algebra
        element's terms; it is copied, not mutated.  None when vec is outside
        the span of the first count rows; else one more than the index of the
        last row with a nonzero coefficient in its expression (0 for the zero
        vector), so vec lies in V_i exactly when counts[i] reaches that number.
        """
        r, used, _ = _head_reduce(dict(vec), self._leads, self._rows, count, self.field.char)
        return None if r else used

    def span(self, count):
        """The span of the first count rows as a canonical Subspace, by
        back-substitution on copies of them: they are an echelon basis."""
        p = self.field.char
        kept = [(c, dict(tail)) for c, tail in self._rows[:count]]
        found = _back_substitute(kept, 0, p, math.inf)
        return Subspace(self.field, self.ambient, *_rows_of(found, p))


class Solver:
    """Solutions w of sum_i w_i v_i = t over the vectors v_0, v_1, ... fed so far.

    The echelon of Echelon with provenance: vector v_i is fed to the forward
    loop (_forward) as the dict row (v_i | -e_i), its provenance in the
    columns ambient + i, and head-reduced against the rows kept before it,
    so the provenance part of a row is minus its expression in the fed
    vectors.  A remainder with no entry left of ambient is a free unknown,
    v_i in the span of the vectors before it, and is not kept; neither is
    any vector fed once every column is a lead.  solve(t) head-reduces t,
    and the provenance part of its remainder is the unique solution that is
    zero on the free unknowns, the vectors in the span of those before them,
    so it depends only on the vectors and their order.  extend can be called
    again, with the unknowns numbered on, and widen adds coordinates.
    """

    __slots__ = ("field", "ambient", "fed", "_rows", "_leads")

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self.fed = 0
        self._rows = []  # (lead column, the row without its lead entry)
        self._leads = {}  # lead column -> row index

    def extend(self, vectors):
        """Feed dict rows with field values as the next unknowns."""
        p, n = self.field.char, self.ambient
        rows = _entries(vectors, p)
        for i, r in enumerate(rows, n + self.fed):
            r[i] = p - 1 if p else -1
        self.fed += len(rows)
        _forward(rows, self._leads, self._rows, n, p)

    def widen(self, ambient):
        """Grow to ambient coordinates, on which the vectors fed so far are
        zero: the provenance columns, in the tails only, move right."""
        n, shift = self.ambient, ambient - self.ambient
        if shift:
            self._rows = [(c, {j + shift if j >= n else j: x for j, x in tail.items()})
                          for c, tail in self._rows]
            self.ambient = ambient

    def solve(self, vec):
        """The solution {unknown: nonzero value} for the target vec, a dict row
        or its (column, value) pairs, or None when vec is outside the span."""
        p, n = self.field.char, self.ambient
        r, _, _ = _head_reduce(_nonzeros(dict(vec), p), self._leads, self._rows,
                               len(self._rows), p)
        if r and min(r) < n:
            return None
        return {j - n: x if p else _qq_value(x) for j, x in r.items()}


def kernel(field, rows, ncols):
    """The Subspace {v : rows . v = 0} of k^ncols, from the RREF of rows: it
    is spanned by one sparse row per free column f, 1 at f and minus column
    f of the RREF at the pivot columns."""
    rref, pivots = field.rref(list(rows), ncols)
    pivot_set = set(pivots)
    vecs = {f: {f: field.one} for f in range(ncols) if f not in pivot_set}
    for row, c in zip(rref, pivots):
        # the row is zero at every other pivot column
        for f, x in row.items():
            if f != c:
                vecs[f][c] = field.neg(x)
    return Subspace.from_rows(field, list(vecs.values()), ncols)


def rank(field, rows, ncols):
    if not rows:
        return 0
    return len(field.rref(list(rows), ncols, reduced=False)[1])


def transpose(rows, ncols):
    """The transpose of a matrix of dict rows with ncols columns."""
    out = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[c][r] = v
    return out

