"""Commutative quadratic graded algebras A = k[x_1..x_n]/(quadrics), degree by degree.

A degree-d component is handled through the free commutative monomials of that
degree: the defining quadrics span a subspace of each degree, a monomial
k-basis for the quotient is chosen greedily (user-preferred monomials first,
then lexicographic order) by one elimination of that subspace with columns in
reverse candidate order, and its pivot rows give every monomial an exact
normal-form coordinate vector over the chosen basis.  No Groebner machinery:
everything is linear algebra over the exact field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DegreeOverflow, ElementMismatch
from .linalg import Subspace

__all__ = [
    "RingPresentation",
    "GradedAlgebra",
    "AlgebraElement",
    "monomials_of_degree",
]


@lru_cache(maxsize=None)
def monomials_of_degree(n, d):
    """All exponent tuples of total degree d in n variables, descending lex.

    Descending lex means x1^d comes first; for squarefree monomials this
    matches the ascending lexicographic order on index subsets.
    """
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class RingPresentation:
    """The input data of A: variables, field, quadratic relations.

    relations: each a tuple of (coefficient, (i, j)) terms with i <= j, read as
    sum of coeff * x_i x_j.  preferred: monomials (exponent tuples) the basis
    selection must attempt to include first, in the given order.
    """

    var_names: tuple
    field: object
    relations: tuple = ()
    preferred: tuple = ()

    def __post_init__(self):
        n = len(self.var_names)
        if n < 1:
            raise ValueError("need at least one variable")
        if len(set(self.var_names)) != n:
            raise ValueError("variable names must be distinct")
        for rel in self.relations:
            for coeff, (i, j) in rel:
                if not (0 <= i <= j < n):
                    raise ValueError(f"bad relation term index pair {(i, j)}")

    @property
    def nvars(self):
        return len(self.var_names)


def _same_degree(a, b):
    if a.degree != b.degree:
        raise ElementMismatch(f"degrees {a.degree} and {b.degree} differ")


@dataclass(frozen=True)
class AlgebraElement:
    """A homogeneous element: degree plus coordinates over the chosen basis."""

    degree: int
    coords: tuple

    @property
    def is_zero(self):
        return not any(self.coords)


class _DegreeData:
    __slots__ = ("index", "relation_space", "basis", "nf")

    def __init__(self, index, relation_space, basis, nf):
        self.index = index
        self.relation_space = relation_space
        self.basis = basis
        self.nf = nf  # monomial position -> coords tuple over basis


class GradedAlgebra:
    """A with per-degree bases and normal forms, built up to a fixed cutoff.

    Construction is lazy per degree but single-threaded; once a degree is
    built it is never mutated, so concurrent reads are safe.
    """

    def __init__(self, presentation, cutoff):
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        self.presentation = presentation
        self.field = presentation.field
        self.n = presentation.nvars
        self.cutoff = cutoff
        self.warnings = []
        self._degrees = {}
        self._mult_columns = {}

    # -- degree construction ----------------------------------------------

    def _degree(self, d):
        if d < 0 or d > self.cutoff:
            raise DegreeOverflow(f"degree {d} outside built range 0..{self.cutoff}")
        data = self._degrees.get(d)
        if data is None:
            data = self._build_degree(d)
            self._degrees[d] = data
        return data

    def _build_degree(self, d):
        fld = self.field
        mons = monomials_of_degree(self.n, d)
        index = {m: i for i, m in enumerate(mons)}
        nmons = len(mons)
        rows = []
        if d >= 2 and self.presentation.relations:
            for mu in monomials_of_degree(self.n, d - 2):
                for rel in self.presentation.relations:
                    row = [fld.zero] * nmons
                    for coeff, (i, j) in rel:
                        target = list(mu)
                        target[i] += 1
                        target[j] += 1
                        row[index[tuple(target)]] = fld.add(row[index[tuple(target)]], fld.of(coeff))
                    rows.append(row)
        relation_space = Subspace.from_rows(fld, rows, nmons)

        # Greedy basis: a candidate (preferred monomials first, then lex)
        # joins iff its class is independent of those chosen before it.  By
        # matroid duality its complement is the pivot set of the relation rows
        # with columns in reverse candidate order, so that one elimination
        # leaves the basis free and expresses every other monomial over it.
        preferred = [m for m in self.presentation.preferred if sum(m) == d]
        candidates = list(dict.fromkeys(preferred + list(mons)))
        order = [index[m] for m in reversed(candidates)]
        permuted = [[row[c] for c in order] for row in relation_space.rows]
        rref, pivots = fld.rref(permuted, nmons)
        pivot_row = {order[pc]: r for r, pc in enumerate(pivots)}
        free = [k for k, m in enumerate(candidates) if index[m] not in pivot_row]
        basis = [candidates[k] for k in free]
        for k, m in enumerate(preferred):
            if m in preferred[:k] or index[m] in pivot_row:
                self.warnings.append(
                    f"InconsistentPreferred: monomial {self.format_monomial(m)} "
                    f"is dependent in degree {d}; skipped"
                )
        nf = []
        for m in mons:
            r = pivot_row.get(index[m])
            if r is None:
                nf.append(tuple(fld.one if b == m else fld.zero for b in basis))
            else:
                nf.append(tuple(fld.neg(rref[r][nmons - 1 - k]) for k in free))
        return _DegreeData(index, relation_space, basis, nf)

    # -- queries -----------------------------------------------------------

    def dim(self, d):
        if d < 0:
            return 0
        return len(self._degree(d).basis)

    def basis(self, d):
        return self._degree(d).basis

    def monomial_index(self, d):
        return self._degree(d).index

    def relation_space(self, d):
        return self._degree(d).relation_space

    def hilbert(self, dmax):
        return [self.dim(d) for d in range(dmax + 1)]

    def zero(self, d):
        return AlgebraElement(d, tuple([self.field.zero] * self.dim(d)))

    def one(self):
        return AlgebraElement(0, (self.field.one,))

    def element(self, d, coords):
        coords = tuple(coords)
        if len(coords) != self.dim(d):
            raise ElementMismatch(
                f"{len(coords)} coordinates for degree {d}, which has dimension {self.dim(d)}")
        return AlgebraElement(d, coords)

    def monomial_element(self, exp):
        """Class of a free monomial, as coordinates over the chosen basis."""
        d = sum(exp)
        data = self._degree(d)
        return AlgebraElement(d, data.nf[data.index[tuple(exp)]])

    def var(self, i):
        exp = [0] * self.n
        exp[i] = 1
        return self.monomial_element(tuple(exp))

    def normal_form(self, terms, degree):
        """Class of a homogeneous free polynomial given as (coeff, exp) terms."""
        fld = self.field
        data = self._degree(degree)
        coords = [fld.zero] * len(data.basis)
        for coeff, exp in terms:
            if sum(exp) != degree:
                raise ValueError("normal_form needs a homogeneous input")
            nf = data.nf[data.index[tuple(exp)]]
            for k, x in enumerate(nf):
                if x:
                    coords[k] = fld.add(coords[k], fld.mul(fld.of(coeff), x))
        return AlgebraElement(degree, tuple(coords))

    def add(self, a, b):
        _same_degree(a, b)
        fld = self.field
        return AlgebraElement(a.degree, tuple(fld.add(x, y) for x, y in zip(a.coords, b.coords)))

    def sub(self, a, b):
        _same_degree(a, b)
        fld = self.field
        return AlgebraElement(a.degree, tuple(fld.sub(x, y) for x, y in zip(a.coords, b.coords)))

    def scale(self, c, a):
        fld = self.field
        return AlgebraElement(a.degree, tuple(fld.mul(c, x) for x in a.coords))

    def multiply(self, a, b):
        """Product in A, by expanding basis monomial representatives."""
        d = a.degree + b.degree
        if d > self.cutoff:
            raise DegreeOverflow(f"product degree {d} exceeds cutoff {self.cutoff}")
        fld = self.field
        da, db, dd = self._degree(a.degree), self._degree(b.degree), self._degree(d)
        coords = [fld.zero] * len(dd.basis)
        for ia, ca in enumerate(a.coords):
            if not ca:
                continue
            ma = da.basis[ia]
            for ib, cb in enumerate(b.coords):
                if not cb:
                    continue
                prod = tuple(x + y for x, y in zip(ma, db.basis[ib]))
                nf = dd.nf[dd.index[prod]]
                c = fld.mul(ca, cb)
                for k, x in enumerate(nf):
                    if x:
                        coords[k] = fld.add(coords[k], fld.mul(c, x))
        return AlgebraElement(d, tuple(coords))

    def multiplication_columns(self, a, e):
        """Columns of the multiplication operator A_e -> A_{e+deg a} by a.

        Cached per (element, source degree); column j is the coordinate tuple
        of a times the j-th basis monomial of A_e.
        """
        key = (a.degree, a.coords, e)
        got = self._mult_columns.get(key)
        if got is None:
            got = [self.multiply(a, self.monomial_element(mu)).coords
                   for mu in self.basis(e)]
            self._mult_columns[key] = got
        return got

    # -- degree-2 pair bookkeeping ------------------------------------------

    def basis_pairs(self):
        """Unordered index pairs (s, t), s <= t, whose product is a basis monomial."""
        pairs = []
        for mon in self._degree(2).basis:
            support = [i for i, e in enumerate(mon) for _ in range(e)]
            pairs.append((support[0], support[1]))
        return pairs

    def non_basis_pairs(self):
        """Unordered pairs (u, v), u <= v, whose product is not a basis monomial."""
        chosen = set(self.basis_pairs())
        return [(u, v) for u in range(self.n) for v in range(u, self.n)
                if (u, v) not in chosen]

    def pair_monomial(self, u, v):
        exp = [0] * self.n
        exp[u] += 1
        exp[v] += 1
        return tuple(exp)

    def structure_coefficients(self):
        """Expansion of each excluded product x_u x_v over basis products.

        Returns {(u,v) not chosen: {(s,t) chosen: coefficient}} with zero
        coefficients omitted, so a product that dies in A gets an empty dict.
        """
        spairs = self.basis_pairs()
        out = {}
        for (u, v) in self.non_basis_pairs():
            nf = self.monomial_element(self.pair_monomial(u, v)).coords
            out[(u, v)] = {spairs[k]: c for k, c in enumerate(nf) if c}
        return out

    # -- formatting ----------------------------------------------------------

    def format_monomial(self, exp):
        parts = []
        for i, e in enumerate(exp):
            if e == 1:
                parts.append(self.presentation.var_names[i])
            elif e > 1:
                parts.append(f"{self.presentation.var_names[i]}^{e}")
        return "*".join(parts) if parts else "1"

    def format_element(self, a):
        fld = self.field
        data = self._degree(a.degree)
        parts = []
        for k, c in enumerate(a.coords):
            if c:
                mono = self.format_monomial(data.basis[k])
                cs = fld.format(c)
                parts.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(parts) if parts else "0"
