"""Commutative quadratic graded algebras A = k[x_1..x_n]/(quadrics), degree by degree.

A degree-d component is handled through the free commutative monomials of that
degree: the defining quadrics span a subspace of each degree, a monomial
k-basis for the quotient is chosen greedily (user-preferred monomials first,
then lexicographic order) by one elimination of that subspace with columns in
reverse candidate order, and its pivot rows give every monomial an exact
normal form over the chosen basis.  No Groebner machinery: everything is
linear algebra over the exact field.

Elements and normal forms share one form: the sorted (basis position,
value) pairs of their nonzero coordinates, AlgebraElement.terms; in a monomial
ring a normal form is one pair or none.  It is linalg's row form as pairs, so
dict(a.terms) is a row {position: value} with no zero values, and products
and sums walk nonzeros only.  A product of basis monomials is a normal form
already, so multiply and multiplication_columns read single terms by lookup.
Dense coordinate lists exist only at the JSON boundary: element() reads them
and coords() writes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add

from .errors import DegreeOverflow, ElementMismatch, TooManyMonomials
from .linalg import _nonzeros

__all__ = [
    "RingPresentation",
    "GradedAlgebra",
    "AlgebraElement",
    "monomials_of_degree",
    "format_monomial",
]

# bound on the monomials of one degree that GradedAlgebra enumerates: a
# degree of about 10^5 monomials in 8 variables takes about 200 MB to build
MONOMIAL_LIMIT = 10 ** 5


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


def format_monomial(var_names, exp):
    """Ring-file text of a monomial, x1*x2^3; the empty product is ""."""
    parts = []
    for name, e in zip(var_names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


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
    """A homogeneous element: its degree and terms, the sorted (basis
    position, nonzero value) pairs of its coordinates over the chosen basis.

    The form is canonical, so equal elements have equal fields and hashes.
    """

    degree: int
    terms: tuple

    @property
    def is_zero(self):
        return not self.terms


class _DegreeData:
    __slots__ = ("index", "basis", "nf")

    def __init__(self, index, basis, nf):
        self.index = index
        self.basis = basis
        self.nf = nf  # monomial position -> ((basis position, nonzero value), ...)


class GradedAlgebra:
    """A with per-degree bases and normal forms, built up to a fixed cutoff.

    Construction is lazy per degree but single-threaded; once a degree is
    built it is never mutated, so concurrent reads are safe.  A degree d >= 2
    whose degree d - 1 is already built and zero is zero too, because A is
    generated in degree 1: it gets an empty basis and zero normal forms with
    no relation rows or elimination.  Callers ask for degrees in ascending
    order, so every degree above A's top degree takes that path, and a degree
    asked for out of order is eliminated in full, which gives the same
    answer and keeps the order of the warnings.
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

    def _relation_rows(self, d, index):
        """The relations times each monomial of degree d - 2, as sparse rows
        over the monomial positions of degree d."""
        fld = self.field
        rows = []
        for mu in monomials_of_degree(self.n, d - 2):
            for rel in self.presentation.relations:
                row = {}
                for coeff, (i, j) in rel:
                    target = list(mu)
                    target[i] += 1
                    target[j] += 1
                    c = index[tuple(target)]
                    row[c] = fld.add(row.get(c, fld.zero), fld.of(coeff))
                rows.append({c: v for c, v in row.items() if v})
        return rows

    def _build_degree(self, d):
        count = comb(self.n + d - 1, d)
        if count > MONOMIAL_LIMIT:
            raise TooManyMonomials(f"degree {d}: {count} monomials in {self.n} variables "
                                   f"exceed the limit {MONOMIAL_LIMIT}")
        fld = self.field
        mons = monomials_of_degree(self.n, d)
        index = {m: i for i, m in enumerate(mons)}
        nmons = len(mons)
        preferred = [m for m in self.presentation.preferred if sum(m) == d]

        below = self._degrees.get(d - 1)
        if d >= 2 and below is not None and not below.basis:
            # A is generated in degree 1, so A_{d-1} = 0 forces A_d = 0: every
            # monomial is a pivot, and every preferred one is dependent
            for m in preferred:
                self._warn_dependent(m, d)
            return _DegreeData(index, [], [()] * nmons)

        # Greedy basis: a candidate (preferred monomials first, then lex)
        # joins iff its class is independent of those chosen before it.  By
        # matroid duality its complement is the pivot set of the relation rows
        # with columns in reverse candidate order, so that one elimination
        # leaves the basis free and expresses every other monomial over it.
        candidates = list(dict.fromkeys(preferred + list(mons)))
        place = [0] * nmons  # monomial position -> permuted column
        for pc, m in enumerate(reversed(candidates)):
            place[index[m]] = pc
        permuted = [{place[c]: v for c, v in row.items()}
                    for row in self._relation_rows(d, index)]
        rref, pivots = fld.rref(permuted, nmons)
        pivot_set = set(pivots)
        free = [k for k in range(nmons) if nmons - 1 - k not in pivot_set]
        basis = [candidates[k] for k in free]
        for k, m in enumerate(preferred):
            if m in preferred[:k] or place[index[m]] in pivot_set:
                self._warn_dependent(m, d)
        # a basis monomial is its own normal form; a pivot monomial is minus
        # its pivot row's entries, which are zero on every other pivot column,
        # and the permuted column nmons - 1 - k holds basis candidate k
        nf = [None] * nmons
        for b, k in enumerate(free):
            nf[index[candidates[k]]] = ((b, fld.one),)
        basis_pos = {nmons - 1 - k: b for b, k in enumerate(free)}
        for row, pc in zip(rref, pivots):
            nf[index[candidates[nmons - 1 - pc]]] = tuple(sorted(
                (basis_pos[c], fld.neg(x)) for c, x in row.items() if c != pc))
        return _DegreeData(index, basis, nf)

    def _warn_dependent(self, m, d):
        self.warnings.append(f"InconsistentPreferred: monomial {self.format_monomial(m)} "
                             f"is dependent in degree {d}; skipped")

    def _product_degree(self, d):
        if d > self.cutoff:
            raise DegreeOverflow(f"product degree {d} exceeds cutoff {self.cutoff}")
        return self._degree(d)

    def _element(self, d, acc):
        """The degree-d element of a sparse accumulator {position: value}."""
        return AlgebraElement(d, tuple(sorted(_nonzeros(acc, self.field.char).items())))

    # -- queries -----------------------------------------------------------

    def dim(self, d):
        if d < 0:
            return 0
        return len(self._degree(d).basis)

    def basis(self, d):
        return self._degree(d).basis

    def zero(self, d):
        """The zero of degree d; DegreeOverflow past the cutoff."""
        self.dim(d)
        return AlgebraElement(d, ())

    def element(self, d, coords):
        """The degree-d element with the dense coordinate list coords."""
        coords = tuple(coords)
        if len(coords) != self.dim(d):
            raise ElementMismatch(
                f"{len(coords)} coordinates for degree {d}, which has dimension {self.dim(d)}")
        return self._element(d, dict(enumerate(coords)))

    def coords(self, a):
        """The dense coordinate list of an element, zero where it has no term."""
        out = [self.field.zero] * self.dim(a.degree)
        for k, v in a.terms:
            out[k] = v
        return out

    def monomial_element(self, exp):
        """Class of a free monomial: its normal form over the chosen basis."""
        d = sum(exp)
        data = self._degree(d)
        return AlgebraElement(d, data.nf[data.index[tuple(exp)]])

    def from_sparse(self, d, vec):
        """The degree-d element with the coordinates vec {position: value};
        DegreeOverflow outside 0..cutoff."""
        self._degree(d)
        return self._element(d, vec)

    def var(self, i):
        exp = [0] * self.n
        exp[i] = 1
        return self.monomial_element(tuple(exp))

    def add(self, a, b):
        _same_degree(a, b)
        acc = dict(a.terms)
        for k, v in b.terms:
            acc[k] = acc.get(k, 0) + v
        return self._element(a.degree, acc)

    def sub(self, a, b):
        _same_degree(a, b)
        acc = dict(a.terms)
        for k, v in b.terms:
            acc[k] = acc.get(k, 0) - v
        return self._element(a.degree, acc)

    def scale(self, c, a):
        return self._element(a.degree, {k: c * v for k, v in a.terms})

    def _expand(self, dd, aterms, bterms):
        """The product of two sums of (basis monomial, coefficient) terms, as a
        sparse dict over the basis of dd, their product's degree."""
        index, nf = dd.index, dd.nf
        acc = {}
        for ma, ca in aterms:
            for mb, cb in bterms:
                c = ca * cb
                for k, x in nf[index[tuple(map(add, ma, mb))]]:
                    acc[k] = acc.get(k, 0) + c * x
        return _nonzeros(acc, self.field.char)

    def _terms(self, a):
        """The nonzero terms of an element as (basis monomial, coefficient) pairs."""
        basis = self._degree(a.degree).basis
        return [(basis[k], c) for k, c in a.terms]

    def multiply(self, a, b):
        """Product in A: for single terms c*m and c'*m', c*c' times the normal
        form of m*m', read by one lookup; else by expanding basis monomials."""
        dd = self._product_degree(d := a.degree + b.degree)
        if len(a.terms) == len(b.terms) == 1:
            (ka, ca), (kb, cb), mul = a.terms[0], b.terms[0], self.field.mul
            m = tuple(map(add, self._degree(a.degree).basis[ka], self._degree(b.degree).basis[kb]))
            return AlgebraElement(d, tuple((k, mul(mul(ca, cb), x)) for k, x in dd.nf[dd.index[m]]))
        product = self._expand(dd, self._terms(a), self._terms(b))
        return AlgebraElement(d, tuple(sorted(product.items())))

    def multiplication_columns(self, a, e):
        """Columns of the multiplication operator A_e -> A_{e+deg a} by a.

        Cached per (element, source degree); column j is the product of a and
        the j-th basis monomial mu_j of A_e as a sparse dict {position: value}
        without zeros.  Callers read the columns and must not mutate them.
        For a single term c*m, column j is the normal form of m*mu_j, read by
        one lookup and copied (c = 1) or scaled once: k is a field.
        """
        key = (a.degree, a.terms, e)
        got = self._mult_columns.get(key)
        if got is None:
            mus = self.basis(e)
            got = []
            if mus:
                dd = self._product_degree(a.degree + e)
                terms = self._terms(a)
                if len(terms) == 1:
                    (m, c), p, mul = terms[0], self.field.char, self.field.mul
                    cols = [dd.nf[dd.index[tuple(map(add, m, mu))]] for mu in mus]
                    got = ([dict(col) for col in cols] if c == 1 else
                           [{k: c * x % p if p else mul(c, x) for k, x in col} for col in cols])
                else:
                    # the int 1 keeps each coefficient as a's own field element
                    got = [self._expand(dd, terms, ((mu, 1),)) for mu in mus]
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
            nf = self.monomial_element(self.pair_monomial(u, v)).terms
            out[(u, v)] = {spairs[k]: c for k, c in nf}
        return out

    # -- formatting ----------------------------------------------------------

    def format_monomial(self, exp):
        return format_monomial(self.presentation.var_names, exp) or "1"

    def format_element(self, a):
        fld = self.field
        data = self._degree(a.degree)
        parts = []
        for k, c in a.terms:
            mono = self.format_monomial(data.basis[k])
            cs = fld.format(c)
            parts.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(parts) if parts else "0"
