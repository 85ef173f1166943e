"""The reference products of the tests: one general expansion per product.

koszulcone.algebra.GradedAlgebra.multiply and multiplication_columns read
the product of single terms from the normal forms by lookup, and
koszulcone.complexes._compose_columns adds each product of single-term
entries straight into its sums.  These oracles compute the same through
GradedAlgebra._expand, one call per product or column, as all three did
before, so the tests compare them on values, value types and the keys of
the sums.
"""

from koszulcone.algebra import AlgebraElement, GradedAlgebra
from koszulcone.linalg import _nonzeros


def multiply(algebra: GradedAlgebra, a, b):
    """a * b by expanding basis monomial representatives, whatever the terms."""
    d = a.degree + b.degree
    product = algebra._expand(algebra._product_degree(d), algebra._terms(a), algebra._terms(b))
    return AlgebraElement(d, tuple(sorted(product.items())))


def multiplication_columns(algebra: GradedAlgebra, a, e):
    """Columns of the multiplication by a from A_e, one expansion per column."""
    mus = algebra.basis(e)
    if not mus:
        return []
    dd = algebra._product_degree(a.degree + e)
    terms = algebra._terms(a)
    # the int 1 keeps each coefficient as a's own field element
    return [algebra._expand(dd, terms, ((mu, 1),)) for mu in mus]


def compose_columns(algebra: GradedAlgebra, first, second):
    """(col, sums) of first o second as _compose_columns yields them, with
    every product expanded on its own and entered under its (row, degree)
    key when it is nonzero."""
    by_inner = {}
    for (r, g), a in first.items():
        by_inner.setdefault(g, []).append((r, a.degree, algebra._terms(a)))
    by_col = {}
    for (g, c), b in second.items():
        by_col.setdefault(c, []).append((g, b.degree, algebra._terms(b)))
    for c, col_entries in by_col.items():
        sums = {}
        for g, db, tb in col_entries:
            for r, da, ta in by_inner.get(g, ()):
                d = da + db
                prod = algebra._expand(algebra._product_degree(d), ta, tb)
                if not prod:
                    continue
                acc = sums.setdefault((r, d), prod)
                if acc is not prod:
                    for k, v in prod.items():
                        acc[k] = acc.get(k, 0) + v
        yield c, {key: _nonzeros(acc, algebra.field.char) for key, acc in sums.items()}
