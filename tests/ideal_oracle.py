"""The canonical variable-ideal space, the oracle of the rank-only walk.

koszulcone.ideals reads dim (Y)_d from one forward-only echelon per degree
and ranks a non-variable degree-1 part from its product rows; neither builds
a basis.  variable_ideal_space builds the canonical reduced row echelon basis
of the same span from scratch, set by set, with no walk shared between sets.
"""

from koszulcone.linalg import Subspace


def variable_ideal_space(algebra, rows, d):
    """Degree-d span of the ideal generated by the dict rows of degree-1 elements."""
    rows = [col for w in rows
            for col in algebra.multiplication_columns(algebra.from_sparse(1, w), d - 1)]
    return Subspace.from_rows(algebra.field, rows, algebra.dim(d))
