"""The dense side of the tests, converted to and from linalg's row form.

koszulcone.linalg takes and returns dict rows {column: nonzero value}, the
targets and solutions of Solver among them.  The tests write literal
matrices, and the oracles compute, on dense lists; sparse and dense are the
one place where the forms meet.  canonical_qq is the value form over QQ.
"""

from fractions import Fraction


def canonical_qq(x):
    """True when x is a rational in the one value form over QQ: an int when
    integral, else a Fraction whose denominator is above 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def sparse(rows):
    """Dense rows as dict rows {column: nonzero value}."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense(rows, ncols, zero=0):
    """Dict rows as dense lists of ncols entries, zero where a row has none."""
    out = []
    for row in rows:
        v = [zero] * ncols
        for j, x in row.items():
            v[j] = x
        out.append(v)
    return out
