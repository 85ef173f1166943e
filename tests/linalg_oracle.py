"""The reference solver of the tests: one elimination per linear system.

koszulcone.linalg.Solver solves systems that grow, one head reduction per
target.  solve_columns answers the same question from scratch, with one
reduced row echelon form of the augmented matrix [rows | targets], so the
tests compare the two: the decompositions of tests/ideal_oracle.py and the
comparison-map lifts of the oracle cone in tests/test_complexes.py run on it.
"""


def solve_columns(field, rows, ncols, targets):
    """Canonical solutions w of rows . w = t, one per target column t.

    rows is a matrix of dict rows with ncols columns, and each target is a
    dict {row: value}.  One elimination of [rows | targets] serves every
    target.  Each solution is a dict row {unknown: nonzero value}, the unique
    solution whose free coordinates (non-pivot unknowns) are zero: same
    input, same witness.  Returns (solutions, None), or (None, k) when target
    k is the first without a solution.
    """
    aug = [dict(row) for row in rows]
    for k, t in enumerate(targets):
        for r, x in t.items():
            aug[r][ncols + k] = x
    rref, pivots = field.rref(aug, ncols + len(targets))
    sols = [{} for _ in targets]
    for row, c in zip(rref, pivots):
        if c >= ncols:
            # a pivot inside the target block: that target is inconsistent
            return None, c - ncols
        for j, x in row.items():
            if j >= ncols:
                sols[j - ncols][c] = x
    return sols, None
