"""A fixed calibration kernel: how fast this host runs at this moment.

On a shared host the same job can take 1.3-2x longer for tens of seconds at a
time, while the neighbours' load lasts; taking the fastest of many runs does
not remove that, because whole runs can fall inside a slow spell.  run.py
therefore runs this kernel between every two timed steps and reports each
step's time relative to the kernel's time around it.  The kernel is the
benchmark's own code and never calls koszulcone, so a change to the program
moves the steps' times and leaves the kernel's where it is.

The kernel mixes the kinds of work the jobs do: numpy elimination mod 101,
pure-Python integer (Bareiss) elimination, and dict/tuple work like the
monomial tables.  Its inputs are fixed.  Do not change it or REFERENCE_S:
that makes earlier figures incomparable.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

P = 101

# Reported times are in reference seconds: a step that took r kernel times
# is reported as r * REFERENCE_S.  The kernel takes 9-14 ms on a 2.1 GHz Xeon
# (2-core VM, Python 3.11, numpy 2.4) when the host is quiet.
REFERENCE_S = 0.010


def numpy_rank_mod_p(m):
    """Rank of an int64 matrix over GF(P), by row reduction in place."""
    m %= P
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(m[r:, c])[0]
        if not len(nz):
            continue
        k = r + nz[0]
        m[[r, k]] = m[[k, r]]
        m[r] = m[r] * pow(int(m[r, c]), P - 2, P) % P
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if len(others):
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % P
        r += 1
        if r == rows:
            break
    return r


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in rows]
    n, cols = len(m), len(m[0])
    r, prev = 0, 1
    for c in range(cols):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n):
            m[i] = [(m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev for j in range(cols)]
        prev = m[r][c]
        r += 1
    return r


def squarefree_products(words):
    """Number of distinct squarefree products of pairs of words."""
    table = {}
    for a in words:
        for b in words:
            w = a + b
            if len(set(w)) == len(w):
                table[w] = table.get(w, 0) + 1
    return len(table)


class Kernel:
    """Callable: runs the kernel once and returns its wall seconds."""

    def __init__(self):
        rng = random.Random(7)
        self.matrix = np.array([[rng.randrange(P) for _ in range(90)] for _ in range(60)],
                               dtype=np.int64)
        self.integers = [[rng.randrange(-9, 10) for _ in range(14)] for _ in range(12)]
        self.words = [tuple(rng.sample(range(9), 3)) for _ in range(120)]

    def __call__(self):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the jobs' heap is not the host's speed
        try:
            t0 = time.perf_counter()
            numpy_rank_mod_p(self.matrix.copy())
            bareiss_rank(self.integers)
            squarefree_products(self.words)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
