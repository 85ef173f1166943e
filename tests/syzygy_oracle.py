"""Brute-force graded Betti numbers by degreewise kernel computations.

Independent oracle for the resolution machinery: no dual components, no
mapping cones, no closed forms.  Starting from the quotient by the given
generators, each syzygy step computes the degreewise kernel of the current
presentation matrix and counts (and extracts) minimal generators as the
cokernel of multiplication by the degree-one part.  The only shared code is
the graded algebra itself (normal forms and products), which is checked
against closed-form Hilbert functions elsewhere.
"""

from koszulcone.linalg import Subspace, kernel as linear_kernel

from rowform import dense, sparse


class _FreeModule:
    """A graded free module given by generator degrees, with degreewise bases."""

    def __init__(self, algebra, gen_degrees):
        self.algebra = algebra
        self.gen_degrees = list(gen_degrees)

    def offsets(self, d):
        out, acc = [], 0
        for g in self.gen_degrees:
            out.append(acc)
            acc += self.algebra.dim(d - g)
        return out, acc

    def scale_block(self, mono_exp, vec, d):
        """Multiply a degree-d block vector by a monomial class."""
        A = self.algebra
        mu = A.monomial_element(mono_exp)
        offs, _ = self.offsets(d)
        offs_out, total_out = self.offsets(d + mu.degree)
        out = [A.field.zero] * total_out
        for b, g in enumerate(self.gen_degrees):
            dim_in = A.dim(d - g)
            if dim_in == 0:
                continue
            coords = vec[offs[b] : offs[b] + dim_in]
            if not any(coords):
                continue
            prod = A.multiply(mu, A.element(d - g, coords))
            for i, x in prod.terms:
                out[offs_out[b] + i] = x
        return out


def _module_span(G, images, d):
    """Degree-d span of the submodule of G generated by the given images."""
    A = G.algebra
    rows = []
    _, total = G.offsets(d)
    if d >= 0:
        for gdeg, img in images:
            e = d - gdeg
            if e < 0:
                continue
            for mu in A.basis(e):
                rows.append(G.scale_block(mu, img, gdeg))
    return Subspace.from_rows(A.field, sparse(rows), max(total, 0))


def _variable_grow(G, space, d):
    """Degree-(d+1) span of A_1 times a degree-d subspace of G."""
    A = G.algebra
    rows = []
    _, total = G.offsets(d + 1)
    for v in dense(space.rows, space.ambient, A.field.zero):
        for j in range(A.n):
            exp = [0] * A.n
            exp[j] = 1
            rows.append(G.scale_block(tuple(exp), v, d))
    return Subspace.from_rows(A.field, sparse(rows), total)


def brute_force_betti(algebra, generators, lmax, dmax):
    """Graded Betti numbers beta_{l,d}(A/J) for l <= lmax, d <= dmax.

    Returns {(l, d): count}.  Step l counts minimal generators of the l-th
    syzygy module, computed as dim M_d - dim (A_1 . M_{d-1}); fresh syzygy
    generators are extracted canonically by echelon extension.
    """
    A = algebra
    fld = A.field
    betti = {(0, 0): 1}
    G = _FreeModule(A, [0])
    images = []
    for g in generators:
        el = A.monomial_element(tuple(g))
        images.append((el.degree, A.coords(el)))

    for l in range(1, lmax + 1):
        for d in range(0, dmax + 1):
            span_d = _module_span(G, images, d)
            grown = _variable_grow(G, _module_span(G, images, d - 1), d - 1)
            new = span_d.dim - grown.dim
            if new:
                betti[(l, d)] = new
        if l == lmax:
            break
        F = _FreeModule(A, [gd for gd, _ in images])
        kernel_spaces = {}
        for d in range(0, dmax + 1):
            cols = []
            for gdeg, img in images:
                e = d - gdeg
                if e < 0:
                    continue
                for mu in A.basis(e):
                    cols.append(G.scale_block(mu, img, gdeg))
            _, tgt_total = G.offsets(d)
            rows = [[col[r] for col in cols] for r in range(tgt_total)]
            kernel_spaces[d] = linear_kernel(fld, sparse(rows), len(cols))
        next_images = []
        for d in range(0, dmax + 1):
            ker = kernel_spaces[d]
            if ker.dim == 0:
                continue
            below = kernel_spaces.get(d - 1)
            grown_rows = []
            if below is not None and below.dim:
                for v in dense(below.rows, below.ambient, fld.zero):
                    for j in range(A.n):
                        exp = [0] * A.n
                        exp[j] = 1
                        grown_rows.append(F.scale_block(tuple(exp), v, d - 1))
            _, total = F.offsets(d)
            grown = Subspace.from_rows(fld, sparse(grown_rows), total)
            pivot_rows = dict(zip(grown.pivots, dense(grown.rows, total, fld.zero)))
            for v in dense(ker.rows, ker.ambient, fld.zero):
                red = _reduce(fld, v, pivot_rows)
                if any(red):
                    lead = next(i for i, x in enumerate(red) if x)
                    inv = fld.inv(red[lead])
                    red = [fld.mul(inv, x) for x in red]
                    pivot_rows[lead] = red
                    next_images.append((d, red))
        G = F
        images = next_images
    return betti


def _reduce(fld, v, pivot_rows):
    for c in sorted(pivot_rows):
        f = v[c]
        if f:
            row = pivot_rows[c]
            v = [fld.sub(a, fld.mul(f, b)) for a, b in zip(v, row)]
    return v
