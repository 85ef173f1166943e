"""Exact computations around quadratic duality for commutative Koszul algebras.

The package computes quadratic duals degreewise inside tensor powers, Priddy
and sub-Priddy complexes with bounded acyclicity certificates, and minimal
free resolutions of monomial ideals with linear quotients, both as generic
iterated mapping cones and through the closed-form differential available
under a regular ordering.  All arithmetic is exact (prime fields or
rationals); every complex is verified (d.d = 0, minimality, bounded
exactness).
"""

from .algebra import AlgebraElement, GradedAlgebra, RingPresentation, monomials_of_degree
from .complexes import (
    BettiTable,
    ChainComplex,
    Generator,
    VerifyReport,
    betti_table,
    closed_form_resolution,
    complex_from_json,
    complex_to_json,
    iterated_mapping_cone,
    koszulness_certificate,
    priddy_complex,
    sub_priddy_complex,
    verify_complex,
)
from .dual import QuadraticDual, QuotientDual, left_ideal_contains
from .ideals import (
    DecompositionTable,
    MonomialIdeal,
    check_strongly_koszul,
)
from .linalg import (
    GF,
    QQ,
    Subspace,
    kernel,
    rank,
)

__version__ = "0.1.0"
