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
    betti_from_complex,
    betti_table,
    closed_form_resolution,
    comparison_maps,
    complex_from_json,
    complex_to_json,
    homology_window,
    ideal_resolution,
    iterated_mapping_cone,
    koszulness_certificate,
    linear_strand,
    priddy_complex,
    sub_priddy_complex,
    verify_chain_map,
    verify_complex,
)
from .dual import QuadraticDual, QuotientDual, left_ideal_contains
from .ideals import (
    ColonData,
    DecompositionTable,
    MonomialIdeal,
    annihilator_vars,
    check_strongly_koszul,
)
from .linalg import (
    GF,
    QQ,
    Subspace,
    echelonize,
    kernel,
    rank,
)

__version__ = "0.1.0"
