"""Exception types shared across the package."""


class KoszulConeError(Exception):
    """Base class for all package-specific errors.

    witness, when not None, locates the failure (the CLI prints it).
    """

    def __init__(self, message="", witness=None):
        super().__init__(message)
        self.witness = witness


class AmbientTooLarge(KoszulConeError):
    """A dual component step would hold more stored dict-row entries (n times
    those of the component below) than its bound; n^l itself is not bounded."""


class TooManyMonomials(KoszulConeError):
    """A degree of the algebra has more monomials than algebra.MONOMIAL_LIMIT,
    so it is not enumerated."""


class DegreeOverflow(KoszulConeError):
    """A graded computation asked for a degree beyond the built cutoff."""


class NotInIdeal(KoszulConeError):
    """decompose() was called on an element outside the ideal."""


class NotMultigraded(KoszulConeError):
    """A multigraded-only check was invoked on a ring with non-monomial relations."""


class CalibrationFailure(KoszulConeError):
    """The first-slot trace differential of the Priddy complex fails d.d = 0;
    signals an upstream bug."""


class ClosureFailure(KoszulConeError):
    """A contraction left a dual or quotient-dual component; signals an
    action-convention or subspace bug.  witness is (degree l, variable j,
    basis index) of the basis vector whose image fell outside."""


class LiftingFailure(KoszulConeError):
    """A mapping-cone comparison map has no solution at some degree."""


class ElementMismatch(KoszulConeError):
    """An algebra element's coordinate count or degree does not fit the
    operation applied to it."""


class ConeNotComplex(KoszulConeError):
    """An iterated mapping cone composed to a nonzero d.d; witness is the
    (homological degree, row, column) of a nonzero entry."""


class NonMinimalCone(KoszulConeError):
    """A constant entry appeared in a cone differential (generator degrees
    must be nondecreasing)."""


class RegularOrderingViolation(KoszulConeError):
    """A closed-form differential term fell outside its quotient-dual basis
    with a nonzero residual."""


class DecompositionFailure(KoszulConeError):
    """The greedy decomposition of an ideal element broke its support
    guarantee; witness is (generator index j, degree) of the failed step."""


class DimensionMismatch(KoszulConeError):
    """A computed space has a dimension other than the one its construction
    guarantees; witness is (computed, expected)."""


class NotRegular(KoszulConeError):
    """closed_form_resolution invoked although the regular-ordering check fails."""


class ParseError(KoszulConeError):
    """Input-file syntax error, with position information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class InputError(KoszulConeError):
    """Semantically invalid input (bad field, non-basis ideal generator, ...)."""
