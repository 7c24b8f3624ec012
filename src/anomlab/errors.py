"""Exception hierarchy.

Everything raised on bad mathematical input derives from DomainError so the
command line can map it to a single exit code; FormatError covers malformed
files and is mapped separately.
"""


class AnomlabError(Exception):
    """Base class for all package errors."""


class DomainError(AnomlabError):
    """Input is structurally fine but mathematically out of domain."""


class ShapeError(DomainError):
    """Matrix or table dimensions do not match."""


class InvalidOrderError(DomainError):
    """Regularization or norm order outside its allowed range."""


class SymmetryError(DomainError):
    """Matrix fails a required symmetry (Hermitian, anti-Hermitian, unitary)."""


class SingularDeterminantError(DomainError):
    """A determinant required to be nonzero vanished within tolerance."""


class SingularTransformError(DomainError):
    """A transform required to be invertible is singular."""


class ChartSingularityError(DomainError):
    """Top block of a frame is singular, so the chart does not apply."""


class DivergenceError(DomainError):
    """Series evaluation requested outside its convergence region."""


class FrameError(DomainError):
    """Frame matrix is rank deficient or otherwise not a frame."""


class GapError(DomainError):
    """Spectral background has an eigenvalue too close to zero."""


class CoverMembershipError(DomainError):
    """A spectral level sits on the spectrum, outside every admissible window."""


class SizeError(DomainError):
    """Requested mode count outside the supported range."""


class CapacityError(DomainError):
    """Requested object exceeds the tabulation capacity limits."""


class GroupoidAxiomError(DomainError):
    """A groupoid axiom fails on the given tables."""


class ActionAxiomError(DomainError):
    """A right-action table violates identity or compatibility."""


class CocycleError(DomainError):
    """A 2-cocycle condition fails."""


class DescentError(DomainError):
    """Local extension data fails the chart gluing condition."""


class ExtensionError(DomainError):
    """Central extension cannot be built from the given cocycle."""


class MissingValueError(DomainError):
    """A table lookup (cocycle, transition) has no entry."""


class UnsupportedCoefficientsError(DomainError):
    """Operation requires finite mu_N coefficients."""


class FloatOverflowError(DomainError):
    """A result overflows the float64 range."""


class EvaluationError(DomainError):
    """A user-supplied callable failed during evaluation."""


class InternalConsistencyError(AnomlabError):
    """Two internal computation routes disagree beyond tolerance."""


class FormatError(AnomlabError):
    """File content does not match the documented schema."""
