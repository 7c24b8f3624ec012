"""Exception hierarchy.

Everything raised on bad mathematical input derives from DomainError so the
command line can map it to a single exit code; FormatError covers malformed
files and is mapped separately.

integer() and real() are the one gate per scalar argument (an order, a
mode count, a modulus, a degree, a step, a level): each raises the caller's
DomainError class on a wrong type, a bool, a nan or a value out of range.
"""

import math

import numpy as np


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


class InternalConsistencyError(AnomlabError):
    """Two internal computation routes disagree beyond tolerance."""


class FormatError(AnomlabError):
    """File content does not match the documented schema."""


def _bounded(value, what, error, lo, hi):
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = f"lie in [{lo}, {hi}]" if None not in (lo, hi) else f"be >= {lo}" if hi is None else f"be <= {hi}"
        raise error(f"{what} must {span}, got {value!r}")
    return value


def integer(value, what: str, error=DomainError, lo=None, hi=None) -> int:
    """value as a Python int, exact past int64, when it is an int or a numpy
    integer within [lo, hi]; bool, np.bool_, floats and every other type raise
    error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return _bounded(int(value), what, error, lo, hi)


def real(value, what: str, error=DomainError, lo=None, hi=None) -> float:
    """value as a float when it is an int, a float or a numpy scalar of either
    kind within [lo, hi]; an int past the float range reads as +-inf, and
    bool, nan and every other type raise error."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if math.isnan(x):
        raise error(f"{what} must be a number, got nan")
    return _bounded(x, what, error, lo, hi)
