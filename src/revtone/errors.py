"""Exception types shared across the toolkit."""
from __future__ import annotations


class RevtoneError(Exception):
    """Base class for all toolkit errors."""


class PlateauWarning(UserWarning):
    """A Chebyshev fit reached no coefficient plateau, so it is used whole."""


class InvalidParameterError(RevtoneError, ValueError):
    """A constructor or operation received an out-of-range parameter."""


class RejectedProfileError(RevtoneError):
    """A candidate meridian profile violated a structural invariant.

    The message names the first invariant that failed; `report` is the
    ValidationReport of every check run, which ends after the four checks
    that need no r0 when r0 could not be located.
    """

    def __init__(self, message: str, report):
        self.report = report
        super().__init__(message)


class DegenerateTorusError(RevtoneError):
    """The requested (c, E) lies on or past the equatorial circle, where
    the radial oscillation degenerates to a point."""


class OutsideMomentImageError(RevtoneError):
    """The requested action pair lies outside the closed moment wedge."""


class OutsideOpenIntervalError(RevtoneError):
    """A density or frequency was requested at |c| >= 1 where only the
    open interval (-1, 1) is admissible."""


class LabelingError(RevtoneError):
    """A computed radial mode's interior node count disagrees with its
    eigenvalue index, so the (ell, m) label cannot be trusted."""


class ConvergenceError(RevtoneError):
    """An iteration ran out of steps before reaching its tolerance, or a fit sampled a
    non-finite value."""


class ResolutionError(RevtoneError):
    """The radial grid is too coarse to resolve the requested modes."""


class SignedMeasureError(RevtoneError):
    """A limit measure was requested for a symbol whose total average
    vanishes, so no normalized density exists."""


class DegenerateMeasureError(RevtoneError):
    """All atom weights vanished, leaving nothing to normalize."""


class ExprError(RevtoneError):
    """A symbol expression failed to parse; the message carries the
    offending position."""


class ConfigError(RevtoneError):
    """A run configuration file failed to parse or validate.

    Carries the 1-based line and column when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)
