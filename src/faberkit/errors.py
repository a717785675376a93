"""Exception and warning types shared across the package."""


class FaberkitError(Exception):
    """Base class for all library errors."""


class TooCloseToContour(FaberkitError):
    """An evaluation point is within d_min of a quadrature contour."""


class MethodDisagreement(FaberkitError):
    """Two independent computations of the same quantity differ beyond tolerance."""


class PoleOutsideRegions(FaberkitError):
    """A pole of a rational function lies in none of the interior regions."""


class AliasWarning(UserWarning):
    """An FFT coefficient extraction cannot be trusted: the tail of its
    spectrum is above the aliasing threshold, or its samples are not finite
    (a pole on the sampling circle or torus)."""
