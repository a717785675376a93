"""Exception types shared across the package."""


class FaberkitError(Exception):
    """Base class for all library errors."""


class TooCloseToContour(FaberkitError):
    """An evaluation point is within d_min of a quadrature contour."""


class MethodDisagreement(FaberkitError):
    """Two independent computations of the same quantity differ beyond tolerance."""


class PoleOutsideRegions(FaberkitError):
    """A pole of a rational function lies in none of the interior regions."""


class AliasError(FaberkitError):
    """A coefficient extraction on the unit circle (coeffs.sample_to_coeffs)
    cannot be trusted: its samples are not finite (a pole on the circle), or
    its folded-alias estimate still exceeds FOLD_TOL of the spectral peak
    where the samples reach SAMPLE_BUDGET values."""
