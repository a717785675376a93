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
    """A coefficient extraction on the unit circle (coeffs.sample_to_coeffs)
    cannot be trusted: its samples are not finite (a pole on the circle), or
    at the cap max(1024, 4 * start) its fold band around Nyquist,
    N/2 +- N/8, still holds more than ALIAS_TOL of the spectral peak, or
    the band floor, carried down the band's own decay, still aliases more
    than FOLD_TOL of the peak into the kept coefficients."""
