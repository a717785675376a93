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
    """An FFT coefficient extraction cannot be trusted: its samples are not
    finite (a pole on the sampling circle or torus), or its alias band still
    holds more than ALIAS_TOL of the spectral peak at the cap
    max(1024, 4 * start).  Circle and torus share that one sizing loop
    (coeffs._extract); the band is the fold band around Nyquist,
    N/2 +- N/8, on the circle and the top eighth of each axis on the torus.
    On the circle it is also issued where the band floor, carried down the
    band's own decay, still aliases more than FOLD_TOL of the peak."""
