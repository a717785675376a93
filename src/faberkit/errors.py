"""Exception and warning types shared across the package."""


class FaberkitError(Exception):
    """Base class for all library errors."""


class NonConvergence(FaberkitError):
    """An iterative solve failed to reach its tolerance within budget."""


class OutsideRange(FaberkitError):
    """A map inverse landed outside the validated disk |w| <= 1 + ext_margin."""


class TooCloseToContour(FaberkitError):
    """An evaluation point is within d_min of a quadrature contour."""


class MethodDisagreement(FaberkitError):
    """Two independent computations of the same quantity differ beyond tolerance."""


class PoleOutsideRegions(FaberkitError):
    """A pole of a rational function lies in none of the interior regions."""


class AliasWarning(UserWarning):
    """Tail of an FFT coefficient extraction is above the aliasing threshold."""
