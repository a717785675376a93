"""Cauchy quadrature on images of circles.

Contours are images f({|w| = s}) of circles under a polynomial map,
sampled uniformly in the parameter angle; the trapezoid rule on such
samples is spectrally accurate for integrands analytic near the curve.
The Cauchy evaluator uses the sign convention

    cauchy_eval(C, h, z) = -(1/2 pi i) * integral over C of h(zeta)/(zeta - z) dzeta,

which reproduces h(z) for z outside the counterclockwise contour when h
is analytic outside and vanishes at infinity.  It builds the matrix of
reciprocals 1/(z - zeta) once per block of points: its largest modulus
exceeds 1/d_min exactly when some point lies within d_min of a sample,
and one matrix-vector product with the weights h(zeta) dzeta gives the sums.
"""

import numpy as np
from dataclasses import dataclass

from .domain import evaluate_map, map_derivative
from .errors import TooCloseToContour

DEFAULT_DMIN = 0.05
DEFAULT_NQ = 1024


def _check_nq(n):
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError("n_samples must be a power of two >= 64")


@dataclass(frozen=True)
class Contour:
    """The curve f({|w| = radius}) with n_samples uniform parameter samples,
    counterclockwise in the parameter."""

    map_spec: object
    radius: float
    n_samples: int = DEFAULT_NQ

    def __post_init__(self):
        _check_nq(self.n_samples)
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @classmethod
    def image(cls, map_spec, radius, n_samples=DEFAULT_NQ):
        return cls(map_spec=map_spec, radius=radius, n_samples=n_samples)

    def parameter_points(self):
        theta = 2.0 * np.pi * np.arange(self.n_samples) / self.n_samples
        return self.radius * np.exp(1j * theta)

    def points(self):
        return evaluate_map(self.map_spec, self.parameter_points())

    def dpoints(self):
        """d zeta / d theta along the counterclockwise parameterization."""
        w = self.parameter_points()
        return map_derivative(self.map_spec, w) * 1j * w


def cauchy_eval(contour, h_samples, z, d_min=DEFAULT_DMIN):
    """-(1/2 pi i) * integral of h(zeta)/(zeta - z) dzeta at points z.

    h_samples are values of h at contour.points().  For each block of
    points the matrix inv[k, j] = 1/(z_j - zeta_k) is formed in place.  A
    point within d_min of a sample makes max |inv| > 1/d_min (a point on
    a sample makes its entry NaN, which fails the test as well) and
    raises TooCloseToContour, naming the point and its distance.
    Otherwise the trapezoid sum is the product of the weights
    h(zeta) dzeta with inv.  NaN points give NaN.
    """
    h_samples = np.asarray(h_samples, dtype=complex)
    zeta = contour.points()
    if h_samples.shape != zeta.shape:
        raise ValueError("h_samples must match the contour sampling")
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.full_like(z_arr, np.nan)
    # NaN points stay NaN and leave the matrix, so a NaN in it is a sample hit
    live = np.flatnonzero(~np.isnan(z_arr))
    block = 4096
    weights = h_samples * contour.dpoints()
    for start in range(0, live.size, block):
        idx = live[start : start + block]
        zb = z_arr[idx]
        inv = zb[None, :] - zeta[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.reciprocal(inv, out=inv)
        modulus = np.abs(inv)
        if not np.max(modulus) <= 1.0 / d_min:
            k, j = divmod(int(np.argmax(modulus)), zb.size)
            raise TooCloseToContour(
                "evaluation point %s is %.3g from the contour, below d_min %.3g"
                % (complex(zb[j]), abs(zb[j] - zeta[k]), d_min)
            )
        out[idx] = weights @ inv
    out /= 1j * zeta.size
    if np.ndim(z) == 0:
        return complex(out[0])
    return out
