"""Contour and area quadrature.

Contours are either explicit circles or images f({|w| = s}) of circles
under a polynomial map, sampled uniformly in the parameter angle; the
trapezoid rule on such samples is spectrally accurate for integrands
analytic near the curve.  The Cauchy evaluator uses the sign convention

    cauchy_eval(C, h, z) = -(1/2 pi i) * integral over C of h(zeta)/(zeta - z) dzeta,

which reproduces h(z) for z outside a counterclockwise contour when h is
analytic outside and vanishes at infinity.
"""

import numpy as np
from dataclasses import dataclass
from scipy.special import roots_legendre

from .domain import evaluate_map, map_derivative
from .errors import TooCloseToContour

DEFAULT_DMIN = 0.05
DEFAULT_NQ = 1024


def _check_nq(n):
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError("n_samples must be a power of two >= 64")


@dataclass(frozen=True)
class Contour:
    """Closed curve with uniform parameter samples.

    Either `map_spec` is set and the curve is f({|w| = radius}), or it is
    None and the curve is the circle |z - center| = radius.  orientation
    +1 means counterclockwise in the parameter.
    """

    radius: float
    center: complex = 0j
    map_spec: object = None
    orientation: int = 1
    n_samples: int = DEFAULT_NQ

    def __post_init__(self):
        _check_nq(self.n_samples)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")

    @classmethod
    def circle(cls, center, radius, orientation=1, n_samples=DEFAULT_NQ):
        return cls(radius=radius, center=complex(center), map_spec=None,
                   orientation=orientation, n_samples=n_samples)

    @classmethod
    def image(cls, map_spec, radius, n_samples=DEFAULT_NQ):
        return cls(radius=radius, center=map_spec.center, map_spec=map_spec,
                   n_samples=n_samples)

    def parameter_points(self, n=None):
        n = n or self.n_samples
        theta = 2.0 * np.pi * np.arange(n) / n
        return self.radius * np.exp(1j * theta)

    def points(self, n=None):
        w = self.parameter_points(n)
        if self.map_spec is None:
            return self.center + w
        return evaluate_map(self.map_spec, w)

    def dpoints(self, n=None):
        """d zeta / d theta along the counterclockwise parameterization."""
        w = self.parameter_points(n)
        if self.map_spec is None:
            return 1j * w
        return map_derivative(self.map_spec, w) * 1j * w


def contour_integral(fn, contour, n=None):
    """Trapezoid integral of fn over the contour, oriented."""
    n = n or contour.n_samples
    vals = fn(contour.points(n))
    dz = contour.dpoints(n)
    return complex(contour.orientation * (2.0 * np.pi / n) * np.sum(vals * dz))


def contour_integral_refined(fn, contour):
    """Integral plus a doubling-based error estimate."""
    coarse = contour_integral(fn, contour)
    fine = contour_integral(fn, contour, n=2 * contour.n_samples)
    return fine, abs(fine - coarse)


def cauchy_eval(contour, h_samples, z, d_min=DEFAULT_DMIN):
    """-(1/2 pi i) * integral of h(zeta)/(zeta - z) dzeta at points z.

    h_samples are values of h at contour.points().  Raises
    TooCloseToContour when any z is within d_min of a sample point.
    """
    h_samples = np.asarray(h_samples, dtype=complex)
    zeta = contour.points()
    if h_samples.shape != zeta.shape:
        raise ValueError("h_samples must match the contour sampling")
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    dz = contour.dpoints()
    out = np.empty_like(z_arr)
    block = 4096
    weights = h_samples * dz
    for start in range(0, z_arr.size, block):
        zb = z_arr[start : start + block]
        diff = zeta[:, None] - zb[None, :]
        dist = np.min(np.abs(diff), axis=0)
        if np.any(dist < d_min):
            raise TooCloseToContour(
                "evaluation point within %.3g of the contour" % d_min
            )
        out[start : start + block] = np.sum(weights[:, None] / diff, axis=0)
    out *= -contour.orientation / (1j * zeta.size)
    if np.ndim(z) == 0:
        return complex(out[0])
    return out


def area_quadrature_disk(fn, n_r=64, n_theta=256):
    """Integral of fn over the unit disk against Lebesgue area measure.

    Gauss-Legendre in radius crossed with the trapezoid rule in angle;
    spectrally accurate for integrands of the form analytic * conj(analytic).
    """
    x, w = roots_legendre(n_r)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    pts = r[:, None] * np.exp(1j * theta)[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    ang = np.sum(vals, axis=1) * (2.0 * np.pi / n_theta)
    return complex(np.sum(wr * r * ang))

