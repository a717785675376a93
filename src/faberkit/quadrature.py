"""Cauchy quadrature on images of circles.

Contours are images f({|w| = s}) of circles under a polynomial map,
sampled uniformly in the parameter angle; the trapezoid rule on such
samples is spectrally accurate for integrands analytic near the curve.
The Cauchy evaluator uses the sign convention

    cauchy_eval(C, h, z) = -(1/2 pi i) * integral over C of h(zeta)/(zeta - z) dzeta,

which reproduces h(z) for z outside the counterclockwise contour when h
is analytic outside and vanishes at infinity.  It works relative to the
map's center c and forms no complex reciprocal: per block of points one
real matrix of squared distances |z - zeta|^2 both tests the points
against d_min (through its minimum) and, inverted in place, gives the
trapezoid sums as one real product with four rows of weights, combined
as conj(z - c) A - B.  Points with |z - c| >= 2^54 max |zeta - c|, where
z - zeta is z - c to rounding and |z - zeta|^2 may overflow, take the
far-field value (sum of weights) / (z - c).
"""

import numpy as np
from dataclasses import dataclass
from scipy.spatial.distance import cdist

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

    h_samples are values of h at contour.points().  With c the map's
    center, u = z - c and v_k = zeta_k - c, the trapezoid sum over the
    weights w_k = h(zeta_k) dzeta_k is

        sum_k w_k / (u - v_k) = conj(u) A - B,
        A = sum_k w_k / s_k,  B = sum_k w_k conj(v_k) / s_k,

    with the real matrix s_k = |u - v_k|^2.  For each block of points s is
    one cdist pass; a point within d_min of a sample makes min s < d_min^2
    (a point on a sample makes it 0) and raises TooCloseToContour, naming
    the point and its distance.  Otherwise s is inverted in place and A
    and B come from one real product of the four rows Re w, Im w,
    Re w conj(v), Im w conj(v) with it.  Centering bounds the cancellation
    in conj(u) A - B by |u| / |u - v_k|, whatever the map's offset from 0.
    Far points, |u| >= 2^54 max |v|, take (sum_k w_k) / u instead: there
    u - v_k equals u to rounding, and |u|^2 may overflow; a z with one
    infinite part gives 0.  NaN points give NaN; d_min must be positive.
    """
    if not d_min > 0:
        raise ValueError("d_min must be positive")
    h_samples = np.asarray(h_samples, dtype=complex)
    zeta = contour.points()
    if h_samples.shape != zeta.shape:
        raise ValueError("h_samples must match the contour sampling")
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.full_like(z_arr, np.nan)
    center = contour.map_spec.center
    u = z_arr - center
    v = zeta - center
    weights = h_samples * contour.dpoints()
    # NaN points stay NaN and never reach the matrix
    live = ~np.isnan(u)
    far = live & (np.abs(u) >= 2.0 ** 54 * np.max(np.abs(v)))
    out[far] = weights.sum() / u[far]
    near = np.flatnonzero(live & ~far)
    wv = weights * v.conj()
    rows = np.stack([weights.real, weights.imag, wv.real, wv.imag])
    v_xy = np.column_stack([v.real, v.imag])
    block = 4096
    for start in range(0, near.size, block):
        idx = near[start : start + block]
        ub = u[idx]
        s = cdist(v_xy, np.column_stack([ub.real, ub.imag]), "sqeuclidean")
        if not np.min(s) >= d_min * d_min:
            k, j = divmod(int(np.argmin(s)), idx.size)
            raise TooCloseToContour(
                "evaluation point %s is %.3g from the contour, below d_min %.3g"
                % (complex(z_arr[idx[j]]), abs(z_arr[idx[j]] - zeta[k]), d_min)
            )
        np.reciprocal(s, out=s)
        a_re, a_im, b_re, b_im = rows @ s
        out[idx] = ub.conj() * (a_re + 1j * a_im) - (b_re + 1j * b_im)
    out /= 1j * zeta.size
    if np.ndim(z) == 0:
        return complex(out[0])
    return out
