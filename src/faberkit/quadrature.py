"""Cauchy quadrature on images of circles.

Contours are images f({|w| = s}) of circles under a polynomial map,
sampled uniformly in the parameter angle; the trapezoid rule on such
samples is spectrally accurate for integrands analytic near the curve.
The Cauchy evaluator uses the sign convention

    cauchy_eval(C, h, z) = -(1/2 pi i) * integral over C of h(zeta)/(zeta - z) dzeta,

which reproduces h(z) for z outside the counterclockwise contour when h
is analytic outside and vanishes at infinity.  It works relative to the
map's center c and forms no complex reciprocal: real matrices of squared
distances |z - zeta|^2, built by cdist in numpy, test the points against
d_min (through their minima) and, inverted in place, give the trapezoid
sums as one real product with four rows of weights, combined as
conj(z - c) A - B.

Each point is summed over nested trapezoid rules, strided views of the
samples: the m-node rule, every (N/m)-th sample for m = 32, 64, ..., N,
adds its odd nodes [N/m::2N/m] to the rule before it.  Far from
the contour the rule converges geometrically in m, so most points stop
at the first rule whose differences to the rules before it show it has
converged, and no sample within d_min of the point is left out; a rate
of convergence is read from them only where h's own spectrum shows h
resolved.  The full N-sample rule is the cap; the node data that
depends on neither h nor z is kept per contour.  Points with |z - c| >=
2^54 max |zeta - c|, where z - zeta is z - c to rounding and |z - zeta|^2
may overflow, take the far-field value (sum of weights) / (z - c).
"""

import numpy as np
from dataclasses import dataclass
from functools import lru_cache

from .coeffs import unit_roots
from .domain import cdist, curve_samples, map_derivative
from .errors import TooCloseToContour

ALIAS_TOL = 1e-8
DEFAULT_DMIN = 0.05
DEFAULT_NQ = 1024
_MIN_NQ = 64


def _check_nq(n):
    if n < _MIN_NQ or (n & (n - 1)) != 0:
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
        if not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")

    def points(self):
        return curve_samples(self.map_spec, self.radius, self.n_samples)

    def dpoints(self):
        """d zeta / d theta along the counterclockwise parameterization."""
        w = self.radius * unit_roots(self.n_samples)
        return map_derivative(self.map_spec, w) * 1j * w


@lru_cache(maxsize=32)
def _node_geometry(contour):
    """The node data of the nested rules on a contour that depends on
    neither h nor z, built once per contour.

    Returns the centered samples v = zeta - c as a read-only (n, 2) real
    array, d zeta / d theta, max |v| and max |d zeta / d theta|, all over
    the samples in their own order.
    """
    v = contour.points() - contour.map_spec.center
    xy = v.view(float).reshape(-1, 2)
    dz = contour.dpoints()
    xy.flags.writeable = False
    dz.flags.writeable = False
    return xy, dz, float(np.max(np.abs(v))), float(np.max(np.abs(dz)))


def _nested_rules(xy, dz, dz_max, h_samples, d_min):
    """The weights of the nested rules for one call.

    Returns the weights w = h dzeta, the weight rows Re w, Im w,
    Re w conj(v), Im w conj(v) as an (n, 4) array, and per rule (m, nodes,
    bound, reach2, rated): the m-node rule adds the samples `nodes`, its
    odd ones, to the rule before it; the 32-node rule, the first, takes
    every (n/32)-th sample.  For m > 64, bound = ALIAS_TOL sum_used |w_k|
    and reach2 = (d_min + lambda_m)^2, lambda_m = pi max |dzeta/dtheta| / m,
    are its stop thresholds (unread at the cap m = n), and rated says
    whether the spectrum of w is resolved at m/4, so that test 2 may take
    a rate from I_{m/4} (see cauchy_eval); the 32- and 64-node rules have
    None, so neither stops a point.
    """
    n = dz.size
    w = h_samples * dz
    # band[k - 1]: the largest |k'|-th Fourier coefficient of the samples
    # w over k <= |k'| <= n/2, unnormalized
    mag = np.abs(np.fft.fft(w))
    band = np.maximum(mag[1 : n // 2 + 1], mag[: n // 2 - 1 : -1])
    band = np.maximum.accumulate(band[::-1])[::-1]
    rows = np.stack([w, w * xy.view(complex).ravel().conj()], axis=1).view(float)
    absw = np.abs(w)
    # w is resolved at k where n |w^(k')| <= ALIAS_TOL^2 sqrt(n) sum |w_k|
    # for all |k'| >= k
    resolved = ALIAS_TOL ** 2 * np.sqrt(n) * absw.sum()
    s = n // _MIN_NQ
    rules = [(_MIN_NQ // 2, slice(0, n, 2 * s), None, None, None),
             (_MIN_NQ, slice(s, n, 2 * s), None, None, None)]
    used = absw[0 :: s].sum()
    m = 2 * _MIN_NQ
    while m <= n:
        nodes = slice(n // m, n, 2 * n // m)
        used += absw[nodes].sum()
        rules.append((m, nodes, ALIAS_TOL * used, (d_min + np.pi * dz_max / m) ** 2,
                      band[m // 4 - 1] <= resolved))
        m *= 2
    return w, rows, rules


def _too_close(z_pts, u_pts, contour, d_min):
    """TooCloseToContour for the pair of point and sample that is nearest
    over all samples, found as the full rule's matrix finds it."""
    zeta = contour.points()
    v = zeta - contour.map_spec.center
    s = cdist(v.view(float).reshape(-1, 2), u_pts.view(float).reshape(-1, 2))
    k, j = divmod(int(np.argmin(s)), u_pts.size)
    z = complex(z_pts[j])
    return TooCloseToContour(
        "evaluation point %s is %.3g from the contour, below d_min %.3g"
        % (z, abs(z - zeta[k]), d_min)
    )


def cauchy_eval(contour, h_samples, z, d_min=DEFAULT_DMIN):
    """-(1/2 pi i) * integral of h(zeta)/(zeta - z) dzeta at points z.

    h_samples are values of h at contour.points().  With c the map's
    center, u = z - c and v_k = zeta_k - c, the trapezoid sum over the
    N = contour.n_samples weights w_k = h(zeta_k) dzeta_k is

        S_N = sum_k w_k / (u - v_k) = conj(u) A - B,
        A = sum_k w_k / s_k,  B = sum_k w_k conj(v_k) / s_k,

    with the real s_k = |u - v_k|^2, and the integral is S_N / (i N).
    Centering bounds the cancellation in conj(u) A - B by |u| / |u - v_k|,
    whatever the map's offset from 0.

    Nested rules.  I_m = S_m / (i m) sums over every (N/m)-th sample, for
    m = 32, 64, ..., N.  Per block of up to 4096 points the 32-node rule
    sums every point, and each later rule adds only its m/2 new nodes, the
    odd ones of its stride, and only for the points still open: one cdist
    pass, one in-place reciprocal and one real product per rule.  The node
    data that depends on neither h nor z (the centered samples,
    d zeta / d theta and its maximum) is built once per contour, the
    weights and their spectrum once per call.  With r the
    distance from the point to its nearest used node, a point stops at
    64 < m < N when

      1. |I_m - I_{m/2}| <= ALIAS_TOL (sum_used |w_k|) / (m r): the rule
         has converged on the scale of the sum's terms;
      2. |I_m - I_{m/2}| q^2, the error geometric convergence at the rate
         q = |I_m - I_{m/2}| / |I_{m/2} - I_{m/4}| predicts for I_m, is
         within ALIAS_TOL^2 of that scale.  q is measured so only where h is
         resolved at m/4: no Fourier coefficient of the samples w_k at
         |k| >= m/4 exceeds ALIAS_TOL^2 sqrt(N) of their mean modulus,
         about the full rule's own rounding.  Elsewhere q = 1, and the
         difference itself must be that small;
      3. r >= d_min + lambda_m, lambda_m = pi max |d zeta / d theta| / m:
         an unused sample lies on the arc between two used nodes, at most
         2 lambda_m long, so within lambda_m of one of them; none lies
         within d_min of the point and the full rule would not raise.

    The error of I_m is a sum of geometric parts: one from the point, of
    amplitude about |h(z)|, and those from the singularities of h.  Where
    a fast part fills I_{m/4} and a slower one of small amplitude has
    taken over by I_{m/2}, the differences fall fast although I_m is still
    off, and no rate taken from the differences alone can tell: a pole of
    h with small residue near the contour beside a point that converges
    fast, or a point near a zero of h beside fast parts of h.  Once h is
    resolved at m/4, one FFT per call for all points, only the point's own
    part is left in I_{m/4}, I_{m/2} and I_m, and its rate is the one q
    measures.

    The full rule is the cap: points still open at m = N take S_N, so a
    point that never converges early, such as one with noisy h, gets
    the full trapezoid sum.  Either way a point's error is small on the
    scale of its terms, (1/N) sum_k |w_k| / |z - zeta_k|, not of its
    value: where the value is 1e-4 of that scale, rounding alone can make
    it 1e-12 relative.

    A point within d_min of a sample raises TooCloseToContour, naming the
    point and its distance, as the minimum over all N samples decides it:
    such a point never stops early, and the block's nearest pair is the one
    named.  Far points, |u| >= 2^54 max |v|, take (sum_k w_k) / u instead:
    there u - v_k equals u to rounding, and |u|^2 may overflow; a z with an
    infinite part and no NaN part gives 0.  NaN points give NaN; d_min must
    be positive.
    """
    if not d_min > 0:
        raise ValueError("d_min must be positive")
    h_samples = np.asarray(h_samples, dtype=complex)
    n = contour.n_samples
    if h_samples.shape != (n,):
        raise ValueError("h_samples must match the contour sampling")
    xy, dz, vmax, dz_max = _node_geometry(contour)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.full_like(z_arr, np.nan)
    u = z_arr - contour.map_spec.center
    w, rows, rules = _nested_rules(xy, dz, dz_max, h_samples, d_min)
    # NaN points stay NaN and never reach the matrix
    live = ~np.isnan(u)
    far = live & (np.abs(u) >= 2.0 ** 54 * vmax)
    # the far-field value's limit at a z with an infinite part is 0
    out[far] = 0
    finite_far = far & np.isfinite(u)
    out[finite_far] = w.sum() / u[finite_far]
    near = np.flatnonzero(live & ~far)
    block = 4096
    for start in range(0, near.size, block):
        idx = near[start : start + block]
        ub = u[idx]
        r2 = np.full(idx.size, np.inf)
        total = np.zeros(idx.size, dtype=complex)
        for m, nodes, bound, reach2, rated in rules:
            s = cdist(ub.view(float).reshape(-1, 2), xy[nodes])
            np.minimum(r2, s.min(axis=1), out=r2)
            if not r2.min() >= d_min * d_min:
                raise _too_close(z_arr[idx], ub, contour, d_min)
            np.reciprocal(s, out=s)
            a, b = (s @ rows[nodes]).view(complex).T
            part = ub.conj() * a - b
            if m == n:
                out[idx] = total + part
                break
            # |S_m - 2 S_{m/2}| = m |I_m - I_{m/2}|
            gap = np.abs(part - total)
            total += part
            # a difference past 1e154, from an h of order 1e300, overflows
            # when squared; the tests take the inf as it is, quietly
            with np.errstate(over="ignore"):
                gap2 = gap * gap
                if bound is None:
                    last2 = gap2
                    continue
                gap_r = gap * np.sqrt(r2)
                # test 2: the rule before had m/2 nodes, hence the 4
                ref2 = 4.0 * last2 if rated else gap2
                done = ((gap_r <= bound) & (r2 >= reach2)
                        & (gap_r * gap2 <= ALIAS_TOL * bound * ref2))
            last2 = gap2
            if done.any():
                out[idx[done]] = total[done] * (n // m)
                keep = ~done
                idx, ub, r2, total, last2 = idx[keep], ub[keep], r2[keep], total[keep], last2[keep]
                if not idx.size:
                    break
    out /= 1j * n
    if np.ndim(z) == 0:
        return complex(out[0])
    return out
