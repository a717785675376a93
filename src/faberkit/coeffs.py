"""Truncated coefficient sequences on the unit circle, held as arrays.

The direct sum over the n boundaries of D(disk), truncated at T, is an
array a[k, m-1] of shape (n, T); one boundary is a 1-d array a[m-1].  The
negative half of a function on |w| = 1, a[m-1] = a_{-m}, represents an
element of the homogeneous Dirichlet space of the exterior disk (vanishing
at infinity), the positive half, a[n-1] = a_n, one of the interior disk
(vanishing at 0).  Seminorms use ||z^{-m}||^2 = pi*m and ||z^n||^2 = pi*n,
so the orthonormal coordinates of a are sqrt(pi m) a[..., m-1] and the
boundary trace norm squared is pi * sum |n| |a_n|^2.

Every coefficient extraction in the package, on the circle
(sample_to_coeffs) and on the torus (pseries.torus_coeffs), runs one
sizing loop, _extract: N starts at the caller's size and doubles while the
caller's alias band holds more than ALIAS_TOL of the spectral peak, up to
the cap max(1024, 4 * start), past which an AliasWarning is issued.  The
circle's band is the fold band around Nyquist, N/2 +- N/8; the torus's
is the top eighth of each axis.  The circle also carries its band floor
down the band's own decay to the nearest alias of a kept coefficient and
doubles while that estimate exceeds FOLD_TOL of the peak: a small,
slowly decaying component can pass the band test and still alias above
1e-12 of the peak into the coefficients kept.
"""

import warnings

import numpy as np

from .errors import AliasWarning

ALIAS_TOL = 1e-8
FOLD_TOL = 1e-13


def dirichlet_norm(a):
    """Seminorm sqrt(pi * sum m |a[..., m-1]|^2), weighted by m along the last axis."""
    a = np.asarray(a)
    m = np.arange(1, a.shape[-1] + 1)
    return float(np.sqrt(np.pi * np.sum(m * np.abs(a) ** 2)))


def _start_points(trunc):
    """Least power of two >= max(128, 4 trunc + 9): the extractor's first N."""
    return 1 << max(7, (4 * trunc + 8).bit_length())


def _fold_estimate(mag, n):
    """The circle's alias at its kept coefficients, extrapolated from the fold band.

    The band N/2 +- N/8 holds |frequency| 3N/8 to N/2; its floor sits at
    3N/8 and its outer half, within N/16 of Nyquist, is smaller by the decay
    over N/16 frequencies.  Coefficients m < N/4 are aliased from |m - N| >
    3N/4, six such steps past 3N/8, so the estimate is floor * ratio^6.
    """
    e = n // 8
    floor = float(np.max(mag[n // 2 - e : n // 2 + e + 1]))
    if floor == 0.0:
        return 0.0
    outer = float(np.max(mag[n // 2 - e // 2 : n // 2 + e // 2 + 1]))
    return floor * (outer / floor) ** 6


def _extract(fn, start, axes, band, fold=None):
    """Normalized FFT of fn's samples at the N-th roots of unity, N sized by its alias floor.

    fn(w) returns samples over `axes` leading axes (1: the circle, 2: the
    torus) at the nodes w_t = exp(2 pi i t / N).  On the circle fn must act
    on each node on its own: the nodes of N are the even nodes of 2N, so a
    doubling evaluates fn at the N odd nodes only and interleaves the
    samples it kept.  The torus kernels are not pointwise in one node
    vector and are evaluated at every node.  band(n) lists the index
    expressions of the spectrum that hold the alias floor at N = n.  N starts
    at `start` and doubles while the floor exceeds ALIAS_TOL of the spectral
    peak, or while fold(mag, n), where given, exceeds FOLD_TOL of it; past
    max(1024, 4 start) an AliasWarning is issued instead.
    Samples that are not all finite stay so at any N: they are warned about
    at once and not resampled.  Returns the spectrum; N is its first extent.
    """
    n = start
    kept = None
    while True:
        w = np.exp(2j * np.pi * np.arange(n) / n)
        if kept is None:
            samples = fn(w)
        else:
            odd = fn(w[1::2])
            samples = np.stack([kept, odd], axis=1).reshape((n,) + odd.shape[1:])
        spec = np.fft.fft(samples, axis=0) if axes == 1 else np.fft.fft2(samples)
        spec /= n ** axes
        mag = np.abs(spec)
        peak = float(np.max(mag))
        if not np.isfinite(peak):
            warnings.warn("samples are not finite at N = %d" % n, AliasWarning)
            return spec
        floor = max(float(np.max(mag[idx])) for idx in band(n))
        folded = 0.0 if fold is None else fold(mag, n)
        if floor <= ALIAS_TOL * peak and folded <= FOLD_TOL * peak:
            return spec
        if n >= max(1024, 4 * start):
            if floor > ALIAS_TOL * peak:
                msg = "aliasing floor %.3g exceeds %.3g of spectral peak" % (floor, ALIAS_TOL * peak)
            else:
                msg = "folded alias estimate %.3g exceeds %.3g of spectral peak" % (
                    folded, FOLD_TOL * peak)
            warnings.warn(msg, AliasWarning)
            return spec
        kept = samples if axes == 1 else None
        n *= 2


def sample_to_coeffs(fn, trunc):
    """Fourier coefficients 1..trunc of both signs from samples on |w| = 1.

    fn(w) returns samples along axis 0 at the N nodes w_t = exp(2 pi i t / N).
    Returns (neg, pos) with neg[m-1] = a_{-m}, pos[n-1] = a_n along axis 0.
    N starts at _start_points(trunc); the alias floor is the fold band
    around the Nyquist bin, N/8 to either side, and N also doubles while
    _fold_estimate exceeds FOLD_TOL of the peak (see _extract for the
    doubling, the cap and the warnings).
    """
    spec = _extract(fn, _start_points(trunc), 1,
                    lambda n: [slice(n // 2 - n // 8, n // 2 + n // 8 + 1)], _fold_estimate)
    ns = np.arange(1, trunc + 1)
    return spec[spec.shape[0] - ns], spec[ns]
