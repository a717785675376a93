"""Truncated coefficient sequences on the unit circle, held as arrays.

The direct sum over the n boundaries of D(disk), truncated at T, is an
array a[k, m-1] of shape (n, T); one boundary is a 1-d array a[m-1].  The
negative half of a function on |w| = 1, a[m-1] = a_{-m}, represents an
element of the homogeneous Dirichlet space of the exterior disk (vanishing
at infinity), the positive half, a[n-1] = a_n, one of the interior disk
(vanishing at 0).  Seminorms use ||z^{-m}||^2 = pi*m and ||z^n||^2 = pi*n,
so the orthonormal coordinates of a are sqrt(pi m) a[..., m-1] and the
boundary trace norm squared is pi * sum |n| |a_n|^2.
"""

import warnings

import numpy as np

from .errors import AliasWarning

ALIAS_TOL = 1e-8


def dirichlet_norm(a):
    """Seminorm sqrt(pi * sum m |a[..., m-1]|^2), weighted by m along the last axis."""
    a = np.asarray(a)
    m = np.arange(1, a.shape[-1] + 1)
    return float(np.sqrt(np.pi * np.sum(m * np.abs(a) ** 2)))


def _start_points(trunc):
    """Least power of two >= max(128, 4 trunc + 9): the extractor's first N."""
    return 1 << max(7, (4 * trunc + 8).bit_length())


def sample_to_coeffs(fn, trunc):
    """Fourier coefficients 1..trunc of both signs from samples on |w| = 1.

    fn(w) returns samples along axis 0 at the N nodes w_t = exp(2 pi i t / N).
    Returns (neg, pos) with neg[m-1] = a_{-m}, pos[n-1] = a_n along axis 0.
    N starts at _start_points(trunc) and doubles while the fold band around
    the Nyquist bin (N/8 to either side) holds more than ALIAS_TOL of the
    spectral peak; past max(1024, start) an AliasWarning is issued instead
    (the band is then unreliable).  Samples that are not all finite stay so
    at any N: they are warned about at once and not resampled.
    """
    start = _start_points(trunc)
    n = start
    while True:
        spec = np.fft.fft(fn(np.exp(2j * np.pi * np.arange(n) / n)), axis=0)
        spec /= n
        mag = np.abs(spec)
        peak = float(np.max(mag))
        if not np.isfinite(peak):
            warnings.warn("samples are not finite at N = %d" % n, AliasWarning)
            break
        floor = float(np.max(mag[n // 2 - n // 8 : n // 2 + n // 8 + 1]))
        if floor <= ALIAS_TOL * peak:
            break
        if n >= max(1024, start):
            warnings.warn(
                "aliasing floor %.3g exceeds %.3g of spectral peak" % (floor, ALIAS_TOL * peak),
                AliasWarning,
            )
            break
        n *= 2
    ns = np.arange(1, trunc + 1)
    return spec[n - ns], spec[ns]
