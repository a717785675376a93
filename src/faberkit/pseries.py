"""Taylor coefficients of bivariate kernels from samples on the unit torus.

A kernel K(zeta, z) analytic on the closed bidisk is sampled at
zeta_s = exp(2 pi i s / N), z_t = exp(2 pi i t / N); one 2-d FFT of the
N x N samples gives its Taylor coefficients [zeta^a z^n] K, aliased by
those of index N or more higher in either variable.
"""

import warnings

import numpy as np

from .coeffs import ALIAS_TOL
from .errors import AliasWarning

MAX_TORUS = 1024


def torus_coeffs(kernel, trunc):
    """Coefficients out[a, n-1] = [zeta^a z^n] K for 0 <= a < trunc, 1 <= n <= trunc.

    kernel(w) returns the N x N samples K(w_s, w_t) at the torus nodes w.
    N starts at the next power of two >= max(128, 2 * trunc).  The top
    eighth of the spectrum in either variable holds the coefficients of
    index near N, the size of those that alias into the block: while this
    floor sits above ALIAS_TOL of the peak, N doubles.  Past MAX_TORUS an
    AliasWarning is issued instead (the coefficients are then unreliable).
    Samples that are not all finite (a pole on the torus) stay so at any N:
    they are warned about at once and not resampled.
    """
    n = 128
    while n < 2 * trunc:
        n *= 2
    while True:
        w = np.exp(2j * np.pi * np.arange(n) / n)
        spec = np.fft.fft2(kernel(w)) / (n * n)
        mag = np.abs(spec)
        peak = float(np.max(mag))
        if not np.isfinite(peak):
            warnings.warn("samples are not finite at N = %d" % n, AliasWarning)
            break
        top = slice(n - n // 8, n)
        floor = max(float(np.max(mag[top, :])), float(np.max(mag[:, top])))
        if floor <= ALIAS_TOL * peak:
            break
        if n >= MAX_TORUS:
            warnings.warn(
                "aliasing floor %.3g exceeds %.3g of spectral peak" % (floor, ALIAS_TOL * peak),
                AliasWarning,
            )
            break
        n *= 2
    return spec[:trunc, 1 : trunc + 1]
