"""Taylor coefficients of bivariate kernels from samples on the unit torus.

A kernel K(zeta, z) analytic on the closed bidisk is sampled at
zeta_s = exp(2 pi i s / N), z_t = exp(2 pi i t / N); one 2-d FFT of the
N x N samples gives its Taylor coefficients [zeta^a z^n] K, aliased by
those of index N or more higher in either variable.  N is sized by the
same loop as the circle's (coeffs._extract); only the start and the band
that holds the alias floor differ.
"""

from .coeffs import _extract


def torus_coeffs(kernel, trunc):
    """Coefficients out[a, n-1] = [zeta^a z^n] K for 0 <= a < trunc, 1 <= n <= trunc.

    kernel(w) returns the N x N samples K(w_s, w_t) at the torus nodes w.
    N starts at the least power of two >= max(128, 2 * trunc).  The alias
    floor is the top eighth of the spectrum in either variable: it holds
    the coefficients of index near N, the size of those that alias into the
    block (the fold band of the circle would hold genuine coefficients in
    one variable while the other is free).  See _extract for the doubling,
    the cap and the warnings.
    """
    spec = _extract(kernel, max(128, 1 << (2 * trunc - 1).bit_length()), 2,
                    lambda n: [slice(n - n // 8, n), (slice(None), slice(n - n // 8, n))])
    return spec[:trunc, 1 : trunc + 1]
