"""Truncated coefficient sequences on the unit circle, held as arrays.

The direct sum over the n boundaries of D(disk), truncated at T, is an
array a[k, m-1] of shape (n, T); one boundary is a 1-d array a[m-1].  The
negative half of a function on |w| = 1, a[m-1] = a_{-m}, represents an
element of the homogeneous Dirichlet space of the exterior disk (vanishing
at infinity), the positive half, a[n-1] = a_n, one of the interior disk
(vanishing at 0).  Seminorms use ||z^{-m}||^2 = pi*m and ||z^n||^2 = pi*n,
so the orthonormal coordinates of a are sqrt(pi m) a[..., m-1] and the
boundary trace norm squared is pi * sum |n| |a_n|^2.

Every circle in the package is sampled at the nodes of unit_roots, and
every coefficient extraction runs through sample_to_coeffs: N doubles
while the alias it estimates in the kept coefficients exceeds FOLD_TOL
of the spectral peak.  Past a budget of SAMPLE_BUDGET sample values (N
times the columns) it raises AliasError.
"""

import numpy as np
from functools import lru_cache

from .errors import AliasError

FOLD_TOL = 1e-13
SAMPLE_BUDGET = 1 << 21  # N x columns: T = 256 at N = 8192
CACHED_ROOTS = 1 << 13  # the largest grid unit_roots keeps
# values of one column block of a large spectrum: 512 KiB of complex
# coefficients.  At 1 << 16 an operator_sweep cycle page-faulted 1.6 times
# as often, and its T = 128 jobs ran slower than with the whole spectrum
_SPECTRUM_BLOCK = 1 << 15


def dirichlet_norm(a):
    """Seminorm sqrt(pi * sum m |a[..., m-1]|^2), weighted by m along the last axis."""
    a = np.asarray(a)
    m = np.arange(1, a.shape[-1] + 1)
    return float(np.sqrt(np.pi * np.sum(m * np.abs(a) ** 2)))


def unit_roots(n):
    """The n uniform nodes exp(2 pi i k / n), k = 0..n-1, on |w| = 1.

    A read-only array: r * unit_roots(n) is the same bits as
    r * exp(i theta_k) with theta_k = 2 pi k / n, and unit_roots(2 n)[::2]
    the same bits as unit_roots(n).  Grids up to CACHED_ROOTS nodes, which
    cover every extraction up to T = 256, are built once and shared by
    every caller; larger ones, such as those of an extraction that runs to
    its budget, are built on each call and not kept.
    """
    if n > CACHED_ROOTS:
        return _roots(n)
    return _cached_roots(n)


def _roots(n):
    w = np.exp(2j * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


_cached_roots = lru_cache(maxsize=32)(_roots)


def _start_points(trunc):
    """Least power of two >= max(128, 4 trunc + 9): the extractor's first N."""
    return 1 << max(7, (4 * trunc + 8).bit_length())


def sample_to_coeffs(fn, trunc):
    """Fourier coefficients 1..trunc of both signs from samples on |w| = 1.

    fn(w) returns samples along axis 0 at the N nodes w = unit_roots(N),
    or the odd ones among them, and must act on each node on its own: the
    nodes of N are the even nodes of 2N, so a doubling evaluates fn at the
    N odd nodes only and interleaves the samples it kept.  w is shared and
    read-only; a sampler that writes into it raises.  Returns (neg, pos)
    with neg[m-1] = a_{-m}, pos[n-1] = a_n along axis 0.  N starts at _start_points(trunc)
    and doubles while the alias folded into the kept coefficients, estimated
    from the decay across the fold band around Nyquist, exceeds FOLD_TOL of
    the spectral peak.  Raises AliasError, naming N and the estimate, where
    the samples reach SAMPLE_BUDGET values unresolved, and at once where
    they are not all finite: no N makes them so.  fn and the transform run
    with numpy's divide and invalid warnings off: in the package's samplers
    both end in that refusal.
    """
    n = _start_points(trunc)
    kept = None
    while True:
        w = unit_roots(n)
        # overflow still warns: it can give a finite sample (1/inf = 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            if kept is None:
                samples = fn(w)
            else:
                odd = fn(w[1::2])
                samples = np.stack([kept, odd], axis=1).reshape((n,) + odd.shape[1:])
            if samples.size > max(n, _SPECTRUM_BLOCK):
                peak, floor, outer, rows = _blocked_spectrum(samples, n, trunc)
            else:
                spec = np.fft.fft(samples, axis=0, norm="forward")
                rows = None
        # The fold band N/2 +- N/8 holds |frequency| 3N/8 to N/2; its floor
        # sits at 3N/8 and its outer half, within N/16 of Nyquist, is smaller
        # by the decay over N/16 frequencies.  Coefficients m < N/4 are
        # aliased from |m - N| > 3N/4, six such steps past 3N/8, so the
        # folded alias is estimated as floor * ratio^6.
        e = n // 8
        if rows is None:
            mag = np.abs(spec)
            peak = float(np.max(mag))
            floor = float(np.max(mag[n // 2 - e : n // 2 + e + 1]))
            outer = float(np.max(mag[n // 2 - e // 2 : n // 2 + e // 2 + 1]))
        if not np.isfinite(peak):
            raise AliasError("samples are not finite at N = %d" % n)
        folded = floor * (outer / floor) ** 6 if floor else 0.0
        if folded <= FOLD_TOL * peak:
            break
        if samples.size >= SAMPLE_BUDGET:
            raise AliasError("N = %d: folded alias estimate %.3g exceeds %.3g of the "
                             "spectral peak" % (n, folded, FOLD_TOL * peak))
        kept = samples
        n *= 2
    if rows is not None:
        return rows
    ns = np.arange(1, trunc + 1)
    return spec[n - ns], spec[ns]


def _blocked_spectrum(samples, n, trunc):
    """sample_to_coeffs' reading of a spectrum of more than _SPECTRUM_BLOCK
    values, taken a block of columns at a time: the maxima of its modulus
    over all frequencies, over the fold band and over its outer half (NaN
    where a NaN reaches them), and its rows (n - ns, ns), ns = 1..trunc.

    Each block's transform along axis 0 gives the same bits as one
    transform of the whole array, and only the kept rows are stored, so
    neither the whole spectrum nor its modulus is ever held.
    """
    e = n // 8
    ns = np.arange(1, trunc + 1)
    cols = samples.reshape(n, -1)
    width = max(1, _SPECTRUM_BLOCK // n)
    maxima = np.zeros(3)
    neg = np.empty((trunc, cols.shape[1]), dtype=complex)
    pos = np.empty_like(neg)
    for c in range(0, cols.shape[1], width):
        spec = np.fft.fft(cols[:, c : c + width], axis=0, norm="forward")
        mag = np.abs(spec)
        # np.maximum, unlike max(), keeps a NaN of either side
        np.maximum(maxima, [np.max(mag), np.max(mag[n // 2 - e : n // 2 + e + 1]),
                            np.max(mag[n // 2 - e // 2 : n // 2 + e // 2 + 1])], out=maxima)
        neg[:, c : c + width] = spec[n - ns]
        pos[:, c : c + width] = spec[ns]
    shape = (trunc,) + samples.shape[1:]
    return (*maxima.tolist(), (neg.reshape(shape), pos.reshape(shape)))
