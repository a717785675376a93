"""Two-sided coefficient sequences on the unit circle.

A CoeffSeq stores a band-limited function h = sum_{m>=1} a_{-m} z^{-m}
+ const + sum_{n>=1} a_n z^n.  The negative half represents an element of
the homogeneous Dirichlet space of the exterior disk (vanishing at
infinity), the positive half one of the interior disk (vanishing at 0);
seminorms use the convention ||z^{-m}||^2 = pi*m and ||z^n||^2 = pi*n, and
the boundary trace norm squared is pi * sum |n| |a_n|^2.
"""

import warnings

import numpy as np
from dataclasses import dataclass

from .errors import AliasWarning

ALIAS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CoeffSeq:
    """neg[m-1] = a_{-m}, pos[n-1] = a_n, plus a constant term."""

    neg: np.ndarray
    pos: np.ndarray
    const: complex = 0j

    def __post_init__(self):
        raw_neg = np.zeros(0) if self.neg is None else self.neg
        raw_pos = np.zeros(0) if self.pos is None else self.pos
        neg = np.atleast_1d(np.asarray(raw_neg, dtype=complex)).ravel()
        pos = np.atleast_1d(np.asarray(raw_pos, dtype=complex)).ravel()
        if not (np.all(np.isfinite(neg)) and np.all(np.isfinite(pos))):
            raise ValueError("coefficients must be finite")
        neg.setflags(write=False)
        pos.setflags(write=False)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "const", complex(self.const))


def dirichlet_norm_minus(s):
    """Seminorm of the negative half: sqrt(pi * sum m |a_{-m}|^2)."""
    m = np.arange(1, s.neg.size + 1)
    return float(np.sqrt(np.pi * np.sum(m * np.abs(s.neg) ** 2)))


def dirichlet_norm_plus(s):
    """Seminorm of the positive half: sqrt(pi * sum n |a_n|^2)."""
    n = np.arange(1, s.pos.size + 1)
    return float(np.sqrt(np.pi * np.sum(n * np.abs(s.pos) ** 2)))


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
    (the band is then unreliable).
    """
    start = _start_points(trunc)
    n = start
    while True:
        spec = np.fft.fft(fn(np.exp(2j * np.pi * np.arange(n) / n)), axis=0)
        spec /= n
        mag = np.abs(spec)
        peak = float(np.max(mag))
        floor = float(np.max(mag[n // 2 - n // 8 : n // 2 + n // 8 + 1]))
        # written so that non-finite samples fail too
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
