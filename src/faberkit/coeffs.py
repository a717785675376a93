"""Two-sided coefficient sequences on the unit circle.

A CoeffSeq stores a band-limited function h = sum_{m>=1} a_{-m} z^{-m}
+ const + sum_{n>=1} a_n z^n.  The negative half represents an element of
the homogeneous Dirichlet space of the exterior disk (vanishing at
infinity), the positive half one of the interior disk (vanishing at 0);
seminorms use the convention ||z^{-m}||^2 = pi*m and ||z^n||^2 = pi*n, and
the boundary trace norm squared is pi * sum |n| |a_n|^2.
"""

import math
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

    @classmethod
    def zero(cls):
        return cls(neg=np.zeros(0), pos=np.zeros(0), const=0j)

    def coeff(self, n):
        if n == 0:
            return self.const
        if n < 0:
            return complex(self.neg[-n - 1]) if -n <= self.neg.size else 0j
        return complex(self.pos[n - 1]) if n <= self.pos.size else 0j

    def frequencies(self):
        """Sorted nonzero frequencies of the stored band."""
        return list(range(-self.neg.size, 0)) + list(range(1, self.pos.size + 1))


def dirichlet_norm_minus(s):
    """Seminorm of the negative half: sqrt(pi * sum m |a_{-m}|^2)."""
    m = np.arange(1, s.neg.size + 1)
    return float(np.sqrt(np.pi * np.sum(m * np.abs(s.neg) ** 2)))


def dirichlet_norm_plus(s):
    """Seminorm of the positive half: sqrt(pi * sum n |a_n|^2)."""
    n = np.arange(1, s.pos.size + 1)
    return float(np.sqrt(np.pi * np.sum(n * np.abs(s.pos) ** 2)))


def h_half_norm(s):
    """Boundary trace norm sqrt(pi * sum over both halves of |n| |a_n|^2)."""
    return math.hypot(dirichlet_norm_minus(s), dirichlet_norm_plus(s))


def project_minus(s):
    """Keep the strictly negative frequencies."""
    return CoeffSeq(neg=s.neg.copy(), pos=np.zeros(0), const=0j)


def project_plus(s):
    """Keep the strictly positive frequencies."""
    return CoeffSeq(neg=np.zeros(0), pos=s.pos.copy(), const=0j)


def reflect(s):
    """Reflection of the negative half in the unit circle.

    Returns the evaluator zeta -> sum_m a_{-m} conj(zeta)^m, an
    anti-analytic function on the closed unit disk; on |zeta| = r it
    coincides with sum_m a_{-m} (r^2/zeta)^m.
    """
    coef = s.neg.copy()

    def evaluator(zeta):
        zc = np.conj(np.asarray(zeta, dtype=complex))
        acc = np.zeros_like(zc)
        for a in coef[::-1]:
            acc = (acc + a) * zc
        if np.ndim(zeta) == 0:
            return complex(acc)
        return acc

    return evaluator


def eval_series(s, z):
    """Evaluate the stored band at z (vectorized)."""
    z_arr = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z_arr)
    for a in s.pos[::-1]:
        acc = (acc + a) * z_arr
    acc = acc + s.const
    if s.neg.size:
        inv = 1.0 / z_arr
        neg_acc = np.zeros_like(z_arr)
        for a in s.neg[::-1]:
            neg_acc = (neg_acc + a) * inv
        acc = acc + neg_acc
    if np.ndim(z) == 0:
        return complex(acc)
    return acc


def sample_to_coeffs(samples, rho, m_neg, n_pos):
    """Laurent coefficients from uniform samples on |w| = rho.

    samples[t] = h(rho * exp(2 pi i t / N)).  Coefficient a_n is the n-th
    DFT bin rescaled by rho^{-n}.  Needs N >= 2*(m_neg + n_pos) + 1; when
    the unused middle of the spectrum sits above ALIAS_TOL relative to the
    peak, an AliasWarning is issued (the band is then unreliable).
    """
    samples = np.asarray(samples, dtype=complex)
    n_fft = samples.size
    if n_fft < 2 * (m_neg + n_pos) + 1:
        raise ValueError("need at least 2*(m_neg + n_pos) + 1 samples")
    spec = np.fft.fft(samples) / n_fft
    peak = float(np.max(np.abs(spec)))
    # aliasing shows up at the Nyquist fold; spectrum between the requested
    # band and the fold is legitimate out-of-band signal
    lo = max(n_pos + 1, n_fft // 2 - n_fft // 8)
    hi = min(n_fft - m_neg, n_fft // 2 + n_fft // 8 + 1)
    if lo >= hi:
        lo, hi = n_pos + 1, n_fft - m_neg
    gap = np.abs(spec[lo:hi]) if hi > lo else np.zeros(0)
    floor = float(np.max(gap)) if gap.size else 0.0
    if peak > 0 and floor > ALIAS_TOL * peak:
        warnings.warn(
            "aliasing floor %.3g exceeds %.3g of spectral peak" % (floor, ALIAS_TOL * peak),
            AliasWarning,
        )
    ns = np.arange(1, n_pos + 1)
    ms = np.arange(1, m_neg + 1)
    pos = spec[ns] * rho ** (-ns.astype(float)) if n_pos else np.zeros(0, dtype=complex)
    neg = spec[(n_fft - ms) % n_fft] * rho ** ms.astype(float) if m_neg else np.zeros(0, dtype=complex)
    return CoeffSeq(neg=neg, pos=pos, const=complex(spec[0]))

