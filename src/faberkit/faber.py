"""Faber polynomials of the inverse map and rational-function plumbing.

For a polynomial map f(w) = p + sum a_k w^k injective near the closed unit
disk, the degree-m Faber function of the exterior inverse is the principal
part at p of f^{-1}(zeta)^{-m}:

    Phi_m(z) = sum_{k=1..m} c_k / (z - p)^k,
    c_k = [w^{m-1}] (f(w) - p)^{k-1} f'(w),

a rational function vanishing at infinity with c_m = a_1^m exactly.  The
extraction formula is the residue of w^{-m} d/dw log-free form of the
generating identity; it is what the contour definition

    Phi_m(z) = -(1/2 pi i) * integral over f({|w|=r}) of f^{-1}(zeta)^{-m}/(zeta - z) dzeta

evaluates to for z outside the curve, and faber_oracle computes that
integral directly as an independent cross-check.
"""

import functools

import numpy as np
from dataclasses import dataclass

from .quadrature import Contour, cauchy_eval


@dataclass(frozen=True)
class FaberPoly:
    """Principal part sum_k coeffs[k-1] / (z - center)^k."""

    center: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self):
        return len(self.coeffs)

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=complex)
        u = 1.0 / (z_arr - self.center)
        acc = np.zeros_like(u)
        for c in self.coeffs[::-1]:
            acc = (acc + c) * u
        if np.ndim(z) == 0:
            return complex(acc)
        return acc


@dataclass(frozen=True)
class RationalFn:
    """Finite sum of terms coeff / (z - pole)^order, vanishing at infinity.

    Terms with equal (pole, order) are merged and zero terms dropped, so
    the representation is canonical and equality-friendly.
    """

    terms: tuple  # of (pole complex, order int, coeff complex)

    def __post_init__(self):
        merged = {}
        for pole, order, coeff in self.terms:
            if order < 1:
                raise ValueError("pole orders must be >= 1")
            key = (complex(pole), int(order))
            merged[key] = merged.get(key, 0j) + complex(coeff)
        cleaned = tuple(
            (pole, order, coeff)
            for (pole, order), coeff in sorted(
                merged.items(), key=lambda kv: (kv[0][0].real, kv[0][0].imag, kv[0][1])
            )
            if coeff != 0
        )
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def zero(cls):
        return cls(terms=())

    @classmethod
    def single(cls, pole, order, coeff):
        return cls(terms=((pole, order, coeff),))

    @property
    def is_zero(self):
        return not self.terms

    def poles(self):
        return sorted({pole for pole, _, _ in self.terms},
                      key=lambda q: (q.real, q.imag))

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z_arr)
        for pole, order, coeff in self.terms:
            acc = acc + coeff / (z_arr - pole) ** order
        if np.ndim(z) == 0:
            return complex(acc)
        return acc

    def derivative(self):
        return RationalFn(terms=tuple(
            (pole, order + 1, -order * coeff) for pole, order, coeff in self.terms
        ))

    def __add__(self, other):
        return RationalFn(terms=self.terms + other.terms)

    def __rmul__(self, c):
        return RationalFn(terms=tuple(
            (pole, order, c * coeff) for pole, order, coeff in self.terms
        ))

    def restrict_to_poles(self, pole_set):
        keep = set(pole_set)
        return RationalFn(terms=tuple(t for t in self.terms if t[0] in keep))


@functools.lru_cache(maxsize=64)
def faber_series_table(spec, order):
    """Triangular array T with T[k-1, m-1] = c_k of the degree-m Faber function.

    Column m holds the principal-part coefficients of f^{-1}^{-m}; built by
    one pass of truncated products S_k = (f - p)^{k-1} f', whose (m-1)-st
    Taylor coefficient is c_k.
    """
    d = spec.degree
    # (f - p)/w as a Taylor series: poly[k-1] = a_k
    poly = np.zeros(order, dtype=complex)
    for k in range(1, d + 1):
        if k - 1 < order:
            poly[k - 1] = spec.coeffs[k - 1]
    deriv = np.zeros(order, dtype=complex)
    for k in range(1, d + 1):
        if k - 1 < order:
            deriv[k - 1] = k * spec.coeffs[k - 1]
    table = np.zeros((order, order), dtype=complex)
    s_k = deriv.copy()  # S_1 = f', as series in w
    table[0] = s_k
    for k in range(2, order + 1):
        # multiply by (f - p): one w-power shift plus convolution with poly
        s_k = np.convolve(s_k, poly)[: order - 1]
        s_k = np.concatenate([[0.0], s_k])
        table[k - 1] = s_k
    return table  # table[k-1, m-1] = [w^{m-1}] S_k


def faber_polynomial(spec, m):
    """The degree-m Faber function of the exterior inverse of `spec`."""
    if m < 1:
        raise ValueError("m must be >= 1")
    table = faber_series_table(spec, m)
    return FaberPoly(center=spec.center, coeffs=tuple(table[:m, m - 1]))


def faber_oracle(spec, m, z):
    """Contour-quadrature value of the degree-m Faber function at z.

    Integrates f^{-1}(zeta)^{-m}/(zeta - z) over f({|w|=0.9}) with 2048
    samples; valid for z in the unbounded component of the curve
    complement, which is where the principal-part formula is being checked.
    """
    contour = Contour.image(spec, 0.9, n_samples=2048)
    w = contour.parameter_points()
    h_samples = w ** (-float(m))
    return cauchy_eval(contour, h_samples, z)


def apply_faber(config, k, H):
    """Image of a finitely supported negative sequence under the k-th Faber map.

    H is a CoeffSeq whose negative half a_{-m} is used; the result is the
    exact rational function sum_m a_{-m} Phi^k_m.
    """
    spec = config.maps[k]
    a = H.neg
    if a.size == 0:
        return RationalFn.zero()
    table = faber_series_table(spec, a.size)
    coeffs = table[: a.size, : a.size] @ a
    terms = tuple(
        (spec.center, j + 1, coeffs[j]) for j in range(a.size) if coeffs[j] != 0
    )
    return RationalFn(terms=terms)


def apply_big_faber(config, H_list):
    """Sum of per-boundary Faber images; the block operator on tuples."""
    if len(H_list) != config.n:
        raise ValueError("need one sequence per map")
    out = RationalFn.zero()
    for k, H in enumerate(H_list):
        out = out + apply_faber(config, k, H)
    return out
