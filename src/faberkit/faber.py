"""Faber polynomials of the inverse map and rational-function plumbing.

For a polynomial map f(w) = p + P(w), P(w) = sum_{k=1..d} a_k w^k,
injective near the closed unit disk, the degree-m Faber function of the
exterior inverse is the principal part at p of f^{-1}(zeta)^{-m}:

    Phi_m(z) = sum_{k=1..m} c_k / (z - p)^k,
    c_k = [w^{m-1}] (f(w) - p)^{k-1} f'(w),

a rational function vanishing at infinity with c_m = a_1^m exactly.
faber_series_table returns these exact coefficients, and apply_faber builds
rational functions from them.

Values at points are not summed from the coefficients: the c_k grow
geometrically with m while Phi_m stays O(1) outside the curve, so the sum
cancels.  faber_values evaluates Phi_m from the Faber generating function
instead, in the variable u = 1/(z - p):

    sum_{m>=0} F_m(u) w^m = w P'(w) / (P(w) (1 - u P(w))),
    Phi_m(z) = F_m(u) - F_m(0)

(Curtiss, Amer. Math. Monthly 78, 1971; Pommerenke, Univalent Functions,
1975).  Its coefficients come from one power-series division
(pseries.divide), a recurrence of 2d terms, since the denominator has
degree 2d in w.  The denominator's roots are the nonzero roots of
f(w) = p and the roots of f(w) = z, which lie on or outside |w| = 1 for z
on or outside the curve, so rounding errors do not grow along the
recurrence.  The contour-integral oracle that cross-checks both lives
with the tests.
"""

import cmath

import numpy as np
from dataclasses import dataclass

from . import pseries


@dataclass(frozen=True)
class RationalFn:
    """Finite sum of terms coeff / (z - pole)^order, vanishing at infinity.

    Poles and coefficients must be finite.  Terms with equal (pole, order)
    are merged and zero terms dropped, so the representation is canonical
    and equality-friendly.
    """

    terms: tuple  # of (pole complex, order int, coeff complex)

    def __post_init__(self):
        merged = {}
        for pole, order, coeff in self.terms:
            pole, coeff = complex(pole), complex(coeff)
            if order < 1:
                raise ValueError("pole orders must be >= 1")
            if not (cmath.isfinite(pole) and cmath.isfinite(coeff)):
                raise ValueError("poles and coefficients must be finite")
            key = (pole, int(order))
            merged[key] = merged.get(key, 0j) + coeff
        cleaned = tuple(
            (pole, order, coeff)
            for (pole, order), coeff in sorted(
                merged.items(), key=lambda kv: (kv[0][0].real, kv[0][0].imag, kv[0][1])
            )
            if coeff != 0
        )
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def single(cls, pole, order, coeff):
        return cls(terms=((pole, order, coeff),))

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


def faber_series_table(spec, order):
    """Triangular array T with T[k-1, m-1] = c_k of the degree-m Faber function.

    Column m holds the principal-part coefficients of f^{-1}^{-m}; built by
    one pass of truncated products S_k = (f - p)^{k-1} f', whose (m-1)-st
    Taylor coefficient is c_k.
    """
    # (f - p)/w and f' as Taylor series: poly[k-1] = a_k, deriv[k-1] = k a_k
    poly = np.zeros(order, dtype=complex)
    poly[: spec.degree] = spec.coeffs[:order]
    deriv = np.arange(1, order + 1) * poly
    table = np.zeros((order, order), dtype=complex)
    s_k = table[0] = deriv  # S_1 = f', as series in w
    for k in range(2, order + 1):
        # multiply by (f - p): one w-power shift plus convolution with poly
        s_k = np.convolve(s_k, poly)[: order - 1]
        s_k = np.concatenate([[0.0], s_k])
        table[k - 1] = s_k
    return table  # table[k-1, m-1] = [w^{m-1}] S_k


def faber_values(spec, u, trunc):
    """F[t, m-1] = Phi_m(z_t) for m = 1..trunc at the points with 1/(z_t - p) = u[t].

    The generating function is the quotient of P'(w), with [w^v] P' =
    (v+1) a_{v+1}, by (P(w)/w)(1 - u P(w)), with [w^v] = a_{v+1} -
    u [w^{v+1}] P^2 (a_k = 0 for k > d); pseries.divide returns its
    coefficients F_0, ..., F_trunc at every point at once.  One more point,
    u = 0, gives the constants F_m(0), subtracted in place: F is a
    transposed view of the division's output.
    """
    d = spec.degree
    a = np.zeros(2 * d + 1, dtype=complex)
    a[1 : d + 1] = spec.coeffs
    u = np.append(np.asarray(u, dtype=complex).ravel(), 0)
    num = (np.arange(1, d + 1) * a[1 : d + 1])[:, None]
    den = a[1:, None] - np.convolve(a[: d + 1], a[: d + 1])[1:, None] * u
    F = pseries.divide(num, den, trunc)
    phi = F[1:, :-1]
    phi -= F[1:, -1:]
    return phi.T


def apply_faber(config, k, a):
    """Image of a finitely supported sequence a[m-1] under the k-th Faber map.

    The result is the rational function sum_m a[m-1] Phi^k_m with its exact
    principal-part coefficients.  Evaluating it sums those coefficients,
    which grow geometrically with m on a non-affine map, so its values
    cancel at high m: for f = -3 + w + 0.45 w^2 just outside the curve,
    the image of the single mode z^{-m} is off by 7e-6 at m = 32 and by
    4e5 at m = 64, where Phi_m is O(1).  faber_values evaluates Phi_m without that loss.
    """
    spec = config.maps[k]
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return RationalFn(terms=())
    coeffs = faber_series_table(spec, a.size) @ a
    return RationalFn(terms=tuple((spec.center, j + 1, c) for j, c in enumerate(coeffs)))


def apply_big_faber(config, a):
    """Sum over boundaries k of the Faber images of the rows a[k]."""
    if len(a) != config.n:
        raise ValueError("need one sequence per map")
    return RationalFn(terms=tuple(term for k, row in enumerate(a)
                                  for term in apply_faber(config, k, row).terms))
