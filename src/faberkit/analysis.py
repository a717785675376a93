"""Decomposition, graph characterization and Faber series diagnostics.

Everything here works on rational functions vanishing at infinity whose
poles sit strictly inside the interior regions; those are dense enough to
exercise every identity at desk scale while keeping exact reference values
available.
"""

import math

import numpy as np
from dataclasses import dataclass

from .coeffs import CoeffSeq, project_minus, project_plus, sample_to_coeffs
from .domain import curve_samples, evaluate_map, map_derivative, winding_number
from .errors import PoleOutsideRegions
from .faber import RationalFn, faber_series_table
from .grunsky import apply_grunsky, assemble
from .quadrature import Contour, cauchy_eval

PROBE_OFFSET = 0.2
PROBE_FAR_RADIUS = 10.0


def probe_grid(config, seed=None):
    """Evaluation points spread through the common exterior domain.

    A circle of 64 points rings each region at PROBE_OFFSET beyond its
    farthest boundary point, one more surrounds everything, and eight
    points approach infinity as reciprocals of a small circle.  A seed
    jitters the angular phases; with seed None the grid is the fixed
    default.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    circle = 2 * np.pi * np.arange(64) / 64
    pts = []
    extents = []
    for spec in config.maps:
        bdry = curve_samples(spec, 1.0, 512)
        extents.append(float(np.max(np.abs(bdry))))
        ring = float(np.max(np.abs(bdry - spec.center))) + PROBE_OFFSET
        phase = rng.uniform(0, 2 * np.pi) if rng is not None else 0.0
        pts.append(spec.center + ring * np.exp(1j * (phase + circle)))
    far = max(PROBE_FAR_RADIUS, 1.5 * max(extents) + 2.0)
    phase = rng.uniform(0, 2 * np.pi) if rng is not None else 0.0
    pts.append(far * np.exp(1j * (phase + circle)))
    theta = 2 * np.pi * np.arange(8) / 8
    pts.append(1.0 / ((1.0 / (2.0 * far)) * np.exp(1j * theta)))
    return np.concatenate(pts)


def boundary_grid(config):
    """32 points per curve on f({|w| = 1.001}), just outside each boundary.

    Sup errors over this grid see the full decay rate of a Faber series;
    grids held farther out report a faster, distance-discounted rate.
    """
    return np.concatenate([curve_samples(spec, 1.001, 32) for spec in config.maps])


def region_of_point(config, q):
    """Index of the region containing q, or None."""
    for i, spec in enumerate(config.maps):
        if winding_number(curve_samples(spec, 1.0, 1024), q) == 1:
            return i
    return None


@dataclass
class DecompositionResult:
    """Per-region components h_i with sum h, plus the probe-grid residual."""

    components: list
    residual: float


def decompose(config, h, probes=None):
    """Split h into components with poles grouped by containing region.

    The grouping realizes the boundary-value projections exactly for
    rational h; the reported residual of sum h_i - h over the probe grid
    is a numerical tautology kept as a tripwire.
    """
    buckets = [[] for _ in range(config.n)]
    for pole, order, coeff in h.terms:
        idx = region_of_point(config, pole)
        if idx is None:
            raise PoleOutsideRegions("pole %s lies in no interior region" % pole)
        buckets[idx].append((pole, order, coeff))
    comps = [RationalFn(terms=tuple(b)) for b in buckets]
    if probes is None:
        probes = probe_grid(config)
    total = np.zeros_like(np.asarray(probes, dtype=complex))
    for c in comps:
        total = total + c(probes)
    residual = float(np.max(np.abs(total - h(probes))))
    return DecompositionResult(components=comps, residual=residual)


def projection_component(config, i, h):
    """Quadrature projection onto the component decaying outside region i.

    Returns an evaluator z -> -(1/2 pi i) * integral over f_i({|w|=r}) of
    h(zeta)/(zeta-z) d zeta with r = 1 + ext_margin; for z in the common
    exterior this is the same component decompose() builds exactly.
    """
    contour = Contour.image(config.maps[i], 1.0 + config.ext_margin)
    h_vals = h(contour.points())

    def evaluator(z):
        return cauchy_eval(contour, h_vals, z)

    return evaluator


def pullback_boundary(config, j, h, trunc):
    """Fourier coefficients of h o f_j on the unit circle, constant dropped.

    Band-limited to `trunc` on both sides.  For rational h with poles
    strictly inside the regions the samples are analytic across |w| = 1,
    so they are exact up to aliasing.
    """
    n = 512
    while n < 4 * trunc + 9:
        n *= 2
    vals = h(evaluate_map(config.maps[j], np.exp(2j * np.pi * np.arange(n) / n)))
    seq = sample_to_coeffs(vals, 1.0, m_neg=trunc, n_pos=trunc)
    return CoeffSeq(neg=seq.neg, pos=seq.pos, const=0j)


@dataclass
class GraphCheckReport:
    """Membership test of h against the graph of the block operator.

    u and v are the negative/positive halves of the boundary pullbacks,
    predicted the image of u under the supplied matrix, and residual the
    orthonormal-coordinate ratio ||v - G u|| / max(||u||, eps).
    """

    u: list
    v: list
    predicted: list
    u_norm: float
    residual: float


def graph_check(config, h, trunc, gr=None):
    """Check that the pullback data of h lies on the operator graph."""
    if gr is None:
        gr = assemble(config, trunc, policy="definitional")
    if gr.trunc < trunc:
        raise ValueError("matrix truncation is smaller than requested")
    us = []
    vs = []
    for j in range(config.n):
        seq = pullback_boundary(config, j, h, trunc)
        us.append(project_minus(seq))
        vs.append(project_plus(seq))
    preds = apply_grunsky(gr, us)
    m_idx = np.arange(1, trunc + 1)
    u_sq = 0.0
    gap_sq = 0.0
    for j in range(config.n):
        u = np.zeros(trunc, dtype=complex)
        u[: us[j].neg.size] = us[j].neg[:trunc]
        v = np.zeros(trunc, dtype=complex)
        v[: vs[j].pos.size] = vs[j].pos[:trunc]
        p = np.zeros(trunc, dtype=complex)
        p[: preds[j].pos.size] = preds[j].pos[:trunc]
        u_sq += float(np.sum(np.pi * m_idx * np.abs(u) ** 2))
        gap_sq += float(np.sum(np.pi * m_idx * np.abs(v - p) ** 2))
    u_norm = math.sqrt(u_sq)
    residual = math.sqrt(gap_sq) / max(u_norm, 1e-30)
    return GraphCheckReport(u=us, v=vs, predicted=preds, u_norm=u_norm,
                            residual=residual)


def inverse_faber(config, h, trunc):
    """Preimage sequences g_k with big-Faber image h (band-limited).

    Decomposes h by region and reads each g_k off the negative half of the
    boundary pullback of the k-th component through its own map.
    """
    comps = decompose(config, h).components
    out = []
    for k in range(config.n):
        if comps[k].is_zero:
            out.append(CoeffSeq(neg=np.zeros(trunc), pos=np.zeros(0)))
            continue
        seq = pullback_boundary(config, k, comps[k], trunc)
        out.append(project_minus(seq))
    return out


def faber_coefficients(config, h, trunc):
    """Array a[k, m-1]: coefficient of the degree-m Faber function of map k."""
    gs = inverse_faber(config, h, trunc)
    out = np.zeros((config.n, trunc), dtype=complex)
    for k, g in enumerate(gs):
        out[k, : min(trunc, g.neg.size)] = g.neg[:trunc]
    return out


@dataclass
class SeriesErrorTable:
    """Sup errors of Faber partial sums and the fitted tail ratio.

    errors[M-1] = sup over the grid of |h - S_M|.  fitted_ratio is the
    geometric rate regressed from the decaying stretch (None when the
    series terminates before a rate is visible); terminated_at is the
    first M whose error hits the numerical floor, when that happens.
    """

    orders: np.ndarray
    errors: np.ndarray
    fitted_ratio: float
    terminated_at: int


def faber_partial_sum_error(config, h, m_max):
    """Error table of the multi-boundary Faber partial sums of h on boundary_grid."""
    grid = boundary_grid(config)
    coeffs = faber_coefficients(config, h, m_max)
    target = h(grid)
    contrib = np.zeros((m_max, grid.size), dtype=complex)
    for k, spec in enumerate(config.maps):
        table = faber_series_table(spec, m_max)
        u = 1.0 / (grid - spec.center)
        powers = u[:, None] ** np.arange(1, m_max + 1)[None, :]
        phis = powers @ table[:m_max, :m_max]  # phis[t, m-1]
        contrib += (phis * coeffs[k][None, :]).T
    partial = np.cumsum(contrib, axis=0)
    errors = np.max(np.abs(partial - target[None, :]), axis=1)
    scale = max(float(np.max(np.abs(target))), 1e-30)
    floor = 1e-13 * scale
    below = np.nonzero(errors <= floor)[0]
    terminated_at = int(below[0] + 1) if below.size else 0
    fit_hi = below[0] if below.size else m_max
    fit_idx = np.arange(1, fit_hi)  # skip M=1, stop before the floor
    fitted = None
    if fit_idx.size >= 3:
        logs = np.log(errors[fit_idx])
        slope = np.polyfit(fit_idx + 1.0, logs, 1)[0]
        fitted = float(np.exp(slope))
    return SeriesErrorTable(orders=np.arange(1, m_max + 1), errors=errors,
                            fitted_ratio=fitted, terminated_at=terminated_at)


def dirichlet_norm_sigma(config, h, n_samples=2048):
    """Dirichlet seminorm of h over the common exterior domain.

    Green's identity turns the area integral of |h'|^2 into boundary
    terms; with every curve traversed counterclockwise in the parameter
    and h vanishing at infinity,

        ||h||^2 = - sum_i (1/2i) * integral over f_i({|w|=1}) of conj(h) h' dz.

    Rational h with poles inside the regions is analytic across the
    curves, so the trapezoid rule on them is spectrally accurate.
    """
    hp = h.derivative()
    total = 0j
    for spec in config.maps:
        theta = 2 * np.pi * np.arange(n_samples) / n_samples
        w = np.exp(1j * theta)
        zeta = evaluate_map(spec, w)
        dz = map_derivative(spec, w) * 1j * w
        total += (2 * np.pi / n_samples) * np.sum(np.conj(h(zeta)) * hp(zeta) * dz)
    value = -total / 2j
    return float(value.real)


def _laurent_at_infinity(h, n_terms):
    """Coefficients A[mu-1] of h(z) = sum_mu A_mu z^-mu valid for large |z|."""
    out = np.zeros(n_terms, dtype=complex)
    for pole, order, coeff in h.terms:
        for mu in range(order, n_terms + 1):
            out[mu - 1] += coeff * math.comb(mu - 1, order - 1) * pole ** (mu - order)
    return out


def _inside_region(spec, z):
    """Boolean mask: which z lie in f({|w| <= 1}).

    Exact for degrees one and two; Newton otherwise (adequate away from
    critical values, which validated maps keep outside the closed disk).
    """
    z = np.asarray(z, dtype=complex)
    if spec.degree == 1:
        return np.abs(z - spec.center) <= np.abs(spec.coeffs[0])
    if spec.degree == 2:
        a1, a2 = spec.coeffs
        disc = np.sqrt(a1 * a1 + 4.0 * a2 * (z - spec.center))
        w1 = (-a1 + disc) / (2.0 * a2)
        w2 = (-a1 - disc) / (2.0 * a2)
        return np.minimum(np.abs(w1), np.abs(w2)) <= 1.0
    w = (z - spec.center) / spec.coeffs[0]
    for _ in range(50):
        dw = map_derivative(spec, w)
        dw = np.where(np.abs(dw) < 1e-14, 1e-14, dw)
        w = w - (evaluate_map(spec, w) - z) / dw
    ok = np.abs(evaluate_map(spec, w) - z) <= 1e-9 * (1.0 + np.abs(z))
    return ok & (np.abs(w) <= 1.0)


def dirichlet_norm_sigma_area(config, h, n_cells=2048):
    """Masked 2-d quadrature oracle for the exterior Dirichlet seminorm.

    Integrates |h'|^2 over a large disk minus the interior regions on a
    cartesian grid (per-cell Gauss inside, 32 x 32 subcell coverage counts
    on boundary-straddling cells) and adds the exact series tail, to 80
    terms, beyond the disk.  Slower and cruder than the boundary
    reduction, but it never touches a contour identity, which is the point.
    """
    hp = h.derivative()

    def g(z):
        return np.abs(hp(z)) ** 2

    extent = 0.0
    for spec in config.maps:
        extent = max(extent, float(np.max(np.abs(curve_samples(spec, 1.0, 256)))))
    pole_r = max((abs(p) for p, _, _ in h.terms), default=0.0)
    r_out = max(6.0, 2.0 * max(extent, pole_r))

    tail_coeff = _laurent_at_infinity(h, 80)
    mus = np.arange(1, 81, dtype=float)
    tail = float(np.pi * np.sum(mus * np.abs(tail_coeff) ** 2 * r_out ** (-2 * mus)))

    def inside_domain(z):
        mask = np.abs(z) <= r_out
        for spec in config.maps:
            mask &= ~_inside_region(spec, z)
        return mask

    edges = np.linspace(-r_out, r_out, n_cells + 1)
    step = edges[1] - edges[0]
    zc = edges[None, :] * 1j + edges[:, None]  # corner grid, [x, y] -> x + i y
    corner_in = inside_domain(zc.ravel()).reshape(zc.shape)
    cin = (corner_in[:-1, :-1] & corner_in[1:, :-1]
           & corner_in[:-1, 1:] & corner_in[1:, 1:])
    cany = (corner_in[:-1, :-1] | corner_in[1:, :-1]
            | corner_in[:-1, 1:] | corner_in[1:, 1:])
    mixed = cany & ~cin

    total = tail
    # interior cells: tensor Gauss, vectorized over cells in row blocks
    gx, gw = np.polynomial.legendre.leggauss(3)
    offs = 0.5 * step * gx
    wts2 = np.outer(gw, gw) * (step * step / 4.0)
    xi, yi = np.nonzero(cin)
    centers = (edges[xi] + 0.5 * step) + 1j * (edges[yi] + 0.5 * step)
    block = 1 << 18
    for start in range(0, centers.size, block):
        c = centers[start : start + block]
        acc = np.zeros(c.size)
        for ax in range(3):
            for ay in range(3):
                acc += wts2[ax, ay] * g(c + offs[ax] + 1j * offs[ay])
        total += float(np.sum(acc))

    # boundary cells: midpoint at subcell resolution with coverage masking
    xm, ym = np.nonzero(mixed)
    if xm.size:
        sub = 32
        so = (np.arange(sub) + 0.5) * (step / sub)
        sgrid = so[:, None] + 1j * so[None, :]
        cell_area = (step / sub) ** 2
        for start in range(0, xm.size, 512):
            xs = edges[xm[start : start + 512]]
            ys = edges[ym[start : start + 512]]
            base = xs[:, None] + 1j * ys[:, None]
            pts = base + sgrid.ravel()[None, :]
            flat = pts.ravel()
            m = inside_domain(flat)
            vals = np.zeros(flat.size)
            vals[m] = g(flat[m])
            total += float(np.sum(vals)) * cell_area
    return total
