"""Decomposition, graph characterization and Faber series diagnostics.

Everything here works on rational functions vanishing at infinity whose
poles sit strictly inside the interior regions; those are dense enough to
exercise every identity at desk scale while keeping exact reference values
available.

Both descriptions of the Dirichlet space of the exterior domain read the
same boundary data, the halves (h o f_k)^- and (h o f_k)^+ on |w| = 1,
taken once per boundary as (n, trunc) arrays: the Faber preimage of h is
((h o f_k)^-)_k (faber_coefficients), and graph membership says
(h o f)^+ = Gr (h o f)^- (graph_check).
"""

import numpy as np
from dataclasses import dataclass

from .coeffs import dirichlet_norm, sample_to_coeffs, unit_roots
from .domain import curve_samples, evaluate_map, winding_number
from .errors import AliasError, PoleOutsideRegions
from .faber import RationalFn, faber_values
from .grunsky import apply_grunsky, assemble
from .quadrature import Contour, cauchy_eval

PROBE_OFFSET = 0.2
PROBE_FAR_RADIUS = 10.0


def probe_grid(config):
    """Evaluation points spread through the common exterior domain.

    A circle of 64 points rings each region at PROBE_OFFSET beyond its
    farthest boundary point, one more surrounds everything, and eight
    points approach infinity as reciprocals of a small circle.
    """
    circle = unit_roots(64)
    pts = []
    extents = []
    for spec in config.maps:
        bdry = curve_samples(spec, 1.0, 512)
        extents.append(float(np.max(np.abs(bdry))))
        ring = float(np.max(np.abs(bdry - spec.center))) + PROBE_OFFSET
        pts.append(spec.center + ring * circle)
    far = max(PROBE_FAR_RADIUS, 1.5 * max(extents) + 2.0)
    pts.append(far * circle)
    pts.append(1.0 / ((1.0 / (2.0 * far)) * unit_roots(8)))
    return np.concatenate(pts)


def boundary_grid(config):
    """32 points per curve on f({|w| = 1.001}), just outside each boundary.

    Sup errors over this grid see the full decay rate of a Faber series;
    grids held farther out report a faster, distance-discounted rate.
    """
    return np.concatenate([curve_samples(spec, 1.001, 32) for spec in config.maps])


def region_of_point(config, q):
    """Index of the region containing q, or None; a list of those for a 1-d array q.

    Each boundary is sampled once and tested in one winding pass against
    the points not yet placed.  A point inside several regions gets the
    first.
    """
    qs = np.atleast_1d(np.asarray(q, dtype=complex))
    found = np.full(qs.size, -1)
    for i, spec in enumerate(config.maps):
        todo = np.flatnonzero(found < 0)
        found[todo[winding_number(curve_samples(spec, 1.0, 1024), qs[todo]) == 1]] = i
    regions = [None if i < 0 else int(i) for i in found]
    return regions[0] if np.ndim(q) == 0 else regions


@dataclass
class DecompositionResult:
    """Per-region components h_i with sum h, plus the probe-grid residual."""

    components: list
    residual: float


def _pole_regions(config, poles):
    """region_of_point of each pole; PoleOutsideRegions for a pole in no region."""
    regions = region_of_point(config, poles)
    for pole, region in zip(poles, regions):
        if region is None:
            raise PoleOutsideRegions("pole %s lies in no interior region" % pole)
    return regions


def decompose(config, h, probes=None):
    """Split h into components with poles grouped by containing region.

    The grouping realizes the boundary-value projections exactly for
    rational h; the reported residual of sum h_i - h over the probe grid
    is a numerical tautology kept as a tripwire.  The probes are evaluated
    with numpy's overflow and invalid warnings off: where a high-order
    pole overflows at the far probes the residual is NaN or inf, and that
    is the tripwire's verdict.
    """
    buckets = [[] for _ in range(config.n)]
    regions = _pole_regions(config, [pole for pole, _, _ in h.terms])
    for term, idx in zip(h.terms, regions):
        buckets[idx].append(term)
    comps = [RationalFn(terms=tuple(b)) for b in buckets]
    if probes is None:
        probes = probe_grid(config)
    total = np.zeros_like(np.asarray(probes, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
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
    contour = Contour(config.maps[i], 1.0 + config.ext_margin)
    h_vals = h(contour.points())

    def evaluator(z):
        return cauchy_eval(contour, h_vals, z)

    return evaluator


def pullback_boundary(config, j, h, trunc):
    """Fourier coefficients (neg, pos) of h o f_j on the unit circle.

    neg[m-1] and pos[m-1] are the z^{-m} and z^m coefficients, m = 1..trunc;
    the constant is dropped.  For rational h with poles strictly inside the
    regions the samples are analytic across |w| = 1, so they are exact up
    to aliasing.
    """
    return sample_to_coeffs(lambda w: h(evaluate_map(config.maps[j], w)), trunc)


def _boundary_halves(config, h, trunc):
    """(minus, plus) arrays [k, m-1]: the z^{-m} and z^m coefficients of h o f_k."""
    halves = []
    try:
        for k in range(config.n):
            halves.append(pullback_boundary(config, k, h, trunc))
    except AliasError as exc:
        raise AliasError("boundary %d: %s" % (k, exc)) from None
    return np.stack(halves, axis=1)


@dataclass
class GraphCheckReport:
    """Membership test of h against the graph of the block operator.

    u[k, m-1] and v[k, m-1] are the z^{-m} and z^m coefficients of h o f_k,
    predicted[k, m-1] those of G u, and residual the orthonormal-coordinate
    ratio ||v - G u|| / max(||u||, eps); the arrays have shape (n, trunc).
    """

    u: np.ndarray
    v: np.ndarray
    predicted: np.ndarray
    u_norm: float
    residual: float


def graph_check(config, h, trunc, gr=None):
    """Check that the boundary data of h lies on the operator graph, v = Gr u.

    Both halves come from one pullback per boundary; the prediction is
    apply_grunsky of the minus halves, cut to trunc (gr may be assembled at
    a larger truncation, and its entries past trunc count as zero).
    """
    if gr is None:
        gr = assemble(config, trunc)
    if gr.trunc < trunc:
        raise ValueError("matrix truncation is smaller than requested")
    u, v = _boundary_halves(config, h, trunc)
    predicted = apply_grunsky(gr, u)[:, :trunc]
    u_norm = dirichlet_norm(u)
    residual = dirichlet_norm(v - predicted) / max(u_norm, 1e-30)
    return GraphCheckReport(u=u, v=v, predicted=predicted, u_norm=u_norm,
                            residual=residual)


def faber_coefficients(config, h, trunc):
    """Array a[k, m-1]: coefficient of the degree-m Faber function of map k.

    Phi^i_m o f_k has minus half delta_{ik} z^{-m}, so the coefficients on
    boundary k are the minus half of h o f_k.  Raises PoleOutsideRegions
    when a pole of h lies in no region.
    """
    _pole_regions(config, h.poles())
    return _boundary_halves(config, h, trunc)[0]


@dataclass
class SeriesErrorTable:
    """Sup errors of Faber partial sums and the fitted tail ratio.

    errors[M-1] = sup over the grid of |h - S_M|.  fitted_ratio is the
    geometric rate regressed from the decaying stretch (None when the
    series terminates before a rate is visible); terminated_at is the
    first M whose error hits the numerical floor, when that happens.
    coefficients is the faber_coefficients array the sums were built from.
    """

    orders: np.ndarray
    errors: np.ndarray
    fitted_ratio: float
    terminated_at: int
    coefficients: np.ndarray


def faber_partial_sum_error(config, h, m_max):
    """Error table of the multi-boundary Faber partial sums of h on boundary_grid."""
    grid = boundary_grid(config)
    coeffs = faber_coefficients(config, h, m_max)
    target = h(grid)
    contrib = np.zeros((m_max, grid.size), dtype=complex)
    for k, spec in enumerate(config.maps):
        contrib += (faber_values(spec, 1.0 / (grid - spec.center), m_max) * coeffs[k]).T
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
                            fitted_ratio=fitted, terminated_at=terminated_at,
                            coefficients=coeffs)


def dirichlet_norm_sigma(config, h, n_samples=2048):
    """Dirichlet seminorm of h over the common exterior domain.

    Green's identity turns the area integral of |h'|^2 into boundary
    terms; with every curve traversed counterclockwise in the parameter
    and h vanishing at infinity,

        ||h||^2 = - sum_i (1/2i) * integral over f_i({|w|=1}) of conj(h) h' dz.

    Rational h with poles inside the regions is analytic across the
    curves, so the trapezoid rule on them is spectrally accurate; n_samples
    per curve is a power of two >= 64.
    """
    hp = h.derivative()
    total = 0j
    for spec in config.maps:
        contour = Contour(spec, 1.0, n_samples)
        zeta, dz = contour.points(), contour.dpoints()
        total += (2 * np.pi / n_samples) * np.sum(np.conj(h(zeta)) * hp(zeta) * dz)
    value = -total / 2j
    return float(value.real)
