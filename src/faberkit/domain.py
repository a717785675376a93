"""Polynomial conformal maps and multi-domain configurations.

A region system is described by n polynomial maps f_i(w) = p_i + sum_k a_k w^k,
each injective on a disk slightly larger than the unit disk.  f_i carries the
unit circle to an analytic Jordan curve G_i = f_i({|w|=1}); the curves bound
disjoint closed regions whose common exterior (plus the point at infinity) is
the domain all boundary operators act on.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.spatial import cKDTree

from .errors import NonConvergence, OutsideRange

DEFAULT_EXT_MARGIN = 0.05
DEFAULT_SEPARATION = 1e-3
DEFAULT_BOUNDARY_SAMPLES = 4096


@dataclass(frozen=True)
class ConformalMapSpec:
    """Polynomial map w -> center + sum_k coeffs[k-1] * w**k.

    coeffs[0] (the linear coefficient) must be nonzero; injectivity on the
    extended disk is not enforced here, it is what validate_config checks.
    """

    center: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("need at least the linear coefficient")
        if self.coeffs[0] == 0:
            raise ValueError("linear coefficient must be nonzero")

    @property
    def degree(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class MultiDomainConfig:
    """An ordered family of maps plus the validation margins."""

    maps: tuple
    ext_margin: float = DEFAULT_EXT_MARGIN
    separation: float = DEFAULT_SEPARATION

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) < 1:
            raise ValueError("need at least one map")
        if not all(isinstance(m, ConformalMapSpec) for m in self.maps):
            raise TypeError("maps must be ConformalMapSpec instances")
        if not (self.ext_margin > 0):
            raise ValueError("ext_margin must be positive")
        if not (self.separation > 0):
            raise ValueError("separation must be positive")

    @property
    def n(self):
        return len(self.maps)


def evaluate_map(spec, w):
    """f(w), vectorized over w."""
    w_arr = np.asarray(w, dtype=complex)
    acc = np.zeros_like(w_arr)
    for a in reversed(spec.coeffs):
        acc = acc * w_arr + a
    out = spec.center + acc * w_arr
    if np.isscalar(w) or np.ndim(w) == 0:
        return complex(out)
    return out


def map_derivative(spec, w):
    """f'(w), vectorized over w."""
    w_arr = np.asarray(w, dtype=complex)
    acc = np.zeros_like(w_arr)
    for k in range(len(spec.coeffs), 0, -1):
        acc = acc * w_arr + k * spec.coeffs[k - 1]
    if np.isscalar(w) or np.ndim(w) == 0:
        return complex(acc)
    return acc


def invert_map(spec, zeta, ext_margin=DEFAULT_EXT_MARGIN):
    """Solve f(w) = zeta for the preimage in the extended disk.

    Damped Newton iteration seeded with the affine inverse (zeta - p)/a_1,
    to a residual of 1e-12 relative to max(1, |zeta - p|) within 80 steps.
    Raises NonConvergence when the residual stalls and OutsideRange when the
    converged root lies outside |w| <= 1 + ext_margin.
    """
    tol = 1e-12
    zeta = complex(zeta)
    w = (zeta - spec.center) / spec.coeffs[0]
    resid = abs(evaluate_map(spec, w) - zeta)
    scale = max(1.0, abs(zeta - spec.center))
    for _ in range(80):
        if resid <= tol * scale:
            break
        deriv = map_derivative(spec, w)
        if deriv == 0:
            raise NonConvergence("Newton hit a critical point of the map")
        step = (evaluate_map(spec, w) - zeta) / deriv
        lam = 1.0
        while True:
            trial = w - lam * step
            trial_resid = abs(evaluate_map(spec, trial) - zeta)
            if trial_resid < resid:
                w, resid = trial, trial_resid
                break
            lam *= 0.5
            if lam < 2.0 ** -40:
                raise NonConvergence("damped Newton stalled")
    else:
        if resid > tol * scale:
            raise NonConvergence("Newton did not reach tolerance")
    if abs(w) > 1.0 + ext_margin + 1e-12:
        raise OutsideRange(
            "preimage |w| = %.6g exceeds 1 + ext_margin = %.6g" % (abs(w), 1 + ext_margin)
        )
    return w


@dataclass
class MapReport:
    injective: bool
    min_abs_deriv: float
    critical_radius: float  # inf when f' has no roots
    simple_curve: bool


@dataclass
class ValidationReport:
    """Outcome of the geometric checks on a configuration.

    curve_distances holds sampled distances between the radius-1 curves,
    margin_distances the same for the radius 1+ext_margin curves (these are
    the ones compared against the separation floor).  winding[i, j] is the
    winding number of curve i around center j.
    """

    map_reports: list
    curve_distances: np.ndarray
    margin_distances: np.ndarray
    winding: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def min_curve_distance(self):
        n = self.curve_distances.shape[0]
        if n < 2:
            return np.inf
        iu = np.triu_indices(n, k=1)
        return float(np.min(self.curve_distances[iu]))


def curve_samples(spec, radius, n_samples):
    """Samples of f on the circle |w| = radius, uniform in angle."""
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    return evaluate_map(spec, radius * np.exp(1j * theta))


def _critical_radius(spec):
    """Smallest |w| with f'(w) = 0 (inf for affine maps)."""
    dcoef = [k * spec.coeffs[k - 1] for k in range(1, spec.degree + 1)]
    if len(dcoef) == 1:
        return np.inf
    roots = np.roots(list(reversed(dcoef)))
    return float(np.min(np.abs(roots))) if roots.size else np.inf


def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _curve_self_intersects(points):
    """Proper-crossing test on the closed polyline through `points`."""
    n = points.size
    a = points
    b = np.roll(points, -1)
    d = b - a
    block = 512
    for start in range(0, n, block):
        idx = np.arange(start, min(start + block, n))
        ai = a[idx][:, None]
        di = d[idx][:, None]
        s1 = _cross(di, a[None, :] - ai)
        s2 = _cross(di, b[None, :] - ai)
        t1 = _cross(d[None, :], ai - a[None, :])
        t2 = _cross(d[None, :], (ai + di) - a[None, :])
        hit = (s1 * s2 < 0) & (t1 * t2 < 0)
        gap = (idx[:, None] - np.arange(n)[None, :]) % n
        hit &= (gap > 1) & (gap < n - 1)
        if np.any(hit):
            return True
    return False


def _pairwise_min_distance(pa, pb):
    tree = cKDTree(np.column_stack([pb.real, pb.imag]))
    dist, _ = tree.query(np.column_stack([pa.real, pa.imag]), k=1)
    return float(np.min(dist))


def winding_number(points, z0):
    """Winding of the sampled closed curve around z0."""
    rel = points - z0
    # z0 exactly on a sample would divide by zero; nudge such entries
    rel = np.where(np.abs(rel) < 1e-300, 1e-300, rel)
    ratios = np.roll(rel, -1) / rel
    total = np.sum(np.angle(ratios)) / (2.0 * np.pi)
    return int(np.rint(total))


def validate_config(config):
    """Geometric admissibility checks for a configuration.

    Per map: f' has no zero in the extended disk (exact, via polynomial
    roots) and the radius-1 image is a simple closed curve (sampled
    polyline test).  Across maps: the margin curves keep at least
    `config.separation` apart, stay outside one another, and no center
    lies inside a foreign region.  Distance and intersection checks are
    sampled heuristics; the derivative check is exact.
    """
    n = config.n
    n_samples = DEFAULT_BOUNDARY_SAMPLES
    eps = config.ext_margin
    failures = []
    map_reports = []

    curves_1 = []
    curves_m = []
    for k, spec in enumerate(config.maps):
        crit = _critical_radius(spec)
        grid_r = np.linspace(0.0, 1.0 + eps, 33)[1:]
        grid_t = np.exp(2j * np.pi * np.arange(256) / 256)
        grid = np.outer(grid_r, grid_t).ravel()
        min_deriv = float(np.min(np.abs(map_derivative(spec, grid))))
        injective = crit > 1.0 + eps
        c1 = curve_samples(spec, 1.0, n_samples)
        simple = not _curve_self_intersects(c1)
        map_reports.append(MapReport(injective, min_deriv, crit, simple))
        if not injective:
            failures.append(
                "map %d: derivative vanishes at radius %.6g <= 1+ext_margin" % (k, crit)
            )
        if not simple:
            failures.append("map %d: boundary curve self-intersects" % k)
        curves_1.append(c1)
        curves_m.append(curve_samples(spec, 1.0 + eps, n_samples))

    curve_dist = np.zeros((n, n))
    margin_dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            curve_dist[i, j] = curve_dist[j, i] = _pairwise_min_distance(
                curves_1[i], curves_1[j]
            )
            margin_dist[i, j] = margin_dist[j, i] = _pairwise_min_distance(
                curves_m[i], curves_m[j]
            )
            if margin_dist[i, j] < config.separation:
                failures.append(
                    "maps %d/%d: margin curves come within %.3g < separation %.3g"
                    % (i, j, margin_dist[i, j], config.separation)
                )

    winding = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            winding[i, j] = winding_number(curves_1[i], config.maps[j].center)
        if winding[i, i] != 1:
            failures.append("map %d: curve does not wind once around its center" % i)
    for i in range(n):
        for j in range(n):
            if i != j and winding[i, j] != 0:
                failures.append("center %d lies inside region %d" % (j, i))

    # Overlap of distinct regions shows up as nonzero winding of one margin
    # curve around probe points of another even when sampled min distances
    # stay above the floor.
    probe_idx = np.arange(0, n_samples, max(1, n_samples // 8))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            probes = curves_m[j][probe_idx]
            wind = [winding_number(curves_m[i], z) for z in probes]
            if any(w != 0 for w in wind):
                failures.append("margin curves %d and %d overlap" % (i, j))
                break

    return ValidationReport(
        map_reports=map_reports,
        curve_distances=curve_dist,
        margin_distances=margin_dist,
        winding=winding,
        failures=failures,
    )
