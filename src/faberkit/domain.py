"""Polynomial conformal maps and multi-domain configurations.

A region system is described by n polynomial maps f_i(w) = p_i + sum_k a_k w^k,
each injective on a disk slightly larger than the unit disk.  f_i carries the
unit circle to an analytic Jordan curve G_i = f_i({|w|=1}); the curves bound
disjoint closed regions whose common exterior (plus the point at infinity) is
the domain all boundary operators act on.
"""

import cmath

import numpy as np
from dataclasses import dataclass, field

from .coeffs import unit_roots

DEFAULT_EXT_MARGIN = 0.05
DEFAULT_SEPARATION = 1e-3
DEFAULT_BOUNDARY_SAMPLES = 4096
_CKDTREE = None


def cKDTree(data):
    """scipy.spatial.cKDTree(data), imported on the first call.

    Loading scipy.spatial costs more than the rest of the package, and only
    validate_config needs the tree.  A module-level function, so the name
    can be patched like any other.
    """
    global _CKDTREE
    if _CKDTREE is None:
        from scipy.spatial import cKDTree as _CKDTREE
    return _CKDTREE(data)


@dataclass(frozen=True)
class ConformalMapSpec:
    """Polynomial map w -> center + sum_k coeffs[k-1] * w**k.

    The center and coeffs must be finite and coeffs[0] (the linear
    coefficient) nonzero; injectivity on the extended disk is not enforced
    here, it is what validate_config checks.
    """

    center: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("need at least the linear coefficient")
        if not all(map(cmath.isfinite, (self.center,) + self.coeffs)):
            raise ValueError("center and coefficients must be finite")
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
        for name in ("ext_margin", "separation"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError("%s must be positive and finite" % name)

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
    """Samples of f at the n_samples nodes radius * unit_roots(n_samples)."""
    return evaluate_map(spec, radius * unit_roots(n_samples))


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
    """Proper-crossing test on the closed polyline through `points`.

    Segment k runs from a_k = points[k] to a_k + d_k.  Two segments that
    meet at a point p have midpoints within |d_i|/2 + |d_j|/2 <= max|d| of
    each other (each midpoint lies within half its segment's length of p),
    so every crossing pair is among the pairs of midpoints no farther apart
    than the longest segment, which a KD-tree lists in O(N log N).  The
    radius is widened by a few ulps of the coordinates to cover rounding
    in the midpoints.  Adjacent segments (sharing a vertex) are skipped;
    every remaining candidate gets the strict sign test in both
    orientations, so the answer is exact for the sampled polyline and the
    same as testing all pairs.
    """
    n = points.size
    a = points
    b = np.roll(points, -1)
    d = b - a
    mid = 0.5 * (a + b)
    radius = np.max(np.abs(d)) + 4.0 * np.finfo(float).eps * np.max(np.abs(mid))
    pairs = cKDTree(np.column_stack([mid.real, mid.imag])).query_pairs(
        radius, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    gap = np.abs(j - i)
    keep = (gap > 1) & (gap < n - 1)
    i, j = i[keep], j[keep]
    for p, q in ((i, j), (j, i)):
        s1 = _cross(d[p], a[q] - a[p])
        s2 = _cross(d[p], b[q] - a[p])
        t1 = _cross(d[q], a[p] - a[q])
        t2 = _cross(d[q], (a[p] + d[p]) - a[q])
        if np.any((s1 * s2 < 0) & (t1 * t2 < 0)):
            return True
    return False


def _pairwise_min_distance(pa, pb):
    """Smallest distance between a sample of pa and a sample of pb.

    The nearest neighbours of every 64th point of pa bound the minimum
    from above by D.  The full query then searches only below the next
    float after D (its bound is strict): it prunes most of the tree yet
    returns the minimum pair distance as an unbounded query computes it.
    """
    tree = cKDTree(np.column_stack([pb.real, pb.imag]))
    xa = np.column_stack([pa.real, pa.imag])
    bound = float(np.min(tree.query(xa[::64], k=1)[0]))
    # the tree compares squared distances: the next float after 0 squares
    # to 0, and a strict bound of 0 would admit nothing
    if bound == 0.0:
        return 0.0
    dist, _ = tree.query(xa, k=1, distance_upper_bound=np.nextafter(bound, np.inf))
    return float(np.min(dist))


def winding_number(points, z0):
    """Winding of the sampled closed curve around z0.

    An int for scalar z0; for an array z0 an int array of its shape, one
    winding number per point, from one pass over the curve.  The sampled
    curve winds around no point outside its bounding box: those get 0
    without the angle sum.
    """
    z = np.asarray(z0, dtype=complex)
    box = ((z.real >= points.real.min()) & (z.real <= points.real.max())
           & (z.imag >= points.imag.min()) & (z.imag <= points.imag.max()))
    out = np.zeros(z.shape, dtype=int)
    if np.any(box):
        rel = np.subtract.outer(points, z[box])
        # z0 exactly on a sample would divide by zero; nudge such entries
        rel = np.where(np.abs(rel) < 1e-300, 1e-300, rel)
        ratios = np.roll(rel, -1, axis=0) / rel
        out[box] = np.rint(np.sum(np.angle(ratios), axis=0) / (2.0 * np.pi))
    return int(out) if out.ndim == 0 else out


def validate_config(config):
    """Geometric admissibility checks for a configuration.

    Per map: f' has no zero in the extended disk (exact, via polynomial
    roots) and the radius-1 image is a simple closed curve (sampled
    polyline test).  Across maps: the margin curves keep at least
    `config.separation` apart, stay outside one another, and no center
    lies inside a foreign region.  Distance and intersection checks work
    on the curves sampled at DEFAULT_BOUNDARY_SAMPLES points: they are
    exact for those polylines (the crossing test on KD-tree candidate
    pairs, the distances as nearest sample pairs, or 0 where eight probe
    points of one curve find it overlapping another) but only approximate
    the analytic curves.  The derivative check is exact.  Each curve costs
    O(N log N) in the sample count N.
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
        grid = np.outer(grid_r, unit_roots(256)).ravel()
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

    # Overlap of distinct regions shows up as nonzero winding of one curve
    # around probe points of another even when sampled min distances stay
    # above the floor; overlapping curves are 0 apart.
    probe_idx = np.arange(0, n_samples, max(1, n_samples // 8))
    centers = [spec.center for spec in config.maps]

    def overlaps(curves):
        return np.array([[i != j and bool(np.any(winding_number(curves[i], curves[j][probe_idx])))
                          for j in range(n)] for i in range(n)])

    overlap_1 = overlaps(curves_1)
    overlap_m = overlaps(curves_m)
    curve_dist = np.zeros((n, n))
    margin_dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if not (overlap_1[i, j] or overlap_1[j, i]):
                curve_dist[i, j] = curve_dist[j, i] = _pairwise_min_distance(
                    curves_1[i], curves_1[j]
                )
            if not (overlap_m[i, j] or overlap_m[j, i]):
                margin_dist[i, j] = margin_dist[j, i] = _pairwise_min_distance(
                    curves_m[i], curves_m[j]
                )
            if margin_dist[i, j] < config.separation:
                failures.append(
                    "maps %d/%d: margin curves come within %.3g < separation %.3g"
                    % (i, j, margin_dist[i, j], config.separation)
                )

    winding = np.array([winding_number(curves_1[i], centers) for i in range(n)])
    for i in range(n):
        if winding[i, i] != 1:
            failures.append("map %d: curve does not wind once around its center" % i)
    for i in range(n):
        for j in range(n):
            if i != j and winding[i, j] != 0:
                failures.append("center %d lies inside region %d" % (j, i))

    for i in range(n):
        j = np.flatnonzero(overlap_m[i])
        if j.size:
            failures.append("margin curves %d and %d overlap" % (i, j[0]))

    return ValidationReport(
        map_reports=map_reports,
        curve_distances=curve_dist,
        margin_distances=margin_dist,
        winding=winding,
        failures=failures,
    )
