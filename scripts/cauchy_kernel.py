"""Time the Cauchy kernel on each bundled config's probe grid and report its rounding floor.

Usage: python3 scripts/cauchy_kernel.py [--reps 20] [--functions 20]

For every config in configs/ and seeded rational functions h with poles
inside each region, the projection onto each region's component is
evaluated on the probe grid with one cauchy_eval call.  The columns are
the median time of one call, the number of probes, the mean number of
pairs of probe and contour sample one call evaluates (counted through
quadrature.cdist, so it shows where the nested rules stop), the worst gap
max |projection_component - exact component| over the grid, and the
worst gap to the full trapezoid rule, the sum over all of the contour's
samples that cauchy_eval's nested rules stop short of where they have
converged; both gaps are relative to max |h| on the grid.
"""

import argparse
import math
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from faberkit import (
    Contour,
    RationalFn,
    decompose,
    evaluate_map,
    probe_grid,
    projection_component,
    quadrature,
)
from faberkit.cli import load_config_file


def seeded_rational(config, seed):
    """One or two poles f_j(w0), |w0| <= 0.6, of order 1 or 2 in every region j."""
    rng = np.random.default_rng(seed)
    terms = []
    for spec in config.maps:
        for _ in range(rng.integers(1, 3)):
            w0 = 0.6 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            terms.append((complex(evaluate_map(spec, w0)), int(rng.integers(1, 3)), coeff))
    return RationalFn(terms=tuple(terms))


def counted_pairs(proj, probes):
    """The pairs of probe and sample that one call proj(probes) evaluates."""
    pairs = []
    cdist = quadrature.cdist

    def counting_cdist(a, b):
        pairs.append(len(a) * len(b))
        return cdist(a, b)

    quadrature.cdist = counting_cdist
    try:
        proj(probes)
    finally:
        quadrature.cdist = cdist
    return sum(pairs)


def full_rule(contour, h_vals, z):
    """The trapezoid sum over all samples, as one complex division matrix."""
    zeta = contour.points()
    weights = h_vals * contour.dpoints()
    return -np.sum(weights[:, None] / (zeta[:, None] - z[None, :]), axis=0) / (1j * zeta.size)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=20, help="timed calls per projection")
    parser.add_argument("--functions", type=int, default=20, help="seeded functions per config")
    args = parser.parse_args()

    print("%-16s %-10s %-7s %-10s %-10s %-10s"
          % ("config", "call_ms", "probes", "pairs", "worst_gap", "full_rule_gap"))
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = load_config_file(str(path))
        probes = probe_grid(config)
        times, pairs, worst, full_gap = [], [], 0.0, 0.0
        for seed in range(args.functions):
            h = seeded_rational(config, seed)
            comps = decompose(config, h, probes=probes).components
            scale = float(np.max(np.abs(h(probes))))
            for i, comp in enumerate(comps):
                proj = projection_component(config, i, h)
                for _ in range(args.reps):
                    start = time.perf_counter()
                    vals = proj(probes)
                    times.append(time.perf_counter() - start)
                pairs.append(counted_pairs(proj, probes))
                worst = max(worst, float(np.max(np.abs(vals - comp(probes)))) / scale)
                contour = Contour(config.maps[i], 1.0 + config.ext_margin)
                dense = full_rule(contour, h(contour.points()), probes)
                full_gap = max(full_gap, float(np.max(np.abs(vals - dense))) / scale)
        print("%-16s %-10.3f %-7d %-10.1f %-10.3g %-10.3g"
              % (path.stem, 1e3 * np.median(times), probes.size, np.mean(pairs), worst,
                 full_gap))


if __name__ == "__main__":
    main()
