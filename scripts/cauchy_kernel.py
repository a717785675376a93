"""Time the Cauchy kernel on each bundled config's probe grid and report its rounding floor.

Usage: python3 scripts/cauchy_kernel.py [--reps 20] [--functions 20]

For every config in configs/ and seeded rational functions h with poles
inside each region, the projection onto each region's component is
evaluated on the probe grid with one cauchy_eval call.  The columns are
the median time of one call, the number of probes, and the worst gap
max |projection_component - exact component| over the grid, relative
to max |h| there.
"""

import argparse
import math
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from faberkit import RationalFn, decompose, evaluate_map, probe_grid, projection_component
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=20, help="timed calls per projection")
    parser.add_argument("--functions", type=int, default=20, help="seeded functions per config")
    args = parser.parse_args()

    print("%-16s %-10s %-7s %-10s" % ("config", "call_ms", "probes", "worst_gap"))
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = load_config_file(str(path))
        probes = probe_grid(config)
        times, worst = [], 0.0
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
                worst = max(worst, float(np.max(np.abs(vals - comp(probes)))) / scale)
        print("%-16s %-10.3f %-7d %-10.3g" % (path.stem, 1e3 * np.median(times), probes.size, worst))


if __name__ == "__main__":
    main()
