"""Stage times, peak memory and export size of `grunsky` on many boundaries.

Usage: python3 scripts/many_boundaries.py [--n 4 8 12] [--trunc 64 128 256]

n boundaries alternate unit disks with w + 0.15 w^2 (ext_margin 0.05).
Their centers sit on a circle sized so that neighbours are as far apart as
on the 12-boundary ring of radius 4.58.  For each n and truncation T the
script runs what `faberkit grunsky` runs: assemble with its
cross-checks, the sigma history (norm_history), write_matrix into a
temporary file and read_matrix back.  It prints the wall time of each stage,
sigma_max, the peak RSS of the process so far and the size of the export.
"""

import argparse
import cmath
import math
import pathlib
import resource
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from faberkit import ConformalMapSpec, MultiDomainConfig, assemble, norm_history
from faberkit import read_matrix, write_matrix

# neighbouring centers on the 12-boundary ring of radius 4.58
SPACING = 2 * 4.58 * math.sin(math.pi / 12)


def ring(n):
    radius = SPACING / (2 * math.sin(math.pi / n))
    maps = tuple(ConformalMapSpec(center=cmath.rect(radius, 2 * math.pi * k / n),
                                  coeffs=(1.0,) if k % 2 == 0 else (1.0, 0.15))
                 for k in range(n))
    return MultiDomainConfig(maps=maps, ext_margin=0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[4, 8, 12])
    parser.add_argument("--trunc", type=int, nargs="+", default=[64, 128, 256])
    args = parser.parse_args()

    print("%3s %4s %5s %10s %9s %9s %9s %20s %12s %10s" % (
        "n", "T", "nT", "assemble_s", "sigma_s", "write_s", "read_s", "sigma_max",
        "peak_rss_mb", "export_mb"))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "grunsky_matrix.txt"
        for n in args.n:
            config = ring(n)
            for trunc in args.trunc:
                t0 = time.perf_counter()
                gr = assemble(config, trunc)
                t1 = time.perf_counter()
                history = norm_history(gr)
                t2 = time.perf_counter()
                with open(path, "w") as fh:
                    write_matrix(gr, fh, sigma_history=history)
                t3 = time.perf_counter()
                with open(path) as fh:
                    read_matrix(fh)
                t4 = time.perf_counter()
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                print("%3d %4d %5d %10.3f %9.3f %9.3f %9.3f %20.17g %12.1f %10.2f" % (
                    n, trunc, n * trunc, t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                    history[trunc], peak_mb, path.stat().st_size / 1e6))
                del gr  # the next assemble does not hold two operators at once


if __name__ == "__main__":
    main()
