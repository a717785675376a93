"""Sweep the operator norm over nested truncations for the bundled configs.

Usage: python3 scripts/norm_sweep.py [--trunc 64] [--out sweep.csv]

The printed sigma_max values are lower bounds that grow toward the true
operator norm as the truncation increases; the growth per doubling is a
cheap convergence diagnostic.
"""

import argparse
import csv
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from faberkit import assemble, norm_history
from faberkit.cli import load_config_file


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trunc", type=int, default=64)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    truncs = []
    t = args.trunc
    while t >= 8:
        truncs.append(t)
        t //= 2
    truncs = sorted(truncs)

    rows = []
    for path in sorted(cfg_dir.glob("*.json")):
        config = load_config_file(path)
        gr = assemble(config, args.trunc)
        hist = norm_history(gr, truncs=truncs)
        for t in truncs:
            rows.append((path.stem, t, hist[t]))
        print(path.stem)
        for t in truncs:
            print("  M=%-4d sigma_max=%.12f" % (t, hist[t]))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["config", "trunc", "sigma_max"])
            writer.writerows(rows)
        print("wrote %s" % args.out)


if __name__ == "__main__":
    main()
