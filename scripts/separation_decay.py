"""Operator norm of two unit disks against its exact value, by separation.

Usage: python3 scripts/separation_decay.py [--trunc 32]

The exterior of two disks of radii r1, r2 at center distance d is
Moebius-equivalent to an annulus rho < |z| < 1 with
rho = exp(-arccosh((d^2 - r1^2 - r2^2) / (2 r1 r2))), and its Grunsky
operator has norm rho.  For unit disks centered at -d/2 and d/2 the script
prints sigma_max at the truncation T, rho and sigma_T - rho, a lower bound
that closes as T grows (slowest near contact, d -> 2).
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from faberkit import ConformalMapSpec, MultiDomainConfig, assemble, operator_norm


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trunc", type=int, default=32)
    args = parser.parse_args()

    print("%-8s %-18s %-18s %-10s" % ("d", "sigma_T", "rho", "sigma_T-rho"))
    for d in (2.003, 2.01, 2.1, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0):
        config = MultiDomainConfig(
            maps=(ConformalMapSpec(center=-d / 2, coeffs=(1.0,)),
                  ConformalMapSpec(center=d / 2, coeffs=(1.0,))))
        sigma = operator_norm(assemble(config, args.trunc))
        rho = math.exp(-math.acosh((d * d - 2.0) / 2.0))
        print("%-8.3f %-18.12f %-18.12f %-10.3g" % (d, sigma, rho, sigma - rho))


if __name__ == "__main__":
    main()
