"""Command-line front end.

Subcommands: validate, grunsky, graph-check, faber-series, decompose, each
listed once in FLAGS and run by cmd_<name> on the parsed arguments, with
--config loaded and --function parsed.  Configs are JSON files:

    {"maps": [{"center": [re, im], "coeffs": [[re, im], ...]}, ...],
     "ext_margin": 0.05, "separation": 0.001}

Rational test functions are passed as --function POLESPEC with POLESPEC a
semicolon-separated list of terms "re,im,order,cre,cim", each meaning
(cre + i cim) / (z - (re + i im))^order.

Exit codes: 0 success, 1 a mathematical check failed, 2 input error.
Input errors include a number that is not finite, a complex number that is
not an [re, im] pair, --trunc outside [1, 256] and a negative --tol.  Each
cmd_<name> writes its files and raises FaberkitError naming the check that
failed, if one did; main alone prints that line and picks the exit code.
All output files start with the line "faberkit.v1" or are plain CSV; runs
are deterministic for fixed inputs and flags.
"""

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import analysis, grunsky
from .domain import ConformalMapSpec, MultiDomainConfig, validate_config
from .errors import FaberkitError
from .faber import RationalFn

SCHEMA = "faberkit.v1"
MAX_TRUNC = 256
# decompose's quadrature projections must agree with its exact components
# within this, relative to max(1, max|h|) on the check points
AGREEMENT_TOL = 1e-6

# every subcommand and the flags it reads, besides --config and --out
FLAGS = {
    "validate": (),
    "grunsky": ("trunc",),
    "graph-check": ("trunc", "tol", "function"),
    "faber-series": ("trunc", "function"),
    "decompose": ("function",),
}


def _pair(value):
    if len(value) != 2:
        raise ValueError("complex numbers are [re, im] pairs, got %s" % json.dumps(value))
    return complex(value[0], value[1])


def load_config_file(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "maps" not in data:
        raise ValueError("config must be an object with a 'maps' list")
    maps = tuple(ConformalMapSpec(center=_pair(entry["center"]),
                                  coeffs=tuple(_pair(c) for c in entry["coeffs"]))
                 for entry in data["maps"])
    margins = {key: float(data[key]) for key in ("ext_margin", "separation") if key in data}
    return MultiDomainConfig(maps=maps, **margins)


def parse_polespec(text):
    terms = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.split(",")
        if len(parts) != 5:
            raise ValueError("each term needs re,im,order,cre,cim")
        re_p, im_p, order, re_c, im_c = parts
        terms.append((complex(float(re_p), float(im_p)), int(order),
                      complex(float(re_c), float(im_c))))
    if not terms:
        raise ValueError("empty function descriptor")
    return RationalFn(terms=tuple(terms))


def _fmt(x):
    return "%.17g" % x


def _bool(x):
    return "true" if x else "false"


def _open_out(args, name):
    os.makedirs(args.out, exist_ok=True)
    return open(os.path.join(args.out, name), "w", newline="")


def _write(args, name, kind, lines):
    """A faberkit.v1 report: the schema line, its kind, then the lines."""
    with _open_out(args, name) as fh:
        fh.write("%s\nkind = %s\n" % (SCHEMA, kind))
        fh.writelines(line + "\n" for line in lines)


def _write_csv(args, name, header, rows):
    with _open_out(args, name) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_validate(args):
    report = validate_config(args.config)
    _write(args, "validation.txt", "validation_report", (
        ["n = %d" % args.config.n, "passed = %s" % _bool(report.passed),
         "min_curve_distance = %s" % _fmt(report.min_curve_distance())]
        + ["map %d injective=%s min_abs_deriv=%s critical_radius=%s simple_curve=%s"
           % (k, _bool(mr.injective), _fmt(mr.min_abs_deriv), _fmt(mr.critical_radius),
              _bool(mr.simple_curve)) for k, mr in enumerate(report.map_reports)]
        + ["curve_distances %d = %s" % (i, " ".join(map(_fmt, row)))
           for i, row in enumerate(report.curve_distances)]
        + ["winding %d = %s" % (i, " ".join(map(str, row)))
           for i, row in enumerate(report.winding)]
        + ["failure: %s" % msg for msg in report.failures]))
    if not report.passed:
        raise FaberkitError(report.failures[0])


def cmd_grunsky(args):
    gr = grunsky.assemble(args.config, args.trunc)
    history = grunsky.norm_history(gr)
    with _open_out(args, "grunsky_matrix.txt") as fh:
        grunsky.write_matrix(gr, fh, sigma_history=history)
    _write_csv(args, "norm_history.csv", ["trunc", "sigma_max"],
               ([t, _fmt(history[t])] for t in sorted(history)))
    sigma = history[gr.trunc]
    print("sigma_max = %s" % _fmt(sigma))
    if not sigma < 1.0:
        raise FaberkitError("sigma_max = %s is not below 1" % _fmt(sigma))


def cmd_graph_check(args):
    gr = grunsky.assemble(args.config, args.trunc)
    report = analysis.graph_check(args.config, args.function, args.trunc, gr)
    passed = report.residual <= args.tol
    _write(args, "graph_check.txt", "graph_check", [
        "trunc = %d" % args.trunc, "residual = %s" % _fmt(report.residual),
        "u_norm = %s" % _fmt(report.u_norm), "tol = %s" % _fmt(args.tol),
        "passed = %s" % _bool(passed)])
    _write_csv(args, "graph_vectors.csv",
               ["boundary", "n", "u_re", "u_im", "v_re", "v_im", "pred_re", "pred_im"],
               ([j, n] + [_fmt(x) for c in cs for x in (c.real, c.imag)]
                for j in range(args.config.n)
                for n, *cs in zip(range(1, args.trunc + 1), report.u[j], report.v[j],
                                  report.predicted[j])))
    print("graph residual = %s" % _fmt(report.residual))
    if not passed:
        # a pole in no region breaks the graph identity: name it, a lookup
        # that only a failing run pays for
        analysis._pole_regions(args.config, args.function.poles())
        raise FaberkitError("graph residual = %s is not within tol = %s"
                            % (_fmt(report.residual), _fmt(args.tol)))


def cmd_faber_series(args):
    table = analysis.faber_partial_sum_error(args.config, args.function, args.trunc)
    _write_csv(args, "faber_coefficients.csv", ["boundary", "m", "re", "im"],
               ([k, m, _fmt(a.real), _fmt(a.imag)]
                for k, row in enumerate(table.coefficients)
                for m, a in enumerate(row, start=1)))
    _write_csv(args, "faber_errors.csv", ["order", "sup_error"],
               ([int(m), _fmt(e)] for m, e in zip(table.orders, table.errors)))
    ratio = "none" if table.fitted_ratio is None else _fmt(table.fitted_ratio)
    first, last = table.errors[0], table.errors[-1]
    converged = table.terminated_at > 0 or last <= first
    _write(args, "faber_series.txt", "faber_series", [
        "trunc = %d" % args.trunc, "terminated_at = %d" % table.terminated_at,
        "fitted_ratio = %s" % ratio, "converged = %s" % _bool(converged)])
    if not converged:
        raise FaberkitError("Faber series does not converge: sup error %s at order 1, "
                            "%s at order %d" % (_fmt(first), _fmt(last), args.trunc))


def cmd_decompose(args):
    config, fn = args.config, args.function
    probes = analysis.probe_grid(config)
    result = analysis.decompose(config, fn, probes=probes)
    check_pts = probes[:: max(1, probes.size // 16)]
    exact = [analysis.projection_component(config, i, fn)(check_pts) for i in range(config.n)]
    # as in decompose's residual, h overflowing at the far check points
    # gives a NaN that is a verdict, not a warning; np.max carries it
    # through where max() would drop it
    with np.errstate(over="ignore", invalid="ignore"):
        agree = float(np.max([np.max(np.abs(e - comp(check_pts)))
                              for e, comp in zip(exact, result.components)]))
        bound = AGREEMENT_TOL * float(np.maximum(1.0, np.max(np.abs(fn(check_pts)))))
    body = []
    for i, comp in enumerate(result.components):
        body.append("component %d terms = %d" % (i, len(comp.terms)))
        body += ["  pole %s %s order %d coeff %s %s"
                 % (_fmt(pole.real), _fmt(pole.imag), order, _fmt(coeff.real),
                    _fmt(coeff.imag)) for pole, order, coeff in comp.terms]
    _write(args, "decompose.txt", "decomposition",
           ["n = %d" % config.n, "residual = %s" % _fmt(result.residual),
            "quadrature_agreement = %s" % _fmt(agree)] + body)
    if not np.isfinite(result.residual):
        raise FaberkitError("residual = %s on the probe grid is not finite"
                            % _fmt(result.residual))
    for name, value in (("residual", result.residual), ("quadrature_agreement", agree)):
        if not value <= bound:
            raise FaberkitError("%s = %s exceeds %s, %g of max(1, max|h|)"
                                % (name, _fmt(value), _fmt(bound), AGREEMENT_TOL))


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree for FLAGS, built on the first call and shared by
    every later one: parse_args keeps no state between calls, and building
    it costs more than parsing."""
    parser = argparse.ArgumentParser(
        prog="faberkit",
        description="Faber/Grunsky diagnostics for multi-region circle-domain images")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".")
        if "trunc" in flags:
            p.add_argument("--trunc", type=int, default=16)
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=1e-7)
        if "function" in flags:
            p.add_argument("--function", required=True,
                           help="rational function as 're,im,order,cre,cim;...' "
                                "(write --function=SPEC when SPEC starts with a dash)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = FLAGS[args.command]
    try:
        args.config = load_config_file(args.config)
        if "function" in flags:
            args.function = parse_polespec(args.function)
        if "trunc" in flags and not 1 <= args.trunc <= MAX_TRUNC:
            raise ValueError("--trunc must be in [1, %d]" % MAX_TRUNC)
        if "tol" in flags and not 0 <= args.tol < np.inf:
            raise ValueError("--tol must be finite and >= 0")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    # looked up at each call, so a wrapper put on a cmd_* attribute is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        handler(args)
    except FaberkitError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
