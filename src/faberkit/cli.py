"""Command-line front end.

Subcommands: validate, grunsky, graph-check, faber-series, decompose.
Configs are JSON files:

    {"maps": [{"center": [re, im], "coeffs": [[re, im], ...]}, ...],
     "ext_margin": 0.05, "separation": 0.001}

Rational test functions are passed as --function POLESPEC with POLESPEC a
semicolon-separated list of terms "re,im,order,cre,cim", each meaning
(cre + i cim) / (z - (re + i im))^order.

Exit codes: 0 success, 1 a mathematical check failed, 2 input error.
All output files start with the line "faberkit.v1" or are plain CSV; runs
are deterministic for fixed inputs, flags and FABERKIT_SEED.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np
from dataclasses import dataclass

from . import analysis, grunsky
from .domain import ConformalMapSpec, MultiDomainConfig, validate_config
from .errors import FaberkitError
from .faber import RationalFn

SCHEMA = "faberkit.v1"
MAX_TRUNC = 256


# the flags each subcommand reads, besides --config and --out
FLAGS = {
    "validate": (),
    "grunsky": ("trunc", "policy"),
    "graph-check": ("trunc", "policy", "tol", "function"),
    "faber-series": ("trunc", "function"),
    "decompose": ("function",),
}


@dataclass
class ExperimentSpec:
    """Validated bundle of one CLI invocation's inputs; None for an unused flag."""

    config: MultiDomainConfig
    out_dir: str
    seed: int
    trunc: int = None
    function: RationalFn = None
    tol: float = None
    policy: str = None

    def check_ranges(self):
        if self.trunc is not None and not (1 <= self.trunc <= MAX_TRUNC):
            raise ValueError("--trunc must be in [1, %d]" % MAX_TRUNC)


def load_config_file(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "maps" not in data:
        raise ValueError("config must be an object with a 'maps' list")
    maps = []
    for entry in data["maps"]:
        center = complex(entry["center"][0], entry["center"][1])
        coeffs = [complex(c[0], c[1]) for c in entry["coeffs"]]
        maps.append(ConformalMapSpec(center=center, coeffs=tuple(coeffs)))
    return MultiDomainConfig(
        maps=tuple(maps),
        ext_margin=float(data.get("ext_margin", 0.05)),
        separation=float(data.get("separation", 1e-3)),
    )


def parse_polespec(text):
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
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


def _open_out(spec, name):
    os.makedirs(spec.out_dir, exist_ok=True)
    return open(os.path.join(spec.out_dir, name), "w", newline="")


def cmd_validate(spec):
    report = validate_config(spec.config)
    with _open_out(spec, "validation.txt") as fh:
        fh.write(SCHEMA + "\n")
        fh.write("kind = validation_report\n")
        fh.write("n = %d\n" % spec.config.n)
        fh.write("passed = %s\n" % ("true" if report.passed else "false"))
        fh.write("min_curve_distance = %s\n" % _fmt(report.min_curve_distance()))
        for k, mr in enumerate(report.map_reports):
            fh.write("map %d injective=%s min_abs_deriv=%s critical_radius=%s "
                     "simple_curve=%s\n"
                     % (k, str(mr.injective).lower(), _fmt(mr.min_abs_deriv),
                        _fmt(mr.critical_radius), str(mr.simple_curve).lower()))
        for i in range(spec.config.n):
            fh.write("curve_distances %d = %s\n"
                     % (i, " ".join(_fmt(d) for d in report.curve_distances[i])))
        for i in range(spec.config.n):
            fh.write("winding %d = %s\n"
                     % (i, " ".join(str(w) for w in report.winding[i])))
        for msg in report.failures:
            fh.write("failure: %s\n" % msg)
    return 0 if report.passed else 1


def cmd_grunsky(spec):
    gr = grunsky.assemble(spec.config, spec.trunc, policy=spec.policy)
    history = grunsky.norm_history(gr)
    with _open_out(spec, "grunsky_matrix.txt") as fh:
        grunsky.write_matrix(gr, fh, sigma_history=history)
    with _open_out(spec, "norm_history.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trunc", "sigma_max"])
        for t in sorted(history):
            writer.writerow([t, _fmt(history[t])])
    sigma = history[gr.trunc]
    print("sigma_max = %s" % _fmt(sigma))
    if sigma < 1.0:
        return 0
    print("check failed: sigma_max = %s is not below 1" % _fmt(sigma), file=sys.stderr)
    return 1


def cmd_graph_check(spec):
    gr = grunsky.assemble(spec.config, spec.trunc, policy=spec.policy)
    report = analysis.graph_check(spec.config, spec.function, spec.trunc, gr)
    with _open_out(spec, "graph_check.txt") as fh:
        fh.write(SCHEMA + "\n")
        fh.write("kind = graph_check\n")
        fh.write("trunc = %d\n" % spec.trunc)
        fh.write("residual = %s\n" % _fmt(report.residual))
        fh.write("u_norm = %s\n" % _fmt(report.u_norm))
        fh.write("tol = %s\n" % _fmt(spec.tol))
        fh.write("passed = %s\n" % ("true" if report.residual <= spec.tol else "false"))
    with _open_out(spec, "graph_vectors.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["boundary", "n", "u_re", "u_im", "v_re", "v_im",
                         "pred_re", "pred_im"])
        for j in range(spec.config.n):
            for n, u, v, p in zip(range(1, spec.trunc + 1), report.u[j], report.v[j],
                                  report.predicted[j]):
                writer.writerow([j, n, _fmt(u.real), _fmt(u.imag),
                                 _fmt(v.real), _fmt(v.imag),
                                 _fmt(p.real), _fmt(p.imag)])
    print("graph residual = %s" % _fmt(report.residual))
    return 0 if report.residual <= spec.tol else 1


def cmd_faber_series(spec):
    table = analysis.faber_partial_sum_error(spec.config, spec.function, spec.trunc)
    with _open_out(spec, "faber_coefficients.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["boundary", "m", "re", "im"])
        for k, row in enumerate(table.coefficients):
            for m, a in enumerate(row, start=1):
                writer.writerow([k, m, _fmt(a.real), _fmt(a.imag)])
    with _open_out(spec, "faber_errors.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["order", "sup_error"])
        for m, e in zip(table.orders, table.errors):
            writer.writerow([int(m), _fmt(e)])
    with _open_out(spec, "faber_series.txt") as fh:
        fh.write(SCHEMA + "\n")
        fh.write("kind = faber_series\n")
        fh.write("trunc = %d\n" % spec.trunc)
        fh.write("terminated_at = %d\n" % table.terminated_at)
        fh.write("fitted_ratio = %s\n"
                 % ("none" if table.fitted_ratio is None else _fmt(table.fitted_ratio)))
    return 0


def cmd_decompose(spec):
    probes = analysis.probe_grid(spec.config, seed=spec.seed)
    result = analysis.decompose(spec.config, spec.function, probes=probes)
    evaluators = [analysis.projection_component(spec.config, i, spec.function)
                  for i in range(spec.config.n)]
    check_pts = probes[:: max(1, probes.size // 16)]
    agree = 0.0
    for i, comp in enumerate(result.components):
        agree = max(agree, float(np.max(np.abs(
            evaluators[i](check_pts) - comp(check_pts)))))
    with _open_out(spec, "decompose.txt") as fh:
        fh.write(SCHEMA + "\n")
        fh.write("kind = decomposition\n")
        fh.write("n = %d\n" % spec.config.n)
        fh.write("residual = %s\n" % _fmt(result.residual))
        fh.write("quadrature_agreement = %s\n" % _fmt(agree))
        for i, comp in enumerate(result.components):
            fh.write("component %d terms = %d\n" % (i, len(comp.terms)))
            for pole, order, coeff in comp.terms:
                fh.write("  pole %s %s order %d coeff %s %s\n"
                         % (_fmt(pole.real), _fmt(pole.imag), order,
                            _fmt(coeff.real), _fmt(coeff.imag)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="faberkit",
        description="Faber/Grunsky diagnostics for multi-region circle-domain images",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".")
        if "trunc" in flags:
            p.add_argument("--trunc", type=int, default=16)
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=1e-7)
        if "policy" in flags:
            p.add_argument("--policy", default="dual", choices=["dual", "definitional"])
        if "function" in flags:
            p.add_argument("--function", required=True,
                           help="rational function as 're,im,order,cre,cim;...' "
                                "(write --function=SPEC when SPEC starts with a dash)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    seed_txt = os.environ.get("FABERKIT_SEED", "")
    try:
        seed = int(seed_txt) if seed_txt else None
    except ValueError:
        print("FABERKIT_SEED must be an integer", file=sys.stderr)
        return 2
    try:
        opts = vars(args)
        spec = ExperimentSpec(
            config=load_config_file(args.config), out_dir=args.out, seed=seed,
            trunc=opts.get("trunc"), tol=opts.get("tol"), policy=opts.get("policy"),
            function=parse_polespec(args.function) if "function" in opts else None)
        spec.check_ranges()
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    handlers = {
        "validate": cmd_validate,
        "grunsky": cmd_grunsky,
        "graph-check": cmd_graph_check,
        "faber-series": cmd_faber_series,
        "decompose": cmd_decompose,
    }
    try:
        return handlers[args.command](spec)
    except FaberkitError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
