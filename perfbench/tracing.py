"""Spans and counters around faberkit's public functions, kept in memory.

The tracer replaces every public function of the layer modules at each
module attribute that holds it, so a call resolved through
`faberkit.grunsky.faber_series_table` and one resolved through
`faberkit.faber.faber_series_table` are both recorded.  Nothing inside
faberkit changes; `remove` puts the original functions back.

A span is [name, start, end, parent index, job id].  Self time is a span's
duration minus the durations of its direct children, which nest and do
not overlap because the loop has one client.
"""

import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("domain", "faber", "grunsky", "pseries", "quadrature", "coeffs", "analysis", "cli")
CLI_COMMANDS = {"cmd_validate": "validate", "cmd_grunsky": "grunsky",
                "cmd_graph_check": "graph-check", "cmd_faber_series": "faber-series",
                "cmd_decompose": "decompose"}
ANALYSIS = ("graph_check", "faber_partial_sum_error", "decompose", "region_of_point",
            "pullback_boundary")

# (metric, unit) in the order they are reported
PER_LAYER = (
    [("domain.validate_config.ok_s", "s"), ("domain.validate_config.rejected_s", "s"),
     ("domain.validate_config.calls", "count"),
     ("grunsky.offdiagonal_block_area.s", "s"), ("grunsky.offdiagonal_block_area.calls", "count"),
     ("grunsky.diagonal_block_series.s", "s"), ("grunsky.diagonal_block_series.calls", "count"),
     ("grunsky.faber_pullback_block.s", "s"), ("grunsky.faber_pullback_block.calls", "count"),
     ("grunsky.fft_points", "count"),
     ("faber.faber_series_table.s", "s"), ("faber.faber_series_table.calls", "count"),
     ("faber.table_hit_ratio", "ratio"),
     ("grunsky.operator_norm.s", "s"), ("grunsky.operator_norm.calls", "count"),
     ("grunsky.svd_useful_ratio", "ratio"),
     ("grunsky.write_matrix.s", "s"), ("grunsky.read_matrix.s", "s"),
     ("grunsky.bytes_written", "B"),
     ("grunsky.assemble.self_s", "s")]
    + [(m, u) for name in ANALYSIS
       for m, u in (("analysis.%s.s" % name, "s"), ("analysis.%s.calls" % name, "count"))]
    + [("quadrature.cauchy_eval.s", "s"), ("quadrature.cauchy_points", "count"),
       ("coeffs.sample_to_coeffs.s", "s"), ("coeffs.alias_warnings", "count")]
    + [("cli.%s.s" % c, "s") for c in CLI_COMMANDS.values()]
    + [("cli.exit_nonzero", "count"),
       ("trace.jobs_per_s", "1/s"), ("trace.untraced_jobs_per_s", "1/s"),
       ("trace.overhead_frac", "ratio")]
)


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Install with `install()`, set `job` before each job, `remove()` at the end."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.svds = set()
        self._undo = []
        self._table = None
        self._grunsky = None

    def install(self):
        package = importlib.import_module("faberkit")
        modules = {layer: importlib.import_module("faberkit." + layer) for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == mod.__name__):
                    originals[id(fn)] = (layer + "." + attr, fn)
        self._grunsky = modules["grunsky"]
        table = getattr(modules["faber"], "faber_series_table", None)
        if hasattr(table, "cache_info"):
            self._table = table
            self._table_seen = table.cache_info()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for holder in [package] + list(modules.values()):
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    self._undo.append((holder, attr, obj))
                    setattr(holder, attr, wrappers[id(obj)])

    def remove(self):
        for holder, attr, obj in reversed(self._undo):
            setattr(holder, attr, obj)
        self._undo = []

    def _wrap(self, name, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook:
                try:
                    hook(sig, args, kwargs, result, span[2] - span[1])
                except (TypeError, KeyError, AttributeError):
                    # a changed signature must not turn a job into a failure
                    self.counts["hook_errors"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # counters measured at the layer boundary
    def _hook_domain_validate_config(self, sig, args, kwargs, report, dt):
        self.counts["validate_ok_s" if report.passed else "validate_rejected_s"] += dt

    def _hook_faber_faber_series_table(self, sig, args, kwargs, result, dt):
        # cache_info() after each call; a benchmark job may have cleared the
        # cache, and with it the counts, since the last call
        if self._table is None:
            return
        info, seen = self._table.cache_info(), self._table_seen
        if info.hits + info.misses <= seen.hits + seen.misses:
            seen = info._replace(hits=0, misses=0)
        self.counts["table_hits"] += info.hits - seen.hits
        self.counts["table_misses"] += info.misses - seen.misses
        self._table_seen = info

    def _hook_grunsky_faber_pullback_block(self, sig, args, kwargs, result, dt):
        trunc = _arg(sig, args, kwargs, "trunc")
        samples = _arg(sig, args, kwargs, "n_samples") or self._grunsky._fft_samples(trunc)
        self.counts["fft_points"] += samples * trunc

    def _hook_grunsky_operator_norm(self, sig, args, kwargs, result, dt):
        trunc = _arg(sig, args, kwargs, "trunc")
        self.svds.add((self.job, trunc or _arg(sig, args, kwargs, "gr").trunc))

    def _hook_grunsky_write_matrix(self, sig, args, kwargs, result, dt):
        # every caller hands write_matrix a freshly opened file
        self.counts["bytes_written"] += _arg(sig, args, kwargs, "fileobj").tell()

    def _hook_quadrature_cauchy_eval(self, sig, args, kwargs, result, dt):
        contour = _arg(sig, args, kwargs, "contour")
        z = _arg(sig, args, kwargs, "z")
        self.counts["cauchy_points"] += contour.n_samples * int(np.size(z))

    def _hook_cli_main(self, sig, args, kwargs, rc, dt):
        self.counts["exit_nonzero"] += rc != 0

    def metrics(self, alias_warnings, traced_rate, untraced_rate):
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[k]
            calls[name] += 1
        out = {
            "domain.validate_config.ok_s": self.counts["validate_ok_s"],
            "domain.validate_config.rejected_s": self.counts["validate_rejected_s"],
            "grunsky.fft_points": self.counts["fft_points"],
            "grunsky.bytes_written": self.counts["bytes_written"],
            "grunsky.assemble.self_s": own["grunsky.assemble"],
            "quadrature.cauchy_points": self.counts["cauchy_points"],
            "coeffs.alias_warnings": alias_warnings,
            "cli.exit_nonzero": self.counts["exit_nonzero"],
            "trace.jobs_per_s": traced_rate,
            "trace.untraced_jobs_per_s": untraced_rate,
            "trace.overhead_frac": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
        }
        svd_calls = calls["grunsky.operator_norm"]
        out["grunsky.svd_useful_ratio"] = len(self.svds) / svd_calls if svd_calls else 0.0
        hits, misses = self.counts["table_hits"], self.counts["table_misses"]
        out["faber.table_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for metric, _ in PER_LAYER:
            if metric in out:
                continue
            span, kind = metric.rsplit(".", 1)
            if span.startswith("cli."):
                span = "cli." + {v: k for k, v in CLI_COMMANDS.items()}[span[4:]]
            out[metric] = calls[span] if kind == "calls" else total[span]
        return out
