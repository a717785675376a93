"""Seeded inputs, jobs and output checks for the faberkit benchmark.

Each workload is a closed loop with one client: a job starts when the
previous one has returned.  Jobs come in cycles of fixed structure (how
many maps a config has, which are quadratic, which config is inadmissible
and why, which truncation a job uses).  The seed draws the geometry inside
that structure: map sizes, rotations, quadratic terms, placements and the
test functions.  Two seeds therefore hand faberkit different numbers but
the same mix of work.

Every job carries a kind: what it runs and the shape of its config (map
count, degree-2 maps, flaw), never the seed's numbers.  The job counts
per kind are chosen so that the median and the tail latency fall inside
a group of like jobs, not on the edge between two groups of very
different cost, where the order of two jobs would move the metric.

faberkit only ever receives the generated MultiDomainConfig and RationalFn
objects, or, for the command line, the JSON and pole-spec text that
describe them.  Whether a config passes validation is fixed by
construction, never by asking faberkit.
"""

import contextlib
import csv
import io
import json
import math
import pathlib
from dataclasses import dataclass

import numpy as np

import faberkit
from faberkit import analysis, cli, grunsky

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUNDLED = ("two_disks.json", "perturbed_pair.json", "three_disks.json")

EXT_MARGIN = 0.05       # faberkit's default ext_margin; the generator keeps its bounds
LINEAR = (0.8, 1.1)     # |a1| of every generated map
QUAD_RATIO = (0.10, 0.13)      # |a2/a1|: the range of configs/perturbed_pair.json
CRITICAL_RATIO = (0.55, 0.70)  # puts the critical point of f at |w| = 1/(2|a2/a1|) < 1
GAP = (1.2, 1.8)        # clearance between neighbouring extended regions
POLE_RADIUS = 0.45      # poles sit at f_j(w0) with |w0| <= 0.45

GRAPH_TOL = 1e-7        # the command line's default --tol
SIGMA_SLACK = 1e-12     # nested sigma_max may dip by rounding only
DECOMPOSE_TOL = 1e-12   # sum of components against h, relative to max |h|
PROJECTION_TOL = 1e-8   # quadrature projection against exact component, relative
SERIES_TOL = 1e-6       # last Faber partial-sum error, relative


class Refused(Exception):
    """faberkit reported that it could not give an answer (exit 1 or a named error)."""


class WrongAnswer(Exception):
    """faberkit claimed success but its output fails a check."""


@dataclass(frozen=True)
class Slot:
    """Structure of one generated config.

    quadratic maps get a degree-2 term; flaw is None for an admissible
    config, "overlap" for two overlapping disks, or "critical" for a map
    whose derivative vanishes inside the unit disk.
    """

    n: int
    quadratic: int = 0
    flaw: str = None


@dataclass
class Case:
    """One config, whether it is admissible by construction, and its JSON file.

    shape names its structure, such as "n3q" (three maps, one of degree
    2) or "n2q-critical"; jobs on configs of one shape cost about the same.
    """

    name: str
    config: object
    admissible: bool
    shape: str
    path: pathlib.Path = None


@dataclass
class Job:
    """One unit a user waits for: `run` is timed, `check` is not.

    check(result) returns a dict of reported values or raises Refused or
    WrongAnswer.  scratch is a directory the job may write, made before
    and removed after.  A cold job starts with faberkit's Faber-table
    cache empty, as a fresh process would, so that its time does not
    depend on which jobs ran before it.
    """

    name: str
    kind: str
    run: object
    check: object
    scratch: pathlib.Path = None
    cold: bool = False


# --- generator -------------------------------------------------------------

def _poly(center, coeffs, w):
    return center + sum(a * w ** (k + 1) for k, a in enumerate(coeffs))


def make_config(rng, slot):
    """A config with the structure of `slot` and geometry drawn from rng.

    Every map is bounded on |w| <= 1 + EXT_MARGIN by the sum of |a_k|
    (1 + EXT_MARGIN)^k; centers sit on a circle just wide enough that
    those bounds stay GAP apart, which makes the config admissible.  The
    flaws then break exactly one property.
    """
    r = 1.0 + EXT_MARGIN
    coeffs, extents = [], []
    for k in range(slot.n):
        a1 = rng.uniform(*LINEAR) * np.exp(2j * np.pi * rng.uniform())
        ratio = None
        if slot.flaw == "critical" and k == 0:
            ratio = CRITICAL_RATIO
        elif k < slot.quadratic:
            ratio = QUAD_RATIO
        c = (a1,) if ratio is None else \
            (a1, a1 * rng.uniform(*ratio) * np.exp(2j * np.pi * rng.uniform()))
        coeffs.append(c)
        extents.append(sum(abs(a) * r ** (i + 1) for i, a in enumerate(c)))
    turn = 2 * np.pi * rng.uniform()
    theta = turn + 2 * np.pi * (np.arange(slot.n) + rng.uniform(-0.15, 0.15, slot.n)) / slot.n
    gap = rng.uniform(*GAP)
    rho = max((extents[i] + extents[j] + gap) / abs(np.exp(1j * theta[i]) - np.exp(1j * theta[j]))
              for i in range(slot.n) for j in range(i + 1, slot.n))
    centers = rho * np.exp(1j * theta)
    if slot.flaw == "overlap":
        # pull map 1 onto map 0 until the two disks share a third of their span
        d = centers[1] - centers[0]
        centers[1] = centers[0] + d / abs(d) * (2.0 / 3.0) * (extents[0] + extents[1])
    maps = tuple(faberkit.ConformalMapSpec(center=complex(p), coeffs=c)
                 for p, c in zip(centers, coeffs))
    return faberkit.MultiDomainConfig(maps=maps)


def make_function(rng, config):
    """Rational function with one pole f_j(w0), |w0| <= POLE_RADIUS, in every region j.

    Poles alternate between order 1 and 2 by region, so every function on
    a config has the same shape and costs about the same.
    """
    terms = []
    for j, spec in enumerate(config.maps):
        w0 = POLE_RADIUS * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        coeff = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
        terms.append((complex(_poly(spec.center, spec.coeffs, w0)), 1 + j % 2, complex(coeff)))
    return faberkit.RationalFn(terms=tuple(terms))


def config_from_json(data):
    maps = tuple(faberkit.ConformalMapSpec(center=complex(*m["center"]),
                                           coeffs=tuple(complex(*c) for c in m["coeffs"]))
                 for m in data["maps"])
    return faberkit.MultiDomainConfig(maps=maps)


def config_to_json(config):
    return {"maps": [{"center": [m.center.real, m.center.imag],
                      "coeffs": [[c.real, c.imag] for c in m.coeffs]}
                     for m in config.maps]}


def function_spec(fn):
    return ";".join("%.17g,%.17g,%d,%.17g,%.17g" % (p.real, p.imag, o, c.real, c.imag)
                    for p, o, c in fn.terms)


def scale_of(fn, probes):
    """max |h| over the probe grid, the yardstick for relative checks."""
    return max(1.0, float(np.max(np.abs(fn(probes)))))


def shape_of(config, flaw=None):
    quadratic = any(len(m.coeffs) > 1 for m in config.maps)
    return "n%d%s%s" % (config.n, "q" if quadratic else "", "-" + flaw if flaw else "")


def bundled_cases():
    cases = []
    for p in (ROOT / "configs" / f for f in BUNDLED):
        config = config_from_json(json.loads(p.read_text()))
        cases.append(Case(p.stem, config, True, shape_of(config), p))
    return cases


def generated_cases(rng, slots, tag):
    cases = []
    for k, s in enumerate(slots):
        config = make_config(rng, s)
        cases.append(Case("%s-%d" % (tag, k), config, s.flaw is None, shape_of(config, s.flaw)))
    return cases


# --- checks ----------------------------------------------------------------

def check_sigmas(sigmas):
    """sigma_max below 1 and nondecreasing along nested truncations."""
    if not all(s < 1.0 for s in sigmas):
        raise WrongAnswer("sigma_max %r not below 1" % (sigmas,))
    if any(b < a - SIGMA_SLACK for a, b in zip(sigmas, sigmas[1:])):
        raise WrongAnswer("sigma history %r decreases" % (sigmas,))
    return {"sigma_max": sigmas[-1]}


def _exit_status(rc, expected, decides):
    """Map an exit code to pass, Refused or WrongAnswer.

    For a subcommand whose exit code is the answer (validate), any mismatch
    is a wrong answer; elsewhere exit 1 is a reported refusal.
    """
    if rc == expected:
        return
    if rc == 1 and expected == 0 and not decides:
        raise Refused("exit 1")
    raise WrongAnswer("exit %r, expected %d" % (rc, expected))


def _header(path):
    out = {}
    for line in path.read_text().splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            out[key] = val
    return out


def _cli_job(case, command, args, expected, out, fn=None, scale=1.0):
    argv = [command, "--config", str(case.path), "--out", str(out)] + args
    if fn is not None:
        argv.append("--function=" + function_spec(fn))

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(rc):
        _exit_status(rc, expected, decides=command == "validate")
        if command == "validate":
            passed = _header(out / "validation.txt")["passed"]
            if passed != ("true" if expected == 0 else "false"):
                raise WrongAnswer("validation.txt says passed = %s" % passed)
            return {}
        if command == "grunsky":
            with open(out / "norm_history.csv") as fh:
                rows = sorted((int(t), float(s)) for t, s in list(csv.reader(fh))[1:])
            return check_sigmas([s for _, s in rows])
        if command == "graph-check":
            residual = float(_header(out / "graph_check.txt")["residual"])
            if not residual <= GRAPH_TOL:
                raise WrongAnswer("graph residual %.3g above %.3g" % (residual, GRAPH_TOL))
            return {"graph_residual": residual}
        if command == "faber-series":
            with open(out / "faber_errors.csv") as fh:
                last = float(list(csv.reader(fh))[-1][1])
            if not last <= SERIES_TOL * scale:
                raise WrongAnswer("Faber partial-sum error %.3g" % last)
            return {"series_error": last / scale}
        head = _header(out / "decompose.txt")
        return _check_decompose(float(head["residual"]),
                                float(head["quadrature_agreement"]), scale)

    what = " ".join([command] + args)
    # each command-line call is a process of its own
    return Job("cli.%s:%s" % (what, case.name), "%s %s" % (what, case.shape), run, check, out,
               cold=True)


def _check_decompose(residual, agreement, scale):
    if not residual <= DECOMPOSE_TOL * scale:
        raise WrongAnswer("decompose residual %.3g" % residual)
    if not agreement <= PROJECTION_TOL * scale:
        raise WrongAnswer("quadrature projection differs by %.3g" % agreement)
    return {"decompose_residual": residual / scale, "projection_gap": agreement / scale}


# --- workloads -------------------------------------------------------------
#
# A workload builds its jobs one cycle at a time; cycle_s is the nominal
# length of a cycle, from which the benchmark sets how many cycles a run
# of a given length executes.  The job list of a run is therefore the same
# whatever the speed of the machine.

class CliStudy:
    """Why: what a command-line user waits for.  validate_config (the full
    scan, on admissible and inadmissible configs alike) and the dual
    cross-check of `grunsky --trunc 16` carry most of the time;
    `grunsky --trunc 128` on quadratic maps hits the known identity defect.
    """

    name = "cli_study"
    cycle_s = 22.0
    # After the three bundled configs, eight in all: two inadmissible (one
    # overlapping pair, caught by the full scan; one critical point, where
    # the self-intersection test exits early, how early depending on the
    # seed) and three with a degree-2 map.  validate costs about a second
    # per map whatever the geometry, so the generated configs have two maps.
    # The eight validations and the two three_disks grunsky jobs are the
    # ten slowest, so the tail (ten passed jobs beyond it) is the slowest
    # of the five two-map `grunsky --trunc 16` jobs.
    slots = ((Slot(2),) * 2 + (Slot(2, quadratic=1),)
             + (Slot(2, flaw="overlap"), Slot(2, flaw="critical")))
    # Test functions, dealt round the six admissible configs.  Each gives
    # one job of each function subcommand, of a few milliseconds.  They are
    # most of the jobs, so the median is one of them: with 36, it falls
    # among some hundred like jobs, where one slow job moves it little.
    functions = 36
    commands = (("validate", []), ("grunsky", ["--trunc", "16"]),
                ("grunsky", ["--trunc", "128"]))
    function_commands = (("graph-check", ["--trunc", "32"]),
                         ("faber-series", ["--trunc", "64"]), ("decompose", []))

    def prepare(self, seed, workdir):
        return {"seed": seed, "workdir": workdir, "cycle0": self._cases(seed, 0, workdir)}

    def _cases(self, seed, c, workdir):
        rng = np.random.default_rng([seed, 1, c])
        cases = bundled_cases() + generated_cases(rng, self.slots, "c%d" % c)
        (workdir / "cfg").mkdir(parents=True, exist_ok=True)
        for case in cases:
            if case.path is None:
                case.path = workdir / "cfg" / (case.name + ".json")
                case.path.write_text(json.dumps(config_to_json(case.config)))
        admissible = [case for case in cases if case.admissible]
        probes = {case.name: analysis.probe_grid(case.config) for case in admissible}
        fns = {case.name: [] for case in admissible}
        for k in range(self.functions):
            case = admissible[k % len(admissible)]
            fn = make_function(rng, case.config)
            fns[case.name].append((fn, scale_of(fn, probes[case.name])))
        return [(case, fns.get(case.name, [])) for case in cases]

    def warmup(self, state):
        # a fixed, cheap end-to-end invocation
        out = state["workdir"] / "warmup"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["faber-series", "--config", str(ROOT / "configs" / BUNDLED[0]),
                      "--trunc", "8", "--function=-2.3,0,1,1,0", "--out", str(out)])

    def cycle(self, state, c):
        cases = state["cycle0"] if c == 0 else self._cases(state["seed"], c, state["workdir"])
        jobs = []

        def add(*args, **kwargs):
            out = state["workdir"] / "cli" / str(len(jobs))
            jobs.append(_cli_job(*args, out=out, **kwargs))

        for case, fns in cases:
            if not case.admissible:
                add(case, "validate", [], 1)
                continue
            for command, args in self.commands:
                add(case, command, args, 0)
            for fn, scale in fns:
                for command, args in self.function_commands:
                    add(case, command, args, 0, fn=fn, scale=scale)
        return jobs


class OperatorSweep:
    """Why: library users sweeping truncations.  The definitional pullback
    FFT, the Faber tables, the SVDs and the text export carry the work;
    validation and the area route do none.  Every job starts with an empty
    faber_series_table cache, so the cache only hits within a job.
    """

    name = "operator_sweep"
    cycle_s = 20.0
    truncs = (64, 128, 256)     # each bundled config runs at all three
    # (slot, truncation, count) of the generated jobs.  Quadratic maps at
    # T=128 hit the identity defect.  With the bundled jobs, a cycle passes
    # 18 two-map and 24 three-map jobs at T=64, then 4 four-map ones, 10
    # two-map and 2 three-map at T=128 and two at T=256: as many passed jobs
    # cost less than the three-map ones at T=64 as cost more, so the median
    # is the middle one of those, and the tail lies among the 14 four-map
    # jobs at T=64 and two-map ones at T=128, which cost about the same.
    plan = ((Slot(2), 64, 11), (Slot(2, quadratic=1), 64, 5),
            (Slot(3), 64, 15), (Slot(3, quadratic=1), 64, 8),
            (Slot(4), 64, 3), (Slot(4, quadratic=1), 64, 1),
            (Slot(2), 128, 9), (Slot(3), 128, 1),
            (Slot(2, quadratic=1), 128, 2), (Slot(3, quadratic=1), 128, 1))

    def prepare(self, seed, workdir):
        return {"seed": seed, "workdir": workdir, "cycle0": self._cases(seed, 0)}

    def _cases(self, seed, c):
        rng = np.random.default_rng([seed, 2, c])
        runs = [(slot, t) for slot, t, count in self.plan for _ in range(count)]
        gen = generated_cases(rng, [slot for slot, _ in runs], "c%d" % c)
        return [(b, t) for t in self.truncs for b in bundled_cases()] + \
            [(g, t) for g, (_, t) in zip(gen, runs)]

    def warmup(self, state):
        two_disks = bundled_cases()[0].config
        grunsky.norm_history(grunsky.assemble(two_disks, 16, policy="definitional"))

    def cycle(self, state, c):
        pairs = state["cycle0"] if c == 0 else self._cases(state["seed"], c)
        return [self._job(case, t, state["workdir"] / "op" / str(k))
                for k, (case, t) in enumerate(pairs)]

    @staticmethod
    def _job(case, trunc, scratch):
        path = scratch / "grunsky_matrix.txt"

        def run():
            gr = grunsky.assemble(case.config, trunc, policy="definitional")
            history = grunsky.norm_history(gr)
            with open(path, "w") as fh:
                grunsky.write_matrix(gr, fh, sigma_history=history)
            with open(path) as fh:
                back = grunsky.read_matrix(fh)
            return gr, history, back

        def check(result):
            gr, history, back = result
            out = check_sigmas([history[t] for t in sorted(history)])
            same = (back.n == gr.n and back.trunc == gr.trunc and all(
                np.array_equal(back.blocks[j][i], gr.blocks[j][i])
                for j in range(gr.n) for i in range(gr.n)))
            if not same:
                raise WrongAnswer("blocks differ after write_matrix/read_matrix")
            return out

        # cold, so a bundled config seen at another truncation gets no hits
        return Job("operator:%s:T%d" % (case.name, trunc), "T%d %s" % (trunc, case.shape),
                   run, check, scratch, cold=True)


class FunctionAnalysis:
    """Why: many functions analysed on a few domains.  analysis, quadrature
    and coeffs dominate, and cached Faber tables are reused across jobs,
    the opposite sharing pattern to operator_sweep.
    """

    name = "function_analysis"
    cycle_s = 0.33
    trunc = 64
    series_order = 32
    # With the bundled configs: two domains with n=2, three with n=3 and one
    # with n=4.  Each domain gets n functions a cycle, so as many jobs sit
    # below the n=3 group as above it and the median is its middle job.
    slots = (Slot(3), Slot(3, quadratic=1), Slot(4))

    def prepare(self, seed, workdir):
        rng = np.random.default_rng([seed, 3, 0])
        domains = []
        for case in bundled_cases() + generated_cases(rng, self.slots, "d"):
            gr = grunsky.assemble(case.config, self.trunc, policy="definitional")
            domains.append((case, gr, analysis.probe_grid(case.config)))
        return {"seed": seed, "domains": domains}

    def warmup(self, state):
        two_disks = bundled_cases()[0].config
        analysis.graph_check(two_disks, faberkit.RationalFn.single(-2.3, 1, 1.0), 16)

    def cycle(self, state, c):
        rng = np.random.default_rng([state["seed"], 3, c + 1])
        jobs = []
        for case, gr, probes in state["domains"]:
            for _ in range(case.config.n):
                fn = make_function(rng, case.config)
                jobs.append(self._job(case, gr, probes, fn, scale_of(fn, probes)))
        return jobs

    def _job(self, case, gr, probes, fn, scale):
        config = case.config

        def run():
            graph = analysis.graph_check(config, fn, self.trunc, gr=gr)
            series = analysis.faber_partial_sum_error(config, fn, self.series_order)
            dec = analysis.decompose(config, fn, probes=probes)
            gap = max(float(np.max(np.abs(
                analysis.projection_component(config, i, fn)(probes) - comp(probes))))
                for i, comp in enumerate(dec.components))
            energy = analysis.dirichlet_norm_sigma(config, fn)
            return graph.residual, series.errors[-1], dec.residual, gap, energy

        def check(result):
            graph, series, residual, gap, energy = result
            if not graph <= GRAPH_TOL:
                raise WrongAnswer("graph residual %.3g above %.3g" % (graph, GRAPH_TOL))
            if not series <= SERIES_TOL * scale:
                raise WrongAnswer("Faber partial-sum error %.3g" % series)
            if not (math.isfinite(energy) and energy > 0):
                raise WrongAnswer("Dirichlet norm %r not positive" % energy)
            out = _check_decompose(residual, gap, scale)
            out.update(graph_residual=graph, series_error=series / scale)
            return out

        return Job("analysis:%s" % case.name, case.name, run, check)


WORKLOADS = {w.name: w for w in (CliStudy(), OperatorSweep(), FunctionAnalysis())}
