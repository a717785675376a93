"""Seeded end-to-end benchmark for faberkit.

    python3 perfbench/run.py --workload cli_study --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): cli_study,
operator_sweep, function_analysis.  Run from the repository root; the
package is imported from ./src.

A run executes a fixed list of jobs: as many whole cycles of the workload
as fit --seconds at their nominal length, and at least one.  --trace 0
measures the end-to-end metrics with tracing off, and times fresh set-up
processes spread over the run.  --trace 1 runs the jobs for half of
--seconds untraced, then the same jobs again with every public faberkit
function wrapped, and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object; a fuller
record with the environment goes to perfbench/out/.
"""

import argparse
import inspect
import json
import os
import pathlib
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("pass_frac", "ratio"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def limit_blas_threads():
    """One BLAS thread; must run before numpy is imported.

    The loop has one client.  On a two-core machine shared with other
    work, a second BLAS thread made the same job vary by up to 2.7x.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_workloads():
    src = ROOT / "src"
    if not (src / "faberkit" / "__init__.py").is_file():
        raise BenchError("no faberkit package under %s" % src)
    sys.path.insert(0, str(src))
    os.environ.pop("FABERKIT_SEED", None)
    import faberkit
    if pathlib.Path(faberkit.__file__).resolve().parent != (src / "faberkit").resolve():
        raise BenchError("imported faberkit from %s, not %s" % (faberkit.__file__, src))
    import workloads
    return workloads


def git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, blas_threads):
    import numpy
    import scipy
    return {"git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "blas_threads": blas_threads, "machine": platform.machine()}


def setup_probe(args, workdir, k):
    """Wall time of one fresh interpreter that imports, prepares and warms up."""
    probe_dir = workdir / ("probe%d" % k)
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(probe_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("set-up probe failed:\n" + proc.stderr)
    shutil.rmtree(probe_dir, ignore_errors=True)
    return elapsed


def execute(job, faberkit_error, refused, wrong, tracer=None):
    """Run one job and classify it as passed, refused or wrong."""
    if job.scratch is not None:
        job.scratch.mkdir(parents=True, exist_ok=True)
    if job.cold:
        reset_caches()
    if tracer is not None:
        tracer.job = job.name
    status, detail, values = "passed", "", {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = job.run()
        except faberkit_error as exc:
            status, detail = "refused", repr(exc)
        except Exception as exc:  # a crash is a wrong answer; keep the loop going
            status, detail = "wrong", repr(exc)
        latency = time.perf_counter() - t0
    if status == "passed":
        try:
            values = job.check(result) or {}
        except refused as exc:
            status, detail = "refused", str(exc)
        except (wrong, OSError, KeyError, ValueError, IndexError) as exc:
            status, detail = "wrong", repr(exc)
    if job.scratch is not None:
        shutil.rmtree(job.scratch, ignore_errors=True)
    aliases = sum(1 for w in caught if w.category.__name__ == "AliasWarning")
    return {"job": job.name, "kind": job.kind, "latency_s": latency, "status": status,
            "detail": detail, "values": values, "alias_warnings": aliases}


def reset_caches():
    """Empty faberkit's Faber-table cache, also while the tracer wraps it."""
    import faberkit
    table = inspect.unwrap(faberkit.faber.faber_series_table,
                           stop=lambda fn: hasattr(fn, "cache_clear"))
    clear = getattr(table, "cache_clear", None)
    if clear is not None:
        clear()


def job_list(wl, state, seconds):
    """The jobs of a run: whole cycles, as many as fit `seconds` nominally.

    The count depends on --seconds only, not on how fast the machine runs,
    so every run of a workload does the same mix of work.  The list is
    shuffled with the seed, so that a stretch of run time when the machine
    is slower falls on every kind of job alike.
    """
    cycles = max(1, round(seconds / wl.cycle_s))
    jobs = [job for c in range(cycles) for job in wl.cycle(state, c)]
    random.Random(state["seed"]).shuffle(jobs)
    return jobs


def run_jobs(jobs, classify, tracer=None, probe=None):
    """Run the jobs in order; with `probe`, also SETUP_REPEATS set-up probes.

    The probes are spread over the run, before each of SETUP_REPEATS equal
    stretches of jobs, so that their median sees the same machine as the
    jobs do.  Returns the job records and the probe times.
    """
    records, setups = [], []
    marks = {len(jobs) * k // SETUP_REPEATS: k for k in range(SETUP_REPEATS)} if probe else {}
    for i, job in enumerate(jobs):
        if i in marks:
            setups.append(probe(marks[i]))
        records.append(execute(job, *classify, tracer=tracer))
    return records, setups


def kind_medians(records):
    """Median latency of each kind of job, over all its attempts."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["latency_s"])
    return {kind: statistics.median(lat) for kind, lat in by_kind.items()}


def rate(records):
    """Passed jobs per second of the time the attempted jobs take.

    Each job is counted at the median latency of its kind in this run, so a
    short stall of the machine, or one job that is slow by chance, does not
    move the rate; a change that makes a kind of job slower does.
    """
    medians = kind_medians(records)
    busy = sum(medians[r["kind"]] for r in records)
    return sum(r["status"] == "passed" for r in records) / busy if busy else 0.0


def end_to_end(records, setup_s):
    passed = sorted(r["latency_s"] for r in records if r["status"] == "passed")
    if not passed:
        raise BenchError("no job passed")
    # the highest percentile with at least 10 passed samples beyond it,
    # or the slowest passed job when there are too few for one
    beyond = 10 if len(passed) > 10 else 0
    tail = passed[len(passed) - 1 - beyond]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": rate(records),
        "job_p50_s": statistics.median(passed),
        "job_tail_s": tail,
        "pass_frac": len(passed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"tail_percentile": 100.0 * (len(passed) - beyond) / len(passed),
            "tail_beyond": beyond, "passed": len(passed)}
    return metrics, info


def summarize_checks(records):
    """Worst value of each reported check over all jobs."""
    worst = {}
    for r in records:
        for key, val in r["values"].items():
            worst[key] = max(worst.get(key, val), val)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    blas_threads = limit_blas_threads()
    try:
        workloads = import_workloads()
        if args.workload not in workloads.WORKLOADS:
            raise BenchError("unknown workload %r; choose from %s"
                             % (args.workload, ", ".join(workloads.WORKLOADS)))
        wl = workloads.WORKLOADS[args.workload]
        if args.setup_probe:
            workdir = pathlib.Path(args.workdir)
            wl.warmup(wl.prepare(args.seed, workdir))
            return 0
        OUT.mkdir(parents=True, exist_ok=True)
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            return measure(args, wl, workloads, workdir, blas_threads)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


def measure(args, wl, workloads, workdir, blas_threads):
    import faberkit
    import tracing
    classify = (faberkit.FaberkitError, workloads.Refused, workloads.WrongAnswer)
    env = environment(args, blas_threads)
    state = wl.prepare(args.seed, workdir)
    wl.warmup(state)
    reset_caches()
    if not args.trace:
        jobs = job_list(wl, state, args.seconds)
        records, setups = run_jobs(jobs, classify,
                                   probe=lambda k: setup_probe(args, workdir, k))
        metrics, extra = end_to_end(records, statistics.median(setups))
        extra["setup_runs_s"] = setups
        units = dict(END_TO_END)
    else:
        # the same jobs twice: untraced, then traced
        jobs = job_list(wl, state, args.seconds / 2)
        untraced, _ = run_jobs(jobs, classify)
        reset_caches()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run_jobs(jobs, classify, tracer=tracer)
        finally:
            tracer.remove()
        metrics = tracer.metrics(sum(r["alias_warnings"] for r in traced),
                                 rate(traced), rate(untraced))
        units = dict(tracing.PER_LAYER)
        spans_path = OUT / ("spans-%s-s%d.jsonl" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        extra = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
                 "hook_errors": tracer.counts["hook_errors"]}
        records = untraced + traced
    extra["kind_median_s"] = kind_medians(records)
    failed = [r for r in records if r["status"] != "passed"]
    correct = not any(r["status"] == "wrong" for r in records)
    checks = summarize_checks(records)
    record = {"env": env, "metrics": metrics, "extra": extra, "checks": checks,
              "attempted": len(records), "failed": len(failed), "correct": correct,
              "failures": [{k: r[k] for k in ("job", "status", "detail")} for r in failed],
              "jobs": [[r["job"], r["kind"], r["latency_s"], r["status"]] for r in records]}
    name = "result-%s-s%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    for key, val in sorted(metrics.items()):
        print("%-40s %14.6g %s" % (key, val, units[key]))
    print("fail_frac %.4g (%d of %d)" % (len(failed) / len(records), len(failed),
                                        len(records)))
    print("extra " + json.dumps(extra))
    print("checks " + json.dumps(checks))
    for f in record["failures"]:
        print("failed %(job)s [%(status)s] %(detail)s" % f)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
