"""Certified-row benchmark for fastmix.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus_ladder --seed 1 --seconds 30 --trace 0

One process runs the workload with BLAS/OpenMP threads pinned to 1. A single
closed-loop client asks ``experiments.run_experiment`` for one row at a
time, the next only after the previous returned, over the workload's ladder
of instances, and repeats the ladder while another one fits in
``--seconds``. Every row is checked (see ``checks.py``); rows that raise or
fail the check count as failed and are not emitted.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced ladders and reports the per-layer metrics of
``tracing.py``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the environment, the emitted rows and every metric by name
and unit. Set-up time is the median over this process and a few fresh
set-up-only processes, each importing fastmix and generating the instances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = "1"
SETUP_PROBES = 8            # fresh set-up-only processes besides this one
PROBE_TIMEOUT_S = 60

# checks.py and tracing.py import numpy, so they are imported inside the
# functions that use them: numpy's import then falls inside the timed set-up.


def load_package():
    """Import fastmix from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fastmix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fastmix package under {SRC}")
    sys.path.insert(0, str(SRC))
    from fastmix import experiments
    from fastmix.solver import SolverConfig

    if not Path(experiments.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: fastmix imported from {experiments.__file__}")
    return experiments, SolverConfig


class Job:
    """An instance with the spec the harness runs for it."""

    def __init__(self, instance, experiments, solver_config):
        self.instance = instance
        self.spec = experiments.ExperimentSpec(instance.family, instance.params,
                                               solver_config)


def set_up(workload, seed, workdir):
    """Import fastmix and build the workload's jobs, timing both."""
    start = time.perf_counter()
    experiments, SolverConfig = load_package()
    workdir.mkdir(parents=True, exist_ok=True)
    config = SolverConfig(max_iters=workloads.GRAPH_ITERS)
    jobs = [Job(inst, experiments, config)
            for inst in workloads.WORKLOADS[workload](seed, workdir)]
    return experiments, jobs, time.perf_counter() - start


def probe_setup(args):
    """Set-up time of a fresh process running only the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return float(done.stdout.split()[-1])


class Ladder:
    """One pass over the jobs: per-row times, emitted rows and failures."""

    def __init__(self):
        self.row_s = {}
        self.rows = {}
        self.failed = []

    @property
    def total_s(self):
        return sum(self.row_s.values())


def run_ladder(experiments, jobs, references):
    """Run every job once, closed loop, checking each row as it returns.

    ``references`` caches the independent Glauber eigensolves per job; they
    are computed outside the timed call.
    """
    from checks import glauber_reference, row_problems

    ladder = Ladder()
    for job in jobs:
        label = job.instance.label
        start = time.perf_counter()
        try:
            row = experiments.run_experiment(job.spec)
        except Exception:  # a row that raises is a failed row, not a crash
            problems = [traceback.format_exc(limit=3)]
        else:
            problems = None
        ladder.row_s[label] = time.perf_counter() - start
        if problems is None:
            try:
                if job.instance.exact and label not in references:
                    references[label] = glauber_reference(job.instance.params)
                problems = row_problems(job.instance, row, references.get(label))
            except Exception:  # a row the check cannot evaluate has failed too
                problems = [traceback.format_exc(limit=3)]
        if problems:
            ladder.failed.append((label, "; ".join(problems)))
        else:
            ladder.rows[label] = row
    return ladder


def run_ladders(experiments, jobs, seconds, trace=False):
    """Repeat ladders while the next one, as long as the last, fits in time.

    With ``trace``, ladders alternate untraced and traced, starting
    untraced, and at least one of each runs. Returns the untraced ladders,
    the traced ladders and the traced spans.
    """
    from tracing import Tracer

    references = {}
    ladders, traced, spans = [], [], []
    start = time.perf_counter()
    while True:
        if trace and len(ladders) > len(traced):
            with Tracer() as tracer:
                traced.append(run_ladder(experiments, jobs, references))
            spans += tracer.spans
            last = traced[-1]
        else:
            ladders.append(run_ladder(experiments, jobs, references))
            last = ladders[-1]
        if trace and not traced:
            continue
        if time.perf_counter() - start + last.total_s > seconds:
            return ladders, traced, spans


def tail_note(samples):
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}; too few samples for a tail percentile, max {max(samples):.6g}"
    p = int(100 * (1.0 - 10.0 / n))
    return f"n={n}; p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g}"


def unit(name):
    special = {"peak_rss_mb": "MB", "tau2_solver_gmean": "steps",
               "cert_ratio_gmean": "ratio"}
    if name in special:
        return special[name]
    for suffix, symbol in (("_s", "s"), ("_bytes", "B"), ("_frac", "frac")):
        if name.endswith(suffix):
            return symbol
    return "count"


def end_to_end(jobs, ladders, setup_s):
    """The end-to-end metrics, with a note on how each was sampled."""
    from checks import gmean, headline

    largest = next(job.instance.label for job in jobs if job.instance.largest)
    first = ladders[0]
    pairs = [headline(first.rows[job.instance.label]) for job in jobs
             if job.instance.label in first.rows]
    ladder_samples = [ladder.total_s for ladder in ladders]
    largest_samples = [ladder.row_s[largest] for ladder in ladders]
    metrics = {
        "ladder_s": statistics.median(ladder_samples),
        "largest_row_s": statistics.median(largest_samples),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tau2_solver_gmean": gmean([tau for tau, _ in pairs]) if pairs else None,
        "cert_ratio_gmean": gmean([tau / lb for tau, lb in pairs]) if pairs else None,
    }
    notes = {"ladder_s": tail_note(ladder_samples),
             "largest_row_s": f"{largest}; " + tail_note(largest_samples),
             "setup_s": tail_note(setup_s),
             "tau2_solver_gmean": f"over {len(pairs)} rows",
             "cert_ratio_gmean": f"over {len(pairs)} rows"}
    return metrics, notes


def per_layer(ladders, traced, spans):
    """The per-layer metrics, plus the tracing overhead."""
    from tracing import layer_metrics

    metrics = layer_metrics(spans)
    metrics["trace.overhead_frac"] = (
        statistics.median(ladder.total_s for ladder in traced)
        / statistics.median(ladder.total_s for ladder in ladders) - 1.0)
    return metrics, {}


def environment():
    """What a result depends on besides the code; compare only equal env_ids."""
    import numpy

    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: {k: build[key].get(k)
                      for k in ("name", "version", "openblas configuration")}
                for key in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy < 2 has no "dicts" mode
        blas = "unknown"
    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "blas_lapack": blas, "machine": platform.machine(),
           "pinned_threads": {var: os.environ.get(var) for var in THREAD_VARS}}
    env["env_id"] = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    return env


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only import and build the instances; print the seconds taken")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = PINNED_THREADS
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        experiments, jobs, setup_main = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_main))
            return 0
        setup_s = [setup_main]
        if not args.trace:
            setup_s += [probe_setup(args) for _ in range(SETUP_PROBES)]
        ladders, traced, spans = run_ladders(experiments, jobs, args.seconds,
                                             bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from checks import fingerprint

    failed = [f for ladder in ladders + traced for f in ladder.failed]
    attempted = len(jobs) * len(ladders + traced)
    if args.trace:
        metrics, notes = per_layer(ladders, traced, spans)
        plain = {label: fingerprint(row) for label, row in ladders[0].rows.items()}
        for ladder in traced:  # wrapping must not change a single bit of a row
            for label, row in ladder.rows.items():
                if label in plain and fingerprint(row) != plain[label]:
                    failed.append((label, "traced row differs from the untraced row"))
    else:
        metrics, notes = end_to_end(jobs, ladders, setup_s)

    print("environment " + json.dumps(environment(), sort_keys=True))
    for label, row in ladders[0].rows.items():
        print(f"row {label} " + json.dumps(row))
    for label, why in failed:
        print(f"FAILED {label}: {why}")
    print(f"metric rows_failed_frac = {len(failed) / attempted!r} frac "
          f"({len(failed)} of {attempted} rows)")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value!r} {unit(name)}{note}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit(name)}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
