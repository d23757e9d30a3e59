"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gsc-fanout --seed 0 --seconds 25 --trace 0

Builds nothing: the program under test is the `gscnet` package in `src/`
of the checkout this file sits in. One run repeats the workload's
fixed-epoch training step until its repetitions have trained for
`--seconds`, and at least MIN_REPS times. It sets the workload up SETUPS
times, in equal groups before the first repetition and after each one.
Times are medians over set-ups or repetitions, so one repetition in a
slow spell of the machine does not move them. Every training run's output
is checked.

The second-to-last line of standard output is a JSON object with the run's
details and environment; the last line is the result:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones from a
run with spans around gscnet's layer functions.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Epochs dropped from the front of each training run before timing.
WARMUP = 3
# Timed set-ups per run; setup_s is their median. They run in groups of
# SETUP_GROUP: before the first repetition, after each repetition and, for
# any left over, after the last.
SETUPS = 6
SETUP_GROUP = 2
# Each time is a median over at least this many repetitions.
MIN_REPS = 3
# Epoch times a repetition pools after warm-up, at least; ten of them lie
# beyond their p90 (see `beyond`). Each workload's epoch count keeps this.
MIN_SAMPLES = 100
# No new repetition starts after this many seconds of training.
TIME_CAP_S = 120.0


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n - 1e-9)


def quantile(values, q: float) -> float:
    """Nearest-rank q-quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) - 1e-9), 1) - 1]


def _blas_runtime() -> dict:
    """OpenBLAS's own config string and thread count, read from the library
    numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
            if config is None or threads is None:
                continue
            config.restype = ctypes.c_char_p
            config.argtypes = []
            threads.restype = ctypes.c_int
            threads.argtypes = []
            return {"library": os.path.basename(path),
                    "config": config().decode(),
                    "threads": threads()}
    return {}


def _git_commit():
    """HEAD of the repository this checkout is, or None if it is none."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": _blas_runtime()},
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


def check_run(workload, seed: int, index: int, record, reference: dict):
    """None if the training run's output is right, else the reason."""
    losses = [e.train_loss for e in record.epochs]
    if not all(math.isfinite(x) for x in losses):
        return "non-finite loss"
    if len(record.epochs) != workload.epochs:
        return f"{len(record.epochs)} epochs, expected {workload.epochs}"
    refs = reference["test_acc"].get(workload.name, {}).get(str(seed))
    if refs is not None:
        tol = reference["tolerance"]
        if abs(record.test_acc - refs[index]) > tol:
            return (f"test_acc {record.test_acc} differs from reference "
                    f"{refs[index]} by more than {tol}")
    elif record.test_acc < workload.min_acc:
        return f"test_acc {record.test_acc} below floor {workload.min_acc}"
    return None


def _fingerprint(record) -> tuple:
    return (record.seed, record.test_acc, record.best_epoch,
            tuple(e.train_loss for e in record.epochs))


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result and the run's details."""
    from perfbench.spans import Tracer, layer_metrics

    reference = load_reference()
    load_start = os.getloadavg()
    workroot = os.path.join(HERE, ".work")
    workdir = os.path.join(workroot, f"{workload.name}-{seed}-{os.getpid()}")
    tracer = Tracer()
    setup_times, train_times, failures = [], [], []
    p50s, p90s, rep_samples = [], [], []
    attempted = 0
    first = test_acc = inputs = None

    def setup(count):
        """Set up `count` times and keep the last inputs. The previous
        inputs are dropped first, so the peak RSS holds one data set."""
        nonlocal inputs
        for _ in range(count):
            inputs = None
            tracer.phase = "setup"
            with tracer.span("bench.setup") as s:
                inputs = workload.setup(seed, paths)
            setup_times.append(s.duration)

    try:
        with tracer.install() if trace else contextlib.nullcontext():
            paths = workload.prepare(seed, workdir)
            setup(SETUP_GROUP)
            # Only training counts towards --seconds, so the number of
            # repetitions does not depend on how long the set-ups take.
            while not train_times or (
                    (sum(train_times) < seconds
                     or len(train_times) < MIN_REPS)
                    and sum(train_times) < TIME_CAP_S):
                tracer.phase = "rep"
                with tracer.span("bench.rep") as s:
                    records = workload.rep(seed, inputs)
                train_times.append(s.duration)
                samples = [e.ms for r in records for e in r.epochs[WARMUP:]]
                p50s.append(statistics.median(samples))
                p90s.append(quantile(samples, 0.9))
                rep_samples.append(len(samples))
                prints = [_fingerprint(r) for r in records]
                if first is None:
                    first, test_acc = prints, [r.test_acc for r in records]
                for i, r in enumerate(records):
                    attempted += 1
                    why = check_run(workload, seed, i, r, reference)
                    if why is None and prints[i] != first[i]:
                        why = "differs from the first repetition"
                    if why is not None:
                        failures.append({"run_seed": r.seed, "why": why})
                # Set-ups between repetitions see the same spells of a
                # slower machine as the repetitions do.
                setup(min(SETUP_GROUP, SETUPS - len(setup_times)))
            setup(SETUPS - len(setup_times))
            tracer.phase = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workroot)     # only if no other run is using it

    if trace:
        metrics = layer_metrics(tracer.spans, reps=len(train_times),
                                setups=len(setup_times),
                                workers=workload.threads)
        metrics["trace.train_s"] = statistics.median(train_times)
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_s": statistics.median(train_times),
            "epoch_ms_p50": statistics.median(p50s),
            "epoch_ms_p90": statistics.median(p90s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END_UNITS
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    details = {"workload": workload.name, "seed": seed, "seconds": seconds,
               "trace": int(trace), "reps": len(train_times),
               "epoch_samples_per_rep": rep_samples,
               "samples_beyond_p90": [beyond(n, 0.9) for n in rep_samples],
               "setup_times_s": setup_times, "train_times_s": train_times,
               "test_acc": test_acc, "failures": failures,
               "env": {**environment(), "loadavg_start": load_start,
                       "loadavg_end": os.getloadavg()}}
    return {"details": details, "result": result}


END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "epoch_ms_p50": "ms",
                    "epoch_ms_p90": "ms", "peak_rss_mb": "MB",
                    "pass_frac": "fraction"}
LAYER_UNITS = {
    "graph.apply_calls": "count", "graph.apply_s": "s", "graph.nnz_d": "count",
    "graph.ns_per_nnz_d": "ns", "basis.build_calls": "count",
    "basis.build_self_s": "s", "basis.combine_s": "s",
    "model.forward_self_s": "s", "model.backward_self_s": "s",
    "model.adam_s": "s", "train.eval_s": "s", "train.epochs": "count",
    "data.generate_s": "s", "data.load_s": "s", "data.split_s": "s",
    "experiments.fanout_efficiency": "ratio", "trace.train_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="training time of one run; BENCHMARK.json's "
                             "run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gscnet", "__init__.py")):
        print(f"perfbench: no gscnet package under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace))
    print(json.dumps({"perfbench": out["details"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
