"""Experiment driver: multi-seed training, degree sweeps, depth sweeps,
activation ablations and timing, all as pure functions of their config.

Seed pairing: within one command every model/cell sees the same per-seed
dataset and split, so comparisons are paired rather than confounded by
sampling. The seed is the one unit of fan-out: each seed's job builds its
dataset and split once and trains all of the command's cells on them, on
min(threads, seeds) worker threads with per-run generators. A file dataset
is loaded once per command, before the fan-out. Seeds are submitted in
seed order and their records kept in it, so the output does not depend on
the order of the seed list.

BLAS threads: while more than one worker runs, OpenBLAS is capped to its
share of the cores per worker, max(1, min(current, nproc // workers)), and
restored when the pool exits; the serial path keeps every BLAS thread.
Large GEMMs round differently at different BLAS thread counts, so a run's
bytes are a function of its config and of its BLAS threads per worker: a
fan-out repeats bit for bit and equals a serial run under the same count,
but not, at sizes where OpenBLAS threads, a serial run with more threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import build_basis_cache
from .data import (CsbmParams, Dataset, csbm_generate, csbm_params_for,
                   load_dataset, random_split)
from .errors import ConfigError, GscnetError, InputError
from .model import ARCHITECTURES, TrainConfig, is_int, propagation
from .train import RunRecord, train_single

SCHEMA_VERSION = "gscnet-experiments/1"

# Two-sided 95% Student-t critical values by degrees of freedom. A df
# beyond the table reads the closest smaller df's entry.
_T975 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
         7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
         13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
         19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000,
         120: 1.980}


def t_critical_975(df: int) -> float:
    if df <= 0:
        return float("nan")
    return _T975[max(k for k in _T975 if k <= df)]


def mean_ci95(values) -> tuple[float, float]:
    """Mean and its 95% confidence half-width (Student-t over seed means)."""
    v = np.asarray(values, dtype=np.float64)
    mean = float(v.mean())
    if v.size < 2:
        return mean, float("nan")
    sem = float(v.std(ddof=1)) / math.sqrt(v.size)
    return mean, t_critical_975(v.size - 1) * sem


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: {"kind": "csbm",
                                                   "regime": "homophily"})
    arch: str = "GSCNet"
    k1: int = 2
    k2: int = 2
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: list = field(default_factory=lambda: [0])
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.dataset, dict):
            raise ConfigError("a dataset spec must be a JSON object, got "
                              f"{self.dataset!r}")
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown arch {self.arch!r}")
        if not self.seeds:
            raise ConfigError("seed list must not be empty")
        if not all(is_int(s) and s >= 0 for s in self.seeds):
            raise ConfigError(f"seeds must be integers >= 0, got "
                              f"{self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seed list contains duplicates")
        if not is_int(self.threads) or self.threads < 1:
            raise ConfigError(f"threads must be an integer >= 1, got "
                              f"{self.threads!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        obj = dict(obj)
        try:
            train = obj.pop("train", {})
            if "seed" in train:
                # Each run trains with its own seed from `seeds`.
                raise ConfigError("train.seed is not settable; list the "
                                  "run seeds in `seeds`")
            return cls(train=TrainConfig(**train), **obj)
        except (TypeError, InputError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc


def csbm_params(spec: dict, seed: int) -> CsbmParams:
    """The CsbmParams of a CSBM dataset spec for one seed: a `regime` selects
    the preset `csbm_params_for`, and without one the other keys are
    CsbmParams fields."""
    kind = spec.get("kind", "csbm")
    if kind != "csbm":
        raise ConfigError(f"not a csbm dataset spec: kind {kind!r}")
    opts = {k: v for k, v in spec.items() if k not in ("kind", "regime")}
    try:
        if "regime" in spec:
            return csbm_params_for(spec["regime"], seed=seed, **opts)
        return CsbmParams(seed=seed, **opts)
    except (TypeError, InputError) as exc:
        raise ConfigError(f"bad csbm dataset spec: {exc}") from exc


def _dataset_source(spec: dict):
    """seed -> Dataset for the configured dataset. A CSBM is drawn per seed;
    a file dataset is loaded here, once, and every seed shares it (it is
    immutable). The spec is checked here too, before any seed's job runs."""
    kind = spec.get("kind", "csbm")
    if kind == "csbm":
        # The seed does not decide whether the keys and values are valid.
        csbm_params(spec, 0)
        return lambda seed: csbm_generate(csbm_params(spec, seed))
    if kind == "files":
        keys = set(spec) - {"kind"}
        if keys != {"edges", "features", "labels"}:
            raise ConfigError("a files dataset spec needs exactly the keys "
                              f"edges, features and labels, got {sorted(keys)}")
        ds = load_dataset(spec["edges"], spec["features"], spec["labels"])
        return lambda seed: ds
    raise ConfigError(f"unknown dataset kind {kind!r}")


def make_dataset(spec: dict, seed: int) -> Dataset:
    """The configured dataset for one seed."""
    return _dataset_source(spec)(seed)


def _run_one_seed(config: ExperimentConfig, source, seed: int,
                  cells: list) -> list:
    """Train each (arch, k1, k2) cell on the seed's dataset and split, built
    once for all of them; returns their RunRecords in cell order."""
    ds = source(seed)
    split = random_split(ds.n, seed=seed)
    cfg = replace(config.train, seed=seed)
    return [train_single(ds, split, arch, k1, k2, cfg)
            for arch, k1, k2 in cells]


@functools.cache
def _openblas():
    """(file name, get_num_threads, set_num_threads) of the OpenBLAS numpy
    loaded, found through the process's memory map, or None when there is
    none (another BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and ".so" in line},
                           key=lambda p: ("numpy" not in p, p))
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                          None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                          None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return os.path.basename(path), get, put
    return None


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_share(threads: int, workers: int) -> int:
    """BLAS threads each of `workers` workers gets out of `threads`."""
    if workers < 2:
        return threads
    return max(1, min(threads, _nproc() // workers))


@contextlib.contextmanager
def blas_threads_per_worker(workers: int):
    """Cap OpenBLAS to each worker's share of the cores while `workers`
    threads call it at once, and restore the count on exit; a no-op for one
    worker or without OpenBLAS. The count is process-wide, so fan-outs in
    one process must not overlap."""
    blas = _openblas()
    if blas is None or workers < 2:
        yield
        return
    _, get, put = blas
    before = get()
    put(_blas_share(before, workers))
    try:
        yield
    finally:
        put(before)


def environment(workers: int) -> dict:
    """What a run's bytes depend on besides its config: the numpy version,
    the BLAS library and the BLAS threads each of `workers` workers gets."""
    name, threads = None, None
    if (blas := _openblas()) is not None:
        name, threads = blas[0], _blas_share(blas[1](), workers)
    return {"numpy": np.__version__, "blas": name,
            "blas_threads_per_worker": threads, "nproc": _nproc()}


def fan_out_workers(config: ExperimentConfig) -> int:
    """Worker threads that run at once: one job per seed."""
    return min(config.threads, len(config.seeds))


def _fan_out(config: ExperimentConfig, cells) -> list:
    """Train every (arch, k1, k2) cell on every seed, one `_run_one_seed`
    job per seed, submitted in seed order; returns, per cell, its
    RunRecords in seed order. Each cell's degrees are checked first, so a
    bad degree fails before any dataset is drawn."""
    cells = list(cells)
    for arch, k1, k2 in cells:
        propagation(arch, k1, k2)
    source = _dataset_source(config.dataset)
    seeds = sorted(config.seeds)
    workers = fan_out_workers(config)
    if workers == 1:
        per_seed = [_run_one_seed(config, source, seed, cells)
                    for seed in seeds]
    else:
        with blas_threads_per_worker(workers), \
                ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one_seed, config, source, seed, cells)
                       for seed in seeds]
            try:
                # Results are read as they finish, so the first seed to fail
                # raises at once; it, or an interrupt, cancels the seeds no
                # worker has started.
                for done in as_completed(futures):
                    done.result()
            finally:
                pool.shutdown(cancel_futures=True)
        per_seed = [f.result() for f in futures]
    return [list(records) for records in zip(*per_seed)]


def format_ci(ci, digits: int) -> str:
    """A cell's ci95 as text; an undefined one (one seed) reads nan."""
    return f"{math.nan if ci is None else ci:.{digits}f}"


def summarize_records(records: list) -> dict:
    """The one summary of a trained cell's RunRecords, in every command."""
    mean, ci = mean_ci95([r.test_acc for r in records])
    # One seed has no interval; JSON has no NaN, so it reads null.
    return {"mean_test_acc": mean, "ci95": None if math.isnan(ci) else ci,
            "per_seed": {str(r.seed): r.test_acc for r in records},
            "diverged_seeds": [r.seed for r in records if r.diverged]}


def cmd_train(config: ExperimentConfig) -> dict:
    """Train config.arch over the seed list; summary uses best-val selection."""
    records, = _fan_out(config, [(config.arch, config.k1, config.k2)])
    summary = {"schema": SCHEMA_VERSION, "command": "train",
               "arch": config.arch, "k1": config.k1, "k2": config.k2,
               "dataset": config.dataset, **summarize_records(records)}
    return {"records": records, "summary": summary}


def cmd_sweep_degrees(config: ExperimentConfig, k1_range, k2_range) -> dict:
    """Mean accuracy per (k1, k2) cell over the shared seed list."""
    k1_range = list(k1_range)
    k2_range = list(k2_range)
    if not k1_range or not k2_range:
        raise ConfigError("sweep ranges must be non-empty")
    if min(k1_range + k2_range) < 0 or max(k1_range + k2_range) > 6:
        raise ConfigError("sweep degrees must lie in [0, 6]")
    if config.arch != "GSCNet" and len(set(k2_range)) > 1:
        # A single-degree architecture ignores k2 (see `propagation`).
        raise ConfigError(f"{config.arch} has one degree, k1; a k2 range of "
                          f"{k2_range} would train each k1 cell "
                          f"{len(set(k2_range))} times")

    grid = sorted({(k1, k2) for k1 in k1_range for k2 in k2_range})
    per_cell = _fan_out(config, [(config.arch, k1, k2) for k1, k2 in grid])
    cells = [{"k1": k1, "k2": k2, **summarize_records(records)}
             for (k1, k2), records in zip(grid, per_cell)]
    means = [c["mean_test_acc"] for c in cells]
    return {"schema": SCHEMA_VERSION, "command": "sweep",
            "arch": config.arch, "dataset": config.dataset,
            "k1_range": k1_range, "k2_range": k2_range, "cells": cells,
            "spread": float(max(means) - min(means))}


def cmd_oversmooth(config: ExperimentConfig, depths) -> dict:
    """Accuracy vs propagation depth for all four architectures, on the
    same per-seed datasets and splits."""
    depths = list(depths)
    if not depths or depths[0] < 1 or depths != sorted(set(depths)):
        raise ConfigError(f"depths must be >= 1 and strictly increasing, "
                          f"got {depths}")
    # GSCNet grows both families with depth, a baseline its single degree.
    cells = {(arch, d): (arch, d, d if arch == "GSCNet" else 0)
             for arch in ARCHITECTURES for d in depths}
    summaries = {key: summarize_records(records) for key, records
                 in zip(cells, _fan_out(config, cells.values()))}
    rows, diverged = (
        {arch: {str(d): summaries[arch, d][field] for d in depths}
         for arch in ARCHITECTURES}
        for field in ("mean_test_acc", "diverged_seeds"))
    # Two decline measures: from the per-model peak, and end to end across
    # the sweep (negative = the model gains accuracy with depth).
    drops = {arch: max(vals.values()) - vals[str(depths[-1])]
             for arch, vals in rows.items()}
    declines = {arch: vals[str(depths[0])] - vals[str(depths[-1])]
                for arch, vals in rows.items()}
    return {"schema": SCHEMA_VERSION, "command": "oversmooth",
            "dataset": config.dataset, "depths": depths,
            "accuracy": rows, "drop_to_deepest": drops,
            "decline_shallow_to_deep": declines, "diverged_seeds": diverged}


def cmd_ablate_activations(config: ExperimentConfig) -> dict:
    """GSCNet with the pure shifted basis, the pure Laplacian basis, and the
    mixed basis, on shared seeds/splits."""
    variant_degrees = {"positive": (config.k1, -1),
                       "negative": (-1, config.k2),
                       "mixed": (config.k1, config.k2)}
    per_cell = _fan_out(config, [("GSCNet", k1, k2)
                                 for k1, k2 in variant_degrees.values()])
    rows = {variant: {**summarize_records(records), "degrees": list(degrees)}
            for (variant, degrees), records in zip(variant_degrees.items(),
                                                   per_cell)}
    return {"schema": SCHEMA_VERSION, "command": "ablate",
            "dataset": config.dataset, "rows": rows}


def cmd_bench(config: ExperimentConfig, warmup: int = 5) -> dict:
    """Per-epoch wall time (mean over measured epochs, warmup excluded) and
    total seconds, plus the per-epoch series for cumulative-time plots, of
    one serial run: the first seed, every epoch. The report carries the
    `environment` block of that one worker."""
    if warmup < 0:
        raise ConfigError("warmup must be >= 0")
    if config.train.epochs - warmup < 1:
        raise ConfigError(
            f"no measurement window: epochs={config.train.epochs} "
            f"with warmup={warmup}")
    config = replace(config, seeds=config.seeds[:1],
                     train=replace(config.train, patience=config.train.epochs))
    (record,), = _fan_out(config, [(config.arch, config.k1, config.k2)])
    if record.diverged:
        raise GscnetError(f"bench: seed {record.seed} diverged (non-finite "
                          f"loss or logits) at epoch {len(record.epochs)}")
    series = [e.ms for e in record.epochs]
    measured = series[warmup:]
    return {"schema": SCHEMA_VERSION, "command": "bench",
            "arch": config.arch, "k1": config.k1, "k2": config.k2,
            "dataset": config.dataset, "warmup": warmup,
            "epochs_measured": len(measured),
            "per_epoch_ms": float(np.mean(measured)),
            "total_s": record.total_s, "series_ms": series,
            "environment": environment(1)}


def measure_cache_build(ds: Dataset, degree_pairs, repeats: int = 5) -> list:
    """Median wall seconds to build the basis cache at each (k1, k2) pair.
    The pairs take turns within each repeat, so a spell of host load falls
    on all of them instead of on one pair's batch."""
    times = [[] for _ in degree_pairs]
    for _ in range(repeats):
        for pair_times, (k1, k2) in zip(times, degree_pairs):
            t0 = time.perf_counter()
            build_basis_cache(ds.graph, ds.features, max(k1, k2))
            pair_times.append(time.perf_counter() - t0)
    return [float(np.median(t)) for t in times]


def write_json(path, obj: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_with_environment(path, obj: dict, config: ExperimentConfig):
    """write_json with the `environment` block of a command run under
    `config`, since the artifact's bytes depend on it."""
    write_json(path, {**obj, "environment": environment(
        fan_out_workers(config))})


def write_records_jsonl(path, record: RunRecord):
    with open(path, "w", encoding="utf-8") as f:
        for e in record.epochs:
            f.write(json.dumps({"schema": SCHEMA_VERSION, "seed": record.seed,
                                **e.to_json()}, sort_keys=True,
                               allow_nan=False) + "\n")


def write_grid_csv(path, sweep: dict):
    with open(path, "w", encoding="utf-8") as f:
        f.write("k1,k2,mean_test_acc,ci95\n")
        for cell in sweep["cells"]:
            f.write(f"{cell['k1']},{cell['k2']},{cell['mean_test_acc']:.6f},"
                    f"{format_ci(cell['ci95'], 6)}\n")


def write_depth_csv(path, table: dict):
    depths = table["depths"]
    with open(path, "w", encoding="utf-8") as f:
        f.write("arch," + ",".join(f"depth_{d}" for d in depths) + "\n")
        for arch, vals in table["accuracy"].items():
            f.write(arch + "," + ",".join(f"{vals[str(d)]:.6f}"
                                          for d in depths) + "\n")
