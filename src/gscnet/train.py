"""Single-run training loop: full-batch Adam with best-validation selection.

Model selection follows the standard protocol: the reported test accuracy
and filter coefficients are taken at the epoch with the best validation
accuracy (first such epoch on ties), and training stops early once
validation accuracy has not improved for `patience` epochs. A run whose
training loss turns non-finite stops at that epoch and is marked
`diverged`; its selection covers the epochs before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Split
from .model import (AdamState, ModelParams, TrainConfig, accuracy, adam_step,
                    forward, init_params, loss_and_grad)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_acc: float
    test_acc: float
    ms: float

    def to_json(self) -> dict:
        return {"epoch": self.epoch, "train_loss": self.train_loss,
                "val_acc": self.val_acc, "test_acc": self.test_acc,
                "ms": self.ms}


@dataclass
class RunRecord:
    seed: int
    arch: str
    k1: int
    k2: int
    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = 0.0
    test_acc: float = 0.0
    total_s: float = 0.0
    alpha: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    diverged: bool = False

    def to_json(self) -> dict:
        # The wall time stays out, so the record repeats bit for bit.
        return {"seed": self.seed, "arch": self.arch, "k1": self.k1,
                "k2": self.k2, "best_epoch": self.best_epoch,
                "best_val_acc": self.best_val_acc, "test_acc": self.test_acc,
                "alpha": self.alpha, "beta": self.beta,
                "num_epochs": len(self.epochs), "diverged": self.diverged}


def evaluate(params: ModelParams, ds: Dataset, split: Split) -> tuple[float, float]:
    logits, _ = forward(params, ds.graph, ds.features)
    return (accuracy(logits, ds.labels, split.val),
            accuracy(logits, ds.labels, split.test))


def train_single(ds: Dataset, split: Split, arch: str, k1: int, k2: int,
                 cfg: TrainConfig) -> RunRecord:
    """Train one model to completion and return its record.

    Fully deterministic given (dataset, split, cfg.seed): initialization
    and dropout draw from generators derived from cfg.seed alone.
    """
    base = np.random.SeedSequence(cfg.seed)
    init_seed, drop_seed = base.spawn(2)
    params = init_params(arch, ds.d, ds.num_classes, k1, k2, seed=init_seed)
    state = AdamState.for_params(params)
    rng_drop = np.random.default_rng(drop_seed)

    record = RunRecord(seed=cfg.seed, arch=arch, k1=k1, k2=k2)
    best_val = -1.0
    best_test = 0.0
    best_epoch = -1
    best_filter = (params.alpha.copy(), params.beta.copy())
    since_improve = 0
    t_start = time.perf_counter()

    if cfg.epochs == 0:
        val_acc, test_acc = evaluate(params, ds, split)
        best_val, best_test, best_epoch = val_acc, test_acc, 0

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        loss, grads = loss_and_grad(params, ds.graph, ds.features, ds.labels,
                                    split.train, cfg, rng=rng_drop)
        if not math.isfinite(loss):
            record.diverged = True
            break
        adam_step(params, grads, state, cfg)
        val_acc, test_acc = evaluate(params, ds, split)
        ms = (time.perf_counter() - t0) * 1e3
        record.epochs.append(EpochStats(epoch, loss, val_acc, test_acc, ms))
        if val_acc > best_val:
            best_val, best_test, best_epoch = val_acc, test_acc, epoch
            best_filter = (params.alpha.copy(), params.beta.copy())
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > cfg.patience:
                break

    record.total_s = time.perf_counter() - t_start
    record.best_epoch = best_epoch
    record.best_val_acc = max(best_val, 0.0)
    record.test_acc = best_test
    record.alpha = best_filter[0].tolist()
    record.beta = best_filter[1].tolist()
    return record
