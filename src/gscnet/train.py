"""Single-run training loop: full-batch Adam with best-validation selection.

Model selection follows the standard protocol: the reported test accuracy
and filter coefficients are taken at the epoch with the best validation
accuracy (first such epoch on ties), and training stops early once
validation accuracy has not improved for `patience` epochs. A run whose
training loss or evaluation logits turn non-finite stops at that epoch and
is marked `diverged`; that epoch is neither recorded nor selectable, so
its selection covers the epochs before it, and a run that diverges in its
first epoch selects no model.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

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
        return asdict(self)


@dataclass
class RunRecord:
    """One run and its selection: the best-validation epoch, its accuracies
    and its filter coefficients (alpha, beta). Without a selected epoch the
    selection keeps its defaults."""

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

    def select(self, epoch: int, val_acc: float, test_acc: float,
               params: ModelParams):
        self.best_epoch, self.best_val_acc, self.test_acc = \
            epoch, val_acc, test_acc
        na = params.prop.na
        self.alpha, self.beta = params.c[:na].tolist(), params.c[na:].tolist()

    def to_json(self) -> dict:
        # The wall time stays out, so the record repeats bit for bit.
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("epochs", "total_s")}
        return {**out, "num_epochs": len(self.epochs)}


def evaluate(params: ModelParams, ds: Dataset, split: Split):
    """(val accuracy, test accuracy) of the model, or None when one of its
    logits is not finite: a model that has diverged has no accuracy."""
    logits, _ = forward(params, ds.graph, ds.features)
    if not np.isfinite(logits).all():
        return None
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
    t_start = time.perf_counter()

    # A diverging step overflows; the checks below catch it, so numpy need
    # not warn. The state is per thread, and so is the run.
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.epochs == 0:
            if (scores := evaluate(params, ds, split)) is None:
                record.diverged = True
            else:
                record.select(0, *scores, params)

        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            loss, grads = loss_and_grad(params, ds.graph, ds.features,
                                        ds.labels, split.train, cfg,
                                        rng=rng_drop)
            scores = None
            if math.isfinite(loss):
                adam_step(params, grads, state, cfg)
                scores = evaluate(params, ds, split)
            if scores is None:
                record.diverged = True
                break
            val_acc, test_acc = scores
            ms = (time.perf_counter() - t0) * 1e3
            record.epochs.append(EpochStats(epoch, loss, val_acc, test_acc,
                                            ms))
            if record.best_epoch < 0 or val_acc > record.best_val_acc:
                record.select(epoch, val_acc, test_acc, params)
            elif epoch - record.best_epoch > cfg.patience:
                break

    record.total_s = time.perf_counter() - t_start
    return record
