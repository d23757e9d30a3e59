"""Shared fixtures and independent dense reference implementations.

The reference operators below are built entry-by-entry from an edge list,
deliberately sharing no code with the package paths they are used to check.
"""

import os
import tracemalloc

import numpy as np
import pytest

from gscnet import experiments, model, train


def dense_adjacency_ref(edges, n):
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = 1.0
        A[v, u] = 1.0
    return A


def dense_laplacian_ref(edges, n):
    A = dense_adjacency_ref(edges, n)
    deg = A.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return np.eye(n) - dinv[:, None] * A * dinv[None, :]


def dense_shifted_ref(edges, n):
    return 2.0 * np.eye(n) - dense_laplacian_ref(edges, n)


def dense_gcn_norm_ref(edges, n):
    A_hat = dense_adjacency_ref(edges, n) + np.eye(n)
    deg = A_hat.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    return dinv[:, None] * A_hat * dinv[None, :]


def er_edges(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return list(zip(iu[keep].tolist(), ju[keep].tolist()))


def connected_edges(rng, n, extra_p=0.15):
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    edges += er_edges(rng, n, extra_p)
    return edges


def unit_filter(family, i):
    """(alpha, beta) of the filter that is one basis block: P_i for
    "shifted", Q_i for "laplacian"."""
    unit = np.eye(i + 1)[i]
    return (unit, []) if family == "shifted" else ([], unit)


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the peak bytes tracemalloc saw allocated during it)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


K2_EDGES = [(0, 1)]
P3_EDGES = [(0, 1), (1, 2)]
TRIANGLE_EDGES = [(0, 1), (1, 2), (2, 0)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture
def bytes_gate(monkeypatch):
    """`tools/bytes_gate.py`, whose comparator the repeat tests share."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
    import bytes_gate
    return bytes_gate


@pytest.fixture
def no_draw(monkeypatch):
    """Fails the test if a command draws a CSBM."""
    def draw(*args, **kwargs):
        raise AssertionError("a dataset was drawn")
    monkeypatch.setattr(experiments, "csbm_generate", draw)


@pytest.fixture
def nan_loss(monkeypatch):
    """nan_loss(seed, epoch): every run on `seed` sees a NaN training loss
    at `epoch`, so it stops there and is marked diverged."""
    real = train.loss_and_grad

    def patch(seed, epoch):
        # id of a run's dropout generator -> [the generator, its epoch];
        # holding the generator keeps its id from naming a later run.
        runs = {}

        def loss_and_grad(params, g, X, labels, mask, cfg, rng=None,
                          buffers=model.MlpBuffers()):
            loss, grads = real(params, g, X, labels, mask, cfg, rng=rng,
                               buffers=buffers)
            run = runs.setdefault(id(rng), [rng, -1])
            run[1] += 1
            if cfg.seed == seed and run[1] == epoch:
                loss = float("nan")
            return loss, grads

        monkeypatch.setattr(train, "loss_and_grad", loss_and_grad)
    return patch
