"""Dataset ingestion, split management and contextual-SBM generation.

File layout (auditable text formats, no binaries):
  edges     `u v` per line, 0-indexed, `#` comments, undirected edges
            listed once or twice;
  features  comma-separated floats, one row per node;
  labels    one integer per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateInputError, InputError
from .graph import SparseGraph, build_csr, num_components, read_edge_list, \
    write_edge_list
from .pnca import label_smoothness


@dataclass(frozen=True)
class Dataset:
    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.graph.n:
            raise InputError(
                f"feature rows {self.features.shape[0]} != n {self.graph.n}")
        if self.labels.shape != (self.graph.n,):
            raise InputError(f"labels shape {self.labels.shape} != ({self.graph.n},)")
        if self.graph.n and not np.isfinite(self.features).all():
            raise InputError("features contain NaN/Inf")
        if self.graph.n and (self.labels.min() < 0
                             or self.labels.max() >= self.num_classes):
            raise InputError(
                f"labels must lie in [0, {self.num_classes})")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def stats(self) -> dict:
        out = {"nodes": self.n, "edges": self.graph.num_edges,
               "self_loops": self.graph.num_self_loops,
               "features": self.d, "classes": self.num_classes,
               "components": num_components(self.graph)}
        try:
            out["label_smoothness"] = label_smoothness(self.graph, self.labels)
        except DegenerateInputError:
            out["label_smoothness"] = None
        return out


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        masks = np.stack([self.train, self.val, self.test])
        if masks.dtype != bool:
            raise InputError("split masks must be boolean")
        per_node = masks.sum(axis=0)
        if (per_node != 1).any():
            raise InputError("split masks must be disjoint and cover all nodes")


def random_split(n: int, ratios=(0.6, 0.2, 0.2), seed=0) -> Split:
    """Shuffled split; val/test get floor(ratio*n), the remainder trains."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InputError(f"split ratios must sum to 1, got {ratios}")
    # Nudge before floor so exact products like 0.6*55 = 32.999... round up.
    n_val = int(math.floor(ratios[1] * n + 1e-9))
    n_test = int(math.floor(ratios[2] * n + 1e-9))
    n_train = n - n_val - n_test
    order = np.random.default_rng(seed).permutation(n)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[order[:n_train]] = True
    val[order[n_train:n_train + n_val]] = True
    test[order[n_train + n_val:]] = True
    return Split(train, val, test)


@dataclass(frozen=True)
class CsbmParams:
    """Two balanced classes, Bernoulli edges, Gaussian features with
    antipodal class means +/- mu*u along a fixed random unit vector u."""

    n: int = 1000
    p_intra: float = 0.016025641025641024
    p_inter: float = 0.004006410256410256
    mu: float = 1.0
    sigma: float = 1.0
    d: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise InputError(f"CSBM needs an even n >= 4, got {self.n}")
        for name, p in (("p_intra", self.p_intra), ("p_inter", self.p_inter)):
            if not 0.0 <= p <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {p}")
        if self.p_intra == 0.0 and self.p_inter == 0.0:
            raise DegenerateInputError("both edge probabilities are 0; "
                                       "the graph would be empty")
        if self.sigma < 0:
            raise InputError(f"sigma must be >= 0, got {self.sigma}")
        if self.d < 1:
            raise InputError(f"feature dimension must be >= 1, got {self.d}")

    def to_json(self) -> dict:
        return {"n": self.n, "p_intra": self.p_intra, "p_inter": self.p_inter,
                "mu": self.mu, "sigma": self.sigma, "d": self.d,
                "seed": self.seed}


def csbm_params_for(regime: str, n: int = 1000, d: int = 16, mu: float = 1.0,
                    sigma: float = 1.0, expected_degree: float = 10.0,
                    seed: int = 0) -> CsbmParams:
    """Presets: edge probabilities solved from the expected degree and an
    intra/inter ratio of 4 (homophily) or 1/4 (heterophily)."""
    ratios = {"homophily": 4.0, "heterophily": 0.25}
    if regime not in ratios:
        raise InputError(f"unknown CSBM regime {regime!r}; "
                         f"expected one of {sorted(ratios)}")
    r = ratios[regime]
    # expected_degree = p_intra*(n/2 - 1) + p_inter*(n/2), p_intra = r*p_inter
    half = n // 2
    p_inter = expected_degree / (r * (half - 1) + half)
    return CsbmParams(n=n, p_intra=r * p_inter, p_inter=p_inter, mu=mu,
                      sigma=sigma, d=d, seed=seed)


def _block_edges(rng, rows, cols, p: float, upper_only: bool):
    """Bernoulli(p) edges between two node id ranges."""
    if p <= 0.0:
        return np.zeros((0, 2), dtype=np.int64)
    if upper_only:
        iu, ju = np.triu_indices(len(rows), k=1)
        u, v = rows[iu], rows[ju]
    else:
        u = np.repeat(rows, len(cols))
        v = np.tile(cols, len(rows))
    if p >= 1.0:
        keep = np.ones(u.shape[0], dtype=bool)
    else:
        keep = rng.random(u.shape[0]) < p
    return np.stack([u[keep], v[keep]], axis=1)


def csbm_generate(params: CsbmParams) -> Dataset:
    """Draw one contextual-SBM instance.

    Nodes [0, n/2) are class 0, the rest class 1; every intra-class pair is
    an edge with p_intra, every inter-class pair with p_inter, independently.
    Features are mu*(+/-u) + sigma*N(0, I) with u a per-seed unit vector.
    """
    rng = np.random.default_rng(params.seed)
    half = params.n // 2
    block0 = np.arange(half)
    block1 = np.arange(half, params.n)

    edges = np.concatenate([
        _block_edges(rng, block0, block0, params.p_intra, upper_only=True),
        _block_edges(rng, block1, block1, params.p_intra, upper_only=True),
        _block_edges(rng, block0, block1, params.p_inter, upper_only=False),
    ], axis=0)
    graph = build_csr(edges, params.n)

    u = rng.standard_normal(params.d)
    u /= np.linalg.norm(u)
    signs = np.where(np.arange(params.n) < half, 1.0, -1.0)
    noise = rng.standard_normal((params.n, params.d)) if params.sigma > 0 \
        else np.zeros((params.n, params.d))
    features = params.mu * signs[:, None] * u[None, :] + params.sigma * noise
    labels = (np.arange(params.n) >= half).astype(np.int64)
    return Dataset(graph=graph, features=features, labels=labels,
                   num_classes=2)


def load_dataset(edge_path, feature_path, label_path) -> Dataset:
    """Load the three-file layout, validating row counts and label range."""
    features = _read_features(feature_path)
    n = features.shape[0]
    labels = _read_labels(label_path)
    if labels.shape[0] != n:
        raise DataError(
            f"label count {labels.shape[0]} != feature rows {n}", label_path)
    edges = read_edge_list(edge_path, n=n)
    graph = build_csr(edges, n)
    num_classes = int(labels.max()) + 1 if n else 0
    return Dataset(graph=graph, features=features, labels=labels,
                   num_classes=num_classes)


def save_dataset(ds: Dataset, edge_path, feature_path, label_path):
    write_edge_list(edge_path, ds.graph)
    with open(feature_path, "w", encoding="utf-8") as f:
        for row in ds.features:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(label_path, "w", encoding="utf-8") as f:
        for y in ds.labels:
            f.write(f"{int(y)}\n")


def _open_text(path, label):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {label} file: {exc}", path)


def _read_features(path) -> np.ndarray:
    rows = []
    width = None
    with _open_text(path, "feature") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise DataError("unparseable feature row", path, lineno)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(
                    f"feature row has {len(row)} columns, expected {width}",
                    path, lineno)
            rows.append(row)
    if not rows:
        raise DataError("feature file is empty", path)
    return np.asarray(rows, dtype=np.float64)


def _read_labels(path) -> np.ndarray:
    labels = []
    with _open_text(path, "label") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                y = int(line)
            except ValueError:
                raise DataError(f"unparseable label {line!r}", path, lineno)
            if y < 0:
                raise DataError(f"label {y} out of range", path, lineno)
            labels.append(y)
    if not labels:
        raise DataError("label file is empty", path)
    return np.asarray(labels, dtype=np.int64)
