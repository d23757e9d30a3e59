"""Dataset ingestion, split management and contextual-SBM generation.

File layout (auditable text formats, no binaries):
  edges     `u v` per line, 0-indexed, `#` comments, undirected edges
            listed once or twice;
  features  comma-separated floats, one row per node;
  labels    one integer per line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateInputError, InputError
from .graph import SparseGraph, build_csr, num_components, read_edge_list, \
    read_text_values, write_edge_list
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


def random_split(n: int, seed=0) -> Split:
    """Shuffled 60/20/20 split; val and test get floor(0.2 n) nodes each,
    the remainder trains."""
    # Nudge before floor so a product that rounds just below an integer
    # still counts as that integer.
    n_val = n_test = int(math.floor(0.2 * n + 1e-9))
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


# Pairs whose Bernoulli uniforms are drawn per rng.random call. PCG64 yields
# the same doubles in chunks as in one call, so this bounds memory only.
PAIR_CHUNK = 1 << 20


def _triu_pairs(t: np.ndarray, m: int):
    """(i, j) of the flat positions t in np.triu_indices(m, k=1) order."""
    i = np.arange(m - 1)
    starts = i * (m - 1) - i * (i - 1) // 2
    row = np.searchsorted(starts, t, side="right") - 1
    return row, t - starts[row] + row + 1


def _block_edges(rng, rows, cols, p: float, upper_only: bool):
    """Bernoulli(p) edges between two node id ranges.

    Pairs are taken in row-major order (the upper triangle when
    upper_only) and kept when their uniform draw is below p."""
    if p <= 0.0:
        return np.zeros((0, 2), dtype=np.int64)
    m, m2 = len(rows), len(cols)
    total = m * (m - 1) // 2 if upper_only else m * m2
    if p >= 1.0:
        kept = np.arange(total)
    else:
        kept = np.concatenate([
            np.flatnonzero(rng.random(min(PAIR_CHUNK, total - lo)) < p) + lo
            for lo in range(0, total, PAIR_CHUNK)])
    if upper_only:
        iu, ju = _triu_pairs(kept, m)
        u, v = rows[iu], rows[ju]
    else:
        u, v = rows[kept // m2], cols[kept % m2]
    return np.stack([u, v], axis=1)


def csbm_generate(params: CsbmParams) -> Dataset:
    """Draw one contextual-SBM instance.

    Nodes [0, n/2) are class 0, the rest class 1; every intra-class pair is
    an edge with p_intra, every inter-class pair with p_inter, independently.
    Features are mu*(+/-u) + sigma*N(0, I) with u a per-seed unit vector.

    The pair uniforms are streamed in chunks of PAIR_CHUNK, so memory is
    O(chunk + |E|); time is still O(n^2) uniform draws, which keeps every
    seed's graph the same as a single full-size draw would give.
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


def _read_features(path) -> np.ndarray:
    width = None

    def parse(line, lineno):
        nonlocal width
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
        return row

    values = read_text_values(path, "feature", parse, np.float64)
    if width is None:
        raise DataError("feature file is empty", path)
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite)) // width
        raise DataError("feature row contains NaN/Inf", path,
                        _line_of_row(path, row))
    return values.reshape(-1, width)


def _line_of_row(path, row: int) -> int:
    """Line number of data row ``row`` (0-based) of a file whose blank lines
    carry no row."""
    with open(path, "r", encoding="utf-8") as f:
        data_lines = (lineno for lineno, raw in enumerate(f, start=1)
                      if raw.strip())
        return next(itertools.islice(data_lines, row, None))


def _read_labels(path) -> np.ndarray:
    def parse(line, lineno):
        try:
            y = int(line)
        except ValueError:
            raise DataError(f"unparseable label {line!r}", path, lineno)
        if y < 0:
            raise DataError(f"label {y} out of range", path, lineno)
        return (y,)

    labels = read_text_values(path, "label", parse, np.int64)
    if not labels.size:
        raise DataError("label file is empty", path)
    return labels
