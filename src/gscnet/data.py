"""Dataset ingestion, split management and contextual-SBM generation.

File layout (auditable text formats, no binaries), owned by this module:
  edges     `u v` per line, 0-indexed, `#` comments, undirected edges
            listed once or twice, no self-loops;
  features  comma-separated floats, one row per node;
  labels    one integer per line.
Blank lines carry no row. One table reader parses all three files.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, DegenerateInputError, InputError, is_int, \
    is_real
from .graph import SparseGraph, build_csr


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
        if not (all(map(is_int, (self.n, self.d, self.seed))) and all(map(
                is_real, (self.p_intra, self.p_inter, self.mu, self.sigma)))):
            raise InputError("CSBM n, d and seed must be integers and the "
                             f"other fields real numbers, got {self}")
        if self.n < 4 or self.n % 2:
            raise InputError(f"CSBM needs an even n >= 4, got {self.n}")
        for name, p in (("p_intra", self.p_intra), ("p_inter", self.p_inter)):
            if not 0.0 <= p <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {p}")
        if self.p_intra == 0.0 and self.p_inter == 0.0:
            raise DegenerateInputError("both edge probabilities are 0; "
                                       "the graph would be empty")
        if not (math.isfinite(self.mu) and 0 <= self.sigma < math.inf):
            raise InputError("mu must be finite and sigma finite and >= 0, "
                             f"got mu={self.mu}, sigma={self.sigma}")
        if self.d < 1:
            raise InputError(f"feature dimension must be >= 1, got {self.d}")

    def to_json(self) -> dict:
        return asdict(self)


def csbm_params_for(regime: str, n: int = 1000, d: int = 16, mu: float = 1.0,
                    sigma: float = 1.0, expected_degree: float = 10.0,
                    seed: int = 0) -> CsbmParams:
    """Presets: edge probabilities solved from the expected degree and an
    intra/inter ratio of 4 (homophily) or 1/4 (heterophily)."""
    ratios = {"homophily": 4.0, "heterophily": 0.25}
    if not is_real(expected_degree):
        raise InputError("expected_degree must be a real number, got "
                         f"{expected_degree!r}")
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
# the same doubles in chunks as in one call, so the size never changes a
# graph, only the draw's memory: 512 KB of uniforms per chunk.
PAIR_CHUNK = 1 << 16


def _triu_pairs(t: np.ndarray, m: int):
    """(i, j) of the flat positions t in np.triu_indices(m, k=1) order."""
    i = np.arange(m - 1)
    starts = i * (m - 1) - i * (i - 1) // 2
    row = np.searchsorted(starts, t, side="right") - 1
    return row, t - starts[row] + row + 1


def block_edges(rng, rows, cols, p: float, upper_only: bool):
    """Bernoulli(p) edges between two node id ranges.

    Pairs are taken in row-major order (the upper triangle when
    upper_only) and kept when their uniform draw is below p; no uniform
    is drawn at p <= 0 or p >= 1."""
    m, m2 = len(rows), len(cols)
    total = m * (m - 1) // 2 if upper_only else m * m2
    if p <= 0.0 or total == 0:
        return np.zeros((0, 2), dtype=np.int64)
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
        block_edges(rng, block0, block0, params.p_intra, upper_only=True),
        block_edges(rng, block1, block1, params.p_intra, upper_only=True),
        block_edges(rng, block0, block1, params.p_inter, upper_only=False),
    ], axis=0)
    graph = build_csr(edges, params.n)

    u = rng.standard_normal(params.d)
    u /= np.linalg.norm(u)
    features = rng.standard_normal((params.n, params.d)) if params.sigma > 0 \
        else np.zeros((params.n, params.d))
    # sigma * noise, then each class's mean term added in the same buffer:
    # the sums of mu * (+/-u) + sigma * noise, with no n x d temporary.
    features *= params.sigma
    features[:half] += params.mu * u
    features[half:] -= params.mu * u
    labels = (np.arange(params.n) >= half).astype(np.int64)
    return Dataset(graph=graph, features=features, labels=labels,
                   num_classes=2)


def _read_table(path, name: str, convert, invalid, message: str, sep=None,
                width=None, comment=None) -> np.ndarray:
    """The rows of a dataset file as one (rows, width) array.

    Blank lines and ``comment`` lines carry no row. A row is a line split
    on ``sep`` (None: whitespace) into ``width`` fields (None: the first
    row's), each streamed through ``convert`` into ``np.fromiter``; a
    `DataError` names a line that does not. Then ``invalid(rows)`` flags
    bad rows on the whole array, and only if it flags one is the file read
    again, to name that row's line."""
    def data_lines(f):
        for number, raw in enumerate(f, start=1):
            line = raw.strip()
            if line and not (comment and line.startswith(comment)):
                yield number, line

    lineno = 0  # the line whose values np.fromiter is taking

    def rows(lines):
        nonlocal width, lineno
        for lineno, line in lines:
            parts = line.split(sep)
            width = width or len(parts)
            if len(parts) != width:
                raise DataError(f"{name} line has {len(parts)} fields, "
                                f"expected {width}", path, lineno)
            try:
                values = list(map(convert, parts))
            except ValueError:
                raise DataError(f"unparseable {name} line", path, lineno)
            yield values

    try:
        with open(path, "r", encoding="utf-8") as f:
            values = np.fromiter(
                itertools.chain.from_iterable(rows(data_lines(f))),
                dtype=np.int64 if convert is int else np.float64)
    except OSError as exc:
        raise DataError(f"cannot read {name} file: {exc}", path)
    except OverflowError:
        raise DataError(f"{name} value out of range", path, lineno)
    table = values.reshape(-1, width or 1)  # width is None without rows
    bad = invalid(table)
    if bad.any():
        with open(path, "r", encoding="utf-8") as f:
            lineno, _ = next(itertools.islice(data_lines(f),
                                              int(np.argmax(bad)), None))
        raise DataError(message, path, lineno)
    return table


def read_edge_list(path, n: int) -> np.ndarray:
    """The (m, 2) int64 array of a `u v` per line edge file, endpoints in
    [0, n) and u != v; an undirected edge may be listed once or twice
    (build_csr dedups)."""
    return _read_table(
        path, "edge", int,
        lambda e: ((e < 0) | (e >= n)).any(axis=1) | (e[:, 0] == e[:, 1]),
        "edge is a self-loop or has an endpoint out of range", width=2,
        comment="#")


def write_edge_list(path, g: SparseGraph):
    """Write each undirected edge once (u < v), in row-major order."""
    np.savetxt(path, np.column_stack(g.upper_edges()), fmt="%d",
               encoding="utf-8")


def load_dataset(edge_path, feature_path, label_path) -> Dataset:
    """Load the three-file layout, validating row counts and label range."""
    features = _read_table(feature_path, "feature", float,
                           lambda x: ~np.isfinite(x).all(axis=1),
                           "feature row contains NaN/Inf", sep=",")
    if not features.size:
        raise DataError("feature file is empty", feature_path)
    n = features.shape[0]
    labels = _read_table(label_path, "label", int, lambda y: y[:, 0] < 0,
                         "negative label", width=1).ravel()
    if not labels.size:
        raise DataError("label file is empty", label_path)
    if labels.shape[0] != n:
        raise DataError(
            f"label count {labels.shape[0]} != feature rows {n}", label_path)
    graph = build_csr(read_edge_list(edge_path, n=n), n)
    return Dataset(graph=graph, features=features, labels=labels,
                   num_classes=int(labels.max()) + 1)


def save_dataset(ds: Dataset, edge_path, feature_path, label_path):
    write_edge_list(edge_path, ds.graph)
    with open(feature_path, "w", encoding="utf-8") as f:
        f.writelines(",".join(map(repr, row.tolist())) + "\n"
                     for row in ds.features)
    np.savetxt(label_path, ds.labels, fmt="%d", encoding="utf-8")
