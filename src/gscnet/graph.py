"""Sparse graph substrate: CSR adjacency and cached CSR spectral operators.

The CSR adjacency (``row_ptr``, ``col_idx``) is the single source of truth.
Each operator is built from it once per graph, on first use, as a
``scipy.sparse`` CSR array, and every apply is one sparse-times-dense
product with it:

    adjacency            A
    normalized_adjacency Â = D^{-1/2} A D^{-1/2}
    gcn_operator         M = D_hat^{-1/2} (A + I) D_hat^{-1/2},  D_hat = D + I

so L X = X - Â X and (2I - L) X = X + Â X, with no diagonal scaling around
the product. No operator is ever materialized densely here; the dense
matrices in ``verify`` are the independent oracles for these products.

Isolated nodes: D^{-1/2} is undefined at degree 0, but A has neither a row
nor a column entry at an isolated node, so Â stores nothing there. L then
acts as the identity on that node, which keeps the spectrum inside [0, 2].
M keeps its diagonal entry 1 at an isolated node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import DataError, InputError


@dataclass(frozen=True)
class SparseGraph:
    """Undirected, unweighted graph in CSR form.

    ``col_idx`` is sorted within each row and duplicate-free; edge (u, v) is
    stored in both rows (a self-loop is stored once). ``degrees[i]`` equals
    the number of stored neighbors of node i, as a float so degree-modifying
    variants stay representable.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        for a in (self.row_ptr, self.col_idx, self.degrees):
            a.flags.writeable = False

    @property
    def nnz(self) -> int:
        return int(self.col_idx.shape[0])

    @cached_property
    def num_self_loops(self) -> int:
        rows = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        return int(np.count_nonzero(rows == self.col_idx))

    @cached_property
    def num_edges(self) -> int:
        """Undirected edge count; each self-loop counts once."""
        return (self.nnz + self.num_self_loops) // 2

    def neighbors(self, i: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[i]:self.row_ptr[i + 1]]

    # Operators are built on first use. Two threads that both find one
    # unbuilt may each build it; the builds are identical, so either result
    # serves both.
    @cached_property
    def adjacency(self) -> scipy.sparse.csr_array:
        """A as a CSR array with unit weights."""
        return scipy.sparse.csr_array(
            (np.ones(self.nnz), self.col_idx, self.row_ptr),
            shape=(self.n, self.n))

    @cached_property
    def normalized_adjacency(self) -> scipy.sparse.csr_array:
        """Â = D^{-1/2} A D^{-1/2}; empty row and column at isolated nodes."""
        s = 1.0 / np.sqrt(np.maximum(self.degrees, 1.0))
        return _symmetric_scaled(self.adjacency, s)

    @cached_property
    def gcn_operator(self) -> scipy.sparse.csr_array:
        """M = D_hat^{-1/2} (A + I) D_hat^{-1/2} with D_hat = D + I.

        The self-loop is stored on the diagonal. The input graph is
        expected to be loop-free: a stored loop adds to it, giving 2.
        """
        A_hat = self.adjacency + scipy.sparse.eye_array(self.n, format="csr")
        return _symmetric_scaled(A_hat, 1.0 / np.sqrt(self.degrees + 1.0))


def _symmetric_scaled(B: scipy.sparse.csr_array,
                      s: np.ndarray) -> scipy.sparse.csr_array:
    """diag(s) B diag(s), same sparsity pattern."""
    rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
    data = s[rows] * B.data * s[B.indices]
    return scipy.sparse.csr_array((data, B.indices, B.indptr), shape=B.shape)


def build_csr(edges, n: int) -> SparseGraph:
    """Build a symmetric, deduplicated, row-sorted CSR adjacency.

    ``edges`` is an iterable of (u, v) pairs; each pair is mirrored, and
    duplicates (including pre-mirrored inputs) collapse to one stored entry
    per direction. Self-loops in the input are preserved exactly once.
    """
    if n < 0:
        raise InputError(f"node count must be non-negative, got {n}")
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
        raise InputError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")

    u, v = pairs[:, 0], pairs[:, 1]
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    keys = src * n + dst if n > 0 else src
    keys = np.unique(keys)
    if n > 0:
        src, dst = keys // n, keys % n
    else:
        src = dst = keys

    counts = np.bincount(src, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return SparseGraph(
        n=n,
        row_ptr=row_ptr,
        col_idx=dst.astype(np.int64),
        degrees=counts.astype(np.float64),
    )


def _operand(g: SparseGraph, X) -> np.ndarray:
    """X as float64, checked to be a vector or matrix with one row per node."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise InputError(f"expected vector or matrix, got ndim={arr.ndim}")
    if arr.shape[0] != g.n:
        raise InputError(f"feature rows {arr.shape[0]} != node count {g.n}")
    return arr


def adjacency_apply(g: SparseGraph, X) -> np.ndarray:
    """A @ X; rows without neighbors yield zero."""
    return g.adjacency @ _operand(g, X)


def laplacian_apply(g: SparseGraph, X) -> np.ndarray:
    """(I - Â) X with Â = D^{-1/2} A D^{-1/2}."""
    X = _operand(g, X)
    return X - g.normalized_adjacency @ X


def shifted_apply(g: SparseGraph, X) -> np.ndarray:
    """(2I - L) X = (I + Â) X."""
    X = _operand(g, X)
    return X + g.normalized_adjacency @ X


def gcn_norm_apply(g: SparseGraph, X) -> np.ndarray:
    """D_hat^{-1/2} (A + I) D_hat^{-1/2} X with D_hat = D + I."""
    return g.gcn_operator @ _operand(g, X)


def permute_graph(g: SparseGraph, X, perm) -> tuple[SparseGraph, np.ndarray]:
    """Relabel nodes so output node i is input node perm[i].

    Returns the CSR of P A P^T (rows re-sorted canonically) and P X.
    """
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (g.n,) or not np.array_equal(np.sort(p), np.arange(g.n)):
        raise InputError("perm is not a bijection on [0, n)")
    X = _operand(g, X)

    inv = np.empty(g.n, dtype=np.int64)
    inv[p] = np.arange(g.n)

    counts = (g.row_ptr[p + 1] - g.row_ptr[p]).astype(np.int64)
    row_ptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    col_idx = np.empty(g.nnz, dtype=np.int64)
    for i in range(g.n):
        nbrs = inv[g.neighbors(p[i])]
        col_idx[row_ptr[i]:row_ptr[i + 1]] = np.sort(nbrs)

    gp = SparseGraph(n=g.n, row_ptr=row_ptr, col_idx=col_idx,
                     degrees=g.degrees[p].copy())
    return gp, X[p]


def connected_components(g: SparseGraph) -> np.ndarray:
    """Component label per node (labels are 0..k-1 in discovery order)."""
    labels = np.full(g.n, -1, dtype=np.int64)
    comp = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if labels[w] < 0:
                    labels[w] = comp
                    stack.append(int(w))
        comp += 1
    return labels


def num_components(g: SparseGraph) -> int:
    if g.n == 0:
        return 0
    return int(connected_components(g).max()) + 1


def read_edge_list(path, n: int | None = None) -> list[tuple[int, int]]:
    """Parse a `u v` per line edge file; `#` lines and blank lines skipped.

    Undirected edges may be listed once or twice (build_csr dedups).
    """
    edges = []
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open edge file: {exc}", path)
    with f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"expected 'u v', got {line!r}", path, lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"non-integer endpoint in {line!r}", path, lineno)
            if u < 0 or v < 0 or (n is not None and (u >= n or v >= n)):
                raise DataError(f"edge ({u}, {v}) out of range", path, lineno)
            edges.append((u, v))
    return edges


def write_edge_list(path, g: SparseGraph):
    """Write each undirected edge once (u <= v)."""
    with open(path, "w", encoding="utf-8") as f:
        for u in range(g.n):
            for v in g.neighbors(u):
                if v >= u:
                    f.write(f"{u} {v}\n")
