"""Sparse graph substrate: one CSR adjacency and the operators built from it.

A graph is its unit-weight ``scipy.sparse`` CSR adjacency A, the one
structure ``SparseGraph`` stores. Each operator is built from it once per
graph, on first use, as a CSR array, and every apply is one
sparse-times-dense product with it:

    adjacency            A
    normalized_adjacency Â = D^{-1/2} A D^{-1/2}
    gcn_operator         M = D_hat^{-1/2} (A + I) D_hat^{-1/2},  D_hat = D + I

so L X = X - Â X and (2I - L) X = X + Â X, with no diagonal scaling around
the product. GSCNet's two families are both polynomials in Â, so its basis
needs only `normalized_apply`, Â X; BernNet's reference basis applies L and
2I - L themselves. No operator is ever materialized densely here; the dense
matrices in ``verify`` are the independent oracles for these products.

Isolated nodes: D^{-1/2} is undefined at degree 0, but A has neither a row
nor a column entry at an isolated node, so Â stores nothing there. L then
acts as the identity on that node, which keeps the spectrum inside [0, 2].
M keeps its diagonal entry 1 at an isolated node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import DataError, InputError


@dataclass(frozen=True)
class SparseGraph:
    """Undirected, unweighted graph as its CSR adjacency A.

    A has unit weights, int64 indices, column indices sorted within each
    row and no duplicates; edge (u, v) is stored in both rows (a self-loop
    is stored once). Its arrays are read-only. ``degrees[i]`` equals the
    number of stored neighbors of node i, as a float.
    """

    adjacency: scipy.sparse.csr_array

    def __post_init__(self):
        # scipy picks int32 indices for an empty graph; keep int64 always.
        A = self.adjacency
        A.indices = A.indices.astype(np.int64, copy=False)
        A.indptr = A.indptr.astype(np.int64, copy=False)
        for a in (A.data, A.indices, A.indptr):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def nnz(self) -> int:
        return self.adjacency.nnz

    @cached_property
    def degrees(self) -> np.ndarray:
        degrees = np.diff(self.adjacency.indptr).astype(np.float64)
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def num_self_loops(self) -> int:
        return int(np.count_nonzero(self.adjacency.diagonal()))

    @cached_property
    def num_edges(self) -> int:
        """Undirected edge count; each self-loop counts once."""
        return (self.nnz + self.num_self_loops) // 2

    def neighbors(self, i: int) -> np.ndarray:
        A = self.adjacency
        return A.indices[A.indptr[i]:A.indptr[i + 1]]

    # Operators are built on first use. Two threads that both find one
    # unbuilt may each build it; the builds are identical, so either result
    # serves both.
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
    """Build the symmetric, deduplicated, row-sorted CSR adjacency.

    ``edges`` is an (m, 2) array-like of (u, v) pairs; each pair is
    mirrored, and duplicates (including pre-mirrored inputs) collapse to
    one stored entry per direction. Self-loops in the input are preserved
    exactly once.
    """
    if n < 0:
        raise InputError(f"node count must be non-negative, got {n}")
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
        raise InputError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")

    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    # COO -> CSR sorts each row and sums duplicates; reset the sums to 1.
    A = scipy.sparse.coo_array((np.ones(src.size), (src, dst)),
                               shape=(n, n)).tocsr()
    A.data[:] = 1.0
    return SparseGraph(A)


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


def normalized_apply(g: SparseGraph, X) -> np.ndarray:
    """Â X with Â = D^{-1/2} A D^{-1/2}."""
    return g.normalized_adjacency @ _operand(g, X)


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
    A = g.adjacency[p][:, p]
    A.sort_indices()
    return SparseGraph(A), X[p]


def connected_components(g: SparseGraph) -> np.ndarray:
    """Component label per node (labels are 0..k-1 in discovery order)."""
    # Imported here, not at the top: csgraph loads scipy.linalg (about
    # 11 MB resident), which training never uses.
    import scipy.sparse.csgraph
    _, labels = scipy.sparse.csgraph.connected_components(g.adjacency,
                                                          directed=False)
    return labels.astype(np.int64)


def num_components(g: SparseGraph) -> int:
    if g.n == 0:
        return 0
    return int(connected_components(g).max()) + 1


def read_text_values(path, label: str, parse, dtype,
                     comment: str | None = None) -> np.ndarray:
    """Stream the values of a line-oriented text file into one flat array.

    ``parse(line, lineno)`` turns each stripped, non-blank line (and, with
    ``comment``, each line not starting with it) into a short sequence of
    values or raises a ``DataError`` for that line. The values go straight
    into ``np.fromiter``, so no Python object per value outlives its line.
    """
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {label} file: {exc}", path)
    with f:
        lines = enumerate((raw.strip() for raw in f), start=1)
        rows = (parse(line, lineno) for lineno, line in lines
                if line and not (comment and line.startswith(comment)))
        return np.fromiter(itertools.chain.from_iterable(rows), dtype=dtype)


def read_edge_list(path, n: int | None = None) -> np.ndarray:
    """Parse a `u v` per line edge file into an (m, 2) int64 array; `#`
    lines and blank lines skipped.

    Undirected edges may be listed once or twice (build_csr dedups).
    """
    def parse(line, lineno):
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"expected 'u v', got {line!r}", path, lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"non-integer endpoint in {line!r}", path, lineno)
        if u < 0 or v < 0 or (n is not None and (u >= n or v >= n)):
            raise DataError(f"edge ({u}, {v}) out of range", path, lineno)
        return u, v

    return read_text_values(path, "edge", parse, np.int64,
                            comment="#").reshape(-1, 2)


def write_edge_list(path, g: SparseGraph):
    """Write each undirected edge once (u <= v), in row-major order."""
    upper = scipy.sparse.triu(g.adjacency, format="coo")
    np.savetxt(path, np.column_stack([upper.row, upper.col]), fmt="%d",
               encoding="utf-8")
