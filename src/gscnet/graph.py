"""Sparse graph substrate: one CSR pattern and the operators built from it.

A graph is the CSR pattern of its unit-weight adjacency A: the ``indptr``
and ``indices`` arrays ``SparseGraph`` stores, with no weight array, since
every stored entry of A is 1. Each operator is built from the pattern once
per graph, on first use, as a CSR array that shares the pattern's index
arrays where it has the same pattern, and every apply is one
sparse-times-dense product with it:

    adjacency            A
    normalized_adjacency Â = D^{-1/2} A D^{-1/2}
    gcn_operator         M = D_hat^{-1/2} (A + I) D_hat^{-1/2},  D_hat = D + I

so L X = X - Â X and (2I - L) X = X + Â X, with no diagonal scaling around
the product. GSCNet's two families are both polynomials in Â, so its basis
needs only `normalized_apply`, Â X; BernNet's reference basis applies L and
2I - L themselves. Neither ever builds A: only `adjacency_apply`, the
components query, the activation check's A + I and M read it. No operator
is ever materialized densely here; the dense matrices in ``verify`` are
the independent oracles for these products.

Isolated nodes: D^{-1/2} is undefined at degree 0, but A has neither a row
nor a column entry at an isolated node, so Â stores nothing there. L then
acts as the identity on that node, which keeps the spectrum inside [0, 2].
M keeps its diagonal entry 1 at an isolated node.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import InputError

def _index_dtype(n: int, nnz: int):
    """int32 when every row offset and column index fits, else int64."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


class SparseGraph:
    """Undirected, unweighted graph as the CSR pattern of its adjacency A.

    Row i's neighbors are ``indices[indptr[i]:indptr[i + 1]]``, sorted and
    without duplicates, and edge (u, v) is stored in both rows; no row
    stores its own node, since each operator adds its own diagonal. Both
    arrays are int32 when n and nnz fit in it, int64 beyond that, and
    read-only. `build_csr` makes every graph; the constructor only stores
    and freezes the pattern it is given. ``degrees[i]`` equals the number
    of neighbors of node i, as a float.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr, self.indices = indptr, indices
        for a in (indptr, indices):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.indices.size

    @cached_property
    def degrees(self) -> np.ndarray:
        degrees = np.diff(self.indptr).astype(np.float64)
        degrees.flags.writeable = False
        return degrees

    @property
    def num_edges(self) -> int:
        return self.nnz // 2

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def upper_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) of each undirected edge once, u < v, in row-major order
        with v ascending within a row."""
        rows = np.repeat(np.arange(self.n, dtype=self.indices.dtype),
                         np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    # Operators are built on first use. Two threads that both find one
    # unbuilt may each build it; the builds are identical, so either result
    # serves both.
    @cached_property
    def adjacency(self) -> scipy.sparse.csr_array:
        """A with unit weights; its data is the only array it adds."""
        ones = np.ones(self.nnz)
        ones.flags.writeable = False
        return _pattern_csr(self.indptr, self.indices, ones)

    @cached_property
    def normalized_adjacency(self) -> scipy.sparse.csr_array:
        """Â = D^{-1/2} A D^{-1/2}; empty row and column at isolated nodes."""
        s = 1.0 / np.sqrt(np.maximum(self.degrees, 1.0))
        return _symmetric_scaled(self.indptr, self.indices, s)

    @cached_property
    def gcn_operator(self) -> scipy.sparse.csr_array:
        """M = D_hat^{-1/2} (A + I) D_hat^{-1/2} with D_hat = D + I."""
        A_hat = self.adjacency + scipy.sparse.eye_array(self.n, format="csr")
        return _symmetric_scaled(A_hat.indptr, A_hat.indices,
                                 1.0 / np.sqrt(self.degrees + 1.0))


def _pattern_csr(indptr, indices, data) -> scipy.sparse.csr_array:
    n = indptr.size - 1
    return scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))


def _symmetric_scaled(indptr, indices, s: np.ndarray) -> scipy.sparse.csr_array:
    """diag(s) P diag(s) for the unit-weight pattern P, on P's index arrays.
    The data is built in place as s[row] * s[col], left to right."""
    data = np.repeat(s, np.diff(indptr))
    data *= s[indices]
    return _pattern_csr(indptr, indices, data)


def build_csr(edges, n: int) -> SparseGraph:
    """Build the symmetric, deduplicated, row-sorted graph.

    ``edges`` is an (m, 2) array-like of (u, v) pairs; each pair is
    mirrored, and duplicates (including pre-mirrored inputs) collapse to
    one stored entry per direction. A self-loop raises `InputError`.
    """
    if n < 0:
        raise InputError(f"node count must be non-negative, got {n}")
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
        raise InputError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
    u, v = pairs[:, 0], pairs[:, 1]
    loops = u == v
    if loops.any():
        raise InputError(f"self-loop at node {u[loops].min()}")

    # Entry (row, col) is the key row * n + col, so the sorted keys list
    # the entries in CSR order.
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    dtype = _index_dtype(n, keys.size)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return SparseGraph(indptr.astype(dtype, copy=False),
                       keys.astype(dtype, copy=False))


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

    Returns the graph of P A P^T, built from the relabelled edges, and P X.
    """
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (g.n,) or not np.array_equal(np.sort(p), np.arange(g.n)):
        raise InputError("perm is not a bijection on [0, n)")
    X = _operand(g, X)
    label = np.empty_like(p)  # input node p[i] becomes output node i
    label[p] = np.arange(g.n)
    u, v = g.upper_edges()
    return build_csr(np.column_stack([label[u], label[v]]), g.n), X[p]


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

