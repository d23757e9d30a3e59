"""Positive/negative coupling calculus on graphs.

A feature transformation T X is a positive k-step activation when T is
non-negative everywhere and strictly positive on every edge and self-loop;
anything else is negative. The verdict is read from the sparse pattern of
A + I, so it costs O(nnz) at any graph size; only the check of a
non-negative combination of powers of 2I - L builds its matrix densely,
with the dense oracle's builders and under their n <= 500 guard. Label
smoothness and the Rayleigh quotient quantify, respectively, how
heterophilous a labeling is and how rough a signal is; together they give
testable surrogates for the claim that the shifted operator 2I - L acts
low-pass and L acts high-pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import verify
from .data import Dataset
from .errors import DegenerateInputError, InputError
from .graph import SparseGraph, laplacian_apply, num_components


def transform(g: SparseGraph, kind: str) -> scipy.sparse.csr_array:
    """Sparse 2I-L = I+Â ("shifted") or L = I-Â ("laplacian"), built from
    the cached Â; its pattern lies within that of A+I."""
    if kind not in ("shifted", "laplacian"):
        raise InputError(f"unknown transform kind {kind!r}")
    eye = scipy.sparse.eye_array(g.n, format="csr")
    if kind == "shifted":
        return eye + g.normalized_adjacency
    return eye - g.normalized_adjacency


@dataclass(frozen=True)
class ActivationClass:
    """Positive/Negative verdict with the first violating entry as witness.

    ``witness`` is None for Positive; otherwise (index, value, reason) where
    index is the matrix entry (i, j), or None when no entry is at fault.
    """

    positive: bool
    witness: tuple | None = None

    @property
    def label(self) -> str:
        return "Positive" if self.positive else "Negative"


def classify_graph_activation(T, g: SparseGraph) -> ActivationClass:
    """Classify a dense or sparse transformation against the graph's edge
    pattern.

    Positive requires strictly positive entries on every edge and on the
    diagonal (the definition is stated on the self-looped graph A + I)
    and non-negative entries everywhere else, so a NaN entry is a
    violation wherever it sits. Powers and non-negative mixtures of
    edge-patterned matrices spread support to multi-hop pairs, which is
    why off-edge entries must only be >= 0.

    The witness is the first violating entry in row-major order, with the
    reason "non-finite entry" when it is NaN or -inf. Entries not stored
    in a sparse T are zero; the check visits only the stored entries of T
    and of A + I.
    """
    if not scipy.sparse.issparse(T):
        T = np.asarray(T, dtype=np.float64)
    if T.shape != (g.n, g.n):
        raise InputError(f"expected shape {(g.n, g.n)}, got {T.shape}")
    # The comparisons below read each stored entry on its own, so duplicate
    # entries are summed first, on a copy since that works in place.
    T = scipy.sparse.csr_array(T, dtype=np.float64, copy=True)
    T.sum_duplicates()

    on_edge = g.adjacency + scipy.sparse.eye_array(g.n, format="csr")
    # Subtraction drops the zeros it makes, so each term keeps only the
    # violations: edges where T is not > 0, and entries not >= 0 (a NaN
    # fails every comparison) off the edges.
    negative = scipy.sparse.csr_array((~(T.data >= 0.0), T.indices,
                                       T.indptr), shape=T.shape)
    bad = (on_edge - on_edge.multiply(T > 0.0)
           + negative - negative.multiply(on_edge)).tocoo()
    if bad.nnz == 0:
        return ActivationClass(True)
    first = int(np.argmin(bad.row.astype(np.int64) * g.n + bad.col))
    i, j = int(bad.row[first]), int(bad.col[first])
    value = float(T[i, j])
    if not np.isfinite(value):
        reason = "non-finite entry"
    elif i == j or j in g.neighbors(i):
        reason = "non-positive entry on edge/self-loop"
    else:
        reason = "negative entry off the edge pattern"
    return ActivationClass(False, ((i, j), value, reason))


def positive_combination_check(coeffs, g: SparseGraph) -> ActivationClass:
    """Classify sum_j coeffs[j] * (2I - L)^j, expanded with the dense
    oracle's builders and so guarded, like them, at n <= DENSE_GUARD.

    All coefficients must be finite and >= 0 (the non-negative-combination
    hypothesis; a NaN or infinite one raises InputError like a negative one);
    on a connected graph with coeffs[0] > 0 and coeffs[1] > 0 the verdict is
    Positive. Every power of 2I - L = I + Â is entrywise non-negative, so
    the verdict depends only on which entries are positive, and a Negative
    verdict's witness is an exact zero.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InputError("expected a non-empty 1-D coefficient vector")
    broken = ~np.isfinite(coeffs) | (coeffs < 0)
    if broken.any():
        j = int(np.argmax(broken))
        what = "negative" if coeffs[j] < 0 else "not finite"
        raise InputError(
            f"coefficient {j} is {what} ({coeffs[j]}); the non-negative "
            "combination hypothesis is broken")
    if not (coeffs > 0).any():
        return ActivationClass(False, (None, 0.0, "all coefficients zero"))

    S = verify.dense_shifted(g)
    total = sum(c * verify.dense_matrix_power(S, j)
                for j, c in enumerate(coeffs))
    return classify_graph_activation(total, g)


def label_smoothness(g: SparseGraph, labels) -> float:
    """Fraction of undirected edges joining differently-labeled endpoints.

    Each edge counts once."""
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise InputError(f"expected {g.n} labels, got shape {labels.shape}")
    u, v = g.upper_edges()
    if u.size == 0:
        raise DegenerateInputError("label smoothness undefined: the graph "
                                   "has no edges")
    return float(np.count_nonzero(labels[u] != labels[v])) / u.size


def dataset_stats(ds: Dataset) -> dict:
    """Sizes, component count and label smoothness of a dataset; the
    smoothness is None for a graph without edges."""
    out = {"nodes": ds.n, "edges": ds.graph.num_edges, "features": ds.d,
           "classes": ds.num_classes, "components": num_components(ds.graph)}
    try:
        out["label_smoothness"] = label_smoothness(ds.graph, ds.labels)
    except DegenerateInputError:
        out["label_smoothness"] = None
    return out


def rayleigh_quotient(g: SparseGraph, x) -> float:
    """x^T L x / x^T x; lies in [0, 2] up to roundoff."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise InputError(f"expected vector of length {g.n}, got {x.shape}")
    denom = float(x @ x)
    if denom == 0.0:
        raise InputError("Rayleigh quotient undefined for the zero vector")
    return float(x @ laplacian_apply(g, x)) / denom
