"""Positive/negative coupling calculus on graphs.

A feature transformation T X is a positive k-step activation when T is
non-negative everywhere and strictly positive on every edge and self-loop;
anything else is negative. Single-node activations are classified from
their combination coefficients. Label smoothness and the Rayleigh quotient
quantify, respectively, how heterophilous a labeling is and how rough a
signal is; together they give testable surrogates for the claim that the
shifted operator 2I - L acts low-pass and L acts high-pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import (ContractViolationError, DegenerateInputError, InputError,
                     SizeGuardError)
from .graph import SparseGraph, laplacian_apply

# classify_graph_activation densifies its argument; it is a desk-scale
# verification tool, not a production path.
CLASSIFY_GUARD = 2000


def dense_transform(g: SparseGraph, kind: str) -> np.ndarray:
    """Dense 2I-L ("shifted") or L ("laplacian"), densified from the cached Â.

    Built here (guarded at CLASSIFY_GUARD) so activation checks do not
    depend on the smaller dense-oracle guard.
    """
    if kind not in ("shifted", "laplacian"):
        raise InputError(f"unknown transform kind {kind!r}")
    if g.n > CLASSIFY_GUARD:
        raise SizeGuardError(
            f"dense transform guarded at n <= {CLASSIFY_GUARD}, got {g.n}")
    norm = g.normalized_adjacency.toarray()
    if kind == "shifted":
        return np.eye(g.n) + norm
    return np.eye(g.n) - norm


@dataclass(frozen=True)
class ActivationClass:
    """Positive/Negative verdict with the first violating entry as witness.

    ``witness`` is None for Positive; otherwise (index, value, reason) where
    index is a matrix entry (i, j) for graph checks or a node id (or None
    for the self coefficient) for node checks.
    """

    positive: bool
    witness: tuple | None = None
    note: str = ""

    @property
    def label(self) -> str:
        return "Positive" if self.positive else "Negative"

    def __str__(self):
        if self.positive:
            return "Positive"
        return f"Negative (witness: {self.witness})"


def k_hop_neighborhoods(g: SparseGraph, t: int, k: int) -> list[np.ndarray]:
    """Nodes at exact BFS distance 1..k from t; list index 0 is hop 1."""
    if not 0 <= t < g.n:
        raise InputError(f"target node {t} out of range for n={g.n}")
    if k < 0:
        raise InputError(f"hop count must be non-negative, got {k}")
    import scipy.sparse.csgraph  # loads scipy.linalg; see connected_components
    dist = scipy.sparse.csgraph.shortest_path(g.adjacency, unweighted=True,
                                              indices=t)
    return [np.flatnonzero(dist == hop) for hop in range(1, k + 1)]


@dataclass(frozen=True)
class NodeActivationSpec:
    """Coefficients of a k-step node activation.

    ``neighbor_coeffs`` maps neighbor id -> coefficient and must cover the
    1..hops BFS neighborhood of ``target`` exactly. Insertion order of the
    mapping fixes the summation order, which keeps the activation bit-stable
    under relabeling when the caller preserves entry order.
    """

    target: int
    self_coeff: float
    neighbor_coeffs: dict = field(default_factory=dict)
    hops: int = 1

    def __post_init__(self):
        if self.self_coeff < 0:
            raise InputError(
                f"self coefficient must be >= 0, got {self.self_coeff}")

    def validate(self, g: SparseGraph):
        allowed = set()
        for hop in k_hop_neighborhoods(g, self.target, self.hops):
            allowed.update(int(x) for x in hop)
        given = set(self.neighbor_coeffs)
        extra = given - allowed
        if extra:
            raise InputError(
                f"coefficient given for non-neighbor node(s) {sorted(extra)} "
                f"(not within {self.hops} hops of {self.target})")
        missing = allowed - given
        if missing:
            raise InputError(
                f"coefficients missing for neighbor node(s) {sorted(missing)}")


def node_activation(X, g: SparseGraph, spec: NodeActivationSpec) -> np.ndarray:
    """Weighted combination of the target row and its k-hop neighbor rows."""
    spec.validate(g)
    X = np.asarray(X, dtype=np.float64)
    out = spec.self_coeff * X[spec.target]
    if spec.neighbor_coeffs:
        nodes = np.fromiter(spec.neighbor_coeffs.keys(), dtype=np.int64,
                            count=len(spec.neighbor_coeffs))
        coeffs = np.fromiter(spec.neighbor_coeffs.values(), dtype=np.float64,
                             count=len(spec.neighbor_coeffs))
        out = out + coeffs @ np.atleast_2d(X[nodes])
    return out


def classify_node_activation(spec: NodeActivationSpec) -> ActivationClass:
    """Positive iff the self coefficient is > 0 and neighbor coefficients
    are all >= 0 with at least one > 0; everything else is negative."""
    coeffs = spec.neighbor_coeffs
    all_zero = spec.self_coeff == 0 and all(c == 0 for c in coeffs.values())
    note = "all coefficients zero" if all_zero else ""
    if spec.self_coeff <= 0:
        return ActivationClass(False, (None, spec.self_coeff,
                                       "self coefficient not > 0"), note)
    for node, c in coeffs.items():
        if c < 0:
            return ActivationClass(False, (node, c,
                                           "negative neighbor coefficient"))
    if not any(c > 0 for c in coeffs.values()):
        return ActivationClass(False, (None, 0.0,
                                       "no strictly positive neighbor coefficient"))
    return ActivationClass(True)


def classify_graph_activation(T, g: SparseGraph) -> ActivationClass:
    """Classify a dense transformation against the graph's edge pattern.

    Positive requires strictly positive entries on every edge and on the
    diagonal (the definition is stated on the self-looped graph; the
    diagonal is treated as the self-loop set whether or not loops are
    stored) and non-negative entries everywhere else. Powers and
    non-negative mixtures of edge-patterned matrices spread support to
    multi-hop pairs, which is why off-edge entries must only be >= 0.
    """
    if g.n > CLASSIFY_GUARD:
        raise SizeGuardError(
            f"graph activation check densifies T and is guarded at "
            f"n <= {CLASSIFY_GUARD}, got n = {g.n}; check a sampled subgraph")
    T = np.asarray(T, dtype=np.float64)
    if T.shape != (g.n, g.n):
        raise InputError(f"expected shape {(g.n, g.n)}, got {T.shape}")

    on_edge = g.adjacency.toarray() != 0
    np.fill_diagonal(on_edge, True)

    bad_edge = on_edge & ~(T > 0.0)
    bad_off = ~on_edge & (T < 0.0)
    bad = bad_edge | bad_off
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        reason = ("non-positive entry on edge/self-loop" if bad_edge[i, j]
                  else "negative entry off the edge pattern")
        return ActivationClass(False, ((int(i), int(j)), float(T[i, j]), reason))
    return ActivationClass(True)


def positive_combination_check(coeffs, g: SparseGraph) -> ActivationClass:
    """Classify sum_j coeffs[j] * (2I - L)^j by dense expansion.

    All coefficients must be >= 0 (the non-negative-combination hypothesis);
    on a connected graph with coeffs[0] > 0 and coeffs[1] > 0 the verdict is
    Positive.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InputError("expected a non-empty 1-D coefficient vector")
    if (coeffs < 0).any():
        j = int(np.argmax(coeffs < 0))
        raise ContractViolationError(
            f"coefficient {j} is negative ({coeffs[j]}); the non-negative "
            "combination hypothesis is broken")
    if not (coeffs > 0).any():
        return ActivationClass(
            False, (None, 0.0, "all coefficients zero"),
            note="all coefficients zero")

    S = dense_transform(g, "shifted")
    total = np.zeros((g.n, g.n))
    power = np.eye(g.n)
    for j, c in enumerate(coeffs):
        if j > 0:
            power = power @ S
        total += c * power
    return classify_graph_activation(total, g)


def label_smoothness(g: SparseGraph, labels) -> float:
    """Fraction of undirected edges joining differently-labeled endpoints.

    Each edge counts once; self-loops are excluded (they never cross)."""
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise InputError(f"expected {g.n} labels, got shape {labels.shape}")
    upper = scipy.sparse.triu(g.adjacency, k=1, format="coo")
    if upper.nnz == 0:
        raise DegenerateInputError("label smoothness undefined: the graph "
                                   "has no non-loop edges")
    cross = labels[upper.row] != labels[upper.col]
    return float(np.count_nonzero(cross)) / upper.nnz


def rayleigh_quotient(g: SparseGraph, x) -> float:
    """x^T L x / x^T x; lies in [0, 2] up to roundoff."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise InputError(f"expected vector of length {g.n}, got {x.shape}")
    denom = float(x @ x)
    if denom == 0.0:
        raise InputError("Rayleigh quotient undefined for the zero vector")
    return float(x @ laplacian_apply(g, x)) / denom
