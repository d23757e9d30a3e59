"""Polynomial basis blocks and filter combination.

The filter Z = (sum_i alpha_i (2I-L)^i + sum_j beta_j L^j) X is evaluated
against cached propagated-feature blocks P_i = (2I-L)^i X and Q_j = L^j X,
built by the one-step recurrences P_{i+1} = (2I-L) P_i, Q_{j+1} = L Q_j.
Blocks live at the n x d feature level, never as n x n operators, so a
cache build costs (K1+K2) sparse applies and combination is a weighted sum
of dense blocks: O((K1+K2) * nnz * d) total.

The baselines' blocks come from here too (BernNet's Bernstein terms, the
M powers of GCN and JKNet), and `combine` is the one weighted sum every
model uses, forward and backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graph import SparseGraph, laplacian_apply, shifted_apply, gcn_norm_apply


@dataclass(frozen=True)
class FilterSpec:
    """Coefficients of the two-family polynomial filter.

    ``alpha[i]`` multiplies (2I-L)^i and ``beta[j]`` multiplies L^j; the
    degrees are implied by the vector lengths (k1 = len(alpha) - 1). An
    empty vector switches that family off entirely (degree -1), which is
    how the pure positive/negative ablations are expressed.
    """

    alpha: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "alpha",
                           np.asarray(self.alpha, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "beta",
                           np.asarray(self.beta, dtype=np.float64).reshape(-1))
        if not (np.isfinite(self.alpha).all() and np.isfinite(self.beta).all()):
            raise InputError("filter coefficients must be finite")

    @property
    def k1(self) -> int:
        return self.alpha.shape[0] - 1

    @property
    def k2(self) -> int:
        return self.beta.shape[0] - 1


@dataclass(frozen=True)
class BasisCache:
    """Propagated blocks P_i = (2I-L)^i X (i <= k1), Q_j = L^j X (j <= k2).

    P_0 and Q_0 are the input X itself, bit-exact.
    """

    p_blocks: tuple
    q_blocks: tuple

    @property
    def k1(self) -> int:
        return len(self.p_blocks) - 1

    @property
    def k2(self) -> int:
        return len(self.q_blocks) - 1


def operator_powers(apply, g: SparseGraph, X, k: int) -> list:
    """[X, op X, ..., op^k X] for the sparse apply ``apply``, by the one-step
    recurrence: k sparse applies."""
    blocks = [X]
    for _ in range(k):
        blocks.append(apply(g, blocks[-1]))
    return blocks


def build_basis_cache(g: SparseGraph, X, k1: int, k2: int) -> BasisCache:
    """Build both block families by the one-step recurrences."""
    if k1 < 0 or k2 < 0:
        raise InputError(f"degrees must be non-negative, got ({k1}, {k2})")
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.n:
        raise InputError(f"feature rows {X.shape[0]} != node count {g.n}")
    return BasisCache(tuple(operator_powers(shifted_apply, g, X, k1)),
                      tuple(operator_powers(laplacian_apply, g, X, k2)))


def combine(blocks, coeffs) -> np.ndarray:
    """Z = sum_k c_k B_k, accumulated in block order. Every propagation
    stage, forward and backward, sums its blocks here."""
    Z = np.zeros_like(blocks[0])
    for c, B in zip(coeffs, blocks):
        Z += c * B
    return Z


def gsc_combine(cache: BasisCache, spec: FilterSpec) -> np.ndarray:
    """Z = sum_i alpha_i P_i + sum_j beta_j Q_j; linear in (alpha, beta)."""
    if spec.k1 > cache.k1 or spec.k2 > cache.k2:
        raise InputError(
            f"filter degrees ({spec.k1}, {spec.k2}) exceed cache degrees "
            f"({cache.k1}, {cache.k2})")
    blocks = cache.p_blocks[:spec.k1 + 1] + cache.q_blocks[:spec.k2 + 1]
    if not blocks:  # both families off: the zero filter
        return np.zeros_like(cache.p_blocks[0])
    return combine(blocks, np.concatenate([spec.alpha, spec.beta]))


def bernstein_blocks(g: SparseGraph, X, K: int) -> list:
    """BernNet's terms (2I-L)^k L^{K-k} X for k = 0..K, in that order.

    The L powers come from one shared recurrence; term k then applies 2I-L
    k times. That is K + K(K+1)/2 sparse applies, the reference cost of
    BernNet's Bernstein basis, quadratic in its degree.
    """
    if K < 0:
        raise InputError(f"Bernstein degree must be non-negative, got {K}")
    lap_powers = operator_powers(laplacian_apply, g,
                                 np.asarray(X, dtype=np.float64), K)
    return [operator_powers(shifted_apply, g, lap_powers[K - k], k)[-1]
            for k in range(K + 1)]


def monomial_prop(g: SparseGraph, X, k: int) -> np.ndarray:
    """k-step self-loop-normalized propagation; k = 0 is the identity."""
    if k < 0:
        raise InputError(f"step count must be non-negative, got {k}")
    return operator_powers(gcn_norm_apply, g,
                           np.asarray(X, dtype=np.float64), k)[-1]
