"""Polynomial basis blocks and filter combination.

The filter Z = (sum_i alpha_i (2I-L)^i + sum_j beta_j L^j) X has two
families, P_i = (2I-L)^i X = (I+Â)^i X and Q_j = L^j X = (I-Â)^j X, and
both are polynomials in the one operator Â = D^{-1/2} A D^{-1/2}. So the
cache is the Krylov sequence T_m = Â^m X for m <= K = max(K1, K2), built
by T_{m+1} = Â T_m in K sparse applies, and the filter is one weighted sum
Z = sum_m gamma_m T_m with gamma = W (alpha, beta), where `gsc_weights`
holds the binomial coefficients of both families. Blocks live at the
n x d feature level, never as n x n operators: O(K * nnz * d) in total.

The baselines' blocks come from here too (BernNet's Bernstein terms, and
through `operator_powers` the M powers of GCN and JKNet), and `combine` is
the one weighted sum every model uses, forward and backward.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .graph import SparseGraph, laplacian_apply, normalized_apply, \
    shifted_apply


def operator_powers(apply, g: SparseGraph, X, k: int) -> list:
    """[X, op X, ..., op^k X] for the sparse apply ``apply``, by the one-step
    recurrence: k sparse applies."""
    blocks = [X]
    for _ in range(k):
        blocks.append(apply(g, blocks[-1]))
    return blocks


def build_basis_cache(g: SparseGraph, X, K: int) -> list:
    """The Krylov blocks [X, Â X, ..., Â^K X], in K sparse applies: every
    block either family needs when K is the larger of their degrees. The
    first block is X itself."""
    if K < 0:
        raise InputError(f"degree must be non-negative, got {K}")
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.n:
        raise InputError(f"feature rows {X.shape[0]} != node count {g.n}")
    return operator_powers(normalized_apply, g, X, K)


def gsc_weights(k1: int, k2: int) -> np.ndarray:
    """The map W from c = (alpha, beta) to Krylov weights, so that
    sum_i alpha_i P_i + sum_j beta_j Q_j = sum_m (W c)_m Â^m X, by the
    binomial expansions (I+Â)^i = sum_m C(i,m) Â^m and
    (I-Â)^j = sum_m (-1)^m C(j,m) Â^m.

    Shape (max(k1, k2, 0) + 1, k1 + k2 + 2); a family of degree -1 has no
    column. The entries are integers, exact in float64.
    """
    K = max(k1, k2, 0)
    W = np.zeros((K + 1, k1 + k2 + 2))
    for i in range(k1 + 1):
        W[:i + 1, i] = [math.comb(i, m) for m in range(i + 1)]
    for j in range(k2 + 1):
        W[:j + 1, k1 + 1 + j] = [(-1) ** m * math.comb(j, m)
                                 for m in range(j + 1)]
    return W


def combine(blocks, coeffs) -> np.ndarray:
    """Z = sum_k c_k B_k, accumulated in block order. Every propagation
    stage, forward and backward, sums its blocks here."""
    Z = np.zeros_like(blocks[0])
    for c, B in zip(coeffs, blocks):
        Z += c * B
    return Z


def gsc_combine(blocks, alpha, beta) -> np.ndarray:
    """Z = sum_i alpha_i P_i + sum_j beta_j Q_j over the Krylov blocks of
    `build_basis_cache`; linear in (alpha, beta). The degrees are the
    vectors' lengths less one, so an empty vector switches its family
    off."""
    W = gsc_weights(len(alpha) - 1, len(beta) - 1)
    if W.shape[0] > len(blocks):
        raise InputError(f"filter degree {W.shape[0] - 1} exceeds the cache "
                         f"degree {len(blocks) - 1}")
    return combine(blocks, W @ np.concatenate([alpha, beta]))


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
