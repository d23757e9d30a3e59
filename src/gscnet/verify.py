"""Dense verification oracles for the sparse fast paths.

Everything here recomputes quantities the slow, obviously-correct way:
dense operator matrices built entry by entry, explicit eigendecomposition,
repeated dense multiplication, and central finite differences.

The oracle shares no code with what it checks. Every production path is a
scipy CSR product plus BLAS matrix multiplication; none calls LAPACK's
symmetric eigensolvers, so the eigendecomposition here is LAPACK's ``eigh``
(the test suite pins that no other module names an eigensolver). This module
imports no scipy.

None of this is a production path: dense routines are guarded at n <= 500.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import SparseGraph

DENSE_GUARD = 500

# Central differences with step h have truncation error O(h^2) and roundoff
# error O(eps/h); h = 1e-5 roughly balances the two in float64 for O(1)
# losses (eps^(1/3) ~ 6e-6).
FD_STEP = 1e-5


def dense_adjacency(g: SparseGraph) -> np.ndarray:
    _guard(g.n)
    A = np.zeros((g.n, g.n))
    for i in range(g.n):
        A[i, g.neighbors(i)] = 1.0
    return A


def dense_laplacian(g: SparseGraph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}; rows/columns of isolated nodes follow the
    zero-normalization policy, so L acts as identity there."""
    A = dense_adjacency(g)
    dinv = np.zeros(g.n)
    pos = g.degrees > 0
    dinv[pos] = 1.0 / np.sqrt(g.degrees[pos])
    return np.eye(g.n) - dinv[:, None] * A * dinv[None, :]


def dense_shifted(g: SparseGraph) -> np.ndarray:
    return 2.0 * np.eye(g.n) - dense_laplacian(g)


def dense_gcn_norm(g: SparseGraph) -> np.ndarray:
    A_hat = dense_adjacency(g) + np.eye(g.n)
    dinv = 1.0 / np.sqrt(g.degrees + 1.0)
    return dinv[:, None] * A_hat * dinv[None, :]


def dense_matrix_power(M: np.ndarray, k: int) -> np.ndarray:
    """M^k by exact repeated dense multiplication, for a dense operator
    from the builders above."""
    if k < 0:
        raise InputError(f"power must be non-negative, got {k}")
    out = np.eye(M.shape[0])
    for _ in range(k):
        out = out @ M
    return out


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order; eigenvectors as orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def dense_eigensystem(g: SparseGraph) -> EigenSystem:
    """Full eigendecomposition of the dense normalized Laplacian."""
    _guard(g.n)
    return symmetric_eigensystem(dense_laplacian(g))


def symmetric_eigensystem(A: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a dense symmetric matrix by LAPACK's ``eigh``.

    ``eigh`` reads one triangle only, so the symmetry check comes first:
    without it an asymmetric input would be decomposed silently.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected square matrix, got shape {A.shape}")
    if not np.allclose(A, A.T, atol=1e-12):
        raise InputError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(A)
    return EigenSystem(values=values, vectors=vectors)


def spectral_filter_oracle(eig: EigenSystem, h, x) -> np.ndarray:
    """Apply a scalar spectral response exactly: U diag(h(lambda)) U^T x."""
    x = np.asarray(x, dtype=np.float64)
    hvals = np.asarray([h(float(lam)) for lam in eig.values], dtype=np.float64)
    coeffs = eig.vectors.T @ x
    if x.ndim == 1:
        return eig.vectors @ (hvals * coeffs)
    return eig.vectors @ (hvals[:, None] * coeffs)


def polynomial_response(alpha, beta):
    """Scalar response lambda -> sum_i alpha_i (2-lambda)^i + sum_j beta_j lambda^j."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)

    def h(lam: float) -> float:
        acc = 0.0
        for i, a in enumerate(alpha):
            acc += a * (2.0 - lam) ** i
        for j, b in enumerate(beta):
            acc += b * lam ** j
        return acc

    return h


def finite_difference_gradient(lossfn, params: dict, eps: float = FD_STEP) -> dict:
    """Central differences of a deterministic scalar loss per parameter entry.

    ``params`` maps names to float arrays; the returned dict has matching
    shapes. ``lossfn(params)`` must be deterministic (dropout off).
    """
    grads = {}
    for name, value in params.items():
        value = np.asarray(value, dtype=np.float64)
        grad = np.zeros_like(value)
        flat = value.ravel()
        gflat = grad.ravel()
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = lossfn(params)
            flat[idx] = orig - eps
            f_minus = lossfn(params)
            flat[idx] = orig
            gflat[idx] = (f_plus - f_minus) / (2.0 * eps)
        grads[name] = grad
    return grads


def _guard(n: int):
    if n > DENSE_GUARD:
        raise InputError(
            f"dense oracle guarded at n <= {DENSE_GUARD}, got n = {n}; "
            f"check a graph with n <= {DENSE_GUARD}")
