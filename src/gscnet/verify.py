"""Dense verification oracles for the sparse fast paths.

Everything here recomputes quantities the slow, obviously-correct way:
dense operator matrices built entry by entry, explicit eigendecomposition,
repeated dense multiplication, and central finite differences. The
eigensolver is implemented in-repo (Householder tridiagonalization followed
by implicit-shift QL) so the oracle does not share code with anything it is
used to check; the test suite cross-validates it against LAPACK.

None of this is a production path: dense routines are guarded at n <= 500.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeGuardError
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
    """Eigendecomposition of a dense symmetric matrix, in-repo.

    Householder reduction to tridiagonal form, then implicit-shift QL with
    eigenvector accumulation. O(n^3); intended for verification sizes only.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError(f"expected square matrix, got shape {A.shape}")
    if n and not np.allclose(A, A.T, atol=1e-12):
        raise InputError("matrix is not symmetric")
    if n == 0:
        return EigenSystem(np.zeros(0), np.zeros((0, 0)))

    d, e, Q = _householder_tridiagonalize(A.copy())
    _tridiagonal_ql(d, e, Q)

    order = np.argsort(d, kind="stable")
    return EigenSystem(values=d[order], vectors=Q[:, order])


def _householder_tridiagonalize(A):
    """Reduce symmetric A in place to tridiagonal T = Q^T A Q.

    Returns (diagonal, subdiagonal, Q) with A = Q T Q^T.
    """
    n = A.shape[0]
    Q = np.eye(n)
    e = np.zeros(max(n - 1, 0))
    for k in range(n - 2):
        x = A[k + 1:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            e[k] = 0.0
            continue
        alpha = -math.copysign(norm_x, x[0]) if x[0] != 0.0 else -norm_x
        v = x.copy()
        v[0] -= alpha
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            e[k] = alpha
            continue
        v /= vnorm

        # Symmetric rank-2 update: (I-2vv^T) A_sub (I-2vv^T).
        sub = A[k + 1:, k + 1:]
        w = sub @ v
        u = w - (v @ w) * v
        sub -= 2.0 * np.outer(v, u) + 2.0 * np.outer(u, v)

        A[k + 1, k] = alpha
        A[k, k + 1] = alpha
        A[k + 2:, k] = 0.0
        A[k, k + 2:] = 0.0
        e[k] = alpha

        Qs = Q[:, k + 1:]
        Qs -= 2.0 * np.outer(Qs @ v, v)
    if n >= 2:
        e[n - 2] = A[n - 1, n - 2]
    return np.diag(A).copy(), e, Q


def _tridiagonal_ql(d, e, Q, max_iter=60):
    """Implicit-shift QL sweeps on tridiagonal (d, e), rotating Q along.

    ``d`` and ``Q`` are updated in place; ``e`` is workspace.
    """
    n = d.shape[0]
    if n <= 1:
        return
    e = np.append(e, 0.0)
    eps = np.finfo(np.float64).eps
    for l in range(n):
        for iteration in range(max_iter + 1):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == max_iter:
                raise RuntimeError("QL iteration failed to converge")

            g_ = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g_, 1.0)
            g_ = d[m] - d[l] + e[l] / (g_ + math.copysign(r, g_))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g_)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g_ / r
                g_ = d[i + 1] - p
                r = (d[i] - g_) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g_ + p
                g_ = c * r - b

                qi = Q[:, i].copy()
                Q[:, i + 1], Q[:, i] = s * qi + c * Q[:, i + 1], c * qi - s * Q[:, i + 1]
            else:
                d[l] -= p
                e[l] = g_
                e[m] = 0.0


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
        raise SizeGuardError(
            f"dense oracle guarded at n <= {DENSE_GUARD}, got n = {n}; "
            "verify a sampled subgraph instead")
