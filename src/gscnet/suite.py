"""Self-contained verification suite behind the `verify` CLI subcommand.

Each check exercises a sparse fast path against an independent dense oracle
and reports pass/fail with a measured error and the bound it is held to.
Also home to the small random graph generators the checks (and the test
suite) draw instances from.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import pnca, verify
from .basis import FilterSpec, build_basis_cache, gsc_combine
from .graph import SparseGraph, build_csr, laplacian_apply, shifted_apply
from .model import TrainConfig, _propagate, init_params, loss_and_grad


def er_graph(rng, n: int, p: float) -> SparseGraph:
    """Erdos-Renyi G(n, p), loop-free."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return build_csr(np.stack([iu[keep], ju[keep]], axis=1), n)


def random_connected_graph(rng, n: int, extra_p: float = 0.1) -> SparseGraph:
    """Random recursive tree plus ER(extra_p) edges; connected by build."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < extra_p
    edges.extend(zip(iu[keep].tolist(), ju[keep].tolist()))
    return build_csr(edges, n)


def unit_spec(family: str, i: int) -> FilterSpec:
    """The filter that is one basis block: P_i for "shifted", Q_i for
    "laplacian"."""
    coeffs = np.zeros(i + 1)
    coeffs[i] = 1.0
    return FilterSpec(alpha=coeffs) if family == "shifted" \
        else FilterSpec(beta=coeffs)


def gscnet_filter(g: SparseGraph, X, spec: FilterSpec) -> np.ndarray:
    """The filter Z as training computes it: GSCNet's propagation with the
    coefficients of ``spec``."""
    params = init_params("GSCNet", 1, 1, spec.k1, spec.k2, seed=0)
    params = dataclasses.replace(params, alpha=spec.alpha, beta=spec.beta)
    return _propagate(params, g, X)[0]


def _check_eigensystem(rng, trials: int) -> dict:
    bound = {"reconstruction_err": 1e-8, "orthonormality_err": 1e-10,
             "eigenvalue_range": [-1e-9, 2.0 + 1e-9]}
    worst_recon = worst_orth = 0.0
    lo, hi = np.inf, -np.inf
    for _ in range(trials):
        n = int(rng.integers(2, 51))
        g = er_graph(rng, n, 0.2)
        L = verify.dense_laplacian(g)
        eig = verify.dense_eigensystem(g)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        worst_recon = max(worst_recon,
                          float(np.linalg.norm(recon - L)) / max(n, 1))
        orth = eig.vectors.T @ eig.vectors - np.eye(n)
        worst_orth = max(worst_orth, float(np.linalg.norm(orth)))
        lo = min(lo, float(eig.values.min()))
        hi = max(hi, float(eig.values.max()))
    low, high = bound["eigenvalue_range"]
    ok = worst_recon <= bound["reconstruction_err"] \
        and worst_orth <= bound["orthonormality_err"] \
        and lo >= low and hi <= high
    return {"name": "eigensystem", "passed": bool(ok), "bound": bound,
            "reconstruction_err": worst_recon, "orthonormality_err": worst_orth,
            "eigenvalue_range": [lo, hi]}


def _check_filter_agreement(rng, trials: int) -> dict:
    bound = 1e-8
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 51))
        g = random_connected_graph(rng, n)
        k1, k2 = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        spec = FilterSpec(alpha=rng.normal(size=k1 + 1),
                          beta=rng.normal(size=k2 + 1))
        x = rng.normal(size=n)
        sparse_z = gscnet_filter(g, x, spec)
        eig = verify.dense_eigensystem(g)
        oracle_z = verify.spectral_filter_oracle(
            eig, verify.polynomial_response(spec.alpha, spec.beta), x)
        denom = max(float(np.linalg.norm(oracle_z)), 1e-30)
        worst = max(worst, float(np.linalg.norm(sparse_z - oracle_z)) / denom)
    return {"name": "spectral_filter_agreement", "passed": bool(worst <= bound),
            "bound": bound, "worst_relative_err": worst}


def _check_recurrence(rng, trials: int) -> dict:
    bound = 1e-10
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 31))
        g = er_graph(rng, n, 0.3)
        X = rng.normal(size=(n, 3))
        # Degree 16 is the deepest oversmoothing depth. Each block P_i or
        # Q_j is its unit filter over one Krylov cache, so this checks every
        # degree the sweeps train (0-6) as well.
        k = 16
        cache = build_basis_cache(g, X, k)
        operators = {"shifted": verify.dense_shifted(g),
                     "laplacian": verify.dense_laplacian(g)}
        for i in range(k + 1):
            for op, M in operators.items():
                block = gsc_combine(cache, unit_spec(op, i))
                dense = verify.dense_matrix_power(M, i) @ X
                denom = max(float(np.linalg.norm(dense)), 1e-30)
                worst = max(worst,
                            float(np.linalg.norm(block - dense)) / denom)
    return {"name": "recurrence_vs_power", "passed": bool(worst <= bound),
            "bound": bound, "worst_relative_err": worst}


def _check_rayleigh(rng, trials: int) -> dict:
    bound = 0
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(2, 41))
        g = random_connected_graph(rng, n)
        x = rng.normal(size=n)
        r = pnca.rayleigh_quotient(g, x)
        lo_x = shifted_apply(g, x)
        if np.linalg.norm(lo_x) > 0 \
                and pnca.rayleigh_quotient(g, lo_x) > r + 1e-12:
            violations += 1
        hi_x = laplacian_apply(g, x)
        if np.linalg.norm(hi_x) > 0 \
                and pnca.rayleigh_quotient(g, hi_x) < r - 1e-12:
            violations += 1
    return {"name": "rayleigh_monotonicity", "passed": violations <= bound,
            "bound": bound, "violations": violations}


def _check_positivity(rng, trials: int) -> dict:
    bound = 0
    failures = 0
    for _ in range(trials):
        n = int(rng.integers(3, 31))
        g = random_connected_graph(rng, n)
        k = int(rng.integers(1, 7))
        coeffs = rng.random(k + 1)
        coeffs[0] += 0.05
        coeffs[1] += 0.05
        verdict = pnca.positive_combination_check(coeffs, g)
        if not verdict.positive:
            failures += 1
    return {"name": "shifted_combination_positivity",
            "passed": failures <= bound, "bound": bound, "failures": failures}


def _check_gradients(rng, trials: int) -> dict:
    bound = 1e-4
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, _gradcheck_instance(rng))
    return {"name": "gradient_check", "passed": bool(worst <= bound),
            "bound": bound, "worst_relative_err": worst}


def _gradcheck_instance(rng, arch: str = "GSCNet", n: int = 10, d: int = 4,
                        num_classes: int = 3, k1: int = 2, k2: int = 2) -> float:
    """Worst relative error of the analytic gradient against central
    differences on one random instance.

    A central difference moves a pre-activation X @ w1 + b1 by at most
    FD_STEP * max(1, max|X|). An instance with a pre-activation within that
    margin of the ReLU kink at 0 is redrawn: a difference across the kink
    measures neither side's gradient. The rule depends on the instance
    only, so it holds for every seed."""
    while True:
        g = random_connected_graph(rng, n, extra_p=0.3)
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, num_classes, size=n)
        mask = np.zeros(n, dtype=bool)
        mask[rng.permutation(n)[:max(2, n // 2)]] = True
        params = init_params(arch, d, num_classes, k1, k2,
                             seed=int(rng.integers(0, 2**31)), hidden=8)
        margin = verify.FD_STEP * max(1.0, float(np.abs(X).max()))
        if np.abs(X @ params.w1 + params.b1).min() > margin:
            break
    # Break the all-ones symmetry of the filter coefficients.
    if params.alpha.size:
        params.alpha[:] += 0.1 * rng.normal(size=params.alpha.shape)
    if params.beta.size:
        params.beta[:] += 0.1 * rng.normal(size=params.beta.shape)
    cfg = TrainConfig(dropout_conv=0.0, dropout_linear=0.0, weight_decay=0.0)

    _, analytic = loss_and_grad(params, g, X, labels, mask, cfg)

    groups = params.trainable()

    def lossfn(_groups):
        loss, _ = loss_and_grad(params, g, X, labels, mask, cfg)
        return loss

    fd = verify.finite_difference_gradient(lossfn, groups)
    worst = 0.0
    for name, gfd in fd.items():
        denom = max(float(np.linalg.norm(gfd)), 1e-12)
        rel = float(np.linalg.norm(analytic[name] - gfd)) / denom
        worst = max(worst, rel)
    return worst


def run_suite(seed: int = 0, quick: bool = False) -> dict:
    """Run every oracle check; returns a JSON-ready pass/fail report."""
    rng = np.random.default_rng(seed)
    n_small = 10 if quick else 30
    n_grad = 3 if quick else 8
    checks = [
        _check_eigensystem(rng, n_small),
        _check_filter_agreement(rng, n_small),
        _check_recurrence(rng, max(n_small // 3, 3)),
        _check_rayleigh(rng, n_small * 3),
        _check_positivity(rng, n_small),
        _check_gradients(rng, n_grad),
    ]
    return {"schema": "gscnet-verify/1", "seed": seed,
            "passed": all(c["passed"] for c in checks), "checks": checks}
