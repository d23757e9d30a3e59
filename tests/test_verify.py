import ast
import os

import numpy as np
import pytest

from gscnet import suite, verify
from gscnet.basis import build_basis_cache, gsc_combine
from gscnet.errors import InputError
from gscnet.graph import build_csr
from gscnet.verify import (dense_eigensystem, dense_laplacian,
                           dense_matrix_power, dense_shifted,
                           finite_difference_gradient, polynomial_response,
                           spectral_filter_oracle, symmetric_eigensystem)

from conftest import K2_EDGES, P3_EDGES, TRIANGLE_EDGES, er_edges, \
    unit_filter


class TestDenseEigensystem:
    def test_k2_spectrum(self):
        eig = dense_eigensystem(build_csr(K2_EDGES, 2))
        assert np.allclose(eig.values, [0.0, 2.0], atol=1e-14)

    def test_triangle_spectrum(self):
        eig = dense_eigensystem(build_csr(TRIANGLE_EDGES, 3))
        assert np.allclose(eig.values, [0.0, 1.5, 1.5], atol=1e-14)

    def test_isolated_node_spectrum(self):
        # L acts as the identity on an isolated node.
        eig = dense_eigensystem(build_csr([], 1))
        assert np.array_equal(eig.values, [1.0])
        assert np.array_equal(np.abs(eig.vectors), [[1.0]])

    def test_empty_graph_spectrum(self):
        eig = dense_eigensystem(build_csr([], 0))
        assert eig.values.shape == (0,)
        assert eig.vectors.shape == (0, 0)

    def test_invariants_random_graph(self, rng):
        n = 50
        g = build_csr(er_edges(rng, n, 0.2), n)
        eig = dense_eigensystem(g)
        L = dense_laplacian(g)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.linalg.norm(recon - L) <= 1e-8 * n
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(n)) <= 1e-10
        assert (np.diff(eig.values) >= -1e-12).all()

    def test_size_guard(self):
        g = build_csr([(0, 1)], 501)
        with pytest.raises(
                InputError,
                match=r"guarded at n <= 500, got n = 501; check a graph with "
                      r"n <= 500$"):
            dense_eigensystem(g)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            symmetric_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("A", [5.0, np.zeros(3), np.zeros((2, 3))],
                             ids=["0-d", "1-d", "2x3"])
    def test_non_square_rejected(self, A):
        with pytest.raises(InputError):
            symmetric_eigensystem(A)

    def test_dense_laplacian_exactly_symmetric(self, rng):
        n = 30
        g = build_csr(er_edges(rng, n, 0.3), n)
        L = dense_laplacian(g)
        assert np.array_equal(L, L.T)


class TestSpectralFilterOracle:
    def test_identity_response(self, rng):
        g = build_csr(P3_EDGES, 3)
        eig = dense_eigensystem(g)
        x = rng.normal(size=3)
        assert np.allclose(spectral_filter_oracle(eig, lambda lam: 1.0, x), x)

    def test_linear_response_equals_laplacian(self):
        g = build_csr(K2_EDGES, 2)
        eig = dense_eigensystem(g)
        out = spectral_filter_oracle(eig, lambda lam: lam, [1.0, 0.0])
        assert np.allclose(out, [1.0, -1.0])

    def test_matches_sparse_combination(self, rng):
        n = 40
        g = build_csr(er_edges(rng, n, 0.2), n)
        eig = dense_eigensystem(g)
        alpha, beta = rng.normal(size=4), rng.normal(size=3)
        x = rng.normal(size=n)
        sparse = gsc_combine(build_basis_cache(g, x, 3), alpha, beta)
        oracle = spectral_filter_oracle(
            eig, polynomial_response(alpha, beta), x)
        rel = np.linalg.norm(sparse - oracle) / max(np.linalg.norm(oracle), 1e-30)
        assert rel <= 1e-8


class TestDenseMatrixPower:
    def test_zeroth_power_is_identity(self):
        g = build_csr(P3_EDGES, 3)
        assert np.array_equal(dense_matrix_power(dense_laplacian(g), 0),
                              np.eye(3))

    def test_negative_power_rejected(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError, match="non-negative"):
            dense_matrix_power(dense_laplacian(g), -1)

    def test_shifted_on_k2(self):
        g = build_csr(K2_EDGES, 2)
        assert np.allclose(dense_matrix_power(dense_shifted(g), 1),
                           [[1.0, 1.0], [1.0, 1.0]])

    def test_cross_check_with_cache(self):
        g = build_csr(P3_EDGES, 3)
        M = dense_matrix_power(dense_shifted(g), 3)
        cache = build_basis_cache(g, np.eye(3), 3)
        block = gsc_combine(cache, *unit_filter("shifted", 3))
        assert np.abs(M - block).max() <= 1e-10


class TestFiniteDifference:
    def test_quadratic(self):
        params = {"theta": np.array([3.0])}
        grads = finite_difference_gradient(
            lambda p: float(p["theta"][0] ** 2), params)
        assert abs(grads["theta"][0] - 6.0) <= 1e-6
        assert params["theta"][0] == 3.0  # restored

    def test_linear_is_near_exact(self):
        a = 1.234567
        params = {"theta": np.array([0.5])}
        grads = finite_difference_gradient(
            lambda p: a * float(p["theta"][0]), params)
        assert abs(grads["theta"][0] - a) <= 1e-9

    def test_multivariate_shapes(self, rng):
        W = rng.normal(size=(3, 2))
        params = {"w": W.copy()}
        grads = finite_difference_gradient(
            lambda p: float((p["w"] ** 2).sum()), params)
        assert grads["w"].shape == W.shape
        assert np.allclose(grads["w"], 2 * W, atol=1e-6)


class TestSuiteFailsOnNaN:
    """A NaN error is within no bound, though Python's max(0.0, nan) is 0.0
    and NaN > bound is False: each check fails on a NaN measurement. A NaN
    filter is `test_cli`'s TestVerifyCommand case."""

    def test_nan_analytic_gradient(self, monkeypatch):
        real = suite.loss_and_grad

        def nan_grads(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            return loss, {k: np.full_like(v, np.nan) for k, v in grads.items()}
        monkeypatch.setattr(suite, "loss_and_grad", nan_grads)
        report = suite.run_suite(quick=True)
        check = {c["name"]: c for c in report["checks"]}["gradient_check"]
        assert report["passed"] is False
        assert check["passed"] is False
        assert check["worst_relative_err"] is None

    def test_nan_rayleigh_quotient(self, monkeypatch):
        monkeypatch.setattr(suite, "shifted_apply",
                            lambda g, x: np.full(g.n, np.nan))
        check = suite._check_rayleigh(np.random.default_rng(0), 5)
        assert check["passed"] is False and check["violations"] == 5

    def test_nan_eigensystem(self, monkeypatch):
        def nan_eigensystem(g):
            return verify.EigenSystem(np.full(g.n, np.nan),
                                      np.full((g.n, g.n), np.nan))
        monkeypatch.setattr(verify, "dense_eigensystem", nan_eigensystem)
        check = suite._check_eigensystem(np.random.default_rng(0), 3)
        assert check["passed"] is False
        assert (check["reconstruction_err"], check["orthonormality_err"],
                check["eigenvalue_range"]) == (None, None, [None, None])


def test_oracles_do_not_import_scipy():
    # The dense oracles check the scipy.sparse kernel, so they must not
    # share code with it.
    with open(verify.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {m for m in imported if m.split(".")[0] == "scipy"}


def test_only_the_oracle_names_an_eigensolver():
    # The oracle's eigendecomposition is LAPACK's eigh; it stays independent
    # of what it checks only while no other module calls an eigensolver. A
    # solver is reached by an import or an attribute (np.linalg.eigh), so
    # those are the names read; a local variable called `eig` is not one.
    solvers = {"eigh", "eigvalsh", "eig", "eigvals"}
    package = os.path.dirname(verify.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "verify.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
        assert not named & solvers, name
