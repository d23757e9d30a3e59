import math

import numpy as np
import pytest

from gscnet.basis import (bernstein_blocks, build_basis_cache, gsc_combine,
                          gsc_weights)
from gscnet.errors import InputError
from gscnet.graph import build_csr, laplacian_apply, shifted_apply

from conftest import (K2_EDGES, P3_EDGES, dense_laplacian_ref,
                      dense_shifted_ref, er_edges, unit_filter)


def matrix_power(M, k):
    out = np.eye(M.shape[0])
    for _ in range(k):
        out = out @ M
    return out


class TestBasisCache:
    def test_degree_zero_cache_is_input(self, rng):
        X = rng.normal(size=(2, 3))
        g = build_csr(K2_EDGES, 2)
        cache = build_basis_cache(g, X, 0)
        assert len(cache) == 1 and cache[0] is X

    def test_k2_first_shifted_block(self):
        g = build_csr(K2_EDGES, 2)
        cache = build_basis_cache(g, np.array([1.0, 0.0]), 1)
        assert np.allclose(gsc_combine(cache, *unit_filter("shifted", 1)),
                           [1.0, 1.0])

    def test_krylov_length_is_max_degree(self, rng):
        g = build_csr(K2_EDGES, 2)
        X = rng.normal(size=(2, 2))
        for K in (3, 0, 4, 2):
            cache = build_basis_cache(g, X, K)
            assert len(cache) == K + 1
        # On K2, Â swaps the two nodes.
        assert np.array_equal(cache[1], X[::-1])

    def test_blocks_match_dense_powers(self, rng):
        edges = er_edges(rng, 20, 0.3)
        g = build_csr(edges, 20)
        X = rng.normal(size=(20, 5))
        K = 16
        cache = build_basis_cache(g, X, K)
        S = dense_shifted_ref(edges, 20)
        L = dense_laplacian_ref(edges, 20)
        for i in range(K + 1):
            for family, M in (("shifted", S), ("laplacian", L)):
                block = gsc_combine(cache, *unit_filter(family, i))
                dense = matrix_power(M, i) @ X
                rel = np.linalg.norm(block - dense) / max(np.linalg.norm(dense), 1e-30)
                assert rel <= 1e-10

    def test_recurrence_power_equivalence(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 31))
            edges = er_edges(rng, n, 0.3)
            g = build_csr(edges, n)
            X = rng.normal(size=(n, 2))
            cache = build_basis_cache(g, X, 6)
            S = dense_shifted_ref(edges, n)
            L = dense_laplacian_ref(edges, n)
            for i in range(7):
                for family, M in (("shifted", S), ("laplacian", L)):
                    dense = matrix_power(M, i) @ X
                    block = gsc_combine(cache, *unit_filter(family, i))
                    rel = np.linalg.norm(block - dense) \
                        / max(np.linalg.norm(dense), 1e-30)
                    assert rel <= 1e-10

    def test_negative_degree_rejected(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError):
            build_basis_cache(g, np.zeros((2, 1)), -1)

    def test_feature_row_mismatch_rejected(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError, match="feature rows"):
            build_basis_cache(g, np.zeros((3, 1)), 1)


class TestGscWeights:
    def test_binomial_rows(self):
        W = gsc_weights(2, 3)
        # Columns: alpha_0..alpha_2, then beta_0..beta_3; rows: Â^0..Â^3.
        assert W.tolist() == [[1, 1, 1, 1, 1, 1, 1],
                              [0, 1, 2, 0, -1, -2, -3],
                              [0, 0, 1, 0, 0, 1, 3],
                              [0, 0, 0, 0, 0, 0, -1]]

    def test_switched_off_family_has_no_column(self):
        assert gsc_weights(-1, 2).shape == (3, 3)
        assert gsc_weights(1, -1).shape == (2, 2)
        assert gsc_weights(-1, -1).shape == (1, 0)

    def test_degree_16_entries_are_exact_integers(self):
        W = gsc_weights(16, 16)
        assert W[8, 16] == math.comb(16, 8)
        assert np.array_equal(W, np.round(W))
        # (1 + 1)^16 and (1 - 1)^16: each column sums to 2^i or 0^j.
        assert W[:, 16].sum() == 2 ** 16 and W[:, 33].sum() == 0


class TestGscCombine:
    def test_identity_filter(self, rng):
        g = build_csr(K2_EDGES, 2)
        X = rng.normal(size=(2, 3))
        cache = build_basis_cache(g, X, 0)
        Z = gsc_combine(cache, [1.0], [])
        assert np.array_equal(Z, X)

    def test_operators_cancel_to_3x(self):
        # I + (2I-L) + L = 3I
        g = build_csr(K2_EDGES, 2)
        cache = build_basis_cache(g, np.array([1.0, 0.0]), 1)
        Z = gsc_combine(cache, [1.0, 1.0], [0.0, 1.0])
        assert np.allclose(Z, [3.0, 0.0])

    def test_p3_cancellation(self):
        g = build_csr(P3_EDGES, 3)
        e1 = np.array([0.0, 1.0, 0.0])
        cache = build_basis_cache(g, e1, 1)
        Z = gsc_combine(cache, [0.0, 1.0], [0.0, 1.0])
        assert np.allclose(Z, 2.0 * e1)

    def test_degree_mismatch_rejected(self):
        g = build_csr(K2_EDGES, 2)
        cache = build_basis_cache(g, np.zeros((2, 1)), 1)
        with pytest.raises(InputError):
            gsc_combine(cache, [1.0, 1.0, 1.0], [])

    def test_linear_in_coefficients(self, rng):
        n = 15
        g = build_csr(er_edges(rng, n, 0.3), n)
        X = rng.normal(size=(n, 3))
        cache = build_basis_cache(g, X, 3)
        a1, b1 = rng.normal(size=4), rng.normal(size=4)
        a2, b2 = rng.normal(size=4), rng.normal(size=4)
        s, t = 1.3, -0.7
        lhs = gsc_combine(cache, s * a1 + t * a2, s * b1 + t * b2)
        rhs = s * gsc_combine(cache, a1, b1) \
            + t * gsc_combine(cache, a2, b2)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_empty_family_supported(self, rng):
        g = build_csr(K2_EDGES, 2)
        X = rng.normal(size=(2, 2))
        cache = build_basis_cache(g, X, 2)
        Z = gsc_combine(cache, [], [1.0, 0.5, 0.25])
        expected = X + 0.5 * laplacian_apply(g, X) \
            + 0.25 * laplacian_apply(g, laplacian_apply(g, X))
        assert np.allclose(Z, expected)


class TestBernsteinTerm:
    def test_endpoints_reduce_to_single_operators(self, rng):
        g = build_csr(P3_EDGES, 3)
        X = rng.normal(size=(3, 2))
        lap, shifted = bernstein_blocks(g, X, 1)
        assert np.array_equal(lap, laplacian_apply(g, X))
        assert np.array_equal(shifted, shifted_apply(g, X))
        (only,) = bernstein_blocks(g, X, 0)
        assert np.array_equal(only, X)

    def test_matches_dense_oracle(self, rng):
        edges = er_edges(rng, 15, 0.3)
        g = build_csr(edges, 15)
        X = rng.normal(size=(15, 3))
        S = dense_shifted_ref(edges, 15)
        L = dense_laplacian_ref(edges, 15)
        K = 3
        blocks = bernstein_blocks(g, X, K)
        assert len(blocks) == K + 1
        for k, got in enumerate(blocks):
            dense = matrix_power(S, k) @ matrix_power(L, K - k) @ X
            rel = np.linalg.norm(got - dense) \
                / max(np.linalg.norm(dense), 1e-30)
            assert rel <= 1e-10

    def test_out_of_range_rejected(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError):
            bernstein_blocks(g, np.zeros((2, 1)), -1)
