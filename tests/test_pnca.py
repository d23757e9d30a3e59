import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gscnet import verify
from gscnet.errors import (ContractViolationError, DegenerateInputError,
                           InputError, SizeGuardError)
from gscnet.graph import build_csr, laplacian_apply, permute_graph, shifted_apply
from gscnet.pnca import (classify_graph_activation, label_smoothness,
                         positive_combination_check, rayleigh_quotient,
                         transform)

from conftest import (K2_EDGES, P3_EDGES, TRIANGLE_EDGES, connected_edges,
                      dense_shifted_ref, er_edges)


def row_major_reference(T, g):
    """(label, witness) by scanning dense T in row-major order against the
    pattern of A + I."""
    on_edge = g.adjacency.toarray() != 0
    np.fill_diagonal(on_edge, True)
    for (i, j), value in np.ndenumerate(T):
        if on_edge[i, j] and not value > 0:
            return "Negative", ((i, j), value,
                                "non-positive entry on edge/self-loop")
        if not on_edge[i, j] and value < 0:
            return "Negative", ((i, j), value,
                                "negative entry off the edge pattern")
    return "Positive", None


@st.composite
def graph_and_matrix(draw):
    """A small graph (isolated nodes allowed) and a COO matrix that may
    hold duplicates, negatives anywhere and stored zeros on its edges."""
    n = draw(st.integers(0, 7))
    if n == 0:
        return build_csr([], 0), scipy.sparse.coo_array((0, 0))
    node = st.integers(0, n - 1)
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(node, node),
                                              max_size=12)) if u != v]
    g = build_csr(edges, n)
    entries = draw(st.lists(
        st.tuples(node, node, st.sampled_from([-1.5, 0.0, 0.25, 1.0])),
        max_size=30))
    if draw(st.booleans()):
        entries += [(u, v, 0.0) for u, v in edges]
    if draw(st.booleans()):  # entries on the whole pattern, as a transform
        entries += [(i, i, 1.0) for i in range(n)]
        entries += [(u, v, 0.5) for u, v in edges] + [(v, u, 0.5)
                                                      for u, v in edges]
    rows, cols, values = zip(*entries) if entries else ((), (), ())
    return g, scipy.sparse.coo_array((values, (rows, cols)), shape=(n, n))


def stored_as_is(coo):
    """CSR holding coo's entries as they are: duplicates and stored zeros
    kept, columns unsorted within a row."""
    order = np.argsort(coo.row, kind="stable")
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(coo.row, minlength=coo.shape[0]))])
    return scipy.sparse.csr_array((coo.data[order], coo.col[order], indptr),
                                  shape=coo.shape)


class TestClassifyGraphActivation:
    def test_shifted_on_k2_is_positive(self):
        g = build_csr(K2_EDGES, 2)
        T = dense_shifted_ref(K2_EDGES, 2)
        assert classify_graph_activation(T, g).positive

    def test_laplacian_on_k2_is_negative(self):
        g = build_csr(K2_EDGES, 2)
        T = 2 * np.eye(2) - dense_shifted_ref(K2_EDGES, 2)
        verdict = classify_graph_activation(T, g)
        assert not verdict.positive
        (i, j), value, _ = verdict.witness
        assert i != j and value < 0

    def test_shifted_squared_on_p3_is_positive(self):
        g = build_csr(P3_EDGES, 3)
        S = dense_shifted_ref(P3_EDGES, 3)
        assert classify_graph_activation(S @ S, g).positive

    def test_identity_negative_on_graph_with_edges(self):
        g = build_csr(K2_EDGES, 2)
        verdict = classify_graph_activation(np.eye(2), g)
        assert not verdict.positive

    def test_size_guard(self):
        # The classifier reads the sparse pattern at any n; only the dense
        # expansion of powers is guarded, by the dense oracle's guard.
        n = verify.DENSE_GUARD + 1
        g = build_csr([(0, 1)], n)
        assert classify_graph_activation(transform(g, "shifted"), g).positive
        with pytest.raises(SizeGuardError):
            positive_combination_check([1.0, 1.0], g)

    @given(case=graph_and_matrix())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_major_reference(self, case):
        g, T = case
        expected = row_major_reference(T.toarray(), g)
        for given_T in (T.toarray(), T, T.tocsr(), stored_as_is(T)):
            verdict = classify_graph_activation(given_T, g)
            assert (verdict.label, verdict.witness) == expected

    def test_witness_on_sparse_transforms(self):
        # Node 0 is isolated: both transforms store only the identity's 1
        # in its row, and L's first violation is the edge (1, 2).
        g = build_csr([(1, 2)], 3)
        assert classify_graph_activation(transform(g, "shifted"), g).positive
        verdict = classify_graph_activation(transform(g, "laplacian"), g)
        assert verdict.witness == ((1, 2), -1.0,
                                   "non-positive entry on edge/self-loop")

    def test_shape_checked(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError):
            classify_graph_activation(np.eye(3), g)
        with pytest.raises(InputError):
            classify_graph_activation(scipy.sparse.eye_array(3), g)

    def test_lemma_closure_under_nonneg_sums(self, rng):
        # Random edge-patterned positive activations stay positive under
        # non-negative combination.
        for _ in range(50):
            n = int(rng.integers(2, 20))
            edges = er_edges(rng, n, 0.4)
            g = build_csr(edges, n)
            pattern = np.eye(n, dtype=bool)
            for u, v in edges:
                pattern[u, v] = pattern[v, u] = True

            def random_positive():
                T = np.zeros((n, n))
                T[pattern] = rng.random(int(pattern.sum())) + 0.01
                return T

            a, b = rng.random(), rng.random()
            if a + b == 0:
                a = 1.0
            combo = a * random_positive() + b * random_positive()
            if a == 0 and b == 0:
                continue
            assert classify_graph_activation(combo, g).positive


class TestInputGuards:
    @pytest.mark.parametrize("call, match", [
        (lambda g: transform(g, "adjacency"), "unknown transform kind"),
        (lambda g: positive_combination_check([], g), "non-empty 1-D"),
        (lambda g: positive_combination_check([[1.0]], g), "non-empty 1-D"),
        (lambda g: label_smoothness(g, [0, 1, 0]), "expected 2 labels"),
        (lambda g: rayleigh_quotient(g, np.ones(3)), "length 2"),
    ], ids=["transform-kind", "coefficients-empty", "coefficients-2d",
            "label-count", "rayleigh-length"])
    def test_malformed_input_rejected(self, call, match):
        with pytest.raises(InputError, match=match):
            call(build_csr(K2_EDGES, 2))


class TestPositiveCombination:
    def test_k2_first_order(self):
        g = build_csr(K2_EDGES, 2)
        assert positive_combination_check([1.0, 1.0], g).positive

    def test_identity_only_is_negative(self, rng):
        g = build_csr(er_edges(rng, 10, 0.4) or [(0, 1)], 10)
        verdict = positive_combination_check([1.0, 0.0], g)
        assert not verdict.positive

    def test_connected_random_graphs_positive(self, rng):
        for seed in range(50):
            local = np.random.default_rng(seed)
            g = build_csr(connected_edges(local, 20), 20)
            assert positive_combination_check([0.3, 0.7, 0.1], g).positive

    def test_matches_row_major_reference(self, rng):
        """Label and witness equal a row-major scan of sum_j c_j S^j, with S
        built from the edge list, zero coefficients included."""
        fixed = [[0.5, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 2.0],
                 [0.3, 0.0, 0.7]]
        for _ in range(30):
            n = int(rng.integers(2, 16))
            edges = er_edges(rng, n, 0.25)
            g = build_csr(edges, n)
            S = dense_shifted_ref(edges, n)
            drawn = rng.random(int(rng.integers(1, 6)))
            drawn[rng.random(drawn.size) < 0.4] = 0.0
            drawn[-1] += 0.1
            for coeffs in fixed + [drawn]:
                T = sum(c * np.linalg.matrix_power(S, j)
                        for j, c in enumerate(coeffs))
                verdict = positive_combination_check(coeffs, g)
                assert (verdict.label, verdict.witness) == \
                    row_major_reference(T, g)

    def test_all_zero_coefficients_negative(self):
        verdict = positive_combination_check([0.0, 0.0], build_csr(K2_EDGES, 2))
        assert verdict.witness == (None, 0.0, "all coefficients zero")

    def test_negative_coefficient_breaks_contract(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(ContractViolationError):
            positive_combination_check([1.0, -0.5], g)

    def test_theorem_positive_half(self, rng):
        # alpha_0, alpha_1 > 0 with non-negative tail is Positive on any
        # connected graph.
        for _ in range(30):
            n = int(rng.integers(2, 51))
            g = build_csr(connected_edges(rng, n), n)
            k = int(rng.integers(1, 7))
            coeffs = rng.random(k + 1)
            coeffs[0] += 0.1
            coeffs[1] += 0.1
            assert positive_combination_check(coeffs, g).positive


class TestLabelSmoothness:
    def test_triangle_two_of_three_cross(self):
        g = build_csr(TRIANGLE_EDGES, 3)
        assert label_smoothness(g, [0, 0, 1]) == pytest.approx(2.0 / 3.0)

    def test_uniform_labels(self, rng):
        n = 20
        g = build_csr(connected_edges(rng, n), n)
        assert label_smoothness(g, np.zeros(n, dtype=int)) == 0.0

    def test_k2_cross(self):
        g = build_csr(K2_EDGES, 2)
        assert label_smoothness(g, [0, 1]) == 1.0

    def test_no_edges_degenerate(self):
        g = build_csr([], 2)
        with pytest.raises(DegenerateInputError):
            label_smoothness(g, [0, 1])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds_and_permutation_invariance(self, seed):
        local = np.random.default_rng(seed)
        n = int(local.integers(2, 30))
        edges = er_edges(local, n, 0.3)
        if not edges:
            edges = [(0, 1)]
        g = build_csr(edges, n)
        labels = local.integers(0, 3, size=n)
        lam = label_smoothness(g, labels)
        assert 0.0 <= lam <= 1.0
        p = local.permutation(n)
        gp, _ = permute_graph(g, np.zeros((n, 1)), p)
        assert label_smoothness(gp, labels[p]) == pytest.approx(lam)


class TestRayleigh:
    def test_k2_kernel_and_top(self):
        g = build_csr(K2_EDGES, 2)
        assert rayleigh_quotient(g, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
        assert rayleigh_quotient(g, [1.0, -1.0]) == pytest.approx(2.0)

    def test_p3_basis_vector(self):
        g = build_csr(P3_EDGES, 3)
        assert rayleigh_quotient(g, [1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError):
            rayleigh_quotient(g, [0.0, 0.0])

    def test_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            g = build_csr(er_edges(rng, n, 0.3), n)
            r = rayleigh_quotient(g, rng.normal(size=n))
            assert -1e-12 <= r <= 2.0 + 1e-12

    def test_low_pass_never_raises_quotient(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            g = build_csr(connected_edges(rng, n), n)
            x = rng.normal(size=n)
            y = shifted_apply(g, x)
            if np.linalg.norm(y) == 0:
                continue
            assert rayleigh_quotient(g, y) <= rayleigh_quotient(g, x) + 1e-12

    def test_high_pass_never_lowers_quotient(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            g = build_csr(connected_edges(rng, n), n)
            x = rng.normal(size=n)
            y = laplacian_apply(g, x)
            if np.linalg.norm(y) == 0:
                continue
            assert rayleigh_quotient(g, y) >= rayleigh_quotient(g, x) - 1e-12
