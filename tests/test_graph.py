import sys
import threading

import numpy as np
import pytest
import scipy.sparse

from gscnet.data import read_edge_list, write_edge_list
from gscnet.errors import DataError, InputError
from gscnet.graph import (SparseGraph, adjacency_apply, build_csr,
                          connected_components, gcn_norm_apply,
                          laplacian_apply, num_components, permute_graph,
                          shifted_apply)
from gscnet.verify import (dense_adjacency, dense_eigensystem,
                           dense_gcn_norm, dense_laplacian, dense_shifted)

from conftest import (K2_EDGES, P3_EDGES, connected_edges,
                      dense_gcn_norm_ref, dense_laplacian_ref,
                      dense_shifted_ref, er_edges, traced_peak)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestBuildCsr:
    def test_single_edge(self):
        g = build_csr([(0, 1)], 2)
        assert g.n == 2 and g.nnz == 2
        assert np.array_equal(g.degrees, [1.0, 1.0])

    def test_dedup_mirrored_input(self):
        g1 = build_csr([(0, 1)], 2)
        g2 = build_csr([(0, 1), (1, 0)], 2)
        assert np.array_equal(g1.adjacency.indices, g2.adjacency.indices)
        assert np.array_equal(g1.adjacency.indptr, g2.adjacency.indptr)

    def test_path(self):
        g = build_csr(P3_EDGES, 3)
        assert np.array_equal(g.degrees, [1.0, 2.0, 1.0])
        assert np.array_equal(g.neighbors(1), [0, 2])

    def test_self_loop_rejected(self):
        # Every operator adds its own diagonal, so a graph stores none.
        with pytest.raises(InputError, match="node 0"):
            build_csr([(0, 0)], 1)
        with pytest.raises(InputError, match="node 2"):
            build_csr([(0, 1), (2, 2), (1, 2)], 3)
        A = scipy.sparse.csr_array(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(InputError, match="node 1"):
            SparseGraph(A)

    def test_sorted_and_deduped_rows(self, rng):
        edges = er_edges(rng, 30, 0.3)
        g = build_csr(edges + edges[:5], 30)
        for i in range(g.n):
            nbrs = g.neighbors(i)
            assert np.array_equal(nbrs, np.unique(nbrs))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            build_csr([(0, 5)], 3)
        with pytest.raises(InputError):
            build_csr([(-1, 0)], 3)

    def test_negative_node_count_rejected(self):
        with pytest.raises(InputError, match="node count"):
            build_csr([], -1)

    def test_tuples_and_int_array_agree(self, rng):
        edges = er_edges(rng, 25, 0.3) + [(7, 2), (2, 7)]
        a = build_csr(edges, 25).adjacency
        assert (a.data == 1.0).all()
        for array in (np.array(edges), np.array(edges, dtype=np.int32)):
            b = build_csr(array, 25).adjacency
            for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                         (a.data, b.data)):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        for A in (a, build_csr([], 3).adjacency):
            assert A.indptr.dtype == A.indices.dtype == np.int64

    def test_stored_arrays_reject_writes(self):
        g = build_csr([(0, 1), (1, 2)], 3)
        A = g.adjacency
        for arr in (A.data, A.indices, A.indptr, g.degrees):
            with pytest.raises(ValueError):
                arr[0] = 5


class TestLaplacianApply:
    def test_k2_constant_in_kernel(self):
        g = build_csr(K2_EDGES, 2)
        assert np.allclose(laplacian_apply(g, [1.0, 1.0]), [0.0, 0.0])

    def test_k2_basis_vector(self):
        g = build_csr(K2_EDGES, 2)
        assert np.allclose(laplacian_apply(g, [1.0, 0.0]), [1.0, -1.0])

    def test_p3_matches_oracle(self):
        g = build_csr(P3_EDGES, 3)
        got = laplacian_apply(g, [1.0, 0.0, 0.0])
        assert np.allclose(got, [1.0, -INV_SQRT2, 0.0], atol=1e-15)
        oracle = dense_laplacian_ref(P3_EDGES, 3) @ np.array([1.0, 0.0, 0.0])
        assert np.allclose(got, oracle, atol=1e-15)

    def test_matches_dense_on_random_graphs(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 51))
            edges = er_edges(rng, n, 0.2)
            g = build_csr(edges, n)
            X = rng.normal(size=(n, 3))
            L = dense_laplacian_ref(edges, n)
            assert np.abs(laplacian_apply(g, X) - L @ X).max() <= 1e-12

    def test_kernel_property(self, rng):
        # D^{1/2} 1 spans the kernel on connected graphs.
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g = build_csr(connected_edges(rng, n), n)
            x = np.sqrt(g.degrees)
            assert np.abs(laplacian_apply(g, x)).max() <= 1e-12

    def test_linearity(self, rng):
        n = 25
        g = build_csr(er_edges(rng, n, 0.3), n)
        X, Y = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
        a, b = 1.7, -0.3
        lhs = laplacian_apply(g, a * X + b * Y)
        rhs = a * laplacian_apply(g, X) + b * laplacian_apply(g, Y)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_isolated_node_acts_as_identity(self):
        g = build_csr([(0, 1)], 3)  # node 2 isolated
        out = laplacian_apply(g, [0.0, 0.0, 7.0])
        assert np.allclose(out, [0.0, 0.0, 7.0])

    def test_shape_mismatch(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError):
            laplacian_apply(g, np.zeros(3))

    def test_three_dimensional_operand_rejected(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError, match="ndim=3"):
            laplacian_apply(g, np.zeros((2, 1, 1)))


class TestShiftedApply:
    def test_k2_examples(self):
        g = build_csr(K2_EDGES, 2)
        assert np.allclose(shifted_apply(g, [1.0, 0.0]), [1.0, 1.0])
        assert np.allclose(shifted_apply(g, [1.0, 1.0]), [2.0, 2.0])

    def test_p3_matches_oracle(self):
        g = build_csr(P3_EDGES, 3)
        got = shifted_apply(g, [0.0, 1.0, 0.0])
        assert np.allclose(got, [INV_SQRT2, 1.0, INV_SQRT2], atol=1e-15)
        oracle = dense_shifted_ref(P3_EDGES, 3) @ np.array([0.0, 1.0, 0.0])
        assert np.allclose(got, oracle, atol=1e-15)

    def test_sums_with_laplacian_to_2x(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g = build_csr(er_edges(rng, n, 0.3), n)
            X = rng.normal(size=(n, 2))
            total = laplacian_apply(g, X) + shifted_apply(g, X)
            assert np.abs(total - 2.0 * X).max() <= 1e-12


class TestGcnNormApply:
    def test_k2_constant_preserved(self):
        g = build_csr(K2_EDGES, 2)
        assert np.allclose(gcn_norm_apply(g, [1.0, 1.0]), [1.0, 1.0])

    def test_isolated_single_node(self):
        g = build_csr([], 1)
        assert np.allclose(gcn_norm_apply(g, [5.0]), [5.0])

    def test_p3_matches_oracle(self):
        g = build_csr(P3_EDGES, 3)
        got = gcn_norm_apply(g, [1.0, 0.0, 0.0])
        assert np.allclose(got, [0.5, 1.0 / np.sqrt(6.0), 0.0], atol=1e-15)
        oracle = dense_gcn_norm_ref(P3_EDGES, 3) @ np.array([1.0, 0.0, 0.0])
        assert np.allclose(got, oracle, atol=1e-15)

    def test_matches_dense_on_random_graphs(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            edges = er_edges(rng, n, 0.25)
            g = build_csr(edges, n)
            x = rng.normal(size=n)
            M = dense_gcn_norm_ref(edges, n)
            assert np.abs(gcn_norm_apply(g, x) - M @ x).max() <= 1e-12


APPLIES = {
    "adjacency": (adjacency_apply, dense_adjacency),
    "laplacian": (laplacian_apply, dense_laplacian),
    "shifted": (shifted_apply, dense_shifted),
    "gcn": (gcn_norm_apply, dense_gcn_norm),
}


def _oracle_graph(kind):
    rng = np.random.default_rng(7)
    if kind == "random":
        return build_csr(er_edges(rng, 40, 0.2), 40)
    if kind == "isolated":  # nodes 20..29 have no neighbors
        return build_csr(er_edges(rng, 20, 0.3), 30)
    if kind == "no_edges":
        return build_csr([], 7)
    return build_csr([], 0)


class TestAppliesMatchDenseOracles:
    @pytest.mark.parametrize("op", sorted(APPLIES))
    @pytest.mark.parametrize("graph", ["random", "isolated", "no_edges",
                                       "empty"])
    @pytest.mark.parametrize("width", [None, 2, 16, 64])
    def test_matches_oracle(self, op, graph, width):
        apply, dense = APPLIES[op]
        g = _oracle_graph(graph)
        shape = (g.n,) if width is None else (g.n, width)
        X = np.random.default_rng(width or 1).normal(size=shape)
        got = apply(g, X)
        assert got.shape == X.shape
        assert np.abs(got - dense(g) @ X).max(initial=0.0) <= 1e-12

    def test_concurrent_first_use_matches_serial(self):
        # File datasets share one graph across fan-out worker threads, so
        # the first applies may race to build its cached operators.
        edges = er_edges(np.random.default_rng(3), 2000, 0.005)
        X = np.random.default_rng(4).normal(size=(2000, 16))
        serial_graph = build_csr(edges, 2000)
        serial = [APPLIES[op][0](serial_graph, X) for op in sorted(APPLIES)]

        shared = build_csr(edges, 2000)  # no operator built yet
        workers = 4
        start = threading.Barrier(workers, timeout=30)
        results = [None] * workers

        def worker(slot):
            start.wait()
            results[slot] = [APPLIES[op][0](shared, X)
                             for op in sorted(APPLIES)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got is not None and len(got) == len(serial)
            for a, b in zip(got, serial):
                assert np.array_equal(a, b)


class TestPermuteGraph:
    def test_identity(self, rng):
        g = build_csr(P3_EDGES, 3)
        X = rng.normal(size=(3, 2))
        gp, Xp = permute_graph(g, X, [0, 1, 2])
        assert np.array_equal(gp.adjacency.indices, g.adjacency.indices)
        assert np.array_equal(Xp, X)

    def test_k2_swap_preserves_adjacency(self):
        g = build_csr(K2_EDGES, 2)
        gp, _ = permute_graph(g, np.zeros((2, 1)), [1, 0])
        assert np.array_equal(gp.adjacency.indices, g.adjacency.indices)
        assert np.array_equal(gp.adjacency.indptr, g.adjacency.indptr)

    def test_roundtrip_bit_exact(self, rng):
        n = 20
        g = build_csr(er_edges(rng, n, 0.3), n)
        X = rng.normal(size=(n, 3))
        p = rng.permutation(n)
        inv = np.argsort(p)
        gp, Xp = permute_graph(g, X, p)
        gb, Xb = permute_graph(gp, Xp, inv)
        assert np.array_equal(gb.adjacency.indices, g.adjacency.indices)
        assert np.array_equal(gb.adjacency.indptr, g.adjacency.indptr)
        assert np.array_equal(Xb, X)

    def test_operator_equivariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g = build_csr(er_edges(rng, n, 0.3), n)
            X = rng.normal(size=(n, 2))
            p = rng.permutation(n)
            gp, Xp = permute_graph(g, X, p)
            lhs = laplacian_apply(gp, Xp)
            rhs = laplacian_apply(g, X)[p]
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_non_bijection_rejected(self):
        g = build_csr(K2_EDGES, 2)
        with pytest.raises(InputError):
            permute_graph(g, np.zeros((2, 1)), [0, 0])

    def test_matches_dense_permutation(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 30))
            g = build_csr(er_edges(rng, n, 0.3), n)
            p = rng.permutation(n)
            P = np.eye(n)[p]
            gp, _ = permute_graph(g, np.zeros((n, 1)), p)
            assert np.array_equal(dense_adjacency(gp),
                                  P @ dense_adjacency(g) @ P.T)
            for i in range(n):
                nbrs = gp.neighbors(i)
                assert np.array_equal(nbrs, np.unique(nbrs))


class TestSpectrum:
    def test_eigenvalue_range_random_graphs(self, rng):
        lo, hi = np.inf, -np.inf
        for _ in range(100):
            n = int(rng.integers(2, 51))
            g = build_csr(er_edges(rng, n, 0.2), n)
            vals = dense_eigensystem(g).values
            lo, hi = min(lo, vals.min()), max(hi, vals.max())
        assert lo >= -1e-9
        assert hi <= 2.0 + 1e-9

    def test_operators_preserve_finiteness(self, rng):
        n = 30
        g = build_csr(er_edges(rng, n, 0.2), n)
        X = rng.normal(size=(n, 4))
        for op in (laplacian_apply, shifted_apply, gcn_norm_apply):
            assert np.isfinite(op(g, X)).all()


class TestComponents:
    def test_counts(self):
        assert num_components(build_csr(P3_EDGES, 3)) == 1
        assert num_components(build_csr([(0, 1)], 4)) == 3
        labels = connected_components(build_csr([(0, 1), (2, 3)], 4))
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_labels_in_discovery_order(self):
        labels = connected_components(build_csr([(3, 4), (1, 2)], 5))
        assert labels.tolist() == [0, 1, 1, 2, 2]


class TestEdgeListIO:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1\n\n1 2\n2 1\n")
        edges = read_edge_list(path, n=3)
        g = build_csr(edges, 3)
        assert g.num_edges == 2

    def test_reads_int64_pairs_within_twice_the_array(self, tmp_path, rng):
        # The (m, 2) int64 array holds 16 B per edge; a Python tuple per
        # edge would take about 120 B.
        n = 5000
        pairs = rng.integers(0, n, size=(30000, 2))
        g = build_csr(pairs[pairs[:, 0] != pairs[:, 1]], n)
        path = tmp_path / "edges.txt"
        write_edge_list(path, g)
        edges, peak = traced_peak(read_edge_list, path, n=n)
        assert edges.dtype == np.int64 and edges.shape == (g.num_edges, 2)
        assert peak <= 2 * edges.nbytes
        g2 = build_csr(edges, n)
        assert np.array_equal(g.adjacency.indices, g2.adjacency.indices)
        assert np.array_equal(g.adjacency.indptr, g2.adjacency.indptr)

    def test_empty_file_reads_no_pairs(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# no edges\n\n")
        edges = read_edge_list(path, n=3)
        assert edges.dtype == np.int64 and edges.shape == (0, 2)

    def test_roundtrip(self, tmp_path, rng):
        n = 15
        g = build_csr(er_edges(rng, n, 0.4), n)
        path = tmp_path / "edges.txt"
        write_edge_list(path, g)
        g2 = build_csr(read_edge_list(path, n=n), n)
        assert np.array_equal(g.adjacency.indices, g2.adjacency.indices)
        assert np.array_equal(g.adjacency.indptr, g2.adjacency.indptr)

    def test_write_exact_bytes(self, tmp_path):
        g = build_csr([(2, 1), (0, 2), (2, 0)], 4)
        path = tmp_path / "edges.txt"
        write_edge_list(path, g)
        assert path.read_bytes() == b"0 2\n1 2\n"
        write_edge_list(path, build_csr([], 3))
        assert path.read_bytes() == b""

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 two\n")
        with pytest.raises(DataError) as exc:
            read_edge_list(path)
        assert exc.value.line == 2

    def test_out_of_range_reports_lineno(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n0 9\n")
        with pytest.raises(DataError) as exc:
            read_edge_list(path, n=3)
        assert exc.value.line == 2
