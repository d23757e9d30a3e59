import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscnet.data import (CsbmParams, Dataset, Split, csbm_generate,
                         csbm_params_for, load_dataset, random_split,
                         save_dataset)
from gscnet.errors import DataError, DegenerateInputError, InputError
from gscnet.graph import build_csr
from gscnet.pnca import label_smoothness


class TestCsbmGenerate:
    def test_deterministic_limit_two_cliques(self):
        params = CsbmParams(n=8, p_intra=1.0, p_inter=0.0, mu=2.0, sigma=0.0,
                            d=4, seed=0)
        ds = csbm_generate(params)
        # Each block is a K4; no cross edges.
        assert ds.graph.num_edges == 2 * (4 * 3 // 2)
        assert label_smoothness(ds.graph, ds.labels) == 0.0
        u = ds.features[0] / np.linalg.norm(ds.features[0])
        assert np.allclose(ds.features[:4], 2.0 * u)
        assert np.allclose(ds.features[4:], -2.0 * u)

    def test_balanced_classes(self):
        ds = csbm_generate(CsbmParams(n=100, d=4, seed=1))
        assert (ds.labels == 0).sum() == 50
        assert ds.num_classes == 2

    @pytest.mark.slow
    def test_equal_probabilities_half_smooth(self):
        # Expected cross fraction n/(2(n-1)) ~ 0.5.
        vals = []
        for seed in range(20):
            p = 10.0 / 499.0
            ds = csbm_generate(CsbmParams(n=500, p_intra=p, p_inter=p,
                                          d=4, seed=seed))
            vals.append(label_smoothness(ds.graph, ds.labels))
        assert abs(np.mean(vals) - 0.5) <= 0.05

    @pytest.mark.slow
    def test_homophily_preset_is_smooth(self):
        vals = []
        for seed in range(20):
            ds = csbm_generate(CsbmParams(n=1000, p_intra=10 / 1000 * 2,
                                          p_inter=2 / 1000 * 2, seed=seed))
            vals.append(label_smoothness(ds.graph, ds.labels))
        assert all(v <= 0.25 for v in vals)

    @pytest.mark.slow
    def test_smoothness_decreases_with_intra_ratio(self):
        # Fixed expected degree, rising intra/inter ratio.
        n, deg = 500, 10.0
        half = n // 2
        means = []
        for ratio in (0.5, 1.0, 2.0, 5.0):
            p_inter = deg / (ratio * (half - 1) + half)
            vals = []
            for seed in range(20):
                ds = csbm_generate(CsbmParams(n=n, p_intra=ratio * p_inter,
                                              p_inter=p_inter, d=4, seed=seed))
                vals.append(label_smoothness(ds.graph, ds.labels))
            means.append(np.mean(vals))
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_presets_expected_degree(self):
        for regime in ("homophily", "heterophily"):
            params = csbm_params_for(regime, n=1000, expected_degree=10.0)
            half = 500
            expected = params.p_intra * (half - 1) + params.p_inter * half
            assert expected == pytest.approx(10.0)

    def test_degenerate_probabilities_rejected(self):
        with pytest.raises(DegenerateInputError):
            CsbmParams(n=10, p_intra=0.0, p_inter=0.0)

    def test_odd_n_rejected(self):
        with pytest.raises(InputError):
            CsbmParams(n=9)


class TestRandomSplit:
    def test_ratio_sizes(self):
        s = random_split(10, seed=0)
        assert (s.train.sum(), s.val.sum(), s.test.sum()) == (6, 2, 2)

    def test_remainder_goes_to_train(self):
        s = random_split(5, seed=0)
        assert (s.train.sum(), s.val.sum(), s.test.sum()) == (3, 1, 1)

    def test_same_seed_identical(self):
        a, b = random_split(40, seed=9), random_split(40, seed=9)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)

    def test_bad_ratios_rejected(self):
        with pytest.raises(InputError):
            random_split(10, ratios=(0.5, 0.2, 0.2), seed=0)

    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_masks_partition_nodes(self, n):
        s = random_split(n, seed=n)
        stacked = s.train.astype(int) + s.val.astype(int) + s.test.astype(int)
        assert (stacked == 1).all()


class TestLoaders:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        ds = csbm_generate(CsbmParams(n=30, d=5, seed=4))
        paths = [tmp_path / p for p in ("e.txt", "x.csv", "y.txt")]
        save_dataset(ds, *paths)
        again = load_dataset(*paths)
        assert np.array_equal(again.features, ds.features)
        assert np.array_equal(again.labels, ds.labels)
        A, B = again.graph.adjacency, ds.graph.adjacency
        assert np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.indptr, B.indptr)

    def test_two_node_toy(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.csv").write_text("1.5,2.0\n-1.0,0.5\n")
        (tmp_path / "y.txt").write_text("0\n1\n")
        ds = load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                          tmp_path / "y.txt")
        assert ds.n == 2 and ds.d == 2 and ds.num_classes == 2
        assert np.allclose(ds.features[0], [1.5, 2.0])

    def test_truncated_feature_row_reports_line(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.csv").write_text("1.0,2.0\n3.0\n")
        (tmp_path / "y.txt").write_text("0\n1\n")
        with pytest.raises(DataError) as exc:
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")
        assert exc.value.line == 2

    def test_label_count_mismatch(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.txt").write_text("0\n")
        with pytest.raises(DataError):
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")

    def test_negative_label_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.txt").write_text("0\n-2\n")
        with pytest.raises(DataError) as exc:
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")
        assert exc.value.line == 2

    def test_unparseable_feature_reports_line(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0,2.0\n1.0,oops\n")
        (tmp_path / "y.txt").write_text("0\n0\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        with pytest.raises(DataError) as exc:
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")
        assert exc.value.line == 2


class TestDatasetInvariants:
    def test_label_range_enforced(self, rng):
        g = build_csr([(0, 1)], 2)
        with pytest.raises(InputError):
            Dataset(graph=g, features=np.zeros((2, 2)),
                    labels=np.array([0, 5]), num_classes=2)

    def test_nan_features_rejected(self):
        g = build_csr([(0, 1)], 2)
        with pytest.raises(InputError):
            Dataset(graph=g, features=np.array([[np.nan], [0.0]]),
                    labels=np.array([0, 1]), num_classes=2)

    def test_stats_reports_smoothness(self):
        ds = csbm_generate(CsbmParams(n=50, d=3, seed=0))
        stats = ds.stats()
        assert stats["nodes"] == 50
        assert 0.0 <= stats["label_smoothness"] <= 1.0
        assert stats["components"] >= 1

    def test_stats_reports_self_loops(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n2 2\n1 2\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "y.txt").write_text("0\n1\n0\n")
        ds = load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                          tmp_path / "y.txt")
        assert ds.stats()["self_loops"] == 1
        assert csbm_generate(CsbmParams(n=50, d=3)).stats()["self_loops"] == 0
