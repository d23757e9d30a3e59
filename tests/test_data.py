import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gscnet
from gscnet import data
from gscnet.data import (CsbmParams, Dataset, Split, _triu_pairs,
                         csbm_generate, csbm_params_for, load_dataset,
                         random_split, save_dataset)
from gscnet.errors import DataError, DegenerateInputError, InputError
from gscnet.graph import build_csr
from gscnet.pnca import dataset_stats, label_smoothness

from conftest import traced_peak


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

    def test_zero_feature_dimension_rejected(self):
        with pytest.raises(InputError, match="feature dimension"):
            CsbmParams(n=10, d=0)

    def test_odd_n_rejected(self):
        with pytest.raises(InputError):
            CsbmParams(n=9)


def draw_digest(ds) -> str:
    h = hashlib.sha256()
    # The pattern is hashed as int64 whatever its stored dtype, so the
    # digests pin the graph's content, not the index width.
    for arr in (ds.graph.indptr.astype(np.int64),
                ds.graph.indices.astype(np.int64), ds.features):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# sha256 over the int64 indptr, indices and features bytes, recorded before
# the pair draws were streamed in chunks: the preset graphs must not change.
PRESET_DIGESTS = {
    ("homophily", 1000, 0): "ad20f6ac4275f43fa748e4fb2e5e5165"
                            "c92dde036cbe129fc52aa55411c1d8eb",
    ("homophily", 1000, 1): "72e50f3523ef99773ad1b4559bbb8f23"
                            "22eb82804ac163ba4b56483370ec1494",
    ("homophily", 5000, 0): "86dd129852a57a120faba13c210ebf0c"
                            "d98ea446acfe7b82aa4e90e115db7564",
    ("homophily", 5000, 1): "3197164b0e321b5805fe5c69084b7d98"
                            "b23f78fb544e34810fcb68eeea756d4e",
    ("heterophily", 1000, 0): "c6544f6e05cb8728fc7035439be5048f"
                              "1d15ed2c16af493f64984830df73fa26",
    ("heterophily", 1000, 1): "dacf6d63a2bfa128ec6aeb1bf76997b1"
                              "d95347568a9675e702ae26e094e43dba",
    ("heterophily", 5000, 0): "76547b6dbee69d4addf03990c016a6cf"
                              "d8b826f999c65b9011a64431b71d05c6",
    ("heterophily", 5000, 1): "d3aeed568c432f17ad30e2ee694aa038"
                              "8d36038fa7bca84d584ac0ed582291b9",
}
# The gsc-wide-files shape: a Cora-sized homophily CSBM.
WIDE_DIGEST = ("e8260475b5be95a5001d49553b0d599a"
               "c0fc4a32de7a816adc2adc4af5b9bc2b")


class TestCsbmPairStream:
    @pytest.mark.parametrize("regime,n,seed", sorted(PRESET_DIGESTS))
    def test_preset_draws_pinned(self, regime, n, seed):
        ds = csbm_generate(csbm_params_for(regime, n=n, seed=seed))
        assert draw_digest(ds) == PRESET_DIGESTS[regime, n, seed]

    def test_wide_draw_pinned(self):
        ds = csbm_generate(csbm_params_for("homophily", n=2708, d=1433,
                                           expected_degree=3.9, seed=0))
        assert draw_digest(ds) == WIDE_DIGEST

    # The n=200 draw's blocks (at most 10,000 pairs) fit in one default
    # chunk of 2^16 pairs, so only tiny chunks split them differently. The
    # n=1000 preset's blocks (124,750, 124,750 and 250,000 pairs) take 2, 2
    # and 4 default chunks but one of 10**6 or of 1 << 20, the old default:
    # the default must give the old default's graphs.
    @pytest.mark.parametrize("params,chunk", [
        pytest.param(csbm_params_for("heterophily", n=200,
                                     expected_degree=20.0, seed=3),
                     chunk, id=str(chunk)) for chunk in (1, 7)] + [
        pytest.param(csbm_params_for("heterophily", n=1000, seed=0),
                     chunk, id=str(chunk)) for chunk in (10**6, 1 << 20)])
    def test_chunk_size_does_not_matter(self, monkeypatch, params, chunk):
        want = csbm_generate(params)
        monkeypatch.setattr(data, "PAIR_CHUNK", chunk)
        assert draw_digest(csbm_generate(params)) == draw_digest(want)

    def test_triangle_mapping_matches_triu_indices(self):
        for m in range(2, 41):
            iu, ju = np.triu_indices(m, k=1)
            i, j = _triu_pairs(np.arange(iu.size), m)
            assert np.array_equal(i, iu) and np.array_equal(j, ju)

    def test_memory_stays_below_pair_count(self):
        """n=2*10^4 has 2*10^8 pairs: int64 index arrays for them alone
        would take several GB, the chunked draw stays far below 256 MB."""
        script = ("import resource\n"
                  "from gscnet.data import csbm_generate, csbm_params_for\n"
                  "csbm_generate(csbm_params_for('homophily', n=20000))\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(gscnet.__file__)))
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert int(out.stdout) < 256 * 1024  # ru_maxrss is in KiB on Linux


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

    @pytest.mark.parametrize("masks, match", [
        ((np.ones(2, dtype=int), np.zeros(2, dtype=int),
          np.zeros(2, dtype=int)), "boolean"),
        ((np.array([True, True]), np.array([True, False]),
          np.array([False, False])), "disjoint"),
    ], ids=["not-boolean", "overlapping"])
    def test_malformed_masks_rejected(self, masks, match):
        with pytest.raises(InputError, match=match):
            Split(*masks)

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

    def test_wide_features_load_within_twice_the_array(self, tmp_path):
        # 2x leaves room for the array and np.fromiter's regrowth, but not
        # for a Python float per value (32 B against the array's 8 B).
        ds = csbm_generate(CsbmParams(n=1000, d=400, seed=0))
        paths = [tmp_path / p for p in ("e.txt", "x.csv", "y.txt")]
        save_dataset(ds, *paths)
        again, peak = traced_peak(load_dataset, *paths)
        assert again.features.tobytes() == ds.features.tobytes()
        assert peak <= 2 * again.features.nbytes

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        (tmp_path / "e.txt").write_text("\n0 1\n")
        (tmp_path / "x.csv").write_text("1.0,2.0\n\n-0.0,4.0\n\n")
        (tmp_path / "y.txt").write_text("0\n\n1\n")
        ds = load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                          tmp_path / "y.txt")
        assert ds.features.tobytes() == np.array(
            [[1.0, 2.0], [-0.0, 4.0]]).tobytes()
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1]
        (tmp_path / "x.csv").write_text("1.0,2.0\n\n3.0\n")
        with pytest.raises(DataError) as exc:
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")
        assert exc.value.line == 3

    def test_empty_files_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.csv").write_text("\n")
        (tmp_path / "y.txt").write_text("0\n1\n")
        with pytest.raises(DataError, match="feature file is empty"):
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.txt").write_text("")
        with pytest.raises(DataError, match="label file is empty"):
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")

    @pytest.mark.parametrize("name,text,line", [
        ("e.txt", "# header\n\n0 1\n0 2\n", 4),
        ("e.txt", "# header\n\n0 1\n1 1\n", 4),
        ("y.txt", "0\n\n-1\n", 3),
        ("x.csv", "1.0,2.0\n\nnan,1.0\n", 3),
        ("e.txt", "# header\n\n0 1\n1 99999999999999999999\n", 4),
        ("y.txt", "0\n\n99999999999999999999\n", 3),
    ], ids=["edge-out-of-range", "edge-self-loop", "negative-label",
            "nan-feature", "edge-int64-overflow", "label-int64-overflow"])
    def test_value_error_names_line_after_skipped_lines(self, tmp_path, name,
                                                        text, line):
        # Range, loops and finiteness are checked on the whole array, and
        # the bad row's line is found by a second read that must skip the
        # same lines; an int64 overflow is caught while its line is parsed.
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.csv").write_text("1.0,2.0\n3.0,4.0\n")
        (tmp_path / "y.txt").write_text("0\n1\n")
        (tmp_path / name).write_text(text)
        with pytest.raises(DataError) as exc:
            load_dataset(tmp_path / "e.txt", tmp_path / "x.csv",
                         tmp_path / "y.txt")
        assert exc.value.path == tmp_path / name
        assert exc.value.line == line

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

    @pytest.mark.parametrize("features, labels, match", [
        (np.zeros((3, 1)), np.array([0, 1]), "feature rows"),
        (np.zeros((2, 1)), np.array([0, 1, 0]), "labels shape"),
    ], ids=["feature-rows", "label-count"])
    def test_shape_mismatch_rejected(self, features, labels, match):
        g = build_csr([(0, 1)], 2)
        with pytest.raises(InputError, match=match):
            Dataset(graph=g, features=features, labels=labels, num_classes=2)

    def test_nan_features_rejected(self):
        g = build_csr([(0, 1)], 2)
        with pytest.raises(InputError):
            Dataset(graph=g, features=np.array([[np.nan], [0.0]]),
                    labels=np.array([0, 1]), num_classes=2)

    def test_stats_reports_smoothness(self):
        ds = csbm_generate(CsbmParams(n=50, d=3, seed=0))
        stats = dataset_stats(ds)
        assert stats["nodes"] == 50
        assert 0.0 <= stats["label_smoothness"] <= 1.0
        assert stats["components"] >= 1
