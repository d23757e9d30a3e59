"""Binding acceptance suite.

One test per criterion; each prints a `[criterion N] PASS/FAIL` line.
Criteria 1-5 and 9 are direct numerical checks; 6-8 are Monte Carlo
training comparisons on the declared CSBM presets with frozen seed lists
and training configs (fully deterministic). Criterion 10 runs only when
GSCNET_CORA_DIR points at exported Cora files. The protocols of 6-9 are
also committed as configs/*.json for the CLI; TestCommittedConfigs pins
each config to its protocol.

The training criteria take minutes; deselect with `-m "not slow"` during
development.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from gscnet.cli import _parse_range, build_parser
from gscnet.data import csbm_generate, csbm_params_for, load_dataset, \
    random_split
from gscnet.experiments import (ExperimentConfig, cmd_ablate_activations,
                                cmd_bench, cmd_oversmooth, cmd_sweep_degrees,
                                measure_cache_build)
from gscnet.graph import laplacian_apply, permute_graph, shifted_apply
from gscnet.model import TrainConfig, forward, init_params
from gscnet.pnca import positive_combination_check, rayleigh_quotient
from gscnet.suite import _gradcheck_instance, er_graph, gscnet_filter, \
    random_connected_graph
from gscnet.verify import (dense_eigensystem, polynomial_response,
                           spectral_filter_oracle)


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {tag} {detail}")


class TestCriterion1SpectralEquivalence:
    def test_sparse_filter_matches_eigendecomposition(self):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 51))
            g = er_graph(rng, n, 0.25)
            k1, k2 = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            alpha, beta = rng.normal(size=k1 + 1), rng.normal(size=k2 + 1)
            x = rng.normal(size=n)
            sparse = gscnet_filter(g, x, alpha, beta)
            oracle = spectral_filter_oracle(
                dense_eigensystem(g), polynomial_response(alpha, beta), x)
            denom = max(float(np.linalg.norm(oracle)), 1e-30)
            # np.maximum keeps a NaN error, which Python's max drops.
            worst = np.maximum(worst, np.linalg.norm(sparse - oracle) / denom)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed < 10.0
        report(1, ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-8
        assert elapsed < 10.0


class TestCriterion2Positivity:
    def test_nonneg_shifted_combination_is_positive(self):
        rng = np.random.default_rng(102)
        failures = 0
        for _ in range(100):
            n = int(rng.integers(2, 31))
            g = random_connected_graph(rng, n)
            k = int(rng.integers(1, 7))
            coeffs = rng.random(k + 1)
            coeffs[0] += 1e-6
            coeffs[1] += 1e-6
            if not positive_combination_check(coeffs, g).positive:
                failures += 1
        report(2, failures == 0, f"{failures} failures / 100 graphs")
        assert failures == 0


class TestCriterion3PermutationInvariance:
    def test_eval_logits_equivariant(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(3, 30))
            g = random_connected_graph(rng, n)
            d = int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            arch = ("GSCNet", "GCN", "JKNet", "BernNet")[int(rng.integers(4))]
            k2 = int(rng.integers(0, 4)) if arch == "GSCNet" else 0
            params = init_params(arch, d, 3, int(rng.integers(1, 4)), k2,
                                 seed=int(rng.integers(2**31)))
            p = rng.permutation(n)
            gp, Xp = permute_graph(g, X, p)
            base, _ = forward(params, g, X)
            perm, _ = forward(params, gp, Xp)
            worst = np.maximum(worst, np.abs(perm - base[p]).max())
        report(3, worst <= 1e-9, f"worst logit diff {worst:.2e}")
        assert worst <= 1e-9


class TestCriterion4Gradients:
    def test_twenty_instances(self):
        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(20):
            worst = np.maximum(worst, _gradcheck_instance(
                rng, arch="GSCNet", n=10, d=4))
        report(4, worst <= 1e-4, f"worst rel err {worst:.2e}")
        assert worst <= 1e-4


class TestCriterion5FrequencySurrogate:
    def test_rayleigh_monotone_under_both_operators(self):
        rng = np.random.default_rng(105)
        low_viol = high_viol = 0
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            g = er_graph(rng, n, 0.3)
            x = rng.normal(size=n)
            r = rayleigh_quotient(g, x)
            # A violation is a quotient not within its bound, NaN included;
            # a zero vector has no quotient.
            y = shifted_apply(g, x)
            if y.any() and not rayleigh_quotient(g, y) <= r + 1e-12:
                low_viol += 1
            z = laplacian_apply(g, x)
            if z.any() and not rayleigh_quotient(g, z) >= r - 1e-12:
                high_viol += 1
        ok = low_viol == 0 and high_viol == 0
        report(5, ok, f"{low_viol} low-pass / {high_viol} high-pass violations")
        assert low_viol == 0
        assert high_viol == 0


# Frozen Monte Carlo protocols for the training criteria. All seeds,
# datasets and training draws are deterministic, so these outcomes are
# stable run to run.
ABLATION_TRAIN = TrainConfig(lr_linear=0.02, lr_prop=0.05,
                             weight_decay=0.0005, dropout_linear=0.1,
                             dropout_conv=0.1, epochs=300, patience=80)
OVERSMOOTH_TRAIN = TrainConfig(lr_linear=0.02, lr_prop=0.02,
                               weight_decay=0.0005, dropout_linear=0.1,
                               dropout_conv=0.1, epochs=300, patience=100)
SWEEP_TRAIN = TrainConfig(lr_linear=0.02, lr_prop=0.05, weight_decay=0.0005,
                          dropout_linear=0.1, dropout_conv=0.1, epochs=100,
                          patience=30)
BENCH_TRAIN = TrainConfig(epochs=30, patience=30, dropout_linear=0.1,
                          dropout_conv=0.1)
TEN_SEEDS = list(range(10))
SWEEP_DEGREES = range(7)
OVERSMOOTH_DEPTHS = [2, 4, 8, 16]
BENCH_WARMUP = 5


def _csbm(regime, **overrides):
    return {"kind": "csbm", "regime": regime, **overrides}


# Each training criterion's protocol, under the name of the committed
# config (configs/<name>.json) that reproduces it through the CLI.
PROTOCOLS = {
    **{f"ablate-{regime}": ExperimentConfig(
        dataset=_csbm(regime), k1=6, k2=6, train=ABLATION_TRAIN,
        seeds=TEN_SEEDS) for regime in ("homophily", "heterophily")},
    "oversmooth-homophily": ExperimentConfig(
        dataset=_csbm("homophily"), train=OVERSMOOTH_TRAIN, seeds=TEN_SEEDS),
    **{f"sweep-{regime}": ExperimentConfig(
        dataset=_csbm(regime), train=SWEEP_TRAIN, seeds=list(range(5)))
       for regime in ("homophily", "heterophily")},
    "bench-gscnet": ExperimentConfig(
        dataset=_csbm("homophily", n=5000), arch="GSCNet", k1=3, k2=3,
        train=BENCH_TRAIN, seeds=[0]),
    "bench-bernnet": ExperimentConfig(
        dataset=_csbm("homophily", n=5000), arch="BernNet", k1=10, k2=0,
        train=BENCH_TRAIN, seeds=[0]),
}
CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


class TestCommittedConfigs:
    """`gscnet <command> --config configs/<command>-<variant>.json` runs
    exactly its criterion's protocol, and the command's default ranges are
    the criterion's, so a drift fails here instead of in a slow run."""

    def test_one_config_per_protocol(self):
        assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == \
            sorted(PROTOCOLS)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_config_equals_protocol(self, name):
        with open(CONFIG_DIR / f"{name}.json", encoding="utf-8") as f:
            config = ExperimentConfig.from_json(json.load(f))
        assert config == PROTOCOLS[name]

    def test_cli_defaults_equal_protocol_ranges(self):
        parser = build_parser()
        sweep = parser.parse_args(["sweep"])
        assert _parse_range(sweep.k1_range) == list(SWEEP_DEGREES)
        assert _parse_range(sweep.k2_range) == list(SWEEP_DEGREES)
        depths = parser.parse_args(["oversmooth"]).depths
        assert [int(d) for d in depths.split(",")] == OVERSMOOTH_DEPTHS
        assert parser.parse_args(["bench"]).warmup == BENCH_WARMUP


@pytest.mark.slow
@pytest.mark.acceptance
class TestCriterion6ActivationAblation:
    def test_pure_vs_mixed_bases(self):
        rows = {}
        for regime in ("homophily", "heterophily"):
            table = cmd_ablate_activations(PROTOCOLS[f"ablate-{regime}"])
            rows[regime] = {k: v["mean_test_acc"]
                            for k, v in table["rows"].items()}
        ho, he = rows["homophily"], rows["heterophily"]
        ok_ho = ho["positive"] > ho["negative"]
        ok_he = he["negative"] > he["positive"]
        ok_mix = (ho["mixed"] >= max(ho["positive"], ho["negative"]) - 0.01
                  and he["mixed"] >= max(he["positive"], he["negative"]) - 0.01)
        report(6, ok_ho and ok_he and ok_mix,
               f"homophily {ho} heterophily {he}")
        assert ok_ho, f"positive !> negative on homophily: {ho}"
        assert ok_he, f"negative !> positive on heterophily: {he}"
        assert ok_mix, f"mixed more than 1 point under best pure: {rows}"


@pytest.mark.slow
@pytest.mark.acceptance
class TestCriterion7Oversmoothing:
    """KNOWN RED. GCN over-smooths as claimed, but two baselines drop less
    than GSCNet. Measured drops from best over depths 2-16: GSCNet 0.0095,
    GCN 0.103, JKNet 0.0, BernNet 0.008 (table in CHANGES.md). The
    weighted-hop-sum JKNet used here subsumes its shallow variants (zeroing
    deep-hop weights recovers any smaller depth), so its depth curve never
    declines; the stacked-GCN mechanism that makes the original JKNet
    degrade with depth is not part of this model family. The assertion is
    kept as stated rather than weakened to force a pass."""

    def test_gscnet_smallest_drop(self):
        table = cmd_oversmooth(PROTOCOLS["oversmooth-homophily"],
                               OVERSMOOTH_DEPTHS)
        drops = table["drop_to_deepest"]
        others = {a: d for a, d in drops.items() if a != "GSCNet"}
        ok_smallest = drops["GSCNet"] <= min(others.values()) + 1e-12
        gcn = table["accuracy"]["GCN"]
        ok_gcn = gcn["16"] < gcn["2"]
        report(7, ok_smallest and ok_gcn,
               f"drop-from-best {dict((a, round(d, 4)) for a, d in drops.items())}, "
               f"end-to-end {dict((a, round(d, 4)) for a, d in table['decline_shallow_to_deep'].items())}")
        assert ok_gcn, f"GCN did not over-smooth: {gcn}"
        assert ok_smallest, f"GSCNet drop not smallest: {drops}"


@pytest.mark.slow
@pytest.mark.acceptance
class TestCriterion8DegreeSensitivity:
    def test_homophily_spread_not_larger(self):
        spreads = {}
        for regime in ("homophily", "heterophily"):
            spreads[regime] = cmd_sweep_degrees(
                PROTOCOLS[f"sweep-{regime}"], SWEEP_DEGREES,
                SWEEP_DEGREES)["spread"]
        ok = spreads["homophily"] <= spreads["heterophily"]
        report(8, ok, f"spreads {spreads}")
        assert ok, spreads


@pytest.mark.slow
@pytest.mark.acceptance
class TestCriterion9Timing:
    def test_per_epoch_ordering_and_cache_scaling(self):
        # Three rounds taking turns in alternating order, compared by their
        # medians, so a spell of host load falls on both models rather than
        # on one model's only run.
        order = ["GSCNet", "BernNet"]
        runs = {arch: [] for arch in order}
        for _ in range(3):
            for arch in order:
                runs[arch].append(cmd_bench(
                    PROTOCOLS[f"bench-{arch.lower()}"],
                    warmup=BENCH_WARMUP)["per_epoch_ms"])
            order.reverse()
        times = {arch: float(np.median(ms)) for arch, ms in runs.items()}
        ok_order = times["GSCNet"] < times["BernNet"]

        ds = csbm_generate(csbm_params_for("homophily", n=5000,
                                           expected_degree=40.0, seed=0))
        assert ds.graph.nnz >= 10**5
        t_small, t_big = measure_cache_build(ds, [(2, 2), (4, 4)])
        ratio = t_big / t_small
        ok_scaling = ratio <= 2.3
        report(9, ok_order and ok_scaling,
               f"per-epoch ms {dict((k, round(v, 1)) for k, v in times.items())}, "
               f"cache build ms (2,2) {1e3 * t_small:.1f}, "
               f"(4,4) {1e3 * t_big:.1f}, ratio {ratio:.2f}")
        assert ok_order, times
        assert ok_scaling, ratio


CORA_DIR = os.environ.get("GSCNET_CORA_DIR")


@pytest.mark.slow
@pytest.mark.acceptance
@pytest.mark.skipif(not CORA_DIR, reason="set GSCNET_CORA_DIR to exported "
                    "Cora files (edges.txt, features.csv, labels.txt)")
class TestCriterion10Cora:
    def test_full_supervised_cora(self):
        t0 = time.perf_counter()
        ds = load_dataset(os.path.join(CORA_DIR, "edges.txt"),
                          os.path.join(CORA_DIR, "features.csv"),
                          os.path.join(CORA_DIR, "labels.txt"))
        assert (ds.n, ds.d, ds.num_classes) == (2708, 1433, 7)
        assert ds.graph.num_edges == 5278
        train = TrainConfig(lr_linear=0.01, lr_prop=0.01, weight_decay=0.0005,
                            dropout_linear=0.3, dropout_conv=0.3, epochs=150,
                            patience=40)
        accs = []
        from gscnet.train import train_single
        for seed in range(20):
            split = random_split(ds.n, seed=seed)
            cfg = TrainConfig(**{**train.__dict__, "seed": seed})
            accs.append(train_single(ds, split, "GSCNet", 2, 2,
                                     cfg).test_acc)
        mean = float(np.mean(accs))
        elapsed = time.perf_counter() - t0
        ok = mean >= 0.85 and elapsed < 600.0
        report(10, ok, f"mean acc {mean:.4f} over 20 splits, {elapsed:.0f}s")
        assert mean >= 0.85
        assert elapsed < 600.0
