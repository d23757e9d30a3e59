import copy
import dataclasses
import sys

import numpy as np
import pytest

from gscnet.data import (csbm_generate, csbm_params_for, CsbmParams,
                         random_split)
from gscnet.errors import InputError
from gscnet import graph, model, train, verify
from gscnet.graph import build_csr, permute_graph
from gscnet.model import (ARCHITECTURES, HIDDEN_UNITS, AdamState, MlpBuffers,
                          TrainConfig, accuracy, adam_step, forward,
                          init_params, loss_and_grad, predict, propagation,
                          softmax_cross_entropy)
from gscnet.suite import _gradcheck_instance, random_connected_graph
from gscnet.train import evaluate, train_single
from gscnet.basis import combine, operator_powers

from conftest import (K2_EDGES, connected_edges, dense_gcn_norm_ref,
                      dense_laplacian_ref, dense_shifted_ref, er_edges,
                      traced_peak)


def mlp_eval(params, X):
    h1 = np.maximum(X @ params.w1 + params.b1, 0.0)
    return h1 @ params.w2 + params.b2


def matrix_power(M, k):
    out = np.eye(M.shape[0])
    for _ in range(k):
        out = out @ M
    return out


class TestInit:
    def test_filter_coefficients_all_ones(self):
        params = init_params("GSCNet", 4, 3, 2, 1, seed=0)
        na = params.prop.na
        assert np.array_equal(params.c[:na], [1.0, 1.0, 1.0])
        assert np.array_equal(params.c[na:], [1.0, 1.0])

    def test_same_seed_bit_identical(self):
        a = init_params("GSCNet", 5, 2, 2, 2, seed=7)
        b = init_params("GSCNet", 5, 2, 2, 2, seed=7)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_mlp_weight_scale(self):
        # U(-s, s) with s = 1/sqrt(fan_in) has std s/sqrt(3).
        d_in = 100
        params = init_params("GSCNet", d_in, 2, 1, 1, seed=3)
        target = (1.0 / np.sqrt(d_in)) / np.sqrt(3.0)
        assert abs(params.w1.std() - target) / target < 0.2
        assert np.array_equal(params.b1, np.zeros(64))

    def test_baseline_coefficient_layouts(self):
        # The degrees are kept as given; the coefficient sizes follow them.
        for arch, k1, k2, sizes in [("GSCNet", 2, -1, (3, 0)),
                                    ("GCN", 3, 0, (0, 0)),
                                    ("JKNet", 3, 0, (3, 0)),
                                    ("BernNet", 3, 0, (4, 0))]:
            params = init_params(arch, 4, 2, k1, k2, seed=0)
            assert (params.prop.k1, params.prop.k2) == (k1, k2)
            assert (params.prop.na, params.prop.nb) == sizes
            na = params.prop.na
            assert (params.c[:na].size, params.c[na:].size) == sizes

    def test_unknown_arch_rejected(self):
        with pytest.raises(InputError):
            init_params("GAT", 4, 2, 1, 1, seed=0)

    def test_gscnet_without_a_family_rejected(self):
        with pytest.raises(InputError, match="at least one family"):
            init_params("GSCNet", 4, 2, -1, -1, seed=0)


class TestForward:
    def test_identity_filter_equals_mlp(self, rng):
        g = build_csr(K2_EDGES, 2)
        X = rng.normal(size=(2, 4))
        params = init_params("GSCNet", 4, 3, 0, -1, seed=1)
        logits, _ = forward(params, g, X)
        assert np.allclose(logits, mlp_eval(params, X))

    def test_zero_output_layer(self, rng):
        g = build_csr(K2_EDGES, 2)
        X = rng.normal(size=(2, 4))
        params = init_params("GSCNet", 4, 3, 2, 2, seed=1)
        params.w2[:] = 0.0
        params.b2[:] = 0.0
        logits, _ = forward(params, g, X)
        assert np.array_equal(logits, np.zeros((2, 3)))

    def test_crafted_1d_weights_match_dense_composition(self):
        g = build_csr(K2_EDGES, 2)
        X = np.array([[1.0], [0.0]])
        params = init_params("GSCNet", 1, 1, 1, 1, seed=0, hidden=1)
        params.w1[:] = 1.0
        params.b1[:] = 0.0
        params.w2[:] = 1.0
        params.b2[:] = 0.0
        na = params.prop.na
        params.c[:na] = [0.5, 2.0]
        params.c[na:] = [0.25, -1.0]
        logits, _ = forward(params, g, X)
        H = np.maximum(X @ params.w1, 0.0) @ params.w2
        S = dense_shifted_ref(K2_EDGES, 2)
        L = dense_laplacian_ref(K2_EDGES, 2)
        dense = (0.5 * np.eye(2) + 2.0 * S + 0.25 * np.eye(2) - 1.0 * L) @ H
        assert np.abs(logits - dense).max() <= 1e-12

    def test_eval_deterministic_train_seeded(self, rng):
        g = build_csr(connected_edges(rng, 12), 12)
        X = rng.normal(size=(12, 5))
        params = init_params("GSCNet", 5, 2, 2, 1, seed=0)
        a, _ = forward(params, g, X)
        b, _ = forward(params, g, X)
        assert np.array_equal(a, b)
        t1, _ = forward(params, g, X, rng=np.random.default_rng(5),
                        dropout_linear=0.3, dropout_conv=0.3)
        t2, _ = forward(params, g, X, rng=np.random.default_rng(5),
                        dropout_linear=0.3, dropout_conv=0.3)
        assert np.array_equal(t1, t2)

    def test_train_dropout_masks_match_contract(self, rng):
        n, d, d_out, rate_lin, rate_conv = 40, 7, 3, 0.3, 0.2
        g = build_csr(connected_edges(rng, n), n)
        X = rng.normal(size=(n, d))
        X_before = X.copy()
        params = init_params("GSCNet", d, d_out, 2, 1, seed=0)
        gen = np.random.default_rng(11)
        ref = copy.deepcopy(gen)
        _, tape = forward(params, g, X, rng=gen,
                          dropout_linear=rate_lin, dropout_conv=rate_conv)
        mask_lin = (ref.random((n, d)) >= rate_lin).astype(np.float64) \
            / (1 - rate_lin)
        mask_conv = (ref.random((n, d_out)) >= rate_conv).astype(np.float64) \
            / (1 - rate_conv)
        # Bytes, not values: a dropped negative feature is -0.0.
        assert tape["Xd"].tobytes() == (X * mask_lin).tobytes()
        assert tape["mask_conv"].tobytes() == mask_conv.tobytes()
        assert X.tobytes() == X_before.tobytes()
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_dropout_needs_rng(self, rng):
        g = build_csr(K2_EDGES, 2)
        params = init_params("GSCNet", 4, 2, 1, 1, seed=0)
        with pytest.raises(InputError, match="rng"):
            forward(params, g, rng.normal(size=(2, 4)), dropout_conv=0.1)

    def test_width_mismatch_rejected(self, rng):
        g = build_csr(K2_EDGES, 2)
        params = init_params("GSCNet", 4, 2, 1, 1, seed=0)
        with pytest.raises(InputError):
            forward(params, g, rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("X", [np.zeros(5), np.zeros((4, 3))],
                             ids=["vector", "row-count"])
    def test_feature_shape_rejected(self, X):
        g = build_csr(connected_edges(np.random.default_rng(0), 5), 5)
        params = init_params("GSCNet", 3, 2, 1, 1, seed=0)
        with pytest.raises(InputError, match="features of shape"):
            forward(params, g, X)

    @pytest.mark.parametrize("arch,k1", [("GCN", 3), ("JKNet", 3), ("BernNet", 3)])
    def test_baselines_match_dense_formulas(self, rng, arch, k1):
        n = 18
        edges = er_edges(rng, n, 0.3)
        g = build_csr(edges, n)
        X = rng.normal(size=(n, 4))
        params = init_params(arch, 4, 3, k1, 0, seed=2)
        if params.c.size:
            params.c[:] = rng.normal(size=params.c.shape)
        alpha = params.c[:params.prop.na]
        logits, _ = forward(params, g, X)

        H = mlp_eval(params, X)
        M = dense_gcn_norm_ref(edges, n)
        S = dense_shifted_ref(edges, n)
        L = dense_laplacian_ref(edges, n)
        if arch == "GCN":
            dense = matrix_power(M, k1) @ H
        elif arch == "JKNet":
            dense = sum(a * matrix_power(M, k + 1) @ H
                        for k, a in enumerate(alpha))
        else:  # BernNet: coefficient k multiplies (2I-L)^k L^{K-k}
            dense = sum(a * matrix_power(S, k) @ matrix_power(L, k1 - k) @ H
                        for k, a in enumerate(alpha))
        assert np.abs(logits - dense).max() <= 1e-9

    def test_end_to_end_permutation_equivariance(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 20))
            g = build_csr(connected_edges(rng, n), n)
            X = rng.normal(size=(n, 3))
            arch = ["GSCNet", "GCN", "JKNet", "BernNet"][int(rng.integers(4))]
            params = init_params(arch, 3, 2, 2, 2 if arch == "GSCNet" else 0,
                                 seed=int(rng.integers(1000)))
            p = rng.permutation(n)
            gp, Xp = permute_graph(g, X, p)
            base, _ = forward(params, g, X)
            perm, _ = forward(params, gp, Xp)
            assert np.abs(perm - base[p]).max() <= 1e-9
            assert np.array_equal(predict(perm), predict(base)[p])


class TestLoss:
    def test_uniform_logits_max_entropy(self):
        logits = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        loss, _ = softmax_cross_entropy(logits, labels,
                                        np.ones(5, dtype=bool))
        assert loss == pytest.approx(np.log(4.0))

    def test_confident_correct_logit(self):
        logits = np.zeros((3, 2))
        logits[1, 1] = 50.0
        mask = np.array([False, True, False])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, 0]), mask)
        assert loss < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(InputError):
            softmax_cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int),
                                  np.zeros(2, dtype=bool))

    def test_huge_logits_stay_finite(self):
        logits = np.array([[1e5, -1e5], [-1e5, 1e5]])
        loss, dZ = softmax_cross_entropy(logits, np.array([1, 1]),
                                         np.ones(2, dtype=bool))
        assert np.isfinite(loss) and np.isfinite(dZ).all()


class TestGradients:
    @pytest.mark.parametrize("arch", ["GSCNet", "GCN", "JKNet", "BernNet"])
    def test_matches_finite_differences(self, arch):
        rng = np.random.default_rng(ARCHITECTURES.index(arch))
        # np.max keeps a NaN, which Python's max over a generator can skip.
        worst = np.max([_gradcheck_instance(rng, arch=arch) for _ in range(5)])
        assert worst <= 1e-4

    def test_instance_near_relu_kink_redrawn(self):
        """This stream's fourth draw has a pre-activation 8.6e-6 from 0,
        closer than the finite-difference step; checked as drawn, w1's
        gradient reads 6.3e-3 off."""
        rng = np.random.default_rng(171816597)
        worst = np.max([_gradcheck_instance(rng, arch="GSCNet")
                        for _ in range(5)])
        assert worst <= 1e-4

    def test_pure_negative_family(self, rng):
        worst = _gradcheck_instance(rng, arch="GSCNet", k1=-1, k2=3)
        assert worst <= 1e-4

    @pytest.mark.parametrize("k1,k2", [(3, 1), (1, 4), (-1, 3), (2, -1)])
    def test_gscnet_coefficient_gradients_are_dense_block_products(
            self, rng, k1, k2):
        """alpha_i's gradient is <dZ, P_i H> and beta_j's is <dZ, Q_j H>,
        with P_i = (2I-L)^i and Q_j = L^j built densely; c = (alpha, beta)
        splits at prop.na."""
        n = 16
        edges = connected_edges(rng, n)
        g = build_csr(edges, n)
        X = rng.normal(size=(n, 4))
        labels = rng.integers(0, 3, size=n)
        mask = rng.random(n) < 0.5
        mask[0] = True
        params = init_params("GSCNet", 4, 3, k1, k2, seed=1)
        params.c[:] = rng.normal(size=params.c.shape)
        cfg = TrainConfig(dropout_conv=0.0, dropout_linear=0.0)
        _, grads = loss_and_grad(params, g, X, labels, mask, cfg)

        logits, _ = forward(params, g, X)
        _, dZ = softmax_cross_entropy(logits, labels, mask)
        H = mlp_eval(params, X)
        S = dense_shifted_ref(edges, n)
        L = dense_laplacian_ref(edges, n)
        na = params.prop.na
        for dc, M, k in ((grads["c"][:na], S, k1), (grads["c"][na:], L, k2)):
            assert dc.size == k + 1  # none for a family switched off
            if k < 0:
                continue
            dense = [float(np.vdot(dZ, matrix_power(M, i) @ H))
                     for i in range(k + 1)]
            scale = max(np.abs(dense).max(), 1e-30)
            assert np.abs(dc - dense).max() <= 1e-10 * scale

    def test_wide_input_dropout_within_twice_the_features(self):
        # The input mask, its keep comparison included, is built in its
        # uniforms' buffer, which then becomes Xd: one n x d float array,
        # plus the MLP's n x 64 arrays.
        ds = csbm_generate(CsbmParams(n=1000, d=400, seed=0))
        split = random_split(ds.n, seed=0)
        params = init_params("GSCNet", ds.d, 2, 2, 2, seed=0)
        cfg = TrainConfig(dropout_linear=0.1)
        gen = np.random.default_rng(0)
        args = (params, ds.graph, ds.features, ds.labels, split.train, cfg)
        loss_and_grad(*args, rng=gen)  # warm: builds the graph operators
        _, peak = traced_peak(loss_and_grad, *args, rng=gen)
        assert peak <= 2 * ds.features.nbytes


class TestPropagationResponses:
    """`Propagation.apply`, the path training runs, against each
    architecture's closed-form scalar response on the dense eigensystem:
    BernNet in L's spectrum, GCN and JKNet in M's."""

    @pytest.mark.parametrize("arch,K", [("GCN", 0), ("GCN", 4), ("JKNet", 1),
                                        ("JKNet", 6), ("BernNet", 0),
                                        ("BernNet", 5)])
    def test_matches_spectral_response(self, rng, arch, K):
        for _ in range(5):
            n = int(rng.integers(4, 31))
            g = random_connected_graph(rng, n)
            X = rng.normal(size=(n, 3))
            prop = propagation(arch, K, 0)
            alpha = rng.normal(size=prop.na)
            if arch == "BernNet":
                eig = verify.dense_eigensystem(g)

                def h(lam):
                    return sum(a * (2.0 - lam) ** k * lam ** (K - k)
                               for k, a in enumerate(alpha))
            else:
                eig = verify.symmetric_eigensystem(verify.dense_gcn_norm(g))

                def h(mu):
                    if arch == "GCN":
                        return mu ** K
                    return sum(a * mu ** (k + 1) for k, a in enumerate(alpha))
            Z, _ = prop.apply(alpha, g, X)
            oracle = verify.spectral_filter_oracle(eig, h, X)
            rel = np.linalg.norm(Z - oracle) \
                / max(np.linalg.norm(oracle), 1e-30)
            assert rel <= 1e-8


class TestPropagation:
    def test_weight_map_is_read_only(self):
        prop = propagation("GSCNet", 2, 2)
        with pytest.raises(ValueError):
            prop.W[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            prop.W = np.eye(3)
        assert propagation("JKNet", 3, 0).W.flags.writeable is False

    def test_run_builds_weight_map_once(self, monkeypatch):
        calls = []

        def counted(k1, k2, _real=model.gsc_weights):
            calls.append((k1, k2))
            return _real(k1, k2)
        monkeypatch.setattr(model, "gsc_weights", counted)
        ds = csbm_generate(CsbmParams(n=60, d=6, seed=3))
        train_single(ds, random_split(ds.n, seed=3), "GSCNet", 2, 1,
                     TrainConfig(epochs=10, patience=10))
        assert calls == [(2, 1)]


class TestSelfAdjoint:
    """The backward runs each propagation P on dZ, which is right only
    because P is its own adjoint, <U, P V> = <P U, V>. The gradient checks
    see that at n = 10; this checks it on a preset graph beyond the dense
    oracle's guard."""

    @pytest.fixture(scope="class")
    def preset_graph(self):
        params = csbm_params_for("heterophily", n=2000, seed=0)
        return csbm_generate(params).graph

    @pytest.mark.parametrize("arch, k1, k2", [
        ("GSCNet", 3, 2), ("GSCNet", -1, 4), ("GCN", 4, 0), ("JKNet", 4, 0),
        ("BernNet", 5, 0)])
    def test_inner_products_agree(self, preset_graph, rng, arch, k1, k2):
        g = preset_graph
        prop = propagation(arch, k1, k2)
        c = rng.normal(size=prop.na + prop.nb)
        U, V = rng.normal(size=(2, g.n, 3))
        PU, PV = (prop.apply(c, g, X)[0] for X in (U, V))
        gap = abs(np.vdot(U, PV) - np.vdot(PU, V))
        assert gap <= 1e-12 * np.linalg.norm(U) * np.linalg.norm(PV)


def gcn_propagate(g, X, depth):
    """GCN's propagation M^depth X, as training runs it."""
    return propagation("GCN", depth, 0).apply(np.zeros(0), g, X)[0]


class TestGcnPropagation:
    def test_zero_steps_identity(self, rng):
        g = build_csr(K2_EDGES, 2)
        X = rng.normal(size=(2, 2))
        assert np.array_equal(gcn_propagate(g, X, 0), X)

    def test_constant_preserved_on_k2(self):
        g = build_csr(K2_EDGES, 2)
        assert np.allclose(gcn_propagate(g, np.array([1.0, 1.0]), 1),
                           [1.0, 1.0])

    def test_matches_dense_power(self, rng):
        edges = er_edges(rng, 12, 0.4)
        g = build_csr(edges, 12)
        x = rng.normal(size=12)
        M = dense_gcn_norm_ref(edges, 12)
        dense = matrix_power(M, 3) @ x
        rel = np.linalg.norm(gcn_propagate(g, x, 3) - dense) \
            / max(np.linalg.norm(dense), 1e-30)
        assert rel <= 1e-10

    def test_gcn_and_jknet_share_one_recurrence(self, rng):
        """GCN's output is the last M power and JKNet's the weighted sum of
        the powers after V, bit for bit: the identity W changes nothing."""
        n, K = 15, 4
        g = build_csr(connected_edges(rng, n), n)
        X = rng.normal(size=(n, 3))
        powers = operator_powers(graph.gcn_norm_apply, g, X, K)
        assert gcn_propagate(g, X, K).tobytes() == powers[-1].tobytes()
        alpha = rng.normal(size=K)
        Z, _ = propagation("JKNet", K, 0).apply(alpha, g, X)
        assert Z.tobytes() == combine(powers[1:], alpha).tobytes()


def applies_per_pass(arch, k1, k2):
    """Sparse applies one propagation pass costs."""
    if arch == "GSCNet":  # one Krylov sequence serves both families
        return max(k1, k2, 0)
    if arch == "BernNet":  # shared L powers, then 2I-L k times for term k
        return k1 + k1 * (k1 + 1) // 2
    return k1  # GCN depth, JKNet degree


class TestSparseApplyCounts:
    @pytest.fixture
    def applies(self, monkeypatch):
        """Counts every public sparse apply of `gscnet.graph`, wherever
        gscnet imported it from."""
        calls = []
        names = [name for name in vars(graph)
                 if name.endswith("_apply") and not name.startswith("_")]
        assert "normalized_apply" in names
        for name in names:
            original = getattr(graph, name)

            def counted(g, X, _apply=original, _name=name):
                calls.append(_name)
                return _apply(g, X)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "gscnet" \
                        and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    @pytest.mark.parametrize("arch,k1,k2", [
        ("GSCNet", 3, 3), ("GSCNet", -1, 4), ("GSCNet", 2, -1),
        ("GSCNet", 0, 0), ("GCN", 3, 0), ("GCN", 0, 0), ("JKNet", 4, 0),
        ("JKNet", 1, 0), ("BernNet", 5, 0), ("BernNet", 10, 0),
        ("BernNet", 0, 0)])
    def test_per_pass(self, applies, rng, arch, k1, k2):
        n = 12
        g = build_csr(connected_edges(rng, n), n)
        X = rng.normal(size=(n, 3))
        params = init_params(arch, 3, 2, k1, k2, seed=0)
        per_pass = applies_per_pass(arch, k1, k2)

        loss_and_grad(params, g, X, np.arange(n) % 2, np.ones(n, bool),
                      TrainConfig(), rng=rng)
        assert len(applies) == 2 * per_pass  # forward, then backward
        applies.clear()
        forward(params, g, X)
        assert len(applies) == per_pass


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = init_params("GSCNet", 3, 2, 1, 1, seed=0)
        before = copy.deepcopy(params)
        grads = {k: np.zeros_like(v) for k, v in params.trainable().items()}
        cfg = TrainConfig(weight_decay=0.0)
        adam_step(params, grads, AdamState.for_params(params), cfg)
        for k, v in params.trainable().items():
            assert np.array_equal(v, before.trainable()[k])

    def test_first_step_size(self):
        # First bias-corrected step moves by ~lr regardless of grad scale.
        params = init_params("GSCNet", 1, 1, 0, -1, seed=0, hidden=1)
        params.w1[:] = 1.0
        grads = {k: np.zeros_like(v) for k, v in params.trainable().items()}
        grads["w1"][:] = 1.0
        cfg = TrainConfig(lr_linear=0.1, weight_decay=0.0)
        adam_step(params, grads, AdamState.for_params(params), cfg)
        delta = 1.0 - params.w1[0, 0]
        assert abs(delta - 0.1) <= 1e-7

    def test_constant_gradient_monotone(self):
        params = init_params("GSCNet", 1, 1, 0, -1, seed=0, hidden=1)
        params.w1[:] = 1.0
        state = AdamState.for_params(params)
        cfg = TrainConfig(lr_linear=0.1, weight_decay=0.0)
        grads = {k: np.zeros_like(v) for k, v in params.trainable().items()}
        grads["w1"][:] = 1.0
        values = [params.w1[0, 0]]
        for _ in range(2):
            adam_step(params, grads, state, cfg)
            values.append(params.w1[0, 0])
        assert values[0] > values[1] > values[2]

    def test_weight_decay_only_on_mlp_weights(self):
        params = init_params("GSCNet", 2, 2, 1, 1, seed=0)
        before = copy.deepcopy(params)
        grads = {k: np.zeros_like(v) for k, v in params.trainable().items()}
        cfg = TrainConfig(weight_decay=0.1)
        adam_step(params, grads, AdamState.for_params(params), cfg)
        # Decay moves the MLP weights but not biases or filter coefficients.
        assert not np.array_equal(params.w1, before.w1)
        assert not np.array_equal(params.w2, before.w2)
        assert np.array_equal(params.b1, before.b1)
        assert np.array_equal(params.c, [1.0, 1.0, 1.0, 1.0])
        # Large entries shrink toward zero.
        big = np.abs(before.w1) > 2 * cfg.lr_linear
        assert (np.abs(params.w1)[big] < np.abs(before.w1)[big]).all()


class TestPredict:
    def test_argmax(self):
        assert predict(np.array([[0.1, 0.9]]))[0] == 1

    def test_tie_breaks_low(self):
        assert predict(np.array([[0.5, 0.5]]))[0] == 0

    def test_row_permutation(self, rng):
        logits = rng.normal(size=(10, 3))
        p = rng.permutation(10)
        assert np.array_equal(predict(logits[p]), predict(logits)[p])

    def test_non_finite_rows_count_as_wrong(self):
        logits = np.array([[np.nan, 0.0], [0.0, np.inf], [0.0, 1.0]])
        assert accuracy(logits, [0, 1, 1], [True, True, True]) == \
            pytest.approx(1 / 3)


class TestMlpBuffers:
    def test_buffers_change_no_bytes(self):
        ds = csbm_generate(CsbmParams(n=60, d=6, seed=3))
        split = random_split(ds.n, seed=3)
        params = init_params("GSCNet", ds.d, 2, 2, 1, seed=3)
        cfg = TrainConfig(dropout_linear=0.3, dropout_conv=0.3)
        buffers = MlpBuffers.for_params(params, ds.n)
        args = (params, ds.graph, ds.features, ds.labels, split.train, cfg)
        loss, grads = loss_and_grad(*args, rng=np.random.default_rng(1))
        loss_b, grads_b = loss_and_grad(*args, rng=np.random.default_rng(1),
                                        buffers=buffers)
        assert loss_b == loss and grads_b.keys() == grads.keys()
        assert all(grads_b[k].tobytes() == grads[k].tobytes() for k in grads)
        assert evaluate(params, ds, split, buffers) == \
            evaluate(params, ds, split)
        logits, _ = forward(params, ds.graph, ds.features)
        logits_b, tape = forward(params, ds.graph, ds.features,
                                 buffers=buffers)
        assert logits_b.tobytes() == logits.tobytes()
        assert tape["h1"] is buffers.h1

    def test_epoch_allocates_no_hidden_array(self):
        # With run buffers, a training pass and its evaluation allocate
        # only n x d and n x classes arrays, none of n x 64.
        ds = csbm_generate(CsbmParams(n=4000, d=4, seed=0))
        split = random_split(ds.n, seed=0)
        params = init_params("GSCNet", ds.d, 2, 2, 2, seed=0)
        buffers = MlpBuffers.for_params(params, ds.n)
        gen = np.random.default_rng(0)

        def epoch():
            loss_and_grad(params, ds.graph, ds.features, ds.labels,
                          split.train, TrainConfig(), rng=gen,
                          buffers=buffers)
            evaluate(params, ds, split, buffers)

        epoch()  # warm: builds the graph operators
        _, peak = traced_peak(epoch)
        assert peak < ds.n * HIDDEN_UNITS * 8

    def test_run_holds_one_hidden_array(self):
        # A run's n x 64 float arrays are h1 alone: the backward writes
        # da1 over it, so the run peaks below two of them.
        ds = csbm_generate(CsbmParams(n=4000, d=4, seed=0))
        split = random_split(ds.n, seed=0)
        ds.graph.normalized_adjacency  # built before the trace
        _, peak = traced_peak(train_single, ds, split, "GSCNet", 2, 2,
                              TrainConfig(epochs=3))
        assert peak < 2 * ds.n * HIDDEN_UNITS * 8


class TestTraining:
    def test_deterministic_trajectory(self):
        ds = csbm_generate(CsbmParams(n=60, d=6, seed=3))
        split = random_split(ds.n, seed=3)
        cfg = TrainConfig(epochs=20, seed=3, dropout_linear=0.3,
                          dropout_conv=0.3)
        r1 = train_single(ds, split, "GSCNet", 2, 2, cfg)
        r2 = train_single(ds, split, "GSCNet", 2, 2, cfg)
        assert [e.train_loss for e in r1.epochs] == \
            [e.train_loss for e in r2.epochs]
        assert r1.test_acc == r2.test_acc

    def test_reported_filter_is_best_validation_filter(self):
        ds = csbm_generate(CsbmParams(n=60, d=6, seed=3))
        split = random_split(ds.n, seed=3)

        def run(epochs):
            cfg = TrainConfig(epochs=epochs, patience=40, seed=3,
                              dropout_linear=0.3, dropout_conv=0.3)
            return train_single(ds, split, "GSCNet", 2, 2, cfg)

        full = run(40)
        b = full.best_epoch
        assert 0 <= b < 39
        # The first b+1 epochs of both runs are identical, so the short
        # run ends on the best-validation filter of the long one.
        short = run(b + 1)
        assert full.alpha == short.alpha
        assert full.beta == short.beta

    def test_non_finite_evaluation_keeps_earlier_selection(self, monkeypatch):
        # The evaluation after epoch 3's step reads non-finite logits: the
        # run stops there, and the selection is that of epochs 0-2.
        real = train.evaluate
        calls = []

        def evaluate(params, ds, split, buffers):
            calls.append(params)
            return None if len(calls) == 4 else real(params, ds, split,
                                                     buffers)
        monkeypatch.setattr(train, "evaluate", evaluate)
        ds = csbm_generate(CsbmParams(n=60, d=6, seed=3))
        split = random_split(ds.n, seed=3)
        cfg = TrainConfig(epochs=10, patience=10, seed=3)
        record = train_single(ds, split, "GSCNet", 1, 1, cfg)
        assert record.diverged and len(record.epochs) == 3
        monkeypatch.setattr(train, "evaluate", real)
        short = train_single(ds, split, "GSCNet", 1, 1,
                             dataclasses.replace(cfg, epochs=3))
        assert record.to_json() == {**short.to_json(), "diverged": True}

    def test_overflowing_zero_epoch_evaluation_diverges(self):
        # Features near the float64 maximum overflow the initial model's
        # forward: with no epoch to train, that evaluation marks the run
        # diverged, and numpy warns of nothing (pytest would raise).
        ds = csbm_generate(CsbmParams(n=40, d=6, seed=3))
        ds = dataclasses.replace(ds, features=np.full_like(ds.features,
                                                            1.7e308))
        record = train_single(ds, random_split(ds.n, seed=3), "GSCNet", 1, 1,
                              TrainConfig(epochs=0, seed=3))
        assert record.diverged and record.best_epoch == -1
        assert record.to_json()["num_epochs"] == 0

    def test_patience_stops_a_flat_run(self, monkeypatch):
        # Validation accuracy never rises after epoch 0, so the run stops
        # at the epoch that makes patience + 1 epochs without a gain.
        monkeypatch.setattr(train, "evaluate",
                            lambda params, ds, split, buffers: (0.5, 0.25))
        ds = csbm_generate(CsbmParams(n=60, d=6, seed=3))
        split = random_split(ds.n, seed=3)
        for patience in (0, 3):
            cfg = TrainConfig(epochs=50, patience=patience, seed=3)
            record = train_single(ds, split, "GSCNet", 1, 1, cfg)
            assert len(record.epochs) == patience + 2
            assert record.best_epoch == 0 and record.test_acc == 0.25

    def test_overfits_separable_csbm(self):
        # 50 nodes, strong structure: train accuracy hits 1.0 in 200 epochs.
        ds = csbm_generate(CsbmParams(n=50, d=8, p_intra=0.5, p_inter=0.05,
                                      mu=2.0, sigma=0.5, seed=1))
        split = random_split(ds.n, seed=1)
        cfg = TrainConfig(lr_linear=0.02, lr_prop=0.02, weight_decay=0.0,
                          dropout_linear=0.0, dropout_conv=0.0,
                          epochs=200, patience=200, seed=1)
        params = init_params("GSCNet", ds.d, ds.num_classes, 2, 2, seed=1)
        state = AdamState.for_params(params)
        hit = False
        for _ in range(cfg.epochs):
            _, grads = loss_and_grad(params, ds.graph, ds.features, ds.labels,
                                     split.train, cfg)
            adam_step(params, grads, state, cfg)
            logits, _ = forward(params, ds.graph, ds.features)
            if accuracy(logits, ds.labels, split.train) == 1.0:
                hit = True
                break
        assert hit
