"""Phase-II trainer tests: losses vs hand values, gradients vs finite
differences, determinism, and the degenerate configurations."""

import dataclasses
import math

import numpy as np
import pytest

from advssl import trainer as trainer_module
from advssl.baseline import train_supervised
from advssl.data import (
    Dataset,
    DatasetSchema,
    SynthConfig,
    generate_synthetic,
    minibatch_indices,
    stratified_split,
)
from advssl.metrics import macro_f1_score
from advssl.nnet import (
    PROB_EPS,
    DenseLayer,
    MlpParams,
    activation_grad,
    bce_one_hot_and_grad,
    clamp_probs,
    grad_check,
    l2_penalty,
    mlp_forward,
    named_rng,
    softmax,
    softmax_backward,
)
from advssl.prm import PseudoLabeledDataset
from advssl.trainer import (
    AsslConfig,
    AsslModel,
    DivergenceError,
    EpochRecord,
    OptimizerStates,
    TrainHistory,
    classify,
    discriminator_objective,
    discriminator_step,
    encode,
    generator_objective,
    generator_step,
    init_assl_model,
    loss_adversarial,
    loss_bce_l2,
    predict_proba_matrix,
    train,
)
from test_nnet import per_array_adam


def tiny_cfg(**over):
    base = dict(
        embedding_dim=4,
        encoder_hidden=8,
        head_hidden=8,
        disc_hidden=8,
        epochs=3,
        batch_size=8,
        seed=0,
    )
    base.update(over)
    return AsslConfig(**base)


def tiny_task(seed=0, n_per=30, m=3, f=5, labeled_fraction=0.5, sep=2.5):
    cfg = SynthConfig(
        num_features=f,
        num_classes=m,
        samples_per_class=n_per,
        labeled_fraction=labeled_fraction,
        separation_scale=sep,
        seed=seed,
    )
    labeled, unlabeled, truth = generate_synthetic(cfg)
    pseudo = PseudoLabeledDataset(
        rows=unlabeled.rows, labels=truth, confidences=np.ones(len(unlabeled))
    )
    train_ds, val_ds, test_ds = stratified_split(labeled, (0.6, 0.2, 0.2), seed)
    return train_ds, val_ds, test_ds, pseudo


def identity_encoder(dim):
    return MlpParams([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])


def head_with_probs(d, probs):
    # zero weights, log-prob bias: softmax(bias) == probs
    bias = np.log(np.asarray(probs, dtype=np.float64))
    return MlpParams([DenseLayer(np.zeros((len(probs), d)), bias, "identity")])


def sigmoid_disc(d):
    return MlpParams([DenseLayer(np.zeros((1, d)), np.zeros(1), "sigmoid")])


class TestEncode:
    def test_identity_encoder_returns_batch(self):
        enc = identity_encoder(3)
        x = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_array_equal(encode(enc, x), x)

    def test_zero_weight_relu_encoder_zero_embeddings(self):
        enc = MlpParams([DenseLayer(np.zeros((4, 3)), np.zeros(4), "relu")])
        out = encode(enc, np.ones((6, 3)))
        np.testing.assert_array_equal(out, np.zeros((6, 4)))

    def test_same_network_for_both_pools(self):
        cfg = tiny_cfg()
        model = init_assl_model(5, 3, cfg)
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(7, 5))
        both = encode(model.encoder, np.vstack([a, b]))
        np.testing.assert_array_equal(both[:4], encode(model.encoder, a))
        assert model.encoder.out_dim == cfg.embedding_dim


class TestClassify:
    def test_zero_weight_head_uniform(self):
        head = MlpParams([DenseLayer(np.zeros((4, 3)), np.zeros(4), "identity")])
        probs = classify(head, np.random.default_rng(2).normal(size=(5, 3)))
        np.testing.assert_allclose(probs, np.full((5, 4), 0.25), atol=1e-15)

    def test_extreme_logits_saturate(self):
        head = MlpParams([DenseLayer(np.array([[1e3], [-1e3]]), np.zeros(2), "identity")])
        probs = classify(head, np.array([[1.0]]))
        np.testing.assert_allclose(probs, [[1.0, 0.0]], atol=1e-12)

    def test_hand_softmax(self):
        head = head_with_probs(2, [0.2, 0.5, 0.3])
        probs = classify(head, np.zeros((1, 2)))
        np.testing.assert_allclose(probs, [[0.2, 0.5, 0.3]], atol=1e-12)


class TestLossBceL2:
    def test_perfect_one_hot_is_zero(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        loss = loss_bce_l2(probs, [0, 1], 0.0, [])
        assert abs(loss) < 1e-9

    def test_uniform_binary_is_two_ln_two(self):
        loss = loss_bce_l2(np.array([[0.5, 0.5]]), [0], 0.0, [])
        assert abs(loss - 2 * math.log(2)) < 1e-12

    def test_hand_three_class_value(self):
        loss = loss_bce_l2(np.array([[0.7, 0.2, 0.1]]), [0], 0.0, [])
        expected = -(math.log(0.7) + math.log(0.8) + math.log(0.9))
        assert abs(loss - expected) < 1e-12

    def test_l2_term_added(self):
        params = MlpParams([DenseLayer(np.array([[2.0]]), np.zeros(1), "identity")])
        base = loss_bce_l2(np.array([[0.5, 0.5]]), [0], 0.0, params)
        with_reg = loss_bce_l2(np.array([[0.5, 0.5]]), [0], 0.25, params)
        assert abs((with_reg - base) - 1.0) < 1e-12

    def test_nonnegative_property(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            raw = rng.uniform(0.01, 1.0, size=(4, 3))
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 3, 4)
            assert loss_bce_l2(probs, labels, 0.0, []) >= 0.0


class TestLossAdversarial:
    def test_saturated_discriminator_near_zero(self):
        loss = loss_adversarial([1 - 1e-12, 1 - 1e-12], [1e-12], 0.0, [])
        assert abs(loss) < 1e-9

    def test_confused_discriminator_two_ln_half(self):
        loss = loss_adversarial([0.5, 0.5], [0.5, 0.5], 0.0, [])
        assert abs(loss - 2 * math.log(0.5)) < 1e-12

    def test_hand_value(self):
        loss = loss_adversarial([0.9, 0.8], [0.3, 0.1], 0.0, [])
        expected = 0.5 * (math.log(0.9) + math.log(0.8)) + 0.5 * (
            math.log(0.7) + math.log(0.9)
        )
        assert abs(loss - expected) < 1e-12

    def test_nonpositive_without_regularizer(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d_l = rng.uniform(1e-6, 1 - 1e-6, size=5)
            d_u = rng.uniform(1e-6, 1 - 1e-6, size=3)
            assert loss_adversarial(d_l, d_u, 0.0, []) <= 0.0


class TestGradients:
    def test_generator_objective_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        cfg = tiny_cfg(lambda_l=1e-3, lambda_u=2e-3, lambda_adv=1e-3, alpha=0.2, seed=11)
        model = init_assl_model(5, 3, cfg)
        x_l, y_l = rng.normal(size=(4, 5)), rng.integers(0, 3, 4)
        x_u, y_u = rng.normal(size=(4, 5)), rng.integers(0, 3, 4)
        params = (
            model.encoder.param_arrays()
            + model.supervised_head.param_arrays()
            + model.semi_head.param_arrays()
        )

        def loss(ps):
            parts, grads = generator_objective(model, x_l, y_l, x_u, y_u, cfg)
            return parts["total"], (
                grads["encoder"] + grads["supervised_head"] + grads["semi_head"]
            )

        assert grad_check(loss, params, epsilon=1e-5) < 1e-5

    def test_discriminator_objective_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        cfg = tiny_cfg(lambda_adv=1e-3, seed=12)
        model = init_assl_model(5, 3, cfg)
        x_l, x_u = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))

        def loss(ps):
            obj, grads, _, _ = discriminator_objective(model, x_l, x_u, cfg)
            return obj, grads

        assert grad_check(loss, model.discriminator.param_arrays(), epsilon=1e-5) < 1e-5


class TestSteps:
    def test_zero_disc_learning_rate_freezes_disc(self):
        rng = np.random.default_rng(8)
        cfg = tiny_cfg(disc_learning_rate=0.0)
        model = init_assl_model(5, 3, cfg)
        before = [a.copy() for a in model.discriminator.param_arrays()]
        states = OptimizerStates.create(model, cfg)
        emb = encode(model.encoder, rng.normal(size=(8, 5)))
        discriminator_step(model, emb, 4, cfg, states)
        for a, b in zip(model.discriminator.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_zero_lr_generator_keeps_params(self):
        rng = np.random.default_rng(9)
        cfg = tiny_cfg(learning_rate=0.0)
        model = init_assl_model(5, 3, cfg)
        states = OptimizerStates.create(model, cfg)
        before = [a.copy() for a in model.encoder.param_arrays()]
        generator_step(
            model,
            mlp_forward(model.encoder, rng.normal(size=(8, 5))),
            rng.integers(0, 3, 4),
            rng.integers(0, 3, 4),
            cfg,
            states,
        )
        for a, b in zip(model.encoder.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_disc_learns_separable_embedding_clouds(self):
        # identity encoder, pools separated along the first axis
        rng = np.random.default_rng(10)
        d = 2
        model = AsslModel(
            encoder=identity_encoder(d),
            supervised_head=head_with_probs(d, [0.5, 0.5]),
            semi_head=head_with_probs(d, [0.5, 0.5]),
            discriminator=MlpParams(
                [
                    DenseLayer(0.1 * rng.normal(size=(8, d)), np.zeros(8), "relu"),
                    DenseLayer(0.1 * rng.normal(size=(1, 8)), np.zeros(1), "sigmoid"),
                ]
            ),
        )
        cfg = tiny_cfg(embedding_dim=d, disc_learning_rate=0.05)
        x_l = rng.normal(size=(64, d)) + np.array([3.0, 0.0])
        x_u = rng.normal(size=(64, d)) + np.array([-3.0, 0.0])
        states = OptimizerStates.create(model, cfg)
        acc = 0.0
        for _ in range(200):  # identity encoder: the rows are their own embeddings
            _, acc = discriminator_step(model, np.concatenate([x_l, x_u]), 64, cfg, states)
        assert acc >= 0.95

    def test_steps_lay_out_no_gradient_views(self, monkeypatch):
        # OptimizerStates lays the gradient buffer out per network once;
        # a step only writes into those arrays.
        rng = np.random.default_rng(11)
        cfg = tiny_cfg()
        model = init_assl_model(5, 3, cfg)
        states = OptimizerStates.create(model, cfg)
        calls = []
        real_views = MlpParams.views
        monkeypatch.setattr(MlpParams, "views", lambda *a: calls.append(1) or real_views(*a))
        for _ in range(3):
            enc = mlp_forward(model.encoder, rng.normal(size=(8, 5)))
            discriminator_step(model, enc[0], 4, cfg, states)
            generator_step(model, enc, rng.integers(0, 3, 4), rng.integers(0, 3, 4), cfg, states)
        assert calls == []


class TestTrain:
    def test_zero_lr_returns_initialization(self):
        train_ds, val_ds, _, pseudo = tiny_task(seed=1)
        cfg = tiny_cfg(epochs=1, learning_rate=0.0, disc_learning_rate=0.0, seed=21)
        model, _ = train(train_ds, pseudo, val_ds, cfg)
        fresh = init_assl_model(train_ds.schema.num_features, 3, cfg)
        for a, b in zip(model.encoder.param_arrays(), fresh.encoder.param_arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(
            model.supervised_head.param_arrays(), fresh.supervised_head.param_arrays()
        ):
            np.testing.assert_array_equal(a, b)

    def test_bit_for_bit_reproducible(self):
        train_ds, val_ds, _, pseudo = tiny_task(seed=2)
        cfg = tiny_cfg(epochs=3, seed=22)
        model_a, hist_a = train(train_ds, pseudo, val_ds, cfg)
        model_b, hist_b = train(train_ds, pseudo, val_ds, cfg)
        for net in ("encoder", "supervised_head", "semi_head", "discriminator"):
            for a, b in zip(
                getattr(model_a, net).param_arrays(), getattr(model_b, net).param_arrays()
            ):
                np.testing.assert_array_equal(a, b)
        assert [r.val_macro_f1 for r in hist_a.records] == [
            r.val_macro_f1 for r in hist_b.records
        ]
        assert [r.loss_adv for r in hist_a.records] == [r.loss_adv for r in hist_b.records]

    def test_empty_inputs_rejected(self):
        train_ds, val_ds, _, pseudo = tiny_task(seed=3)
        cfg = tiny_cfg()
        empty = PseudoLabeledDataset(pseudo.rows[:0], pseudo.labels[:0], pseudo.confidences[:0])
        for pool in (None, empty):  # a CSV config without a pool gives the empty one
            with pytest.raises(ValueError, match="^no unlabeled rows to pseudo-label; "):
                train(train_ds, pool, val_ds, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf input is the point
    def test_nonfinite_loss_names_term(self):
        train_ds, val_ds, _, pseudo = tiny_task(seed=4)
        rows = train_ds.rows.copy()
        rows[0, 0] = np.inf
        poisoned = Dataset(train_ds.schema, rows, train_ds.labels)
        with pytest.raises(DivergenceError, match="L_L"):
            train(poisoned, pseudo, val_ds, tiny_cfg(seed=23))

    def test_best_snapshot_by_validation_f1(self):
        train_ds, val_ds, _, pseudo = tiny_task(seed=5, sep=3.0)
        cfg = tiny_cfg(epochs=6, seed=24)
        model, history = train(train_ds, pseudo, val_ds, cfg)
        best = max(r.val_macro_f1 for r in history.records)
        preds = predict_proba_matrix(model, val_ds.rows).argmax(axis=1)
        from advssl.metrics import macro_f1_score

        achieved = macro_f1_score(val_ds.labels, preds, 3)
        assert abs(achieved - best) < 1e-12

    def test_correct_pseudo_labels_lift_validation_f1(self):
        # with perfectly correct pseudo labels the semi-supervised run must
        # match or beat the supervised-only run on most seeds
        wins = 0
        for seed in range(5):
            train_ds, val_ds, _, pseudo = tiny_task(
                seed=100 + seed, n_per=300, labeled_fraction=0.15, sep=1.6
            )
            cfg = tiny_cfg(epochs=25, learning_rate=5e-3, seed=seed)
            model, hist = train(train_ds, pseudo, val_ds, cfg)
            sup_cfg = tiny_cfg(
                epochs=25,
                learning_rate=5e-3,
                seed=seed,
                alpha=0.0,
                lambda_u=0.0,
                suppress_pseudo=True,
            )
            _, sup_hist = train(train_ds, None, val_ds, sup_cfg)
            best_semi = max(r.val_macro_f1 for r in hist.records)
            best_sup = max(r.val_macro_f1 for r in sup_hist.records)
            if best_semi >= best_sup:
                wins += 1
        assert wins >= 4

    def test_alpha_zero_equals_disc_deleted_run(self, monkeypatch):
        train_ds, val_ds, _, pseudo = tiny_task(seed=6)
        cfg = tiny_cfg(epochs=3, alpha=0.0, seed=25)
        model_a, _ = train(train_ds, pseudo, val_ds, cfg)
        monkeypatch.setattr(trainer_module, "discriminator_step", lambda *args: (0.0, 0.5))
        model_b, _ = train(train_ds, pseudo, val_ds, cfg)
        for net in ("encoder", "supervised_head", "semi_head"):
            for a, b in zip(
                getattr(model_a, net).param_arrays(), getattr(model_b, net).param_arrays()
            ):
                np.testing.assert_array_equal(a, b)

    def test_a_pool_smaller_than_a_batch_cycles_through_fresh_permutations(self, monkeypatch):
        train_ds, val_ds, _, task_pool = tiny_task(seed=4)
        # Pool row i has label i, so the labels a step trains on name its rows.
        pseudo = PseudoLabeledDataset(task_pool.rows[:3], np.arange(3), np.ones(3))
        seen = []
        real = trainer_module.generator_step

        def recording(model, enc, y_l, y_u, cfg, states):
            seen.append(y_u.copy())
            return real(model, enc, y_l, y_u, cfg, states)

        monkeypatch.setattr(trainer_module, "generator_step", recording)
        cfg = tiny_cfg(epochs=2, batch_size=8, seed=29)
        _, history = train(train_ds, pseudo, val_ds, cfg)
        assert len(history.records) == cfg.epochs
        assert all(np.isfinite(r.loss_u) for r in history.records)
        shuffle_u, steps = named_rng(cfg.seed, "pseudo_shuffle"), iter(seen)
        for _ in range(cfg.epochs):  # each epoch starts a fresh permutation
            draws = np.empty(0, dtype=np.int64)
            for start in range(0, len(train_ds), cfg.batch_size):
                size = min(cfg.batch_size, len(train_ds) - start)
                while draws.size < size:
                    draws = np.concatenate([draws, shuffle_u.permutation(3)])
                np.testing.assert_array_equal(next(steps), draws[:size])
                draws = draws[size:]
        assert next(steps, None) is None

    @pytest.mark.parametrize("suppress", [False, True])
    def test_one_discriminator_update_per_step_none_when_suppressed(self, monkeypatch, suppress):
        train_ds, val_ds, _, pseudo = tiny_task(seed=3)
        calls = []
        real = trainer_module.discriminator_step

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "discriminator_step", counting)
        seen = []
        cfg = tiny_cfg(epochs=2, seed=23, suppress_pseudo=suppress)
        pool = None if suppress else pseudo
        train(train_ds, pool, val_ds, cfg, on_step=lambda step, m: seen.append(len(calls)))
        assert len(seen) == cfg.epochs * math.ceil(len(train_ds) / cfg.batch_size)
        assert seen == [0 if suppress else step for step in range(1, len(seen) + 1)]


# Frozen references for the Phase-II step. Each objective runs the encoder
# itself, ref_backward builds every gradient, the L2 terms are added also
# when their weight is 0, and Adam loops over arrays.
#
# - The stacked reference runs the encoder once over [x_l; x_u] and the
#   discriminator once over [emb_l; emb_u], the two per-side means becoming
#   per-row weights in the upstream gradient. train() and both objectives
#   must reproduce it bit for bit (compare the reference best_split in
#   test_tree.py).
# - The per-side reference is the step as it was before stacking: one pass
#   per pool, gradients summed. The suppressed path has nothing to stack and
#   must match it bit for bit; the stacked paths sum in another order and
#   must match it to within 1e-12.


def ref_backward(mlp, cache, upstream):
    grad = upstream
    grads = [None] * (2 * len(mlp.layers))
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        x_in, z, out = cache[i]
        dz = grad  # an identity layer's derivative is 1
        if layer.activation != "identity":
            dz = grad * activation_grad(layer.activation, z, out)
        grads[2 * i] = dz.T @ x_in
        grads[2 * i + 1] = dz.sum(axis=0)
        grad = dz @ layer.weights
    return grads, grad


def ref_with_l2(grads, net, lam):
    return [g + 2.0 * lam * a for g, a in zip(grads, net.param_arrays())]


def ref_log_grad_inside(p):
    inside = (p > PROB_EPS) & (p < 1.0 - PROB_EPS)
    return inside / clamp_probs(p)


def ref_generator_objective(model, x_l, y_l, x_u, y_u, cfg):
    emb_l, cache_el = mlp_forward(model.encoder, x_l)
    logits_l, cache_hl = mlp_forward(model.supervised_head, emb_l)
    probs_l = softmax(logits_l)
    head_l, dprobs_l = bce_one_hot_and_grad(probs_l, y_l)
    loss_l = head_l + l2_penalty(model.supervised_head, cfg.lambda_l)
    sup_grads, d_emb_l = ref_backward(
        model.supervised_head, cache_hl, softmax_backward(probs_l, dprobs_l)
    )
    sup_grads = ref_with_l2(sup_grads, model.supervised_head, cfg.lambda_l)
    loss_u = loss_adv = 0.0
    semi_grads = [np.zeros_like(a) for a in model.semi_head.param_arrays()]
    if x_u is not None:
        emb_u, cache_eu = mlp_forward(model.encoder, x_u)
        logits_u, cache_hu = mlp_forward(model.semi_head, emb_u)
        probs_u = softmax(logits_u)
        head_u, dprobs_u = bce_one_hot_and_grad(probs_u, y_u)
        loss_u = head_u + l2_penalty(model.semi_head, cfg.lambda_u)
        semi_grads, d_emb_u = ref_backward(
            model.semi_head, cache_hu, softmax_backward(probs_u, dprobs_u)
        )
        semi_grads = ref_with_l2(semi_grads, model.semi_head, cfg.lambda_u)
        if cfg.alpha > 0:
            d_l, cache_dl = mlp_forward(model.discriminator, emb_l)
            d_u, cache_du = mlp_forward(model.discriminator, emb_u)
            loss_adv = loss_adversarial(d_l, d_u, cfg.lambda_adv, model.discriminator)
            up_l = cfg.alpha * ref_log_grad_inside(d_l) / d_l.shape[0]
            up_u = -cfg.alpha * ref_log_grad_inside(1.0 - d_u) / d_u.shape[0]
            d_emb_l = d_emb_l + ref_backward(model.discriminator, cache_dl, up_l)[1]
            d_emb_u = d_emb_u + ref_backward(model.discriminator, cache_du, up_u)[1]
    enc_grads, _ = ref_backward(model.encoder, cache_el, d_emb_l)
    if x_u is not None:
        enc_u = ref_backward(model.encoder, cache_eu, d_emb_u)[0]
        enc_grads = [a + b for a, b in zip(enc_grads, enc_u)]
    total = loss_l + loss_u + cfg.alpha * loss_adv
    parts = {"loss_l": loss_l, "loss_u": loss_u, "loss_adv": loss_adv, "total": total}
    grads = {"encoder": enc_grads, "supervised_head": sup_grads, "semi_head": semi_grads}
    return parts, grads


def ref_discriminator_objective(model, x_l, x_u, cfg):
    emb_l = mlp_forward(model.encoder, x_l)[0]
    emb_u = mlp_forward(model.encoder, x_u)[0]
    d_l, cache_dl = mlp_forward(model.discriminator, emb_l)
    d_u, cache_du = mlp_forward(model.discriminator, emb_u)
    likelihood = float(np.log(clamp_probs(d_l)).mean() + np.log(1.0 - clamp_probs(d_u)).mean())
    reg_value = l2_penalty(model.discriminator, cfg.lambda_adv)
    reg_grads = [2.0 * cfg.lambda_adv * a for a in model.discriminator.param_arrays()]
    up_l = -ref_log_grad_inside(d_l) / d_l.shape[0]
    up_u = ref_log_grad_inside(1.0 - d_u) / d_u.shape[0]
    g_l, _ = ref_backward(model.discriminator, cache_dl, up_l)
    g_u, _ = ref_backward(model.discriminator, cache_du, up_u)
    grads = [a + b + r for a, b, r in zip(g_l, g_u, reg_grads)]
    accuracy = float(((d_l > 0.5).sum() + (d_u <= 0.5).sum()) / (d_l.size + d_u.size))
    return -likelihood + reg_value, grads, likelihood + reg_value, accuracy


def ref_adversarial_upstream(d, n_l, scale):
    """scale * d(mean log D_l + mean log(1 - D_u))/dD, as per-row weights."""
    n_u = d.shape[0] - n_l
    labeled = np.arange(d.shape[0])[:, None] < n_l
    weights = np.concatenate([np.full(n_l, scale / n_l), np.full(n_u, -scale / n_u)])[:, None]
    return ref_log_grad_inside(np.where(labeled, d, 1.0 - d)) * weights


def ref_stacked_generator_objective(model, x_l, y_l, x_u, y_u, cfg):
    if x_u is None:
        return ref_generator_objective(model, x_l, y_l, x_u, y_u, cfg)
    n_l = len(x_l)
    emb, cache_e = mlp_forward(model.encoder, np.concatenate([x_l, x_u]))
    parts, grads, d_emb = {}, {}, []
    for name, emb_side, labels, lam, loss in (
        ("supervised_head", emb[:n_l], y_l, cfg.lambda_l, "loss_l"),
        ("semi_head", emb[n_l:], y_u, cfg.lambda_u, "loss_u"),
    ):
        head = getattr(model, name)
        logits, cache_h = mlp_forward(head, emb_side)
        probs = softmax(logits)
        value, dprobs = bce_one_hot_and_grad(probs, labels)
        parts[loss] = value + l2_penalty(head, lam)
        head_grads, d_side = ref_backward(head, cache_h, softmax_backward(probs, dprobs))
        grads[name] = ref_with_l2(head_grads, head, lam)
        d_emb.append(d_side)
    d_emb = np.concatenate(d_emb)
    parts["loss_adv"] = 0.0
    if cfg.alpha > 0:
        d, cache_d = mlp_forward(model.discriminator, emb)
        parts["loss_adv"] = loss_adversarial(d[:n_l], d[n_l:], cfg.lambda_adv, model.discriminator)
        up = ref_adversarial_upstream(d, n_l, cfg.alpha)
        d_emb = d_emb + ref_backward(model.discriminator, cache_d, up)[1]
    enc_grads, _ = ref_backward(model.encoder, cache_e, d_emb)
    grads["encoder"] = enc_grads
    parts["total"] = parts["loss_l"] + parts["loss_u"] + cfg.alpha * parts["loss_adv"]
    return parts, grads


def ref_stacked_discriminator_objective(model, x_l, x_u, cfg):
    n_l = len(x_l)
    emb = mlp_forward(model.encoder, np.concatenate([x_l, x_u]))[0]
    d, cache_d = mlp_forward(model.discriminator, emb)
    d_l, d_u = d[:n_l], d[n_l:]
    likelihood = float(np.log(clamp_probs(d_l)).mean() + np.log(1.0 - clamp_probs(d_u)).mean())
    reg_value = l2_penalty(model.discriminator, cfg.lambda_adv)
    reg_grads = [2.0 * cfg.lambda_adv * a for a in model.discriminator.param_arrays()]
    g, _ = ref_backward(model.discriminator, cache_d, ref_adversarial_upstream(d, n_l, -1.0))
    grads = [a + r for a, r in zip(g, reg_grads)]
    accuracy = float(((d_l > 0.5).sum() + (d_u <= 0.5).sum()) / (d_l.size + d_u.size))
    return -likelihood + reg_value, grads, likelihood + reg_value, accuracy


REFERENCES = {
    "stacked": (ref_stacked_generator_objective, ref_stacked_discriminator_objective),
    "per_side": (ref_generator_objective, ref_discriminator_objective),
}


def ref_train(labeled, pseudo, validation, cfg, reference="stacked"):
    """The training loop around a reference step, with per-array Adam."""
    generator_objective_of, discriminator_objective_of = REFERENCES[reference]
    m = labeled.schema.num_classes
    model = init_assl_model(labeled.schema.num_features, m, cfg)
    nets = ("encoder", "supervised_head", "semi_head", "discriminator")
    moments = {
        n: tuple([np.zeros_like(a) for a in getattr(model, n).param_arrays()] for _ in range(2))
        for n in nets
    }
    counts = dict.fromkeys(nets, 0)

    def adam(name, grads, lr):
        counts[name] += 1
        per_array_adam(getattr(model, name).param_arrays(), grads, moments[name], counts[name], lr)

    shuffle_l = named_rng(cfg.seed, "labeled_shuffle")
    shuffle_u = named_rng(cfg.seed, "pseudo_shuffle")
    best_model, best_f1, history = model.copy(), -np.inf, TrainHistory()
    for epoch in range(cfg.epochs):
        batches = minibatch_indices(len(labeled), cfg.batch_size, shuffle_l)
        pool = np.empty(0, dtype=np.int64)
        if not cfg.suppress_pseudo:
            pool = shuffle_u.permutation(len(pseudo))
        sums = np.zeros(4)
        for idx in batches:
            x_l, y_l = labeled.rows[idx], labeled.labels[idx]
            x_u = y_u = None
            disc_acc, adv_from_disc = 0.5, None
            if not cfg.suppress_pseudo:
                while pool.size < idx.size:  # the pseudo pool cycles when short
                    pool = np.concatenate([pool, shuffle_u.permutation(len(pseudo))])
                sel, pool = pool[: idx.size], pool[idx.size :]
                x_u, y_u = pseudo.rows[sel], pseudo.labels[sel]
                _, grads, adv_from_disc, disc_acc = discriminator_objective_of(
                    model, x_l, x_u, cfg
                )
                adam("discriminator", grads, cfg.disc_learning_rate)
            parts, grads = generator_objective_of(model, x_l, y_l, x_u, y_u, cfg)
            for name in ("encoder", "supervised_head") + (("semi_head",) if x_u is not None else ()):
                adam(name, grads[name], cfg.learning_rate)
            if cfg.alpha == 0 and adv_from_disc is not None:
                parts["loss_adv"] = adv_from_disc
            sums += [parts["loss_l"], parts["loss_u"], parts["loss_adv"], disc_acc]
        preds = predict_proba_matrix(model, validation.rows, cfg.inference_head).argmax(axis=1)
        val_f1 = macro_f1_score(validation.labels, preds, m)
        means = [float(v) / len(batches) for v in sums]
        history.records.append(EpochRecord(epoch, *means, val_macro_f1=val_f1))
        if val_f1 > best_f1:
            best_f1, best_model = val_f1, model.copy()
    return best_model, history


CONFIGS = [
    {},
    {"alpha": 0.0},
    {"suppress_pseudo": True},
    {"lambda_l": 0.0, "lambda_u": 0.0, "lambda_adv": 0.0},
]


def config_id(over):
    return ",".join(f"{k}={v}" for k, v in over.items()) or "full"


def assert_same_run(model, history, ref_model, ref_history, atol=0.0):
    for net in ("encoder", "supervised_head", "semi_head", "discriminator"):
        arrays = zip(getattr(model, net).param_arrays(), getattr(ref_model, net).param_arrays())
        for a, b in arrays:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=atol)
    if atol == 0.0:
        assert history.records == ref_history.records
    else:
        np.testing.assert_allclose(
            [list(vars(r).values()) for r in history.records],
            [list(vars(r).values()) for r in ref_history.records],
            rtol=0.0,
            atol=atol,
        )


def assert_same_objectives(model, x_l, y_l, x_u, y_u, cfg, reference, atol=0.0):
    ref_gen, ref_disc = REFERENCES[reference]
    parts, grads = generator_objective(model, x_l, y_l, x_u, y_u, cfg)
    ref_parts, ref_grads = ref_gen(model, x_l, y_l, x_u, y_u, cfg)
    assert parts.keys() == ref_parts.keys()
    np.testing.assert_allclose(list(parts.values()), list(ref_parts.values()), rtol=0.0, atol=atol)
    for net in ("encoder", "supervised_head", "semi_head"):
        for a, b in zip(grads[net], ref_grads[net], strict=True):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=atol)
    got, ref = discriminator_objective(model, x_l, x_u, cfg), ref_disc(model, x_l, x_u, cfg)
    scalars = [[r[0], r[2], r[3]] for r in (got, ref)]  # objective, adversarial value, accuracy
    np.testing.assert_allclose(*scalars, rtol=0.0, atol=atol)
    for a, b in zip(got[1], ref[1], strict=True):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=atol)


class TestMatchesFrozenReferenceStep:
    @pytest.mark.parametrize("over", CONFIGS, ids=config_id)
    def test_bit_equal_parameters_and_history(self, over):
        train_ds, val_ds, _, pseudo = tiny_task(seed=7, n_per=40)
        cfg = tiny_cfg(epochs=4, seed=31, **over)
        model, history = train(train_ds, None if cfg.suppress_pseudo else pseudo, val_ds, cfg)
        assert_same_run(model, history, *ref_train(train_ds, pseudo, val_ds, cfg))

    @pytest.mark.parametrize("over", CONFIGS, ids=config_id)
    def test_per_side_reference_bit_equal_when_suppressed_else_close(self, over):
        train_ds, val_ds, _, pseudo = tiny_task(seed=7, n_per=40)
        cfg = tiny_cfg(epochs=4, seed=31, **over)
        model, history = train(train_ds, None if cfg.suppress_pseudo else pseudo, val_ds, cfg)
        ref = ref_train(train_ds, pseudo, val_ds, cfg, reference="per_side")
        assert_same_run(model, history, *ref, atol=0.0 if cfg.suppress_pseudo else 1e-12)

    def test_objectives_match_the_reference(self):
        rng = np.random.default_rng(13)
        cfg = tiny_cfg(seed=14)
        model = init_assl_model(5, 3, cfg)
        x_l, y_l = rng.normal(size=(6, 5)), rng.integers(0, 3, 6)
        x_u, y_u = rng.normal(size=(6, 5)), rng.integers(0, 3, 6)
        assert_same_objectives(model, x_l, y_l, x_u, y_u, cfg, "stacked")
        assert_same_objectives(model, x_l, y_l, x_u, y_u, cfg, "per_side", atol=1e-12)

    def test_generator_objective_without_pseudo_batch_matches_the_reference(self):
        rng = np.random.default_rng(15)
        cfg = tiny_cfg(seed=16)
        model = init_assl_model(5, 3, cfg)
        x_l, y_l = rng.normal(size=(6, 5)), rng.integers(0, 3, 6)
        parts, grads = generator_objective(model, x_l, y_l, None, None, cfg)
        ref_parts, ref_grads = ref_generator_objective(model, x_l, y_l, None, None, cfg)
        assert parts == ref_parts
        assert sorted(grads) == ["encoder", "semi_head", "supervised_head"]
        for net in ("encoder", "supervised_head", "semi_head"):
            for a, b in zip(grads[net], ref_grads[net], strict=True):
                np.testing.assert_array_equal(a, b)
        assert all(not g.any() for g in grads["semi_head"])


def predict_rating(model, row, inference_head="supervised"):
    """(class index, probability vector) of one row, as predict_proba_matrix rates it."""
    probs = predict_proba_matrix(model, row.reshape(1, -1), inference_head)[0]
    return int(probs.argmax()), probs


class TestPredictRating:
    def test_zero_weight_model_uniform_class_zero(self):
        d, f, m = 3, 4, 3
        model = AsslModel(
            encoder=MlpParams([DenseLayer(np.zeros((d, f)), np.zeros(d), "identity")]),
            supervised_head=MlpParams(
                [DenseLayer(np.zeros((m, d)), np.zeros(m), "identity")]
            ),
            semi_head=MlpParams([DenseLayer(np.zeros((m, d)), np.zeros(m), "identity")]),
            discriminator=sigmoid_disc(d),
        )
        cls, probs = predict_rating(model, np.ones(f))
        assert cls == 0
        np.testing.assert_allclose(probs, np.full(m, 1 / 3), atol=1e-15)

    def test_hand_argmax(self):
        d = 2
        model = AsslModel(
            encoder=identity_encoder(d),
            supervised_head=head_with_probs(d, [0.1, 0.7, 0.2]),
            semi_head=head_with_probs(d, [0.2, 0.3, 0.5]),
            discriminator=sigmoid_disc(d),
        )
        cls, probs = predict_rating(model, np.zeros(d))
        assert cls == 1
        np.testing.assert_allclose(probs, [0.1, 0.7, 0.2], atol=1e-12)

    def test_averaged_mode_tie_breaks_low(self):
        d = 2
        big = 50.0
        sup = MlpParams([DenseLayer(np.zeros((3, d)), np.array([big, 0.0, 0.0]), "identity")])
        semi = MlpParams([DenseLayer(np.zeros((3, d)), np.array([0.0, big, 0.0]), "identity")])
        model = AsslModel(
            encoder=identity_encoder(d),
            supervised_head=sup,
            semi_head=semi,
            discriminator=sigmoid_disc(d),
        )
        cls, probs = predict_rating(model, np.zeros(d), inference_head="averaged")
        assert cls == 0
        np.testing.assert_allclose(probs[:2], [0.5, 0.5], atol=1e-12)
        assert probs[2] < 1e-12

    def test_semi_head_mode(self):
        d = 2
        model = AsslModel(
            encoder=identity_encoder(d),
            supervised_head=head_with_probs(d, [0.9, 0.05, 0.05]),
            semi_head=head_with_probs(d, [0.05, 0.05, 0.9]),
            discriminator=sigmoid_disc(d),
        )
        cls, _ = predict_rating(model, np.zeros(d), inference_head="semi")
        assert cls == 2


class TestModelBuffer:
    NETS = ("encoder", "supervised_head", "semi_head", "discriminator")

    def test_every_network_is_a_view_of_one_buffer(self):
        model = init_assl_model(5, 3, tiny_cfg())
        assert list(model.slices) == list(self.NETS)  # [encoder | heads | discriminator]
        assert model.slices["discriminator"].stop == model.flat.size
        for net in self.NETS:
            mlp = getattr(model, net)
            assert np.shares_memory(mlp.flat, model.flat)
            np.testing.assert_array_equal(mlp.flat, model.flat[model.slices[net]])
            for a in mlp.param_arrays():
                assert np.shares_memory(a, model.flat)
        model.flat[model.slices["semi_head"].start] = 42.0
        assert model.semi_head.layers[0].weights[0, 0] == 42.0

    def test_buffer_stays_out_of_the_dataclass_fields(self):
        model = init_assl_model(5, 3, tiny_cfg())
        assert [f.name for f in dataclasses.fields(model)] == list(self.NETS)

    def test_copy_shares_no_memory(self):
        model = init_assl_model(5, 3, tiny_cfg())
        twin = model.copy()
        np.testing.assert_array_equal(twin.flat, model.flat)
        for net in self.NETS:
            assert np.shares_memory(getattr(twin, net).flat, twin.flat)
            for a, b in zip(getattr(twin, net).param_arrays(), getattr(model, net).param_arrays()):
                assert not np.shares_memory(a, model.flat) and not np.shares_memory(b, twin.flat)
        twin.flat[:] = 0.0
        assert np.any(model.flat != 0.0)

    def test_generator_slice_covers_encoder_through_the_last_trained_head(self):
        model = init_assl_model(5, 3, tiny_cfg())
        assert model.generator_slice(False) == slice(0, model.slices["semi_head"].stop)
        assert model.generator_slice(True) == slice(0, model.slices["supervised_head"].stop)
        states = OptimizerStates.create(model, tiny_cfg(suppress_pseudo=True))
        assert states.generator.first_moment.size == model.slices["supervised_head"].stop
        assert states.grads.flat.shape == model.flat.shape
        assert states.grads.discriminator.flat.base is states.grads.flat


class TestModelStructure:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="encoder emits"):
            AsslModel(
                encoder=identity_encoder(3),
                supervised_head=head_with_probs(4, [0.5, 0.5]),
                semi_head=head_with_probs(3, [0.5, 0.5]),
                discriminator=sigmoid_disc(3),
            )

    def test_disc_must_be_sigmoid_scalar(self):
        with pytest.raises(ValueError, match="sigmoid"):
            AsslModel(
                encoder=identity_encoder(3),
                supervised_head=head_with_probs(3, [0.5, 0.5]),
                semi_head=head_with_probs(3, [0.5, 0.5]),
                discriminator=MlpParams(
                    [DenseLayer(np.zeros((1, 3)), np.zeros(1), "identity")]
                ),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AsslConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            AsslConfig(batch_size=1)
        with pytest.raises(ValueError):
            AsslConfig(inference_head="committee")


class TestBaseline:
    def test_learns_separable_task(self):
        train_ds, val_ds, test_ds, _ = tiny_task(seed=7, sep=6.0, n_per=40)
        cfg = tiny_cfg(epochs=30, learning_rate=0.01, seed=26)
        model, history = train_supervised(train_ds, val_ds, cfg)
        preds = model.predict_proba_matrix(test_ds.rows).argmax(axis=1)
        assert (preds == test_ds.labels).mean() > 0.8
        assert history.records[-1].loss_u == 0.0

    def test_reproducible(self):
        train_ds, val_ds, _, _ = tiny_task(seed=8)
        cfg = tiny_cfg(epochs=2, seed=27)
        a, _ = train_supervised(train_ds, val_ds, cfg)
        b, _ = train_supervised(train_ds, val_ds, cfg)
        for x, y in zip(a.encoder.param_arrays(), b.encoder.param_arrays()):
            np.testing.assert_array_equal(x, y)

    def test_semi_inference_head_picks_the_same_snapshot(self):
        train_ds, val_ds, _, _ = tiny_task(seed=9)
        knobs = dict(epochs=6, learning_rate=0.01, seed=28)
        a, hist_a = train_supervised(train_ds, val_ds, tiny_cfg(**knobs))
        b, hist_b = train_supervised(train_ds, val_ds, tiny_cfg(**knobs, inference_head="semi"))
        for x, y in zip(
            a.encoder.param_arrays() + a.head.param_arrays(),
            b.encoder.param_arrays() + b.head.param_arrays(),
        ):
            np.testing.assert_array_equal(x, y)
        assert [r.val_macro_f1 for r in hist_a.records] == [
            r.val_macro_f1 for r in hist_b.records
        ]
