"""Tests for the dense-network core: oracles are hand computations and
central finite differences."""

import math
import tracemalloc

import numpy as np
import pytest

from advssl.nnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    PROB_EPS,
    AdamState,
    DenseLayer,
    MlpParams,
    activate,
    adam_step,
    add_l2_grad,
    bce_one_hot_and_grad,
    clamp_probs,
    grad_check,
    init_mlp,
    l2_penalty,
    mlp_backward,
    mlp_forward,
    named_rng,
    softmax,
    softmax_backward,
)


def one_layer_forward(layer, x):
    """mlp_forward of the one-layer network [layer]."""
    return mlp_forward(MlpParams([layer]), x)[0]


class TestDenseForward:
    def test_identity_weights(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "identity")
        out = one_layer_forward(layer, np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[3.0, 4.0]])

    def test_zero_weights_bias_passthrough(self):
        layer = DenseLayer(np.zeros((2, 2)), np.array([1.0, 2.0]), "identity")
        out = one_layer_forward(layer, np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_hand_matrix_product(self):
        layer = DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), "identity")
        out = one_layer_forward(layer, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[3.0, 7.0]])

    def test_shape_error_names_both_dims(self):
        layer = DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")
        with pytest.raises(ValueError, match="4.*3|3.*4"):
            one_layer_forward(layer, np.zeros((1, 4)))

    def test_linear_before_activation(self):
        # f(aX + bY) == a f(X) + b f(Y) for identity activation, zero bias
        rng = np.random.default_rng(0)
        layer = DenseLayer(rng.normal(size=(3, 4)), np.zeros(3), "identity")
        x, y = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        a, b = 2.5, -1.25
        lhs = one_layer_forward(layer, a * x + b * y)
        rhs = a * one_layer_forward(layer, x) + b * one_layer_forward(layer, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestActivate:
    def test_relu_sign_cases(self):
        np.testing.assert_array_equal(
            activate("relu", np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_sigmoid_symmetry_point(self):
        assert activate("sigmoid", np.array([0.0]))[0] == 0.5

    def test_sigmoid_closed_form(self):
        val = activate("sigmoid", np.array([math.log(3.0)]))[0]
        assert abs(val - 0.75) < 1e-12

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = activate("sigmoid", np.array([-1e4, -50.0, 50.0, 1e4]))
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0) & (out <= 1))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros((2, 3))), np.full((2, 3), 1 / 3), atol=1e-15)

    def test_closed_form_log_logits(self):
        probs = softmax(np.log(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(probs, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    def test_large_logit_no_overflow(self):
        probs = softmax(np.array([[1000.0, 0.0, 0.0]]))
        assert np.all(np.isfinite(probs))
        assert abs(probs[0, 0] - 1.0) < 1e-12

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.normal(scale=10.0, size=(4, 6))
            p = softmax(logits)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            shifted = softmax(logits + 123.456)
            assert np.max(np.abs(p - shifted)) < 1e-12


def three_temporary_softmax(logits):
    """softmax as first written: shifted, exp and quotient are three arrays."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


class TestSoftmaxBits:
    @pytest.mark.parametrize(
        "logits",
        [
            np.random.default_rng(8).normal(scale=5.0, size=(200, 9)),
            np.random.default_rng(9).normal(size=(1, 7)),
            np.random.default_rng(10).choice([-700.0, 700.0], size=(20, 4)),
        ],
        ids=["rows", "one-row", "+-700"],
    )
    def test_equals_the_three_temporary_form(self, logits):
        before = logits.copy()
        out = softmax(logits)
        expected = three_temporary_softmax(logits)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(logits, before)


class TestMlpForwardBackward:
    def test_single_identity_layer(self):
        mlp = MlpParams([DenseLayer(np.eye(3), np.zeros(3), "identity")])
        x = np.random.default_rng(2).normal(size=(4, 3))
        out, cache = mlp_forward(mlp, x)
        np.testing.assert_array_equal(out, x)
        assert len(cache) == 1

    def test_zero_layers_relu_all_zero(self):
        mlp = MlpParams(
            [
                DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu"),
                DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu"),
            ]
        )
        out, _ = mlp_forward(mlp, np.ones((5, 2)))
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_matches_dense_forward_composition(self):
        mlp = init_mlp([3, 5, 2], ["relu", "identity"], seed=0, name="t")
        x = np.random.default_rng(3).normal(size=(4, 3))
        out, _ = mlp_forward(mlp, x)
        manual = one_layer_forward(mlp.layers[1], one_layer_forward(mlp.layers[0], x))
        np.testing.assert_array_equal(out, manual)

    def test_zero_upstream_gives_zero_grads(self):
        mlp = init_mlp([3, 4, 2], ["relu", "sigmoid"], seed=1, name="t")
        x = np.random.default_rng(4).normal(size=(6, 3))
        out, cache = mlp_forward(mlp, x)
        grads, dx = mlp_backward(mlp, cache, np.zeros_like(out), mlp.on(np.empty_like(mlp.flat)))
        assert np.all(grads.flat == 0)
        np.testing.assert_array_equal(dx, np.zeros_like(x))

    def test_hand_chain_rule_1x1(self):
        mlp = MlpParams([DenseLayer(np.array([[5.0]]), np.zeros(1), "identity")])
        _, cache = mlp_forward(mlp, np.array([[2.0]]))
        grads, _ = mlp_backward(mlp, cache, np.array([[3.0]]), mlp.on(np.empty_like(mlp.flat)))
        np.testing.assert_array_equal(grads.flat, [6.0, 3.0])  # dL/dW = upstream * x, dL/db

    def test_cache_mismatch_rejected(self):
        mlp = init_mlp([3, 4, 2], ["relu", "identity"], seed=1, name="t")
        other = init_mlp([3, 2], ["identity"], seed=1, name="t")
        _, cache = mlp_forward(other, np.ones((2, 3)))
        with pytest.raises(ValueError):
            mlp_backward(mlp, cache, np.ones((2, 2)))

    @pytest.mark.parametrize("batch", [1, 3, 17])
    def test_backward_matches_finite_differences(self, batch):
        rng = np.random.default_rng(100 + batch)
        mlp = init_mlp([4, 6, 5, 2], ["relu", "sigmoid", "identity"], seed=batch, name="fd")
        x = rng.normal(size=(batch, 4))
        target = rng.normal(size=(batch, 2))

        # scalar loss: squared error summed over outputs, averaged over batch
        def loss(params):
            out, cache = mlp_forward(mlp, x)
            diff = out - target
            value = float((diff**2).sum() / batch)
            grads, _ = mlp_backward(mlp, cache, 2.0 * diff / batch, mlp.on(np.empty_like(mlp.flat)))
            return value, grads.param_arrays()

        err = grad_check(loss, mlp.param_arrays(), epsilon=1e-5)
        assert err < 1e-5


class TestAdam:
    def test_zero_grad_keeps_params(self):
        p = np.array([1.0, -2.0])
        state = AdamState.for_params(p, learning_rate=0.1)
        adam_step(p, np.zeros(2), state)
        np.testing.assert_array_equal(p, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_moves_by_lr_sign(self):
        p = np.array([1.0, 1.0, 1.0])
        g = np.array([0.5, -3.0, 1e-3])
        state = AdamState.for_params(p, learning_rate=0.01)
        adam_step(p, g, state)
        # m_hat = g and sqrt(v_hat) = |g|, so the step is lr * g / (|g| + eps)
        np.testing.assert_allclose(p, 1.0 - 0.01 * g / (np.abs(g) + ADAM_EPSILON), atol=1e-15)

    def test_two_steps_match_hand_unrolled_recurrence(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        theta = 0.7
        grads = [0.3, -1.1]
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)

        p = np.array([0.7])
        state = AdamState.for_params(p, learning_rate=lr)
        for g in grads:
            adam_step(p, np.array([g]), state)
        assert abs(p[0] - theta) < 1e-12

    def test_lr_zero_is_identity(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(3, 2))
        before = p.copy()
        state = AdamState.for_params(p, learning_rate=0.0)
        adam_step(p, rng.normal(size=(3, 2)), state)
        np.testing.assert_array_equal(p, before)

    @pytest.mark.parametrize("shape", [(1,), (7,), (4, 3)])
    def test_equals_the_adam_expression_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        lr, b1, b2, eps = 0.003, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        p = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4, size=shape)
        ref, moments = p.copy(), ([np.zeros(shape)], [np.zeros(shape)])
        state = AdamState.for_params(p, learning_rate=lr)
        for t in range(1, 9):
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3, size=shape)
            adam_step(p, g, state)
            per_array_adam([ref], [g], moments, t, lr, b1, b2, eps)
            np.testing.assert_array_equal(p, ref)
            np.testing.assert_array_equal(state.first_moment, moments[0][0])
            np.testing.assert_array_equal(state.second_moment, moments[1][0])

    def test_allocates_no_arrays(self):
        p, g = np.ones(100_000), np.full(100_000, 0.5)
        state = AdamState.for_params(p)
        adam_step(p, g, state)
        tracemalloc.start()
        try:
            adam_step(p, g, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.nbytes // 10  # one temporary array would be p.nbytes

    def test_shape_mismatch_rejected(self):
        p = np.zeros(3)
        state = AdamState.for_params(p)
        with pytest.raises(ValueError):
            adam_step(p, np.zeros(4), state)
        with pytest.raises(ValueError):
            adam_step(np.zeros(4), np.zeros(4), state)


def per_array_adam(params, grads, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as one loop over a network's arrays, each step written as the
    Adam expression: the flat, in-place step must equal it."""
    for p, g, m, v in zip(params, grads, *moments):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatBuffer:
    def test_layer_arrays_are_views_of_flat(self):
        w0, b0 = np.arange(6.0).reshape(2, 3), np.array([10.0, 11.0])
        w1, b1 = np.array([[20.0, 21.0]]), np.array([30.0])
        mlp = MlpParams([DenseLayer(w0, b0, "relu"), DenseLayer(w1, b1, "identity")])
        np.testing.assert_array_equal(mlp.flat, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
        assert mlp.flat.flags.c_contiguous and mlp.flat.dtype == np.float64
        for a in mlp.param_arrays():
            assert np.shares_memory(a, mlp.flat)
        mlp.param_arrays()[2][0, 1] = -5.0  # in place through param_arrays()
        assert mlp.flat[9] == -5.0
        mlp.flat[-1] = 7.0
        assert mlp.layers[1].bias[0] == 7.0

    def test_views_follow_param_arrays_layout(self):
        mlp = init_mlp([3, 5, 2], ["relu", "identity"], seed=0, name="t")
        buffer = np.arange(mlp.flat.size, dtype=np.float64)
        views = mlp.views(buffer)
        assert [v.shape for v in views] == [a.shape for a in mlp.param_arrays()]
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in views]), buffer)

    def test_layers_given_twice_back_each_stack_by_its_own_buffer(self):
        layers = init_mlp([3, 5, 2], ["relu", "identity"], seed=2, name="t").layers
        first, second = MlpParams(layers), MlpParams(layers)
        assert not np.shares_memory(first.flat, second.flat)
        for mlp in (first, second):
            for a in mlp.param_arrays():
                assert np.shares_memory(a, mlp.flat)
        second.flat[:] = 0.0
        assert np.any(first.flat != 0.0)
        np.testing.assert_array_equal(first.flat, MlpParams(layers).flat)

    def test_loaded_model_has_views(self, tmp_path):
        from advssl.data import DatasetSchema, Normalizer
        from advssl.persist import load_assl_model, save_assl_model
        from advssl.trainer import AsslConfig, init_assl_model

        cfg = AsslConfig(embedding_dim=3, encoder_hidden=4, head_hidden=4, disc_hidden=4)
        model = init_assl_model(5, 3, cfg)
        schema = DatasetSchema(tuple(f"f{i}" for i in range(5)), ("a", "b", "c"))
        norm = Normalizer(np.zeros(5), np.ones(5))
        save_assl_model(tmp_path / "m.json", model, cfg, schema, norm)
        loaded = load_assl_model(tmp_path / "m.json")[0]
        np.testing.assert_array_equal(loaded.flat, model.flat)
        for net in ("encoder", "supervised_head", "semi_head", "discriminator"):
            mlp = getattr(loaded, net)
            np.testing.assert_array_equal(mlp.flat, getattr(model, net).flat)
            assert np.shares_memory(mlp.flat, loaded.flat)  # one buffer for the model
            for a in mlp.param_arrays():
                assert np.shares_memory(a, mlp.flat)

    def test_flat_adam_step_equals_per_array_update_bit_for_bit(self):
        rng = np.random.default_rng(11)
        flat_net = init_mlp([6, 9, 4], ["relu", "identity"], seed=3, name="adam")
        ref_arrays = [a.copy() for a in flat_net.param_arrays()]  # independent arrays
        moments = ([np.zeros_like(a) for a in ref_arrays], [np.zeros_like(a) for a in ref_arrays])
        state = AdamState.for_params(flat_net.flat, learning_rate=0.01)
        for t in range(1, 6):
            grad = rng.normal(size=flat_net.flat.size) * 10.0 ** rng.integers(-6, 3)
            adam_step(flat_net.flat, grad, state)
            per_array_adam(ref_arrays, flat_net.views(grad), moments, t, lr=0.01)
        assert state.step_count == 5
        np.testing.assert_array_equal(flat_net.flat, np.concatenate([a.ravel() for a in ref_arrays]))

    def test_backward_flat_grads_and_skips(self):
        rng = np.random.default_rng(12)
        mlp = init_mlp([4, 6, 3], ["relu", "sigmoid"], seed=2, name="t")
        out, cache = mlp_forward(mlp, rng.normal(size=(5, 4)))
        upstream = rng.normal(size=out.shape)
        buffer = np.full(mlp.flat.size + 3, np.nan)
        grads, dx = mlp_backward(mlp, cache, upstream, mlp.on(buffer[2:-1]))
        assert grads.flat.base is buffer and np.isnan(buffer[[0, 1, -1]]).all()
        assert not np.isnan(grads.flat).any()
        fresh = mlp.on(np.empty_like(mlp.flat))
        only_params, no_dx = mlp_backward(mlp, cache, upstream, fresh, inputs=False)
        assert no_dx is None
        np.testing.assert_array_equal(only_params.flat, grads.flat)
        no_grads, dx_only = mlp_backward(mlp, cache, upstream)
        assert no_grads is None
        np.testing.assert_array_equal(dx_only, dx)


class TestL2Penalty:
    def test_zero_lambda(self):
        assert l2_penalty([np.array([1.0, 2.0])], 0.0) == 0.0
        mlp = MlpParams([DenseLayer(np.array([[np.inf]]), np.array([np.nan]), "identity")])
        assert l2_penalty(mlp, 0.0) == 0.0  # not 0 * inf: a zero weight adds nothing
        grads = np.array([1.0, -2.0])
        assert add_l2_grad(grads, mlp, 0.0) is grads and list(grads) == [1.0, -2.0]

    def test_hand_single_weight(self):
        mlp = MlpParams([DenseLayer(np.array([[2.0]]), np.zeros(1), "identity")])
        assert l2_penalty(mlp, 0.5) == 2.0

    def test_gradient_matches_finite_differences(self):
        """add_l2_grad adds the derivative of this value."""
        rng = np.random.default_rng(6)
        mlp = MlpParams(
            [
                DenseLayer(rng.normal(size=(2, 3)), rng.normal(size=2), "relu"),
                DenseLayer(rng.normal(size=(1, 2)), rng.normal(size=1), "identity"),
            ]
        )

        def loss(ps):  # ps are mlp's own arrays, views of mlp.flat
            return l2_penalty(mlp, 0.37), mlp.views(add_l2_grad(np.zeros_like(mlp.flat), mlp, 0.37))

        assert grad_check(loss, mlp.param_arrays(), epsilon=1e-6) < 1e-8

    def test_covers_biases_too(self):
        mlp = MlpParams([DenseLayer(np.zeros((1, 1)), np.array([3.0]), "identity")])
        assert l2_penalty(mlp, 1.0) == 9.0


class TestGradCheck:
    def test_quadratic_closed_form(self):
        params = [np.array([3.0])]

        def loss(ps):
            w = ps[0][0]
            return w * w, [np.array([2.0 * w])]

        assert grad_check(loss, params, epsilon=1e-6) < 1e-8

    def test_constant_loss_zero_grads(self):
        params = [np.array([1.0, -1.0])]

        def loss(ps):
            return 42.0, [np.zeros(2)]

        assert grad_check(loss, params, epsilon=1e-5) < 1e-8


class TestBceHelpers:
    def test_bce_grad_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = [rng.normal(size=(5, 3))]
        labels = rng.integers(0, 3, 5)

        def loss(ps):
            probs = softmax(ps[0])
            value, dprobs = bce_one_hot_and_grad(probs, labels)
            return value, [softmax_backward(probs, dprobs)]

        assert grad_check(loss, logits, epsilon=1e-6) < 1e-7


class TestTrimmedKernelsKeepTheirBits:
    """Each kernel written with fewer numpy calls equals its plain formula bit for bit."""

    def test_sigmoid_equals_the_sign_split_formula(self):
        z = np.random.default_rng(21).normal(size=(300, 2)) * 10.0 ** np.arange(-1, 1)
        z[:4, 0] = [0.0, -0.0, 800.0, -800.0]
        pos = z >= 0
        expected = np.empty_like(z)
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1.0 + ez)
        np.testing.assert_array_equal(activate("sigmoid", z), expected)

    def test_clamp_equals_clip(self):
        p = np.random.default_rng(22).uniform(-0.5, 1.5, size=(40, 5))
        p[0] = [0.0, -0.0, PROB_EPS / 2, 1.0 - PROB_EPS / 2, 1.0]
        np.testing.assert_array_equal(clamp_probs(p), np.clip(p, PROB_EPS, 1.0 - PROB_EPS))

    def test_mlp_forward_equals_the_layer_formula(self):
        mlp = init_mlp([5, 7, 3], ["relu", "sigmoid"], seed=4, name="bits")
        rng = np.random.default_rng(23)
        mlp.flat[:] = rng.normal(size=mlp.flat.size)  # nonzero biases too
        x = rng.normal(size=(9, 5))
        a = x
        for layer in mlp.layers:
            a = activate(layer.activation, a @ layer.weights.T + layer.bias)
        np.testing.assert_array_equal(mlp_forward(mlp, x)[0], a)

    def test_bce_and_grad_equal_their_formulas(self):
        rng = np.random.default_rng(24)
        probs = softmax(rng.normal(size=(11, 4)) * 20.0)  # some entries hit the clamp
        labels = rng.integers(0, 4, 11)
        y = np.eye(4)[labels]
        pc = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
        loss = float((-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum(axis=1)).mean())
        inside = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
        grad = -(y / pc - (1.0 - y) / (1.0 - pc)) * inside / probs.shape[0]
        got_loss, got_grad = bce_one_hot_and_grad(probs, labels)
        assert got_loss == loss
        np.testing.assert_array_equal(got_grad, grad)


class TestNoNonFinite:
    """Finite inputs never produce NaN/Inf from the public operations."""

    def test_random_finite_inputs(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            mlp = init_mlp([4, 8, 3], ["relu", "sigmoid"], seed=trial, name="safe")
            x = rng.uniform(-1e3, 1e3, size=(6, 4))
            out, cache = mlp_forward(mlp, x)
            assert np.all(np.isfinite(out))
            probs = softmax(rng.uniform(-1e3, 1e3, size=(6, 3)))
            assert np.all(np.isfinite(probs))
            upstream = rng.normal(size=out.shape)
            grads, dx = mlp_backward(mlp, cache, upstream, mlp.on(np.empty_like(mlp.flat)))
            assert np.all(np.isfinite(grads.flat))
            assert np.all(np.isfinite(dx))

    def test_named_rng_streams_independent(self):
        a = named_rng(0, "alpha").normal(size=4)
        b = named_rng(0, "beta").normal(size=4)
        a2 = named_rng(0, "alpha").normal(size=4)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, a2)
