"""The numeric core of both phases: dense layers, forward/backward passes,
losses, L2, Adam and gradient checks.

Phase II's encoder, heads and discriminator and Phase I's logistic
regression (one identity layer) are built from these pieces: all train with
mlp_forward / mlp_backward / add_l2_grad / adam_step, all predict with
mlp_forward, all math is float64, and every gradient has a closed form that
the test suite verifies against central finite differences.
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass, field

import numpy as np

# A Matrix is a 2-D float64 ndarray whose rows are samples.
Matrix = np.ndarray

ACTIVATIONS = ("relu", "sigmoid", "identity")

# Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log().
PROB_EPS = 1e-12

# Adam's decay rates and denominator guard: one value each serves every network.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class DivergenceError(RuntimeError):
    """Training diverged: a loss went non-finite, or a loss that must not rise rose."""


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Reproducible RNG stream derived from (seed, stream name).

    Streams with different names are statistically independent, so adding
    or removing a consumer never shifts the draws seen by the others.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))])
    )


def as_matrix(x, name: str = "input") -> Matrix:
    """x as a float64 array; anything but 2-D is a ValueError that names it."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


@dataclass
class DenseLayer:
    """Fully connected layer: activation(X @ weights.T + bias)."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out_dim {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class MlpParams:
    """An ordered stack of dense layers with consistent dimensions.

    It holds new layers whose arrays are views into one contiguous buffer,
    `flat`, in param_arrays() order: one Adam step updates all.
    """

    layers: list[DenseLayer]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer output dim {a.out_dim} does not feed layer input dim {b.in_dim}"
                )
        self._store(np.concatenate([a.ravel() for a in self.param_arrays()] or [np.empty(0)]))

    def _store(self, buffer: np.ndarray) -> None:
        views = self.views(buffer)
        pairs = zip(self.layers, views[::2], views[1::2])
        self.layers = [DenseLayer(w, b, layer.activation) for layer, w, b in pairs]
        self.flat = buffer

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def param_arrays(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...]; order is the contract
        grads and Adam moments follow."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Views of a buffer laid out like `flat`, shaped like param_arrays()."""
        out, start = [], 0
        for a in self.param_arrays():
            out.append(buffer[start : start + a.size].reshape(a.shape))
            start += a.size
        return out

    def on(self, buffer: np.ndarray) -> "MlpParams":
        """A twin of this stack whose arrays are views of `buffer`, which
        already holds its values laid out like `flat`."""
        twin = copy.copy(self)
        twin._store(buffer)
        return twin


def init_dense(in_dim: int, out_dim: int, activation: str, rng: np.random.Generator) -> DenseLayer:
    """He-uniform init for relu layers, Xavier-uniform otherwise; zero bias."""
    if activation == "relu":
        limit = np.sqrt(6.0 / in_dim)
    else:
        limit = np.sqrt(6.0 / (in_dim + out_dim))
    weights = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weights, np.zeros(out_dim), activation)


def init_mlp(dims: list[int], activations: list[str], seed: int, name: str) -> MlpParams:
    """Build an MLP with layer sizes dims[0] -> dims[1] -> ... -> dims[-1].

    `name` selects the RNG stream, so each network of a model draws its
    weights independently of the others; activations has one entry per layer.
    """
    rng = named_rng(seed, name)
    layers = [
        init_dense(dims[i], dims[i + 1], activations[i], rng) for i in range(len(dims) - 1)
    ]
    return MlpParams(layers)


def activate(kind: str, z: np.ndarray) -> np.ndarray:
    """kind is one of ACTIVATIONS: DenseLayer refuses any other."""
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) below: never overflows
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return z  # identity


def activation_grad(kind: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / d z, given pre-activation z and output a (a bool mask
    for relu); kind is relu or sigmoid, as mlp_backward skips identity."""
    if kind == "relu":
        return z > 0
    return a * (1.0 - a)  # sigmoid


def softmax(logits: Matrix) -> Matrix:
    """Row-wise stable softmax of a 2-D array."""
    out = logits - logits.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def mlp_forward(mlp: MlpParams, x: Matrix) -> tuple[Matrix, list[tuple]]:
    """Forward pass returning (output, cache).

    The cache holds, per layer, (input, pre-activation, output) so that
    mlp_backward never recomputes anything.
    """
    a = as_matrix(x, "x")
    if a.shape[1] != mlp.in_dim:
        raise ValueError(
            f"shape mismatch: input has {a.shape[1]} columns, network expects {mlp.in_dim}"
        )
    cache = []
    for layer in mlp.layers:
        z = a @ layer.weights.T
        z += layer.bias
        out = activate(layer.activation, z)
        cache.append((a, z, out))
        a = out
    return a, cache


def mlp_backward(
    mlp: MlpParams, cache: list[tuple], upstream: Matrix, out: MlpParams | None = None, inputs=True
) -> tuple[MlpParams | None, Matrix | None]:
    """Reverse-mode gradients of mlp_forward contracted with `upstream`.

    Returns (out, input_grad): the parameter gradients are written into
    the arrays of `out`, a stack shaped like mlp (mlp.on(buffer) lays one
    out over a gradient buffer once; out.flat is that buffer). out=None
    skips them and inputs=False input_grad, returning None in their place.
    """
    if len(cache) != len(mlp.layers):
        raise ValueError(
            f"cache has {len(cache)} layers but network has {len(mlp.layers)}"
        )
    grad = upstream
    if grad.shape != cache[-1][2].shape:
        raise ValueError(
            f"upstream gradient shape {grad.shape} does not match output shape {cache[-1][2].shape}"
        )
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        x_in, z, a = cache[i]
        dz = grad
        if layer.activation != "identity":
            dz = grad * activation_grad(layer.activation, z, a)
        if out is not None:
            np.matmul(dz.T, x_in, out=out.layers[i].weights)
            dz.sum(axis=0, out=out.layers[i].bias)
        grad = dz @ layer.weights if i > 0 or inputs else None
    return out, grad


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)  # np.clip, without its wrapper


def bce_one_hot_and_grad(probs: Matrix, labels: np.ndarray) -> tuple[float, Matrix]:
    """Per-class binary cross-entropy against one-hot targets (batch mean)
    and its gradient in probs, zero where the clamp is active.

    For each sample with one-hot target y and prediction p:
        -(sum_i y_i*log(p_i) + (1 - y_i)*log(1 - p_i))
    """
    probs = as_matrix(probs, "probs")
    y = one_hot(labels, probs.shape[1])
    pc = clamp_probs(probs)
    not_y, not_pc = 1.0 - y, 1.0 - pc
    loss = float((-(y * np.log(pc) + not_y * np.log(not_pc)).sum(axis=1)).mean())
    inside = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    return loss, -(y / pc - not_y / not_pc) * inside / probs.shape[0]


def categorical_ce(probs: Matrix, labels: np.ndarray) -> float:
    """Plain multiclass cross-entropy -mean(log p[true])."""
    probs = as_matrix(probs, "probs")
    labels = np.asarray(labels, dtype=np.int64)
    picked = clamp_probs(probs[np.arange(probs.shape[0]), labels])
    return float(-np.log(picked).mean())


def categorical_ce_grad(probs: Matrix, labels: np.ndarray) -> Matrix:
    probs = as_matrix(probs, "probs")
    labels = np.asarray(labels, dtype=np.int64)
    grad = np.zeros_like(probs)
    rows = np.arange(probs.shape[0])
    picked = probs[rows, labels]
    inside = (picked > PROB_EPS) & (picked < 1.0 - PROB_EPS)
    grad[rows, labels] = -inside.astype(np.float64) / clamp_probs(picked) / probs.shape[0]
    return grad


def softmax_backward(probs: Matrix, dprobs: Matrix) -> Matrix:
    """Backprop dL/dprobs through a row-wise softmax to dL/dlogits."""
    dot = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - dot)


@dataclass
class AdamState:
    """Adam moments for one parameter array (a network's flat buffer), and
    two arrays of its shape that adam_step works in."""

    learning_rate: float
    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    workspace: np.ndarray = field(repr=False)

    @classmethod
    def for_params(cls, params: np.ndarray, learning_rate: float) -> "AdamState":
        moments = np.zeros_like(params), np.zeros_like(params)
        return cls(learning_rate, 0, *moments, np.empty((2,) + params.shape))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One in-place, element-wise Adam update with bias correction.

    theta -= lr * m_hat / (sqrt(v_hat) + eps), with ADAM_BETA1, ADAM_BETA2
    and eps = ADAM_EPSILON.

    It allocates nothing: each product goes to state.workspace in this
    expression's evaluation order, so the bits are the expression's.
    """
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        shapes = (params.shape, grads.shape, state.first_moment.shape)
        raise ValueError(f"param, grad and Adam state shapes differ: {shapes}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.first_moment, state.second_moment
    step, root = state.workspace
    m *= b1
    m += np.multiply(1.0 - b1, grads, out=step)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, grads, out=step), grads, out=step)
    np.multiply(state.learning_rate, np.divide(m, 1.0 - b1**t, out=step), out=step)  # lr * m_hat
    np.sqrt(np.divide(v, 1.0 - b2**t, out=root), out=root)  # sqrt(v_hat)
    root += ADAM_EPSILON
    step /= root
    params -= step


def l2_penalty(params, lam: float) -> float:
    """lam (>= 0) * sum of squares over every entry (weights and biases alike) of
    an MlpParams, one dot product over its flat buffer; 0.0 when lam is 0,
    before params is read. add_l2_grad adds its gradient."""
    if lam == 0:
        return 0.0
    return lam * float(params.flat @ params.flat)


def add_l2_grad(grads: np.ndarray, net: MlpParams, lam: float) -> np.ndarray:
    """Add 2 * lam * net.flat, the gradient of l2_penalty(net, lam), to the
    flat gradient buffer grads in place and return it; nothing when lam is 0."""
    if lam:
        grads += 2.0 * lam * net.flat
    return grads


def grad_check(loss_fn, params: list[np.ndarray], epsilon: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    `loss_fn(params) -> (value, grads)` must be deterministic and must not
    mutate its input; grads follow the order of `params`. Relative error is
    |a - n| / max(|a|, |n|, 1e-12) per coordinate.
    """
    _, analytic = loss_fn(params)
    worst = 0.0
    for k, p in enumerate(params):
        flat = p.reshape(-1)
        a_flat = np.asarray(analytic[k]).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            up, _ = loss_fn(params)
            flat[j] = orig - epsilon
            down, _ = loss_fn(params)
            flat[j] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(a_flat[j]), abs(numeric), 1e-12)
            worst = max(worst, abs(a_flat[j] - numeric) / denom)
    return worst
