"""Phase II: shared encoder, two classifier heads, and a discriminator.

The encoder maps labeled and pseudo-labeled rows into one embedding space;
a supervised head learns from true labels, a semi-supervised head from
pseudo labels, and a discriminator tries to tell the two pools apart. Each
optimization step runs one discriminator update (ascending the adversarial
value) followed by one generator update (descending supervised + semi +
alpha * adversarial), the usual GAN-style alternation.

The encoder runs once per step on each batch: it is frozen during the
discriminator updates, so they and the generator update share its output.
Each update is one Adam step on a network's flat buffer (see MlpParams).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, atomic_write, minibatch_indices
from .metrics import macro_f1_score
from .nnet import (
    PROB_EPS,
    AdamState,
    DivergenceError,
    Matrix,
    MlpParams,
    adam_step,
    bce_one_hot,
    bce_one_hot_grad,
    categorical_ce,
    categorical_ce_grad,
    clamp_probs,
    init_mlp,
    l2_penalty,
    mlp_backward,
    mlp_forward,
    named_rng,
    softmax,
    softmax_backward,
)
from .prm import PseudoLabeledDataset

INFERENCE_HEADS = ("supervised", "semi", "averaged")
LOSS_STYLES = ("per_class_bce", "categorical_ce")


@dataclass
class AsslConfig:
    """Phase-II hyperparameters.

    lambda_l / lambda_u / lambda_adv regularize the supervised head, the
    semi-supervised head and the discriminator respectively; alpha weighs
    the adversarial term inside the generator objective. The encoder has
    its own optional weight decay (default 0).
    """

    embedding_dim: int = 32
    encoder_hidden: int = 64
    head_hidden: int = 64
    disc_hidden: int = 64
    lambda_l: float = 1e-4
    lambda_u: float = 1e-4
    lambda_adv: float = 1e-4
    alpha: float = 0.1
    encoder_weight_decay: float = 0.0
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 1e-3
    disc_learning_rate: float = 1e-3
    disc_steps: int = 1
    seed: int = 0
    inference_head: str = "supervised"
    loss_style: str = "per_class_bce"
    suppress_pseudo: bool = False  # ablation: ignore the pseudo pool entirely
    train_discriminator: bool = True  # ablation: freeze the discriminator

    def __post_init__(self):
        if min(self.lambda_l, self.lambda_u, self.lambda_adv, self.alpha) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.encoder_weight_decay < 0:
            raise ValueError("encoder_weight_decay must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.epochs < 1 or self.disc_steps < 1:
            raise ValueError("epochs and disc_steps must be >= 1")
        if self.inference_head not in INFERENCE_HEADS:
            raise ValueError(f"inference_head must be one of {INFERENCE_HEADS}")
        if self.loss_style not in LOSS_STYLES:
            raise ValueError(f"loss_style must be one of {LOSS_STYLES}")


@dataclass
class AsslModel:
    """Shared encoder, both classifier heads and the discriminator."""

    encoder: MlpParams
    supervised_head: MlpParams
    semi_head: MlpParams
    discriminator: MlpParams

    def __post_init__(self):
        d = self.encoder.out_dim
        for name, net in (
            ("supervised_head", self.supervised_head),
            ("semi_head", self.semi_head),
            ("discriminator", self.discriminator),
        ):
            if net.in_dim != d:
                raise ValueError(
                    f"{name} expects input dim {net.in_dim} but encoder emits {d}"
                )
        if self.supervised_head.out_dim != self.semi_head.out_dim:
            raise ValueError("classifier heads disagree on the number of classes")
        if self.discriminator.out_dim != 1:
            raise ValueError("discriminator must emit a single probability")
        if self.discriminator.layers[-1].activation != "sigmoid":
            raise ValueError("discriminator output layer must be sigmoid")

    @property
    def input_dim(self) -> int:
        return self.encoder.in_dim

    @property
    def embedding_dim(self) -> int:
        return self.encoder.out_dim

    @property
    def num_classes(self) -> int:
        return self.supervised_head.out_dim

    def copy(self) -> "AsslModel":
        return AsslModel(*(getattr(self, f.name).copy() for f in fields(self)))


def init_assl_model(input_dim: int, num_classes: int, cfg: AsslConfig) -> AsslModel:
    d, s = cfg.embedding_dim, cfg.seed
    return AsslModel(
        encoder=init_mlp(
            [input_dim, cfg.encoder_hidden, d], ["relu", "identity"], s, "encoder"
        ),
        supervised_head=init_mlp(
            [d, cfg.head_hidden, num_classes], ["relu", "identity"], s, "supervised_head"
        ),
        semi_head=init_mlp(
            [d, cfg.head_hidden, num_classes], ["relu", "identity"], s, "semi_head"
        ),
        discriminator=init_mlp(
            [d, cfg.disc_hidden, 1], ["relu", "sigmoid"], s, "discriminator"
        ),
    )


def encode(encoder: MlpParams, batch: Matrix) -> Matrix:
    """Embed a batch of feature rows; same network for both data pools."""
    return mlp_forward(encoder, batch)[0]


def classify(head: MlpParams, embeddings: Matrix) -> Matrix:
    """Class probabilities (softmax over head logits), one simplex per row."""
    return softmax(mlp_forward(head, embeddings)[0])


def loss_bce_l2(probs: Matrix, labels, lam: float, params) -> float:
    """Per-class binary cross-entropy over one-hot targets + lam*||params||^2."""
    return bce_one_hot(probs, labels) + l2_penalty(params, lam)


def loss_adversarial(d_labeled, d_unlabeled, lambda_adv: float, disc_params) -> float:
    """Adversarial value: mean log D on labeled + mean log(1-D) on pseudo.

    The discriminator ascends this (likelihood of calling the pool right),
    the encoder descends it. Nonpositive when lambda_adv is 0, maximal at 0
    only in the saturation limit.
    """
    d_labeled = np.asarray(d_labeled, dtype=np.float64).reshape(-1)
    d_unlabeled = np.asarray(d_unlabeled, dtype=np.float64).reshape(-1)
    if d_labeled.size == 0 or d_unlabeled.size == 0:
        raise ValueError("adversarial loss needs at least one row on each side")
    value = float(
        np.log(clamp_probs(d_labeled)).mean() + np.log(1.0 - clamp_probs(d_unlabeled)).mean()
    )
    return value + l2_penalty(disc_params, lambda_adv)


def _l2_value(net: MlpParams, lam: float) -> float:
    """lam * ||net||^2 (computed per array, as l2_penalty does); 0.0 when lam is 0."""
    return l2_penalty(net, lam) if lam else 0.0


def _add_l2(grads: np.ndarray, net: MlpParams, lam: float) -> np.ndarray:
    """Add the gradient 2*lam*params of _l2_value in place; nothing when lam is 0."""
    if lam:
        grads += 2.0 * lam * net.flat
    return grads


def _head_grads(head: MlpParams, emb: Matrix, labels, lam: float, style: str):
    """(loss + L2 value, flat parameter gradient, embedding gradient) of a head."""
    logits, cache = mlp_forward(head, emb)
    probs = softmax(logits)
    if style == "per_class_bce":
        loss, dprobs = bce_one_hot(probs, labels), bce_one_hot_grad(probs, labels)
    else:
        loss, dprobs = categorical_ce(probs, labels), categorical_ce_grad(probs, labels)
    grads, d_emb = mlp_backward(head, cache, softmax_backward(probs, dprobs))
    return loss + _l2_value(head, lam), _add_l2(grads, head, lam), d_emb


def _log_grad_inside(p: np.ndarray) -> np.ndarray:
    """d log(clamp(p))/dp: 1/p inside the clamp window, 0 where clamped."""
    inside = (p > PROB_EPS) & (p < 1.0 - PROB_EPS)
    return inside / clamp_probs(p)


def _generator_grads(model: AsslModel, enc_l, y_l, enc_u, y_u, cfg: AsslConfig):
    """generator_objective on this step's encoder passes enc = (embeddings,
    cache); enc_u is None when the pseudo pool is suppressed, and then grads
    has no semi_head entry. Gradients are flat, one per network.
    """
    emb_l, cache_el = enc_l
    loss_l, sup_grads, d_emb_l = _head_grads(
        model.supervised_head, emb_l, y_l, cfg.lambda_l, cfg.loss_style
    )
    grads = {"supervised_head": sup_grads}
    loss_u = loss_adv = 0.0
    if enc_u is not None:
        emb_u, cache_eu = enc_u
        loss_u, grads["semi_head"], d_emb_u = _head_grads(
            model.semi_head, emb_u, y_u, cfg.lambda_u, cfg.loss_style
        )
        if cfg.alpha > 0:
            disc = model.discriminator
            d_l, cache_dl = mlp_forward(disc, emb_l)
            d_u, cache_du = mlp_forward(disc, emb_u)
            loss_adv = loss_adversarial(d_l, d_u, cfg.lambda_adv, disc)
            # generator descends alpha * loss_adv through both embeddings
            up_l = cfg.alpha * _log_grad_inside(d_l) / d_l.shape[0]
            up_u = -cfg.alpha * _log_grad_inside(1.0 - d_u) / d_u.shape[0]
            d_emb_l = d_emb_l + mlp_backward(disc, cache_dl, up_l, params=False)[1]
            d_emb_u = d_emb_u + mlp_backward(disc, cache_du, up_u, params=False)[1]

    enc_grads = mlp_backward(model.encoder, cache_el, d_emb_l, inputs=False)[0]
    if enc_u is not None:
        enc_grads += mlp_backward(model.encoder, cache_eu, d_emb_u, inputs=False)[0]
    wd = cfg.encoder_weight_decay
    grads["encoder"] = _add_l2(enc_grads, model.encoder, wd)

    total = loss_l + loss_u + cfg.alpha * loss_adv + _l2_value(model.encoder, wd)
    parts = {"loss_l": loss_l, "loss_u": loss_u, "loss_adv": loss_adv, "total": total}
    return parts, grads


def _discriminator_grads(model: AsslModel, emb_l: Matrix, emb_u: Matrix, cfg: AsslConfig):
    """discriminator_objective on this step's embeddings, with a flat gradient."""
    if emb_l.shape[0] == 0 or emb_u.shape[0] == 0:
        raise ValueError("discriminator step needs a nonempty batch on each side")
    disc = model.discriminator
    d_l, cache_dl = mlp_forward(disc, emb_l)
    d_u, cache_du = mlp_forward(disc, emb_u)
    likelihood = float(np.log(clamp_probs(d_l)).mean() + np.log(1.0 - clamp_probs(d_u)).mean())
    reg_value = _l2_value(disc, cfg.lambda_adv)
    objective = -likelihood + reg_value
    up_l = -_log_grad_inside(d_l) / d_l.shape[0]
    up_u = _log_grad_inside(1.0 - d_u) / d_u.shape[0]
    grads = mlp_backward(disc, cache_dl, up_l, inputs=False)[0]
    grads += mlp_backward(disc, cache_du, up_u, inputs=False)[0]
    _add_l2(grads, disc, cfg.lambda_adv)
    adv_value = likelihood + reg_value
    accuracy = float(((d_l > 0.5).sum() + (d_u <= 0.5).sum()) / (d_l.size + d_u.size))
    return objective, grads, adv_value, accuracy


def generator_objective(
    model: AsslModel, x_l: Matrix, y_l, x_u: Matrix | None, y_u, cfg: AsslConfig
) -> tuple[dict, dict]:
    """Loss parts and gradients for the generator update.

    Returns (parts, grads): parts has loss_l / loss_u / loss_adv / total,
    grads maps encoder, supervised_head and semi_head (zeros without x_u)
    to lists in param_arrays() order. The discriminator is treated as a constant.
    """
    enc_u = None if x_u is None else mlp_forward(model.encoder, x_u)
    parts, grads = _generator_grads(model, mlp_forward(model.encoder, x_l), y_l, enc_u, y_u, cfg)
    grads.setdefault("semi_head", np.zeros_like(model.semi_head.flat))
    return parts, {name: getattr(model, name).views(g) for name, g in grads.items()}


def discriminator_objective(
    model: AsslModel, x_l: Matrix, x_u: Matrix, cfg: AsslConfig
) -> tuple[float, list[np.ndarray], float, float]:
    """Descent objective for the discriminator, its gradients, the
    adversarial value and the batch accuracy.

    The objective is the negated adversarial likelihood plus the L2
    penalty, so descending it drives the discriminator toward telling
    labeled embeddings from pseudo-labeled ones. The encoder is frozen.
    """
    objective, grads, adv_value, accuracy = _discriminator_grads(
        model, encode(model.encoder, x_l), encode(model.encoder, x_u), cfg
    )
    return objective, model.discriminator.views(grads), adv_value, accuracy


@dataclass
class OptimizerStates:
    encoder: AdamState
    supervised_head: AdamState
    semi_head: AdamState
    discriminator: AdamState

    @classmethod
    def create(cls, model: AsslModel, cfg: AsslConfig) -> "OptimizerStates":
        nets = (model.encoder, model.supervised_head, model.semi_head, model.discriminator)
        rates = (cfg.learning_rate,) * 3 + (cfg.disc_learning_rate,)
        return cls(*(AdamState.for_params(n.flat, learning_rate=r) for n, r in zip(nets, rates)))


def discriminator_step(
    model: AsslModel, emb_l: Matrix, emb_u: Matrix, cfg: AsslConfig, state: AdamState
) -> tuple[float, float]:
    """One Adam step on the discriminator from this step's embeddings.

    Returns (adversarial value, batch accuracy), both measured before the
    update.
    """
    _, grads, adv_value, accuracy = _discriminator_grads(model, emb_l, emb_u, cfg)
    adam_step(model.discriminator.flat, grads, state)
    return adv_value, accuracy


def generator_step(
    model: AsslModel, enc_l, y_l, enc_u, y_u, cfg: AsslConfig, states: OptimizerStates
) -> dict:
    """One Adam step on encoder and both heads (the semi head only when
    enc_u is given) from this step's encoder passes; discriminator frozen."""
    parts, grads = _generator_grads(model, enc_l, y_l, enc_u, y_u, cfg)
    for name, grad in grads.items():
        adam_step(getattr(model, name).flat, grad, getattr(states, name))
    return parts


@dataclass
class EpochRecord:
    epoch: int
    loss_l: float
    loss_u: float
    loss_adv: float
    disc_acc: float
    val_macro_f1: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with atomic_write(path, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch", "L_L", "L_U", "L_adv", "disc_acc", "val_macro_f1"])
            for r in self.records:
                writer.writerow(
                    [
                        r.epoch,
                        repr(r.loss_l),
                        repr(r.loss_u),
                        repr(r.loss_adv),
                        repr(r.disc_acc),
                        repr(r.val_macro_f1),
                    ]
                )


def predict_proba_matrix(model: AsslModel, x: Matrix, inference_head: str = "supervised") -> Matrix:
    if inference_head not in INFERENCE_HEADS:
        raise ValueError(f"inference_head must be one of {INFERENCE_HEADS}")
    emb = encode(model.encoder, x)
    if inference_head == "supervised":
        return classify(model.supervised_head, emb)
    if inference_head == "semi":
        return classify(model.semi_head, emb)
    return 0.5 * (classify(model.supervised_head, emb) + classify(model.semi_head, emb))


def _check_finite_parts(parts: dict, epoch: int, step: int) -> None:
    names = {"loss_l": "L_L", "loss_u": "L_U", "loss_adv": "L_adv"}
    for key, label in names.items():
        if not np.isfinite(parts[key]):
            raise DivergenceError(f"non-finite {label} at epoch {epoch}, step {step}")


def train(
    labeled: Dataset,
    pseudo: PseudoLabeledDataset | None,
    validation: Dataset,
    cfg: AsslConfig,
    on_step=None,
) -> tuple[AsslModel, TrainHistory]:
    """Run the adversarial semi-supervised loop, return the best snapshot.

    Per step one labeled and one equal-sized pseudo sub-batch are drawn
    (both pools reshuffle per epoch, the pseudo pool cycles when short);
    each step encodes both sub-batches once, then runs cfg.disc_steps
    discriminator updates and one generator update on those encodings. The
    returned model is the parameter snapshot with the best
    validation macro-F1 (ties keep the earliest epoch). The optional
    on_step(step, model) hook fires after every completed step.

    This is the only training loop: `baseline.train_supervised` is this
    loop with the pseudo pool suppressed (suppress_pseudo=True), where each
    step is one generator update of the encoder and the supervised head.
    """
    if len(labeled) == 0:
        raise ValueError("labeled training set is empty")
    if not labeled.is_labeled:
        raise ValueError("labeled training set has no labels")
    if not validation.is_labeled or len(validation) == 0:
        raise ValueError("validation set must be labeled and nonempty")
    if not cfg.suppress_pseudo and (pseudo is None or len(pseudo) == 0):
        raise ValueError("pseudo-labeled pool is empty (set suppress_pseudo to skip it)")

    m = labeled.schema.num_classes
    model = init_assl_model(labeled.schema.num_features, m, cfg)
    states = OptimizerStates.create(model, cfg)
    shuffle_l = named_rng(cfg.seed, "labeled_shuffle")
    shuffle_u = named_rng(cfg.seed, "pseudo_shuffle")

    u_perm = np.empty(0, dtype=np.int64)
    u_pos = 0

    def draw_pseudo(count: int) -> np.ndarray:
        nonlocal u_perm, u_pos
        taken = []
        while count > 0:
            if u_pos >= u_perm.size:
                u_perm = shuffle_u.permutation(len(pseudo))
                u_pos = 0
            chunk = u_perm[u_pos : u_pos + count]
            taken.append(chunk)
            u_pos += chunk.size
            count -= chunk.size
        return np.concatenate(taken)

    best_model = model.copy()
    best_f1 = -np.inf
    history = TrainHistory()
    step = 0
    for epoch in range(cfg.epochs):
        batches = minibatch_indices(len(labeled), cfg.batch_size, shuffle_l)
        if not cfg.suppress_pseudo:
            u_perm = shuffle_u.permutation(len(pseudo))
            u_pos = 0
        sums = {"loss_l": 0.0, "loss_u": 0.0, "loss_adv": 0.0, "disc_acc": 0.0}
        for idx in batches:
            y_l = labeled.labels[idx]
            enc_l = mlp_forward(model.encoder, labeled.rows[idx])
            disc_acc = 0.5
            if cfg.suppress_pseudo:
                parts = generator_step(model, enc_l, y_l, None, None, cfg, states)
            else:
                sel = draw_pseudo(idx.size)
                enc_u = mlp_forward(model.encoder, pseudo.rows[sel])
                y_u = pseudo.labels[sel]
                adv_from_disc = None
                if cfg.train_discriminator:
                    for _ in range(cfg.disc_steps):
                        adv_from_disc, disc_acc = discriminator_step(
                            model, enc_l[0], enc_u[0], cfg, states.discriminator
                        )
                parts = generator_step(model, enc_l, y_l, enc_u, y_u, cfg, states)
                if cfg.alpha == 0 and adv_from_disc is not None:
                    parts = dict(parts, loss_adv=adv_from_disc)
            step += 1
            _check_finite_parts(parts, epoch, step)
            sums["loss_l"] += parts["loss_l"]
            sums["loss_u"] += parts["loss_u"]
            sums["loss_adv"] += parts["loss_adv"]
            sums["disc_acc"] += disc_acc
            if on_step is not None:
                on_step(step, model)
        n_batches = len(batches)
        preds = predict_proba_matrix(model, validation.rows, cfg.inference_head).argmax(axis=1)
        val_f1 = macro_f1_score(validation.labels, preds, m)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                loss_l=sums["loss_l"] / n_batches,
                loss_u=sums["loss_u"] / n_batches,
                loss_adv=sums["loss_adv"] / n_batches,
                disc_acc=sums["disc_acc"] / n_batches,
                val_macro_f1=val_f1,
            )
        )
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_model = model.copy()
    return best_model, history
