"""Phase II: shared encoder, two classifier heads, and a discriminator.

The encoder maps labeled and pseudo-labeled rows into one embedding space;
a supervised head learns from true labels, a semi-supervised head from
pseudo labels, and a discriminator tries to tell the two pools apart. Each
optimization step runs one discriminator update (ascending the adversarial
value) followed by one generator update (descending supervised + semi +
alpha * adversarial), the usual GAN-style alternation. Both heads learn by
per-class BCE on one-hot targets plus L2. With the pseudo pool suppressed
(the supervised baseline) a step is the generator update alone, over the
encoder and the supervised head.

The encoder runs once per step, forward and backward, over the stacked
rows [x_l; x_u] (as DANN does); it is frozen during the discriminator
update, so both updates share that pass, and the discriminator sees
[emb_l; emb_u] in one pass per update. Only the two heads run per pool. A full step makes
5 mlp_forward and 5 mlp_backward calls and 2 Adam steps: one on the
discriminator, one on the generator's slice of the model buffer (AsslModel).
"""

from __future__ import annotations

import copy
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import Dataset, minibatch_indices, write_csv
from .metrics import macro_f1_score
from .nnet import (
    PROB_EPS,
    AdamState,
    DivergenceError,
    Matrix,
    MlpParams,
    adam_step,
    add_l2_grad,
    bce_one_hot_and_grad,
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


@dataclass
class AsslConfig:
    """Phase-II hyperparameters.

    lambda_l / lambda_u / lambda_adv regularize the supervised head, the
    semi-supervised head and the discriminator respectively; alpha weighs
    the adversarial term inside the generator objective. Both heads use
    per-class BCE on one-hot targets; the encoder has no L2 term.
    """

    embedding_dim: int = 32
    encoder_hidden: int = 64
    head_hidden: int = 64
    disc_hidden: int = 64
    lambda_l: float = 1e-4
    lambda_u: float = 1e-4
    lambda_adv: float = 1e-4
    alpha: float = 0.1
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 1e-3
    disc_learning_rate: float = 1e-3
    seed: int = 0
    inference_head: str = "supervised"
    suppress_pseudo: bool = False  # ablation: ignore the pseudo pool entirely

    def __post_init__(self):
        if min(self.lambda_l, self.lambda_u, self.lambda_adv, self.alpha) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if min(self.embedding_dim, self.encoder_hidden, self.head_hidden, self.disc_hidden) < 1:
            raise ValueError("embedding_dim and the hidden sizes must be >= 1")
        if min(self.learning_rate, self.disc_learning_rate) < 0:
            raise ValueError("learning rates must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.inference_head not in INFERENCE_HEADS:
            raise ValueError(f"inference_head must be one of {INFERENCE_HEADS}")


@dataclass
class AsslModel:
    """Shared encoder, both classifier heads and the discriminator.

    The four networks are views of one buffer, `flat`, laid out as
    [encoder | supervised_head | semi_head | discriminator]; `slices` maps
    each name to its part. Neither is a dataclass field.
    """

    encoder: MlpParams
    supervised_head: MlpParams
    semi_head: MlpParams
    discriminator: MlpParams

    def __post_init__(self):
        d, self.slices, start = self.encoder.out_dim, {}, 0
        for f in fields(self):
            net = getattr(self, f.name)
            if f.name != "encoder" and net.in_dim != d:
                raise ValueError(f"{f.name} expects input dim {net.in_dim} but encoder emits {d}")
            self.slices[f.name] = slice(start, start + net.flat.size)
            start += net.flat.size
        if self.supervised_head.out_dim != self.semi_head.out_dim:
            raise ValueError("classifier heads disagree on the number of classes")
        if self.discriminator.out_dim != 1:
            raise ValueError("discriminator must emit a single probability")
        if self.discriminator.layers[-1].activation != "sigmoid":
            raise ValueError("discriminator output layer must be sigmoid")
        self._store(np.concatenate([getattr(self, name).flat for name in self.slices]))

    def _store(self, flat: np.ndarray) -> None:
        self.flat = flat
        for name, part in self.slices.items():
            setattr(self, name, getattr(self, name).on(flat[part]))

    def generator_slice(self, suppress_pseudo: bool) -> slice:
        """The part of `flat` one generator update steps: encoder through the
        semi head, or through the supervised head when the pseudo pool is off."""
        return slice(0, self.slices["supervised_head" if suppress_pseudo else "semi_head"].stop)

    def on(self, flat: np.ndarray) -> "AsslModel":
        """A twin of this model whose networks are views of `flat`, laid out
        like self.flat (a gradient buffer takes the model's shape this way)."""
        twin = copy.copy(self)
        twin._store(flat)
        return twin

    def copy(self) -> "AsslModel":
        return self.on(self.flat.copy())


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
    return bce_one_hot_and_grad(probs, labels)[0] + l2_penalty(params, lam)


def loss_adversarial(d_labeled, d_unlabeled, lambda_adv: float, disc_params) -> float:
    """Adversarial value: mean log D on labeled + mean log(1-D) on pseudo
    (neither side empty).

    The discriminator ascends this (likelihood of calling the pool right),
    the encoder descends it. Nonpositive when lambda_adv is 0, maximal at 0
    only in the saturation limit.
    """
    d_labeled = np.asarray(d_labeled, dtype=np.float64).reshape(-1)
    d_unlabeled = np.asarray(d_unlabeled, dtype=np.float64).reshape(-1)
    value = float(
        np.log(clamp_probs(d_labeled)).mean() + np.log(1.0 - clamp_probs(d_unlabeled)).mean()
    )
    return value + l2_penalty(disc_params, lambda_adv)


def _head_grads(model: AsslModel, name: str, emb: Matrix, labels, lam: float, grads):
    """(per-class BCE + L2 value, embedding gradient) of the head `name`; its
    parameter gradient is written into its part of grads (an AsslModel)."""
    head, out = getattr(model, name), getattr(grads, name)
    logits, cache = mlp_forward(head, emb)
    probs = softmax(logits)
    loss, dprobs = bce_one_hot_and_grad(probs, labels)
    d_emb = mlp_backward(head, cache, softmax_backward(probs, dprobs), out)[1]
    add_l2_grad(out.flat, head, lam)
    return loss + l2_penalty(head, lam), d_emb


def _adversarial_grad(d: Matrix, n_l: int, scale: float) -> Matrix:
    """scale * d(adversarial likelihood)/dD for D over [emb_l; emb_u], whose
    first n_l rows are labeled. The two per-side means become per-row
    weights: scale/n_l on the labeled rows, -scale/n_u on the pseudo rows."""
    q = d.copy()  # D on labeled rows, 1 - D on pseudo rows
    np.subtract(1.0, d[n_l:], out=q[n_l:])
    grad = ((q > PROB_EPS) & (q < 1.0 - PROB_EPS)) / clamp_probs(q)  # d log(clamp(q))/dq
    grad[:n_l] *= scale / n_l
    grad[n_l:] *= -scale / (d.shape[0] - n_l)
    return grad


def _generator_grads(model: AsslModel, enc, y_l, y_u, cfg: AsslConfig, grads) -> dict:
    """generator_objective on this step's encoder pass enc = (embeddings,
    cache) over [x_l; x_u], or x_l alone when y_u is None (no semi head).
    Gradients go to each network's part of grads, a twin of the model over
    the gradient buffer (AsslModel.on); returns the loss parts."""
    emb, cache = enc
    n_l = len(y_l)
    loss_l, d_emb = _head_grads(model, "supervised_head", emb[:n_l], y_l, cfg.lambda_l, grads)
    loss_u = loss_adv = 0.0
    if y_u is not None:
        loss_u, d_emb_u = _head_grads(model, "semi_head", emb[n_l:], y_u, cfg.lambda_u, grads)
        d_heads = (d_emb, d_emb_u)
        if cfg.alpha > 0:
            disc = model.discriminator
            d, cache_d = mlp_forward(disc, emb)
            loss_adv = loss_adversarial(d[:n_l], d[n_l:], cfg.lambda_adv, disc)
            # generator descends alpha * loss_adv through every embedding
            up = _adversarial_grad(d, n_l, cfg.alpha)
            d_emb = mlp_backward(disc, cache_d, up)[1]
            d_emb[:n_l] += d_heads[0]
            d_emb[n_l:] += d_heads[1]
        else:
            d_emb = np.concatenate(d_heads)

    mlp_backward(model.encoder, cache, d_emb, grads.encoder, inputs=False)
    total = loss_l + loss_u + cfg.alpha * loss_adv
    return {"loss_l": loss_l, "loss_u": loss_u, "loss_adv": loss_adv, "total": total}


def _discriminator_grads(model: AsslModel, emb: Matrix, n_l: int, cfg: AsslConfig, grads):
    """discriminator_objective on this step's embeddings [emb_l; emb_u]
    (the first 0 < n_l < len(emb) rows labeled); the gradient is written
    into the discriminator's part of grads (an AsslModel)."""
    disc = model.discriminator
    d, cache = mlp_forward(disc, emb)
    d_l, d_u = d[:n_l], d[n_l:]
    likelihood = loss_adversarial(d_l, d_u, 0.0, ())
    reg_value = l2_penalty(disc, cfg.lambda_adv)
    out = grads.discriminator
    mlp_backward(disc, cache, _adversarial_grad(d, n_l, -1.0), out, inputs=False)
    add_l2_grad(out.flat, disc, cfg.lambda_adv)
    accuracy = float(((d_l > 0.5).sum() + (d_u <= 0.5).sum()) / d.size)
    return -likelihood + reg_value, likelihood + reg_value, accuracy


def generator_objective(
    model: AsslModel, x_l: Matrix, y_l, x_u: Matrix | None, y_u, cfg: AsslConfig
) -> tuple[dict, dict]:
    """Loss parts and gradients for the generator update.

    Returns (parts, grads): parts has loss_l / loss_u / loss_adv / total,
    grads maps encoder, supervised_head and semi_head (zeros without x_u)
    to lists in param_arrays() order. The discriminator is treated as a constant.
    """
    grads = model.on(np.zeros_like(model.flat))
    x = x_l if x_u is None else np.concatenate([x_l, x_u])
    parts = _generator_grads(model, mlp_forward(model.encoder, x), y_l, y_u, cfg, grads)
    names = ("encoder", "supervised_head", "semi_head")
    return parts, {name: getattr(grads, name).param_arrays() for name in names}


def discriminator_objective(
    model: AsslModel, x_l: Matrix, x_u: Matrix, cfg: AsslConfig
) -> tuple[float, list[np.ndarray], float, float]:
    """Descent objective for the discriminator, its gradients, the
    adversarial value and the batch accuracy.

    The objective is the negated adversarial likelihood plus the L2
    penalty, so descending it drives the discriminator toward telling
    labeled embeddings from pseudo-labeled ones. The encoder is frozen.
    """
    grads = model.on(np.empty_like(model.flat))
    emb = encode(model.encoder, np.concatenate([x_l, x_u]))
    objective, adv_value, accuracy = _discriminator_grads(model, emb, len(x_l), cfg, grads)
    return objective, grads.discriminator.param_arrays(), adv_value, accuracy


@dataclass
class OptimizerStates:
    """Adam states of the generator (model.generator_slice) and of the
    discriminator, and the model-wide gradient buffer both updates write,
    laid out once per train as a twin of the model (grads.flat is the buffer)."""

    generator: AdamState
    discriminator: AdamState
    grads: AsslModel

    @classmethod
    def create(cls, model: AsslModel, cfg: AsslConfig) -> "OptimizerStates":
        gen = model.flat[model.generator_slice(cfg.suppress_pseudo)]
        return cls(
            AdamState.for_params(gen, learning_rate=cfg.learning_rate),
            AdamState.for_params(model.discriminator.flat, learning_rate=cfg.disc_learning_rate),
            model.on(np.empty_like(model.flat)),
        )


def discriminator_step(
    model: AsslModel, emb: Matrix, n_l: int, cfg: AsslConfig, states: OptimizerStates
) -> tuple[float, float]:
    """One Adam step on the discriminator from this step's embeddings
    [emb_l; emb_u], the first n_l rows labeled.

    Returns (adversarial value, batch accuracy), both measured before the
    update.
    """
    _, adv_value, accuracy = _discriminator_grads(model, emb, n_l, cfg, states.grads)
    adam_step(model.discriminator.flat, states.grads.discriminator.flat, states.discriminator)
    return adv_value, accuracy


def generator_step(
    model: AsslModel, enc, y_l, y_u, cfg: AsslConfig, states: OptimizerStates
) -> dict:
    """One Adam step on encoder and both heads from this step's encoder
    pass over [x_l; x_u] (over x_l alone, and no semi head, when y_u is
    None); discriminator frozen."""
    parts = _generator_grads(model, enc, y_l, y_u, cfg, states.grads)
    gen = model.generator_slice(y_u is None)
    adam_step(model.flat[gen], states.grads.flat[gen], states.generator)
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
        header = ["epoch", "L_L", "L_U", "L_adv", "disc_acc", "val_macro_f1"]
        write_csv(path, header, map(astuple, self.records))


def predict_proba_matrix(model: AsslModel, x: Matrix, inference_head: str = "supervised") -> Matrix:
    emb = encode(model.encoder, x)
    if inference_head == "supervised":
        return classify(model.supervised_head, emb)
    if inference_head == "semi":
        return classify(model.semi_head, emb)
    return 0.5 * (classify(model.supervised_head, emb) + classify(model.semi_head, emb))


def train(
    labeled: Dataset,
    pseudo: PseudoLabeledDataset | None,
    validation: Dataset,
    cfg: AsslConfig,
    on_step=None,
) -> tuple[AsslModel, TrainHistory]:
    """Run the adversarial semi-supervised loop on nonempty labeled training
    and validation sets, return the best snapshot.

    Per step one labeled and one equal-sized pseudo sub-batch are drawn
    (both pools reshuffle per epoch, the pseudo pool cycles when short);
    each step runs the encoder once over the stacked rows [x_l; x_u], then
    one discriminator update and one generator update on that pass. The
    returned model is the parameter snapshot with the best validation
    macro-F1 (ties keep the earliest epoch). The optional on_step(step,
    model) hook fires after every completed step.

    This is the only training loop: the supervised_mlp variant and
    `baseline.train_supervised` are this loop with suppress_pseudo=True,
    where each step is one generator update of the encoder and the
    supervised head.
    """
    if not cfg.suppress_pseudo and (pseudo is None or len(pseudo) == 0):
        raise ValueError("no unlabeled rows to pseudo-label; cannot train phase II")

    m = labeled.schema.num_classes
    model = init_assl_model(labeled.schema.num_features, m, cfg)
    states = OptimizerStates.create(model, cfg)
    shuffle_l = named_rng(cfg.seed, "labeled_shuffle")
    shuffle_u = named_rng(cfg.seed, "pseudo_shuffle")
    best_model, best_f1, history, step = model.copy(), -np.inf, TrainHistory(), 0
    for epoch in range(cfg.epochs):
        batches = minibatch_indices(len(labeled), cfg.batch_size, shuffle_l)
        if not cfg.suppress_pseudo:
            pool = shuffle_u.permutation(len(pseudo))
        sums = np.zeros(4)  # loss_l, loss_u, loss_adv, disc_acc
        for idx in batches:
            x, y_l, y_u = labeled.rows[idx], labeled.labels[idx], None
            if not cfg.suppress_pseudo:
                while pool.size < idx.size:  # the pseudo pool cycles when short
                    pool = np.concatenate([pool, shuffle_u.permutation(len(pseudo))])
                sel, pool = pool[: idx.size], pool[idx.size :]
                x, y_u = np.concatenate([x, pseudo.rows[sel]]), pseudo.labels[sel]
            enc = mlp_forward(model.encoder, x)  # one pass over [x_l; x_u]
            disc_acc = 0.5
            if y_u is not None:
                adv_from_disc, disc_acc = discriminator_step(model, enc[0], idx.size, cfg, states)
            parts = generator_step(model, enc, y_l, y_u, cfg, states)
            if cfg.alpha == 0 and y_u is not None:
                parts = dict(parts, loss_adv=adv_from_disc)
            step += 1
            for key, label in (("loss_l", "L_L"), ("loss_u", "L_U"), ("loss_adv", "L_adv")):
                if not np.isfinite(parts[key]):
                    raise DivergenceError(f"non-finite {label} at epoch {epoch}, step {step}")
            sums += [parts["loss_l"], parts["loss_u"], parts["loss_adv"], disc_acc]
            if on_step is not None:
                on_step(step, model)
        preds = predict_proba_matrix(model, validation.rows, cfg.inference_head).argmax(axis=1)
        val_f1 = macro_f1_score(validation.labels, preds, m)
        means = [float(v) / len(batches) for v in sums]
        history.records.append(EpochRecord(epoch, *means, val_macro_f1=val_f1))
        if val_f1 > best_f1:
            best_f1, best_model = val_f1, model.copy()
    return best_model, history
