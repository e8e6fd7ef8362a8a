"""Plain supervised MLP trainer built directly on the dense-network core.

Same encoder + classifier-head architecture as the Phase-II model but
trained on labeled rows only. Serves as the uplift reference: given the
same seed, its parameter trajectory is bit-identical to the Phase-II
trainer run with the adversarial and semi-supervised paths switched off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, minibatch_indices
from .metrics import macro_f1_score
from .nnet import (
    AdamState,
    MlpParams,
    adam_step,
    bce_one_hot,
    bce_one_hot_grad,
    categorical_ce,
    categorical_ce_grad,
    init_mlp,
    l2_penalty,
    mlp_backward,
    mlp_forward,
    named_rng,
    softmax,
    softmax_backward,
)
from .trainer import AsslConfig, DivergenceError, EpochRecord, TrainHistory


@dataclass
class SupervisedMlp:
    encoder: MlpParams
    head: MlpParams

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        emb, _ = mlp_forward(self.encoder, x)
        return softmax(mlp_forward(self.head, emb)[0])

    def copy(self) -> "SupervisedMlp":
        return SupervisedMlp(self.encoder.copy(), self.head.copy())


def train_supervised(
    labeled: Dataset, validation: Dataset, cfg: AsslConfig, on_step=None
) -> tuple[SupervisedMlp, TrainHistory]:
    """Supervised-only training with the Phase-II architecture and seeds.

    Uses the same named RNG streams ("encoder", "supervised_head",
    "labeled_shuffle") and the same loss/update arithmetic as the Phase-II
    trainer, so the two match bit for bit when Phase II suppresses its
    pseudo pool.
    """
    if len(labeled) == 0 or not labeled.is_labeled:
        raise ValueError("labeled training set must be nonempty and labeled")
    if not validation.is_labeled or len(validation) == 0:
        raise ValueError("validation set must be labeled and nonempty")
    m = labeled.schema.num_classes
    f = labeled.schema.num_features
    model = SupervisedMlp(
        encoder=init_mlp(
            [f, cfg.encoder_hidden, cfg.embedding_dim], ["relu", "identity"], cfg.seed, "encoder"
        ),
        head=init_mlp(
            [cfg.embedding_dim, cfg.head_hidden, m],
            ["relu", "identity"],
            cfg.seed,
            "supervised_head",
        ),
    )
    enc_state = AdamState.for_params(model.encoder.param_arrays(), learning_rate=cfg.learning_rate)
    head_state = AdamState.for_params(model.head.param_arrays(), learning_rate=cfg.learning_rate)
    shuffle = named_rng(cfg.seed, "labeled_shuffle")

    per_class = cfg.loss_style == "per_class_bce"
    best = model.copy()
    best_f1 = -np.inf
    history = TrainHistory()
    step = 0
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        batches = minibatch_indices(len(labeled), cfg.batch_size, shuffle)
        for idx in batches:
            x, y = labeled.rows[idx], labeled.labels[idx]
            emb, cache_e = mlp_forward(model.encoder, x)
            logits, cache_h = mlp_forward(model.head, emb)
            probs = softmax(logits)
            if per_class:
                loss = bce_one_hot(probs, y)
                dprobs = bce_one_hot_grad(probs, y)
            else:
                loss = categorical_ce(probs, y)
                dprobs = categorical_ce_grad(probs, y)
            loss += l2_penalty(model.head, cfg.lambda_l)[0]
            dlogits = softmax_backward(probs, dprobs)
            head_grads, d_emb = mlp_backward(model.head, cache_h, dlogits)
            head_grads = [g + 2.0 * cfg.lambda_l * a for g, a in zip(head_grads, model.head.param_arrays())]
            enc_grads, _ = mlp_backward(model.encoder, cache_e, d_emb)
            enc_grads = [
                g + 2.0 * cfg.encoder_weight_decay * a
                for g, a in zip(enc_grads, model.encoder.param_arrays())
            ]
            adam_step(model.encoder.param_arrays(), enc_grads, enc_state)
            adam_step(model.head.param_arrays(), head_grads, head_state)
            step += 1
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite L_L at epoch {epoch}, step {step}")
            loss_sum += loss
            if on_step is not None:
                on_step(step, model)
        preds = model.predict_proba_matrix(validation.rows).argmax(axis=1)
        val_f1 = macro_f1_score(validation.labels, preds, m)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                loss_l=loss_sum / len(batches),
                loss_u=0.0,
                loss_adv=0.0,
                disc_acc=0.5,
                val_macro_f1=val_f1,
            )
        )
        if val_f1 > best_f1:
            best_f1 = val_f1
            best = model.copy()
    return best, history
