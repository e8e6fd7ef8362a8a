"""Phase I: plain rating models and pseudo-labeling of the unlabeled pool.

Two interchangeable model families are provided: multinomial logistic
regression (full-batch Adam on cross-entropy + L2) and multiclass softmax
gradient boosting on depth-limited regression trees. Either one can stamp
pseudo rating labels onto unlabeled rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .nnet import (
    AdamState,
    DivergenceError,
    adam_step,
    categorical_ce,
    categorical_ce_grad,
    named_rng,
    softmax,
    softmax_backward,
)
from .tree import RegressionTree, fit_regression_tree, presort, serve_split_worker
from .worker import forked

VARIANTS = ("logistic_regression", "gbdt")


@dataclass
class LogregConfig:
    iterations: int = 500
    learning_rate: float = 0.05
    l2: float = 1e-6

    def __post_init__(self):
        if min(self.iterations, self.learning_rate, self.l2) < 0:
            raise ValueError("iterations, learning_rate and l2 must be >= 0")


@dataclass
class GbdtConfig:
    rounds: int = 100
    max_depth: int = 3
    shrinkage: float = 0.1
    min_leaf_count: int = 5

    def __post_init__(self):
        if min(self.rounds, self.max_depth) < 0:
            raise ValueError("rounds and max_depth must be >= 0")
        if self.min_leaf_count < 1:
            raise ValueError("min_leaf_count must be >= 1")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError(f"shrinkage must lie in (0, 1], got {self.shrinkage}")


@dataclass
class PrmConfig:
    """Which plain model to train, and its hyperparameters."""

    variant: str = "gbdt"
    gbdt: GbdtConfig = field(default_factory=GbdtConfig)
    logreg: LogregConfig = field(default_factory=LogregConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown PRM variant {self.variant!r}")


@dataclass
class LogregParams:
    weights: np.ndarray  # (m, F)
    bias: np.ndarray  # (m,)


@dataclass
class GbdtModel:
    num_classes: int
    shrinkage: float
    base_score: np.ndarray  # (m,) log class priors
    trees: list[list[RegressionTree]]  # trees[round][class]
    train_loss: list[float] = field(default_factory=list)

    def raw_scores(self, x: np.ndarray) -> np.ndarray:
        """base + shrinkage * tree, summed per class in round order; (n, m)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        xt = np.ascontiguousarray(x.T)  # each tree test reads one contiguous row
        scores = np.tile(self.base_score[:, None], (1, x.shape[0]))  # (m, n)
        out = np.empty(x.shape[0])
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                scores[k] += self.shrinkage * tree.predict_transposed(xt, out)
        return np.ascontiguousarray(scores.T)


@dataclass
class PlainModel:
    """Phase-I rating model: a variant tag plus its fitted payload."""

    variant: str
    input_dim: int
    num_classes: int
    logreg: LogregParams | None = None
    gbdt: GbdtModel | None = None

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"input has {x.shape[1]} features, model expects {self.input_dim}"
            )
        if self.variant == "logistic_regression":
            logits = x @ self.logreg.weights.T + self.logreg.bias
            return softmax(logits)
        return softmax(self.gbdt.raw_scores(x))


@dataclass
class PseudoLabeledDataset:
    """Unlabeled rows stamped with model-assigned labels and confidences."""

    rows: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        if not (len(self.rows) == len(self.labels) == len(self.confidences)):
            raise ValueError("rows, labels and confidences must have equal length")

    def __len__(self) -> int:
        return self.rows.shape[0]


def _check_labeled(labeled: Dataset):
    if len(labeled) == 0:
        raise ValueError("cannot train on an empty dataset")
    if not labeled.is_labeled:
        raise ValueError("training dataset has no labels")


def logreg_loss_and_grads(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    probs = softmax(x @ weights.T + bias)
    loss = categorical_ce(probs, labels) + l2 * (float(np.sum(weights**2)) + float(np.sum(bias**2)))
    dlogits = softmax_backward(probs, categorical_ce_grad(probs, labels))
    dw = dlogits.T @ x + 2.0 * l2 * weights
    db = dlogits.sum(axis=0) + 2.0 * l2 * bias
    return loss, dw, db


def train_logreg(labeled: Dataset, cfg: LogregConfig | None = None, seed: int = 0) -> PlainModel:
    """Multinomial softmax regression, full-batch Adam, deterministic per seed."""
    cfg = cfg or LogregConfig()
    _check_labeled(labeled)
    m = labeled.schema.num_classes
    f = labeled.schema.num_features
    rng = named_rng(seed, "logreg_init")
    limit = np.sqrt(6.0 / (f + m))
    params = np.concatenate([rng.uniform(-limit, limit, size=m * f), np.zeros(m)])
    weights, bias = params[: m * f].reshape(m, f), params[m * f :]  # views of params
    state = AdamState.for_params(params, learning_rate=cfg.learning_rate)
    for _ in range(cfg.iterations):
        _, dw, db = logreg_loss_and_grads(weights, bias, labeled.rows, labeled.labels, cfg.l2)
        adam_step(params, np.concatenate([dw.ravel(), db]), state)
    return PlainModel(
        variant="logistic_regression",
        input_dim=f,
        num_classes=m,
        logreg=LogregParams(weights=weights, bias=bias),
    )


def train_gbdt(labeled: Dataset, cfg: GbdtConfig | None = None) -> PlainModel:
    """Multiclass softmax boosting.

    Per round: p = softmax(scores); one tree per class fitted to the
    residuals y_k - p_k; class scores move by shrinkage * tree. Training
    log-loss must never increase from one round to the next (checked each
    round, with 1e-12 slack for float accumulation).

    Every tree's split search runs on both CPUs. After the presort this
    call forks one split worker (worker.forked), which inherits x and the
    presort. Per tree, the residual column (n float64) goes to the worker;
    then, once per tree level, each process sends the other its block's
    best (gain, feature, threshold) per node (see tree.py). The worker
    keeps nothing; the trees, the scores and the loss guard live here. The
    worker ends when this call closes the channel, or is killed when this
    call raises, and is reaped before the call returns.
    """
    cfg = cfg or GbdtConfig()
    _check_labeled(labeled)
    m = labeled.schema.num_classes
    if m < 2:
        raise ValueError("gbdt needs at least 2 classes")
    x, labels = labeled.rows, labeled.labels
    n = x.shape[0]

    counts = np.bincount(labels, minlength=m).astype(np.float64)
    if (counts > 0).all():
        base = np.log(counts / n)
    else:
        base = np.log((counts + 1.0) / (n + m))  # smooth absent classes away from -inf

    scores = np.tile(base, (n, 1))
    y = np.zeros((n, m))
    y[np.arange(n), labels] = 1.0
    probs = softmax(scores)
    losses = [categorical_ce(probs, labels)]
    trees: list[list[RegressionTree]] = []
    presorted = presort(x)  # every tree fits the same x

    def split_worker(peer):
        serve_split_worker(peer, x, presorted, cfg.max_depth, cfg.min_leaf_count)

    with forked(split_worker, "split worker") as peer:
        for t in range(cfg.rounds):
            round_trees = []
            for k in range(m):
                tree = fit_regression_tree(
                    x, y[:, k] - probs[:, k], cfg.max_depth, cfg.min_leaf_count, presorted, peer
                )
                scores[:, k] += cfg.shrinkage * tree.fitted
                tree.fitted = None  # the model keeps the nodes, not n values per tree
                round_trees.append(tree)
            trees.append(round_trees)
            probs = softmax(scores)  # this round's loss and the next round's residuals
            loss = categorical_ce(probs, labels)
            if loss > losses[-1] + 1e-12:
                raise DivergenceError(
                    f"training log-loss increased at round {t}: {losses[-1]} -> {loss}"
                )
            losses.append(loss)
    return PlainModel(
        variant="gbdt",
        input_dim=x.shape[1],
        num_classes=m,
        gbdt=GbdtModel(
            num_classes=m,
            shrinkage=cfg.shrinkage,
            base_score=base,
            trees=trees,
            train_loss=losses,
        ),
    )


def train_prm(labeled: Dataset, cfg: PrmConfig, seed: int = 0) -> PlainModel:
    """Train the configured plain model variant on labeled data."""
    if cfg.variant == "logistic_regression":
        return train_logreg(labeled, cfg.logreg, seed)
    return train_gbdt(labeled, cfg.gbdt)


def pseudo_label(model: PlainModel, unlabeled: Dataset) -> PseudoLabeledDataset:
    """Stamp argmax labels and max-probability confidences onto every row.

    Ties break to the lowest class index; row order is preserved.
    """
    probs = model.predict_proba_matrix(unlabeled.rows)
    labels = probs.argmax(axis=1).astype(np.int64)  # argmax keeps lowest index on ties
    confidences = probs[np.arange(probs.shape[0]), labels]
    return PseudoLabeledDataset(rows=unlabeled.rows.copy(), labels=labels, confidences=confidences)
