"""Phase I: plain rating models and pseudo-labeling of the unlabeled pool.

Two model families are provided: multinomial logistic regression, one
identity DenseLayer of nnet that trains and predicts through the passes and
Adam step Phase II uses, and multiclass softmax gradient boosting on
depth-limited regression trees. A PlainModel holds exactly one of the two,
and either can stamp pseudo rating labels onto unlabeled rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .nnet import (
    AdamState,
    DenseLayer,
    DivergenceError,
    MlpParams,
    adam_step,
    add_l2_grad,
    as_matrix,
    categorical_ce,
    categorical_ce_grad,
    init_mlp,
    mlp_backward,
    mlp_forward,
    one_hot,
    softmax,
    softmax_backward,
)
from .tree import RegressionTree, TreeNode, fit_regression_tree, presort

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
class GbdtModel:
    """Boosted class scores; a leaf holds what its round added: step * Newton leaf."""

    base_score: np.ndarray  # (m,) log class priors
    trees: list[list[RegressionTree]]  # trees[round][class]
    train_loss: list[float]

    def raw_scores(self, x: np.ndarray) -> np.ndarray:
        """base + tree, summed per class in round order; (n, m) for a float64 (n, F) x."""
        xt = np.ascontiguousarray(x.T)  # feature rows: the pool itself when it is feature-major
        scores = np.tile(self.base_score[:, None], (1, x.shape[0]))  # (m, n)
        out = np.empty(x.shape[0])
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                scores[k] += tree.predict(xt, out)
        return np.ascontiguousarray(scores.T)


@dataclass
class PlainModel:
    """Phase-I rating model: one fitted payload, which is its kind; a logistic
    regression is the DenseLayer it trained, predicted through mlp_forward."""

    input_dim: int
    logreg: DenseLayer | None = None
    gbdt: GbdtModel | None = None

    def __post_init__(self):
        if (self.logreg is None) == (self.gbdt is None):
            raise ValueError("a plain model holds exactly one of logreg and gbdt")

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"input has {x.shape[1]} features, model expects {self.input_dim}"
            )
        if self.logreg is not None:
            return softmax(mlp_forward(MlpParams([self.logreg]), x)[0])
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


def train_logreg(labeled: Dataset, cfg: LogregConfig, seed: int = 0) -> PlainModel:
    """Multinomial softmax regression, deterministic per seed: one identity
    layer (init_mlp's draw from the logreg_init stream) trained by full-batch
    Adam on cross-entropy + l2 * ||weights and bias||^2, through the passes,
    L2 gradient and Adam step Phase II uses. The fit never reads the loss."""
    _check_labeled(labeled)
    m = labeled.schema.num_classes
    f = labeled.schema.num_features
    net = init_mlp([f, m], ["identity"], seed, "logreg_init")
    grads = net.on(np.empty_like(net.flat))
    state = AdamState.for_params(net.flat, learning_rate=cfg.learning_rate)
    for _ in range(cfg.iterations):
        logits, cache = mlp_forward(net, labeled.rows)
        probs = softmax(logits)
        dlogits = softmax_backward(probs, categorical_ce_grad(probs, labeled.labels))
        mlp_backward(net, cache, dlogits, grads, inputs=False)
        adam_step(net.flat, add_l2_grad(grads.flat, net, cfg.l2), state)
    return PlainModel(input_dim=f, logreg=net.layers[0])


_HALVINGS = 30  # of a round's step before a rise in training loss is an error


def _scale_leaves(node: TreeNode, factor: float):
    if node.is_leaf:
        node.value *= factor
    else:
        _scale_leaves(node.left, factor)
        _scale_leaves(node.right, factor)


def train_gbdt(labeled: Dataset, cfg: GbdtConfig) -> PlainModel:
    """Multiclass softmax boosting with Newton leaves (Friedman 2001, Algorithm 6).

    Per round: p = softmax(scores); one tree per class k whose splits fit
    the residuals r = y_k - p_k by least squares and whose leaves are the
    Newton step (K-1)/K * sum(r) / sum(|r|(1-|r|)) over their rows (0 where
    that sum is 0); class scores move by step * tree, step = shrinkage.
    Training log-loss must never increase from one round to the next (1e-12
    slack for float accumulation): a Newton step can overshoot, so a round
    whose step would raise the loss halves its step, as often as needed up
    to _HALVINGS times; past that the fit raises. Every accepted round's
    leaves are then scaled by its step, so a leaf holds the score it added.
    """
    _check_labeled(labeled)
    m = labeled.schema.num_classes
    x, labels = labeled.rows, labeled.labels
    n = x.shape[0]

    counts = np.bincount(labels, minlength=m).astype(np.float64)
    if (counts > 0).all():
        base = np.log(counts / n)
    else:
        base = np.log((counts + 1.0) / (n + m))  # smooth absent classes away from -inf

    scores = np.tile(base, (n, 1))
    y = one_hot(labels, m)
    probs = softmax(scores)
    losses = [categorical_ce(probs, labels)]
    trees: list[list[RegressionTree]] = []
    presorted = presort(x)  # every tree fits the same x
    for t in range(cfg.rounds):
        round_trees = []
        for k in range(m):
            residuals = y[:, k] - probs[:, k]
            hessians = np.abs(residuals)
            hessians *= 1.0 - hessians
            hessians *= m / (m - 1)  # leaf = (K-1)/K * sum(r) / sum(|r|(1-|r|))
            round_trees.append(
                fit_regression_tree(
                    presorted, residuals, cfg.max_depth, cfg.min_leaf_count, hessians
                )
            )
        update = np.column_stack([tree.fitted for tree in round_trees])
        step = cfg.shrinkage
        for _ in range(_HALVINGS + 1):
            trial = scores + step * update
            probs = softmax(trial)  # this round's loss and the next round's residuals
            loss = categorical_ce(probs, labels)
            if loss <= losses[-1] + 1e-12:
                break
            step /= 2.0
        else:
            raise DivergenceError(
                f"training log-loss increased at round {t}: {losses[-1]} -> {loss}"
            )
        scores = trial
        for tree in round_trees:
            tree.fitted = None  # the model keeps the nodes, not n values per tree
            _scale_leaves(tree.root, step)  # fl(step * leaf), as scores took it
        trees.append(round_trees)
        losses.append(loss)
    return PlainModel(
        input_dim=x.shape[1],
        gbdt=GbdtModel(base_score=base, trees=trees, train_loss=losses),
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
    return PseudoLabeledDataset(rows=unlabeled.rows, labels=labels, confidences=confidences)
