"""Phase-I model tests: logistic regression, GBDT boosting, pseudo-labels."""

import contextlib
import os
import signal

import numpy as np
import pytest

from advssl import tree as tree_module
from advssl.data import Dataset, DatasetSchema
from advssl.nnet import DivergenceError, categorical_ce, grad_check, softmax
from advssl.persist import to_plain
from advssl.prm import (
    GbdtConfig,
    GbdtModel,
    LogregConfig,
    PlainModel,
    PrmConfig,
    logreg_loss_and_grads,
    pseudo_label,
    train_gbdt,
    train_logreg,
    train_prm,
)
from advssl.tree import TreeNode, RegressionTree, fit_regression_tree
from advssl.worker import WorkerTraceback, forked


def small_schema(num_features=2, num_classes=3):
    return DatasetSchema(
        tuple(f"f{i}" for i in range(num_features)),
        tuple(f"L{i}" for i in range(num_classes)),
    )


def blobs_dataset(seed=0, n_per=40, sep=4.0, num_classes=2):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for k in range(num_classes):
        center = np.array([sep * k, -sep * k])
        rows.append(center + rng.normal(size=(n_per, 2)))
        labels.append(np.full(n_per, k))
    return Dataset(
        small_schema(2, num_classes), np.vstack(rows), np.concatenate(labels)
    )


class TestLogreg:
    def test_single_class_saturates(self):
        rng = np.random.default_rng(1)
        ds = Dataset(small_schema(2, 3), rng.normal(size=(30, 2)), np.ones(30, dtype=int))
        model = train_logreg(ds, LogregConfig(iterations=800, learning_rate=0.1, l2=0.0))
        probs = model.predict_proba_matrix(ds.rows)
        assert np.all(probs[:, 1] >= 1 - 1e-3)

    def test_separable_blobs_perfect_train_accuracy(self):
        ds = blobs_dataset(seed=2)
        model = train_logreg(ds, LogregConfig(iterations=400, learning_rate=0.1))
        preds = model.predict_proba_matrix(ds.rows).argmax(axis=1)
        assert (preds == ds.labels).mean() == 1.0

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 4))
        labels = rng.integers(0, 3, 12)
        params = [rng.normal(size=(3, 4)), rng.normal(size=3)]

        def loss(ps):
            value, dw, db = logreg_loss_and_grads(ps[0], ps[1], x, labels, l2=0.01)
            return value, [dw, db]

        assert grad_check(loss, params, epsilon=1e-6) < 1e-5

    def test_zero_weights_predict_uniform(self):
        model = PlainModel(
            variant="logistic_regression",
            input_dim=2,
            num_classes=4,
            logreg=type("L", (), {"weights": np.zeros((4, 2)), "bias": np.zeros(4)})(),
        )
        np.testing.assert_allclose(
            model.predict_proba_matrix(np.array([[1.0, -1.0]]))[0], np.full(4, 0.25), atol=1e-15
        )

    def test_same_seed_reproduces_parameters(self):
        ds = blobs_dataset(seed=4)
        cfg = LogregConfig(iterations=50)
        a = train_logreg(ds, cfg, seed=7)
        b = train_logreg(ds, cfg, seed=7)
        np.testing.assert_array_equal(a.logreg.weights, b.logreg.weights)
        np.testing.assert_array_equal(a.logreg.bias, b.logreg.bias)

    def test_empty_dataset_rejected(self):
        ds = Dataset(small_schema(), np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            train_logreg(ds)


class TestGbdt:
    def test_prior_only_uniform(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(3), 10)
        ds = Dataset(small_schema(2, 3), rng.normal(size=(30, 2)), labels)
        model = train_gbdt(ds, GbdtConfig(rounds=0))
        probs = model.predict_proba_matrix(ds.rows[:5])
        np.testing.assert_allclose(probs, np.full((5, 3), 1 / 3), atol=1e-12)

    def test_separable_1d_perfect_accuracy(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.uniform(-2, -0.1, 40), rng.uniform(0.1, 2, 40)])
        labels = (x >= 0).astype(int)
        ds = Dataset(
            DatasetSchema(("f0",), ("L0", "L1")), x.reshape(-1, 1), labels
        )
        model = train_gbdt(ds, GbdtConfig(rounds=20, max_depth=2, shrinkage=0.3, min_leaf_count=1))
        preds = model.predict_proba_matrix(ds.rows).argmax(axis=1)
        assert (preds == labels).mean() == 1.0
        assert all(t.fitted is None for rnd in model.gbdt.trees for t in rnd)  # not kept

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_log_loss_monotone_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        labels = rng.integers(0, 3, n)
        centers = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 2.0]])
        rows = centers[labels] + rng.normal(size=(n, 2))
        ds = Dataset(small_schema(2, 3), rows, labels)
        model = train_gbdt(ds, GbdtConfig(rounds=30, max_depth=2))
        losses = model.gbdt.train_loss
        assert len(losses) == 31
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_hand_built_single_tree_scores(self):
        # one stump per class with known leaves; probs must be softmax of sums
        stump = lambda v_left, v_right: RegressionTree(
            root=TreeNode(
                feature=0,
                threshold=0.0,
                left=TreeNode(value=v_left),
                right=TreeNode(value=v_right),
            ),
            max_depth=1,
            min_leaf_count=1,
        )
        gbdt = GbdtModel(
            num_classes=2,
            shrinkage=0.5,
            base_score=np.array([0.1, -0.2]),
            trees=[[stump(1.0, -1.0), stump(-2.0, 2.0)]],
        )
        model = PlainModel(variant="gbdt", input_dim=1, num_classes=2, gbdt=gbdt)
        probs = model.predict_proba_matrix(np.array([[-1.0]]))[0]
        expected = softmax(np.array([0.1 + 0.5 * 1.0, -0.2 + 0.5 * -2.0]))
        np.testing.assert_allclose(probs, expected, atol=1e-15)

    def test_bad_shrinkage_rejected(self):
        ds = blobs_dataset(seed=7)
        with pytest.raises(ValueError):
            train_gbdt(ds, GbdtConfig(shrinkage=0.0))
        with pytest.raises(ValueError):
            train_gbdt(ds, GbdtConfig(shrinkage=1.5))

    def test_same_data_reproduces_trees(self):
        ds = blobs_dataset(seed=8)
        cfg = GbdtConfig(rounds=5, max_depth=2)
        a = train_gbdt(ds, cfg)
        b = train_gbdt(ds, cfg)
        for round_a, round_b in zip(a.gbdt.trees, b.gbdt.trees):
            for ta, tb in zip(round_a, round_b):
                assert to_plain(ta) == to_plain(tb)
        grid = np.random.default_rng(9).normal(size=(20, 2))
        np.testing.assert_array_equal(
            a.predict_proba_matrix(grid), b.predict_proba_matrix(grid)
        )


def serial_boosting(ds: Dataset, cfg: GbdtConfig):
    """(trees under to_plain, train_loss) of softmax boosting with every tree
    fitted in this process over all features: the one-process definition."""
    x, labels = ds.rows, ds.labels
    n, m = x.shape[0], ds.schema.num_classes
    counts = np.bincount(labels, minlength=m).astype(np.float64)
    base = np.log(counts / n) if (counts > 0).all() else np.log((counts + 1.0) / (n + m))
    scores = np.tile(base, (n, 1))
    y = np.eye(m)[labels]
    probs = softmax(scores)
    losses, trees = [categorical_ce(probs, labels)], []
    for _ in range(cfg.rounds):
        fitted = [
            fit_regression_tree(x, y[:, k] - probs[:, k], cfg.max_depth, cfg.min_leaf_count)
            for k in range(m)
        ]
        for k, tree in enumerate(fitted):
            scores[:, k] += cfg.shrinkage * tree.fitted
        trees.append([to_plain(t) for t in fitted])
        probs = softmax(scores)
        losses.append(categorical_ce(probs, labels))
    return trees, losses


def boosting_case(seed, num_features, num_classes=3, n=90, integer=False):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, n)
    if integer:  # heavy ties in value and in gain
        rows = rng.integers(0, 4, size=(n, num_features)).astype(float)
        rows[:, 0] += labels
    else:
        rows = rng.normal(size=(n, num_features))
        rows[:, -1] += labels  # the signal lies in the worker's block
    return Dataset(small_schema(num_features, num_classes), rows, labels)


def split_features(model):
    def walk(node):
        if "feature" in node:
            yield node["feature"]
            yield from walk(node["left"])
            yield from walk(node["right"])

    return {f for rnd in model.gbdt.trees for t in rnd for f in walk(to_plain(t)["root"])}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after seconds: a hang fails, not stalls, the test."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSplitWorker:
    """train_gbdt searches features [0, h) here and [h, F) in a forked split
    worker; its trees and losses are the one-process ones, bit for bit."""

    def assert_serial(self, ds, cfg):
        model = train_gbdt(ds, cfg)
        assert_no_child_left()
        trees, losses = serial_boosting(ds, cfg)
        assert [[to_plain(t) for t in rnd] for rnd in model.gbdt.trees] == trees
        assert model.gbdt.train_loss == losses
        return model

    @pytest.mark.parametrize("num_features", [1, 2, 5])
    def test_trees_equal_one_process_trees(self, num_features):
        cfg = GbdtConfig(rounds=6, max_depth=3, shrinkage=0.3, min_leaf_count=2)
        model = self.assert_serial(boosting_case(num_features, num_features), cfg)
        if num_features > 1:  # both blocks won splits
            used = split_features(model)
            assert min(used) < (num_features + 1) // 2 <= max(used)

    def test_gain_ties_across_the_blocks_go_to_the_lower_feature(self):
        ds = boosting_case(7, 2, integer=True)
        # Features 2, 3 (the worker's block) repeat 0, 1: every gain ties across the blocks.
        twin = Dataset(small_schema(4, 3), np.hstack([ds.rows, ds.rows]), ds.labels)
        cfg = GbdtConfig(rounds=5, max_depth=3, shrinkage=0.3, min_leaf_count=1)
        model = self.assert_serial(twin, cfg)
        assert split_features(model) <= {0, 1}
        single = train_gbdt(ds, cfg)
        assert [[to_plain(t) for t in r] for r in model.gbdt.trees] == [
            [to_plain(t) for t in r] for r in single.gbdt.trees
        ]

    @pytest.mark.parametrize("max_depth", range(5))
    def test_every_depth(self, max_depth):
        cfg = GbdtConfig(rounds=4, max_depth=max_depth, shrinkage=0.3, min_leaf_count=1)
        self.assert_serial(boosting_case(20 + max_depth, 7, integer=max_depth % 2 == 1), cfg)

    def test_levels_swapped_in_several_messages(self, monkeypatch):
        monkeypatch.setattr(tree_module, "_CHUNK", 3)  # a depth-2 level has 4 nodes
        cfg = GbdtConfig(rounds=4, max_depth=4, shrinkage=0.3, min_leaf_count=1)
        self.assert_serial(boosting_case(25, 6), cfg)

    def test_swap_of_a_level_larger_than_two_pipe_buffers_completes(self):
        # 3,000 candidates of 25 pickled bytes per side: sent as one message
        # each, both sides would block in write forever.
        mine = [(float(i), 2**31 - 1 - i, -float(i)) for i in range(3000)]
        theirs = [(-float(i), i, float(i) / 7) for i in range(3000)]

        def peer_side(peer):
            peer.send(tree_module._swap(peer, theirs))

        with time_limit(20), forked(peer_side, "swap peer") as peer:
            assert tree_module._swap(peer, mine) == theirs
            assert peer.recv() == mine
        assert_no_child_left()

    def test_min_leaf_count_that_forbids_every_split(self):
        cfg = GbdtConfig(rounds=3, max_depth=3, min_leaf_count=46)  # 90 rows: no side keeps 46
        model = self.assert_serial(boosting_case(30, 4), cfg)
        assert split_features(model) == set()

    def test_no_rounds(self):
        model = self.assert_serial(boosting_case(31, 3), GbdtConfig(rounds=0))
        assert model.gbdt.trees == [] and len(model.gbdt.train_loss) == 1

    @staticmethod
    def in_worker_only(monkeypatch, action):
        """Make best_split run action() in the split worker; this process searches as usual."""
        here, real = os.getpid(), tree_module.best_split

        def best_split(*args):
            return real(*args) if os.getpid() == here else action()

        monkeypatch.setattr(tree_module, "best_split", best_split)

    def test_worker_ending_mid_fit_raises_child_process_error(self, monkeypatch):
        self.in_worker_only(monkeypatch, lambda: os._exit(1))
        with time_limit(20), pytest.raises(ChildProcessError, match="^split worker ended .*code 1"):
            train_gbdt(boosting_case(40, 5), GbdtConfig(rounds=3))
        assert_no_child_left()

    def test_worker_exception_raised_here_with_its_type_and_message(self, monkeypatch):
        def fail_in_worker():
            raise ArithmeticError("split search failed in the worker")

        self.in_worker_only(monkeypatch, fail_in_worker)
        with pytest.raises(ArithmeticError, match="^split search failed in the worker$") as info:
            train_gbdt(boosting_case(41, 5), GbdtConfig(rounds=3))
        assert_no_child_left()
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert "in fail_in_worker" in str(info.value.__cause__)

    def test_loss_guard_here_kills_and_reaps_the_worker(self, monkeypatch):
        from itertools import count

        from advssl import prm

        losses = count()
        monkeypatch.setattr(prm, "categorical_ce", lambda probs, labels: next(losses))
        with pytest.raises(DivergenceError, match="increased at round 0"):
            train_gbdt(boosting_case(42, 5), GbdtConfig(rounds=3))
        assert_no_child_left()


class TestPredictProba:
    def test_simplex_for_all_models(self):
        ds = blobs_dataset(seed=10, num_classes=3)
        rng = np.random.default_rng(11)
        grid = rng.normal(scale=3.0, size=(50, 2))
        for model in (
            train_logreg(ds, LogregConfig(iterations=50)),
            train_gbdt(ds, GbdtConfig(rounds=5, max_depth=2)),
        ):
            probs = model.predict_proba_matrix(grid)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((probs >= 0) & (probs <= 1))

    def test_dimension_mismatch_rejected(self):
        ds = blobs_dataset(seed=12)
        model = train_gbdt(ds, GbdtConfig(rounds=1, max_depth=1))
        with pytest.raises(ValueError):
            model.predict_proba_matrix(np.array([[1.0, 2.0, 3.0]]))


class FixedProbaModel(PlainModel):
    """Test double: returns the same probability row for every input."""

    def __init__(self, probs, input_dim=2):
        super().__init__(variant="gbdt", input_dim=input_dim, num_classes=len(probs))
        self._probs = np.asarray(probs, dtype=np.float64)

    def predict_proba_matrix(self, x):
        x = np.atleast_2d(x)
        return np.tile(self._probs, (x.shape[0], 1))


class TestPseudoLabel:
    def test_constant_model_labels_and_confidence(self):
        ds = Dataset(small_schema(2, 3), np.random.default_rng(13).normal(size=(5, 2)))
        out = pseudo_label(FixedProbaModel([0.1, 0.7, 0.2]), ds)
        np.testing.assert_array_equal(out.labels, np.ones(5, dtype=int))
        np.testing.assert_allclose(out.confidences, 0.7)

    def test_tie_breaks_to_lowest_index(self):
        ds = Dataset(small_schema(2, 3), np.zeros((3, 2)))
        out = pseudo_label(FixedProbaModel([0.4, 0.4, 0.2]), ds)
        np.testing.assert_array_equal(out.labels, [0, 0, 0])

    def test_empty_input_gives_empty_result(self):
        ds = Dataset(small_schema(2, 3), np.empty((0, 2)))
        out = pseudo_label(FixedProbaModel([0.5, 0.3, 0.2]), ds)
        assert len(out) == 0

    @pytest.mark.parametrize("variant", ["logistic_regression", "gbdt"])
    def test_empty_input_through_a_trained_model(self, variant):
        ds = blobs_dataset(seed=16, num_classes=3)
        cfg = PrmConfig(variant, GbdtConfig(rounds=2, max_depth=2), LogregConfig(iterations=20))
        out = pseudo_label(train_prm(ds, cfg), Dataset(ds.schema, np.empty((0, 2))))
        assert out.rows.shape == (0, 2)
        assert out.labels.shape == (0,) and out.labels.dtype == np.int64
        assert out.confidences.shape == (0,) and out.confidences.dtype == np.float64

    def test_pure_function_bit_identical(self):
        ds = blobs_dataset(seed=14, num_classes=3)
        model = train_gbdt(ds, GbdtConfig(rounds=5, max_depth=2))
        unlabeled = Dataset(ds.schema, ds.rows, None)
        a = pseudo_label(model, unlabeled)
        b = pseudo_label(model, unlabeled)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.confidences, b.confidences)

    def test_confidences_within_simplex_bounds(self):
        ds = blobs_dataset(seed=15, num_classes=3)
        model = train_logreg(ds, LogregConfig(iterations=30))
        out = pseudo_label(model, Dataset(ds.schema, ds.rows, None))
        assert np.all(out.confidences >= 1 / 3 - 1e-12)
        assert np.all(out.confidences <= 1.0)


class TestTrainPrm:
    def test_variant_dispatch(self):
        ds = blobs_dataset(seed=17)
        gbdt = train_prm(ds, PrmConfig(variant="gbdt", gbdt=GbdtConfig(rounds=2, max_depth=1)))
        logreg = train_prm(ds, PrmConfig(variant="logistic_regression"), seed=3)
        assert gbdt.variant == "gbdt"
        assert logreg.variant == "logistic_regression"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            PrmConfig(variant="svm")
