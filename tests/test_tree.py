"""Regression-tree tests; the oracles are an exhaustive split search and a
frozen copy of the recursive row-partitioning predict."""

import warnings

import numpy as np
import pytest

from advssl.data import Dataset, DatasetSchema
from advssl.persist import from_plain, to_plain
from advssl.prm import GbdtConfig, train_gbdt
from advssl.tree import RegressionTree, TreeNode, fit_regression_tree, presort


def predict_rows(tree, x):
    """tree.predict for an (n, F) matrix x: the leaf value of each row."""
    return tree.predict(x.T, np.empty(x.shape[0]))


def reference_best_split(x, targets, min_leaf_count):
    """Per-node, per-feature argsort split search: the presort-free definition."""
    n = targets.shape[0]
    best = None
    total = targets.sum()
    parent_term = total * total / n
    for feat in range(x.shape[1]):
        col = x[:, feat]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        prefix = np.cumsum(targets[order])
        sizes = np.arange(1, n)
        distinct = xs[1:] != xs[:-1]
        valid = distinct & (sizes >= min_leaf_count) & (n - sizes >= min_leaf_count)
        if not valid.any():
            continue
        left_sum = prefix[:-1]
        gains = (
            left_sum * left_sum / sizes
            + (total - left_sum) * (total - left_sum) / (n - sizes)
            - parent_term
        )
        gains = np.where(valid, gains, -np.inf)
        i = int(np.argmax(gains))
        gain = float(gains[i])
        if best is None or gain > best[0]:
            best = (gain, feat, float((xs[i] + xs[i + 1]) / 2.0))
    if best is None or best[0] <= 0.0:
        return None
    return best


def reference_tree(x, targets, max_depth, min_leaf_count):
    """to_plain() of the tree grown with reference_best_split at every node."""

    def build(idx, depth):
        ys = targets[idx]
        leaf = {"value": float(ys.mean())}
        if depth >= max_depth or idx.shape[0] < 2 * min_leaf_count or ys.min() == ys.max():
            return leaf
        found = reference_best_split(x[idx], ys, min_leaf_count)
        if found is None:
            return leaf
        _, feat, threshold = found
        go_left = x[idx, feat] <= threshold
        return {
            "feature": feat,
            "threshold": threshold,
            "left": build(idx[go_left], depth + 1),
            "right": build(idx[~go_left], depth + 1),
        }

    return {"root": build(np.arange(x.shape[0]), 0)}


def random_fit_case(seed):
    """Random (x, targets, depth, min_leaf): ties, constant columns and targets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 201))
    f = int(rng.integers(1, 8))
    kind = seed % 4
    if kind == 0:
        x = rng.normal(size=(n, f))
    elif kind == 1:  # integer-valued features: heavy ties
        x = rng.integers(0, 4, size=(n, f)).astype(float)
    elif kind == 2:  # a constant column among tied ones
        x = rng.integers(0, 3, size=(n, f)).astype(float)
        x[:, int(rng.integers(0, f))] = 1.5
    else:
        x = np.round(rng.normal(size=(n, f)), 1)
    if seed % 5 == 0:  # few distinct targets: constant-target nodes
        t = rng.integers(0, 2, size=n).astype(float)
    else:
        t = rng.normal(size=n)
    return x, t, int(rng.integers(1, 5)), int(rng.integers(1, 7))


def mixed_fit_case(seed):
    """Random (x, targets, depth, min_leaf) whose columns mix three kinds in
    one matrix: continuous (no repeated value), integer-valued (heavy ties)
    and constant. The targets lean on the integer columns half the time, so
    that tied columns win splits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 201))
    kinds = rng.permutation(np.arange(int(rng.integers(3, 9))) % 3)  # each kind at least once
    x = rng.normal(size=(n, kinds.size))
    x[:, kinds == 1] = rng.integers(0, 4, size=(n, int((kinds == 1).sum())))
    x[:, kinds == 2] = 0.5
    t = rng.normal(size=n)
    if seed % 2:
        t += x[:, kinds == 1].sum(axis=1)
    return x, t, int(rng.integers(1, 5)), int(rng.integers(1, 6))


def exhaustive_stump(x, targets, min_leaf):
    """Brute-force best depth-1 split: try every (feature, midpoint).

    Mirrors the documented tie rules: lowest feature index, then smallest
    threshold. SSE computed directly from deviations around means.
    """
    n = targets.shape[0]

    def sse(vals):
        return float(((vals - vals.mean()) ** 2).sum()) if vals.size else 0.0

    parent = sse(targets)
    best = None  # (gain, feature, threshold, left_mask_bytes)
    for feat in range(x.shape[1]):
        values = np.unique(x[:, feat])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = x[:, feat] <= thr
            if left.sum() < min_leaf or (~left).sum() < min_leaf:
                continue
            gain = parent - sse(targets[left]) - sse(targets[~left])
            if best is None or gain > best[0]:
                best = (gain, feat, thr, left.tobytes())
    return best


class TestFitRegressionTree:
    def test_constant_targets_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        tree = fit_regression_tree(x, np.full(10, 2.5), max_depth=3)
        assert tree.root.is_leaf
        assert tree.root.value == 2.5

    def test_two_point_stump(self):
        tree = fit_regression_tree(
            np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), max_depth=1
        )
        assert not tree.root.is_leaf
        assert tree.root.feature == 0
        assert tree.root.threshold == 0.5
        assert tree.root.left.value == -1.0
        assert tree.root.right.value == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_regression_tree(np.empty((0, 2)), np.empty(0), max_depth=1)
        with pytest.raises(ValueError, match="must be 2-D"):  # neither a row nor a column
            fit_regression_tree(np.zeros(4), np.zeros(4), max_depth=1)

    def test_min_leaf_count_below_one_rejected(self):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="^min_leaf_count must be >= 1$"):
            fit_regression_tree(x, np.array([-1.0, 1.0]), max_depth=1, min_leaf_count=0)

    def test_min_leaf_count_respected(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 2))
        t = rng.normal(size=20)
        tree = fit_regression_tree(x, t, max_depth=4, min_leaf_count=5)

        def leaf_sizes(node, idx):
            if node.is_leaf:
                return [idx.size]
            left = x[idx, node.feature] <= node.threshold
            return leaf_sizes(node.left, idx[left]) + leaf_sizes(node.right, idx[~left])

        assert min(leaf_sizes(tree.root, np.arange(20))) >= 5

    def test_depth_limit(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 3))
        t = rng.normal(size=60)
        for depth in (1, 2, 3):
            tree = fit_regression_tree(x, t, max_depth=depth)
            assert _depth(tree.root) <= depth

    @pytest.mark.parametrize("seed", range(10))
    def test_depth1_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(5, 31))
        f = int(rng.integers(1, 6))
        x = rng.normal(size=(n, f))
        t = rng.normal(size=n)
        tree = fit_regression_tree(x, t, max_depth=1, min_leaf_count=1)
        oracle = exhaustive_stump(x, t, 1)
        assert oracle is not None
        assert not tree.root.is_leaf
        assert tree.root.feature == oracle[1]
        # same inter-point interval: identical left/right partition
        left = x[:, tree.root.feature] <= tree.root.threshold
        assert left.tobytes() == oracle[3]
        gain_tree = _partition_gain(x, t, tree.root.feature, tree.root.threshold)
        assert abs(gain_tree - oracle[0]) < 1e-9 * max(1.0, abs(oracle[0]))

    def test_leaf_values_are_means(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        t = rng.normal(size=30)
        tree = fit_regression_tree(x, t, max_depth=1)
        left = x[:, tree.root.feature] <= tree.root.threshold
        assert abs(tree.root.left.value - t[left].mean()) < 1e-12
        assert abs(tree.root.right.value - t[~left].mean()) < 1e-12

    def test_predict_routes_rows(self):
        tree = fit_regression_tree(
            np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), max_depth=1
        )
        out = predict_rows(tree, np.array([[-5.0], [0.49], [0.51], [9.0]]))
        np.testing.assert_array_equal(out, [-1.0, -1.0, 1.0, 1.0])

    @pytest.mark.parametrize("block", range(8))
    def test_matches_per_node_sort_reference(self, block):
        for seed in range(block * 30, block * 30 + 30):
            x, t, depth, min_leaf = random_fit_case(seed)
            tree = fit_regression_tree(x, t, max_depth=depth, min_leaf_count=min_leaf)
            assert to_plain(tree) == reference_tree(x, t, depth, min_leaf), seed

    @pytest.mark.parametrize("seed", range(6))
    def test_presorted_fit_equals_plain_fit(self, seed):
        x, t, depth, min_leaf = random_fit_case(1000 + seed)
        plain = fit_regression_tree(x, t, max_depth=depth, min_leaf_count=min_leaf)
        given = fit_regression_tree(presort(x), t, max_depth=depth, min_leaf_count=min_leaf)
        assert to_plain(given) == to_plain(plain)

    @pytest.mark.parametrize("block", range(2))
    def test_fitted_equals_predict_on_training_rows(self, block):
        for seed in range(2000 + block * 30, 2000 + block * 30 + 30):
            x, t, depth, min_leaf = random_fit_case(seed)
            tree = fit_regression_tree(x, t, depth, min_leaf)
            np.testing.assert_array_equal(tree.fitted, predict_rows(tree, x))

    def test_presort_orders_each_feature_stably(self):
        x = np.array([[2.0, 0.0, 5.0], [1.0, 0.0, 3.0], [2.0, -1.0, 4.0]])
        shared = presort(x)
        np.testing.assert_array_equal(shared.rows, [[1, 0, 2], [2, 0, 1], [1, 2, 0]])
        assert shared.x is x  # read in place
        np.testing.assert_array_equal(shared.tied, [0, 1])  # feature 2 repeats no value

    @pytest.mark.parametrize(
        "bad",
        [
            lambda x: presort(x[:-1]),  # too few rows
            lambda x: x[:, 0],  # a column, not a matrix
            lambda x: presort(x.T),  # (features, rows) layout
            lambda x: (presort(x).rows, x),  # bare arrays, not a presort
        ],
    )
    def test_bad_presorted_rejected(self, bad):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        with pytest.raises(ValueError):
            fit_regression_tree(bad(x), rng.normal(size=12), max_depth=2)

    @pytest.mark.parametrize("block", range(4))
    def test_mixed_tied_and_untied_columns_match_the_reference(self, block):
        for seed in range(5000 + block * 25, 5000 + block * 25 + 25):
            x, t, depth, min_leaf = mixed_fit_case(seed)
            expected = reference_tree(x, t, depth, min_leaf)
            assert to_plain(fit_regression_tree(x, t, depth, min_leaf)) == expected, seed
            shared = presort(x)
            for targets in (-t, t):  # the second fit reuses what the first overwrote
                given = fit_regression_tree(shared, targets, depth, min_leaf)
            assert to_plain(given) == expected, seed

    def test_one_presort_serves_twenty_fits_and_stays_intact(self):
        rng = np.random.default_rng(8)
        x, _, _, _ = mixed_fit_case(9)
        shared = presort(x)
        kept = [shared.rows.copy(), x.copy(), shared.tied.copy()]
        for k in range(20):
            t = rng.normal(size=x.shape[0]) if k % 3 else rng.integers(0, 3, x.shape[0]) * 1.0
            depth, min_leaf = k % 5, 1 + k % 4
            given = fit_regression_tree(shared, t, depth, min_leaf)
            fresh = fit_regression_tree(presort(x), t, depth, min_leaf)
            assert to_plain(given) == to_plain(fresh), k
            assert given.fitted.tobytes() == fresh.fitted.tobytes(), k
        for now, before in zip((shared.rows, x, shared.tied), kept):
            assert now.tobytes() == before.tobytes()

    def test_dict_round_trip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        t = rng.normal(size=40)
        tree = fit_regression_tree(x, t, max_depth=3, min_leaf_count=2)
        clone = from_plain(RegressionTree, to_plain(tree), "tree")
        grid = rng.normal(size=(25, 3))
        np.testing.assert_array_equal(predict_rows(tree, grid), predict_rows(clone, grid))


def _leaves(node, idx, x):
    """(leaf, the rows of x that reach it) for every leaf under node."""
    if node.is_leaf:
        return [(node, idx)]
    left = x[idx, node.feature] <= node.threshold
    return _leaves(node.left, idx[left], x) + _leaves(node.right, idx[~left], x)


class TestLeafRule:
    """With denominators a leaf is sum(targets) / sum(denominators) over its
    rows; without them it is the mean of its targets."""

    @staticmethod
    def newton(residuals, num_classes=3):
        a = np.abs(residuals)
        return a * (1.0 - a) * (num_classes / (num_classes - 1))

    def test_three_class_newton_leaves_by_hand(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        r = np.array([0.5, 0.3, -0.2, -0.4])
        tree = fit_regression_tree(x, r, max_depth=1, denominators=self.newton(r))
        assert tree.root.threshold == 1.5
        # (K-1)/K * sum(r) / sum(|r|(1-|r|)), K = 3:
        # left 2/3 * 0.8 / (0.25 + 0.21) = 80/69, right 2/3 * -0.6 / (0.16 + 0.24) = -1
        assert tree.root.left.value == pytest.approx(80 / 69, rel=1e-14)
        assert tree.root.right.value == pytest.approx(-1.0, rel=1e-14)
        root_only = fit_regression_tree(x, r, max_depth=0, denominators=self.newton(r))
        # 2/3 * 0.2 / (0.25 + 0.21 + 0.16 + 0.24) = 2/3 * 0.2 / 0.86 = 20/129
        assert root_only.root.value == pytest.approx(20 / 129, rel=1e-14)

    def test_zero_denominator_sum_gives_zero_and_no_warning(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        r = np.array([1.0, 1.0, -0.5, 0.0])  # |r| in {0, 1} on the left: no curvature there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = fit_regression_tree(x, r, max_depth=1, denominators=self.newton(r))
            flat = fit_regression_tree(x, r, max_depth=0, denominators=np.zeros(4))
        assert tree.root.threshold == 1.5
        assert tree.root.left.value == 0.0
        assert tree.root.right.value == pytest.approx(2 / 3 * -0.5 / 0.25, rel=1e-14)
        assert flat.root.value == 0.0
        right = tree.root.right.value
        np.testing.assert_array_equal(tree.fitted, [0.0, 0.0, right, right])

    @pytest.mark.parametrize("seed", range(20))
    def test_without_denominators_leaves_are_means_and_splits_do_not_move(self, seed):
        x, t, depth, min_leaf = random_fit_case(3000 + seed)
        plain = fit_regression_tree(x, t, depth, min_leaf)
        for leaf, idx in _leaves(plain.root, np.arange(x.shape[0]), x):
            assert leaf.value == float(t[idx].mean())  # bit for bit
        weighted = fit_regression_tree(x, t, depth, min_leaf, denominators=np.abs(t) + 1.0)
        assert _thresholds(weighted.root) == _thresholds(plain.root)


def _depth(node):
    return 0 if node.is_leaf else 1 + max(_depth(node.left), _depth(node.right))


def _partition_gain(x, t, feature, threshold):
    def sse(vals):
        return float(((vals - vals.mean()) ** 2).sum()) if vals.size else 0.0

    left = x[:, feature] <= threshold
    return sse(t) - sse(t[left]) - sse(t[~left])


def reference_predict(tree, x):
    """Frozen recursive predict: partition the rows at every node, root to leaf."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    out = np.empty(x.shape[0])

    def fill(node, idx):
        if node.is_leaf:
            out[idx] = node.value
            return
        go_left = x[idx, node.feature] <= node.threshold
        fill(node.left, idx[go_left])
        fill(node.right, idx[~go_left])

    fill(tree.root, np.arange(x.shape[0]))
    return out


def reference_raw_scores(model, x):
    """Frozen per-tree GBDT score loop over reference_predict."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    scores = np.tile(model.base_score, (x.shape[0], 1))
    for round_trees in model.trees:
        for k, tree in enumerate(round_trees):
            scores[:, k] += reference_predict(tree, x)
    return scores


def _thresholds(node):
    if node.is_leaf:
        return []
    return [(node.feature, node.threshold)] + _thresholds(node.left) + _thresholds(node.right)


def probe_rows(tree, n_features, rng, n=400):
    """Random rows plus NaN, +-inf, -0.0, 0.0 and values equal to each threshold."""
    x = rng.normal(size=(n, n_features))
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    mask = rng.random(size=x.shape) < 0.15
    x[mask] = rng.choice(specials, size=int(mask.sum()))
    for feature, threshold in _thresholds(tree.root):
        x[rng.integers(0, n, size=5), feature] = threshold
        x[rng.integers(0, n), feature] = np.nextafter(threshold, np.inf)
    return x


def _node(feature, threshold, left, right):
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def _leaf(value):
    return TreeNode(value=value)


def hand_built_trees():
    """Unbalanced shapes: early leaves in a block, subtrees below a block's exits."""
    chain_right = _leaf(9.0)
    for depth in range(7):  # a right-leaning chain seven tests deep
        chain_right = _node(depth % 3, 0.1 * depth - 0.3, _leaf(float(depth)), chain_right)
    chain_left = _leaf(-9.0)
    for depth in range(5):
        chain_left = _node((depth + 1) % 3, -0.2 * depth, chain_left, _leaf(-float(depth)))
    mixed = _node(
        0,
        0.0,
        _leaf(1.0),
        _node(1, -0.0, _node(2, 0.5, chain_left, _leaf(2.0)), _node(0, 1.0, _leaf(3.0), chain_right)),
    )
    return {
        "single_leaf": RegressionTree(_leaf(4.25)),
        "stump": RegressionTree(_node(1, 0.0, _leaf(-1.0), _leaf(1.0))),
        "right_chain_deeper_than_max_depth": RegressionTree(chain_right),
        "left_chain": RegressionTree(chain_left),
        "mixed": RegressionTree(mixed),
    }


class TestPredictMatchesRecursiveReference:
    """The block evaluator gives the recursive predict's values bit for bit."""

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_fitted_trees(self, depth):
        rng = np.random.default_rng(300 + depth)
        x = rng.normal(size=(600, 5))
        x[:, 3] = np.round(x[:, 3], 1)  # ties
        t = np.sin(3 * x[:, 0]) + x[:, 1] * x[:, 2] + rng.normal(scale=0.1, size=600)
        tree = fit_regression_tree(x, t, max_depth=depth, min_leaf_count=1)
        assert _depth(tree.root) == depth
        for rows in (x, probe_rows(tree, 5, rng)):
            assert predict_rows(tree, rows).tobytes() == reference_predict(tree, rows).tobytes()

    @pytest.mark.parametrize("name", sorted(hand_built_trees()))
    def test_hand_built_trees(self, name):
        tree = hand_built_trees()[name]
        x = probe_rows(tree, 3, np.random.default_rng(7))
        assert predict_rows(tree, x).tobytes() == reference_predict(tree, x).tobytes()

    @pytest.mark.parametrize("name", sorted(hand_built_trees()))
    def test_one_row_and_no_rows(self, name):
        tree = hand_built_trees()[name]
        row = np.array([[0.05, -0.0, np.nan]])
        assert predict_rows(tree, row).tobytes() == reference_predict(tree, row).tobytes()
        assert predict_rows(tree, np.empty((0, 3))).shape == (0,)

    def test_predict_transposed_writes_into_out(self):
        tree = hand_built_trees()["mixed"]
        x = probe_rows(tree, 3, np.random.default_rng(8))
        out = np.full(x.shape[0], np.nan)
        assert tree.predict(np.ascontiguousarray(x.T), out) is out
        assert out.tobytes() == reference_predict(tree, x).tobytes()

    def test_gbdt_raw_scores(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 4))
        labels = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5).astype(int)
        schema = DatasetSchema(tuple(f"f{i}" for i in range(4)), ("A", "B", "C"))
        model = train_gbdt(Dataset(schema, x, labels), GbdtConfig(rounds=12, max_depth=4)).gbdt
        for rows in (x, probe_rows(model.trees[0][0], 4, rng), x[:1]):
            got, want = model.raw_scores(rows), reference_raw_scores(model, rows)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
