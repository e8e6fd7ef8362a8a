"""Depth-limited regression trees with exact greedy split search.

The weak learner behind gradient boosting: each internal node picks the
(feature, threshold) pair with the largest SSE reduction, thresholds are
midpoints between consecutive distinct values, leaves carry target means.

No node sorts. The training matrix is sorted column-wise once (presort;
boosting shares one presort across all its trees), and each node holds
its rows as one sorted list per feature. A split divides those lists for
the children by a stable partition, so every child's lists stay sorted
and equal ties keep ascending row order. best_split searches all features
of a node in one vectorised pass: one prefix sum per feature, gains at
every position that leaves min_leaf_count rows per side and lies between
two distinct values. Ties go to the lowest feature index, then to the
smallest threshold. The trees are the ones a per-node stable sort of
each feature would give, bit for bit.

A tree grows level by level (_grow): every node of a level that may split
is searched, then each one splits or becomes a leaf. A fit may share the
search with a split worker (serve_split_worker in another process, see
prm.train_gbdt): this process searches the block of features [0, h), the
worker the block [h, F), h = ceil(F/2), and each keeps only its block's
sorted lists. Once per level the two swap their blocks' best candidates
and both take, per node, the higher gain, ties going to the lower block.
That is best_split's first-max rule over all features, so the trees are
the one-process trees bit for bit. Without a worker the same loop searches
every feature and swaps nothing.

Prediction walks a tree in blocks of three levels over x.T (_evaluate):
a depth-3 tree is seven vectorised tests and one gather, bit for bit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (value)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": float(self.value)}
        return {
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        if len(d) == 1:
            return cls(value=float(d["value"]))
        if len(d) != 4:  # with the four lookups below: exactly a split's keys
            raise ValueError(f"a tree node has 1 key (a leaf) or 4 (a split), not {len(d)}")
        return cls(
            feature=int(d["feature"]),
            threshold=float(d["threshold"]),
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


@dataclass
class RegressionTree:
    root: TreeNode
    max_depth: int
    min_leaf_count: int
    # Set by the fit: each training row's leaf value, predict(x) bit for bit.
    fitted: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf value per row; rows go left when value <= threshold (NaN goes right)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        return self.predict_transposed(x.T, np.empty(x.shape[0]))

    def predict_transposed(self, xt: np.ndarray, out: np.ndarray) -> np.ndarray:
        """predict(x) into out, from xt = x.T; fastest when xt is C-contiguous."""
        _evaluate(self.root, xt, None, out)
        return out


def _evaluate(node: TreeNode, xt: np.ndarray, rows: np.ndarray | None, out: np.ndarray):
    """Write the leaf value of the columns rows of xt (None: all) under node into out.

    The top three levels form a block: each of its <= 7 tests runs on all
    the block's rows and bit-select arithmetic picks each row's exit (<= 8).
    A leaf above the bottom is padded: it sends every row left and both its
    exits are itself. Only exits that are subtrees recurse, on their rows.
    """
    at = slice(None) if rows is None else rows
    if node.is_leaf:
        out[at] = node.value
        return
    levels, exits = [], [node]
    while len(levels) < 3 and not all(n.is_leaf for n in exits):
        levels.append(exits)
        exits = [c for n in exits for c in ((n, n) if n.is_leaf else (n.left, n.right))]
    column = xt.__getitem__ if rows is None else lambda f: xt[f][rows]
    path = []  # per level, the test of each row's node there: True = go left
    for level in levels:
        tests = [n.is_leaf or column(n.feature) <= n.threshold for n in level]
        for went_left in reversed(path):  # select between sibling subtrees, deepest first
            tests = [b ^ ((b ^ a) & went_left) for a, b in zip(tests[::2], tests[1::2])]
        path.append(tests[0])
    code = path[0].view(np.uint8)  # the path's left turns as bits: exit = top - code
    for went_left in path[1:]:
        code += code
        code |= went_left
    out[at] = np.array([n.value for n in reversed(exits)]).take(code)
    top = len(exits) - 1
    for j, sub in enumerate(exits):
        if not sub.is_leaf:
            sel = np.flatnonzero(code == top - j)
            if sel.size:
                _evaluate(sub, xt, sel if rows is None else rows[sel], out)


def presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature row order of x (stable sort by value) and the values in that order.

    Returns (rows, values), both shaped (F, n). Sort once per training
    matrix and pass the result to every fit_regression_tree call on it.
    """
    xt = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    rows = np.argsort(xt, axis=1, kind="stable")
    return rows, np.take_along_axis(xt, rows, axis=1)


def best_split(
    rows: np.ndarray,
    values: np.ndarray,
    targets: np.ndarray,
    total: float,
    min_leaf_count: int,
) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over all exact splits of one node, or None.

    rows and values are the node's (F, n) presorted lists: row f holds the
    node's row indices sorted by feature f and the matching values. targets
    is indexed by row; total is the node's target sum in ascending row order.
    Gain is the SSE reduction sum_L^2/n_L + sum_R^2/n_R - sum^2/n. Ties go
    to the lowest feature index, then to the smallest threshold.
    """
    n = rows.shape[1]
    lo, hi = min_leaf_count - 1, n - min_leaf_count  # split after position i in [lo, hi)
    if lo >= hi or rows.size == 0:
        return None
    left_sum = np.cumsum(np.take(targets, rows), axis=1)[:, lo:hi]
    sizes = np.arange(lo + 1, hi + 1, dtype=np.float64)  # left-side sizes
    # In place, but in the order of L*L/nL + R*R/nR - total*total/n.
    gains = left_sum * left_sum
    gains /= sizes
    right = total - left_sum
    right *= right
    right /= n - sizes
    gains += right
    gains -= total * total / n
    np.copyto(gains, -np.inf, where=values[:, lo + 1 : hi + 1] == values[:, lo:hi])  # ties
    pos = gains.argmax(axis=1)  # first max -> smallest threshold wins ties
    per_feature = gains[np.arange(gains.shape[0]), pos]
    feat = int(per_feature.argmax())  # first max -> lowest feature wins ties
    gain = float(per_feature[feat])
    if gain <= 0.0:
        return None
    i = lo + int(pos[feat])
    return gain, feat, float((values[feat, i] + values[feat, i + 1]) / 2.0)


def _keep(at: np.ndarray, rows: np.ndarray, values: np.ndarray, size: int):
    """The (F, n) sorted lists restricted to the flat positions at, size per
    feature, order kept."""
    shape = (rows.shape[0], size)  # every feature keeps the same rows; F may be 0
    return rows.take(at).reshape(shape), values.take(at).reshape(shape)


def _winner(low, high):
    """The better of two blocks' candidates for one node (either may be None):
    the higher gain, ties going to low, the block of the lower features."""
    return high if high is not None and (low is None or high[0] > low[0]) else low


# Candidates per exchange message: at most 25 pickled bytes each, so the
# <= 2 messages a pipe can hold at once fit a 64 KiB Linux pipe, and both
# sides may send before they read without a deadlock.
_CHUNK = 1024


def _swap(peer, mine: list) -> list:
    """The peer's candidates for the nodes of mine: each side sends first, so
    the side that finishes its search later never waits."""
    theirs = []
    for start in range(0, len(mine), _CHUNK):
        peer.send(mine[start : start + _CHUNK])
        theirs += peer.recv()
    return theirs


def _grow(x, targets, max_depth, min_leaf_count, rows, values, first, peer):
    """(root, fitted) of the tree grown level by level, searching the presorted
    block (rows, values) of features [first, first + len(rows)).

    peer (None: a single block) is the channel to the process that searches
    the other block; the two swap candidates once per level in which some
    node may split. The block that starts at feature 0 is the lower one.
    """
    n = x.shape[0]
    fitted = np.empty(n)
    root = TreeNode()
    level = [(root, np.arange(n), rows, values)]
    for depth in range(max_depth + 1):
        found, may_split = [], False
        for _, idx, rows, values in level:
            best = None
            # A split needs depth left, min_leaf_count rows per side and non-constant targets.
            if depth < max_depth and idx.shape[0] >= 2 * min_leaf_count:
                ys = targets[idx]
                if ys.min() != ys.max():
                    may_split = True
                    best = best_split(rows, values, targets, ys.sum(), min_leaf_count)
                    if best is not None:
                        best = (best[0], first + best[1], best[2])
            found.append(best)
        if peer is not None and may_split:
            theirs = _swap(peer, found)
            pairs = zip(found, theirs) if first == 0 else zip(theirs, found)  # (lower, upper)
            found = [_winner(low, high) for low, high in pairs]
        children = []
        for (node, idx, rows, values), best in zip(level, found):
            if best is None:
                node.value = float(targets[idx].mean())
                fitted[idx] = node.value
                continue
            _, node.feature, node.threshold = best
            go_left = x[idx, node.feature] <= node.threshold
            left_idx, right_idx = idx[go_left], idx[~go_left]
            if depth + 1 < max_depth:  # children search: split the sorted lists stably
                row_left = np.zeros(n, dtype=bool)
                row_left[left_idx] = True
                in_left = np.take(row_left, rows).ravel()
                left = _keep(np.flatnonzero(in_left), rows, values, left_idx.shape[0])
                right = _keep(np.flatnonzero(~in_left), rows, values, right_idx.shape[0])
            else:  # children are leaves and never search
                left = right = (None, None)
            node.left, node.right = TreeNode(), TreeNode()
            children += [(node.left, left_idx, *left), (node.right, right_idx, *right)]
        level = children
    return root, fitted


def _split_point(num_features: int) -> int:
    """h: this process searches features [0, h), a split worker [h, F)."""
    return (num_features + 1) // 2


def fit_regression_tree(
    x: np.ndarray,
    targets: np.ndarray,
    max_depth: int,
    min_leaf_count: int = 1,
    presorted: tuple[np.ndarray, np.ndarray] | None = None,
    peer=None,
) -> RegressionTree:
    """Greedy exact least-squares tree.

    Stops on depth, on leaves that cannot keep min_leaf_count rows per
    side, on constant targets, and on zero SSE gain. presorted, when given,
    is presort(x); otherwise x is sorted here. The tree's `fitted` holds
    each row's leaf value. peer, when given, is the channel to a split
    worker running serve_split_worker on the same x, presort, max_depth and
    min_leaf_count: the targets go to it, this process searches features
    [0, h) and the worker [h, F), in step level by level.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    if x.shape[0] != targets.shape[0]:
        raise ValueError(
            f"row count {x.shape[0]} does not match target count {targets.shape[0]}"
        )
    if min_leaf_count < 1:
        raise ValueError("min_leaf_count must be >= 1")
    if presorted is None:
        presorted = presort(x)
    expected = (x.shape[1], x.shape[0])
    if len(presorted) != 2 or any(np.shape(part) != expected for part in presorted):
        raise ValueError(
            f"presorted must be two arrays of shape {expected} (features, rows)"
        )
    rows, values = presorted
    if peer is not None:
        peer.send(targets)
        h = _split_point(x.shape[1])
        rows, values = rows[:h], values[:h]
    root, fitted = _grow(x, targets, max_depth, min_leaf_count, rows, values, 0, peer)
    tree = RegressionTree(root, max_depth, min_leaf_count)
    tree.fitted = fitted
    return tree


def serve_split_worker(peer, x: np.ndarray, presorted, max_depth: int, min_leaf_count: int):
    """A split worker's body: for each targets column that arrives on peer,
    grow the tree over features [h, F) in step with the fit_regression_tree
    call that sent it, and keep nothing; return when peer closes."""
    x = np.asarray(x, dtype=np.float64)
    h = _split_point(x.shape[1])
    rows, values = presorted[0][h:], presorted[1][h:]
    with contextlib.suppress(EOFError):  # the fitting process closed the channel
        while True:
            _grow(x, peer.recv(), max_depth, min_leaf_count, rows, values, h, peer)
