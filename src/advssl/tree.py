"""Depth-limited regression trees with exact greedy split search.

The weak learner behind gradient boosting: each internal node picks the
(feature, threshold) pair with the largest SSE reduction, thresholds are
midpoints between consecutive distinct values. One leaf rule: a leaf
carries the sum of its rows' targets over the sum of their denominators,
0.0 where that sum is 0. Without per-row denominators each row counts 1,
so the leaf is the mean of its targets; boosting passes Hessians, which
makes every leaf a Newton step (Friedman 2001, Algorithm 6).

No node sorts and no node allocates a per-feature array. presort builds
one workspace per training matrix (boosting shares it across all its
trees): the column-wise row order, the features that hold a repeated
value, and the scratch buffers that the search and the partition
overwrite; values are read from x itself. Each node holds its rows as one
sorted list per feature, nothing more. A split divides those lists for the children by a
stable partition into one of two level buffers, so every child's lists
stay sorted and equal values keep ascending row order. best_split
searches all features of a node in one vectorised pass: one prefix sum
per feature, gains at every position that leaves min_leaf_count rows per
side and lies between two distinct values. Only a feature with a repeated
value anywhere in x can have two equal values side by side in a node, so
only those features gather their node values for that test. Ties go to
the lowest feature index, then to the smallest threshold. The trees are
the ones a per-node stable sort of each feature would give, bit for bit.

Trees grow level by level (_grow): every node of a level is searched, then
split or made a leaf.

Prediction walks a tree in blocks of three levels over x.T (_evaluate):
a depth-3 tree is seven vectorised tests and one gather, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nnet import as_matrix


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
    def from_dict(cls, d: dict, decode) -> "TreeNode":
        """The node whose to_dict is d; decode(type, value, where) is the codec's
        from_plain, which reads feature, threshold and value by its type rules."""
        if len(d) == 1:
            return cls(value=decode(float, d["value"], "value"))
        if len(d) != 4:  # with the four lookups below: exactly a split's keys
            raise ValueError(f"a tree node has 1 key (a leaf) or 4 (a split), not {len(d)}")
        return cls(
            feature=decode(int, d["feature"], "feature"),
            threshold=decode(float, d["threshold"], "threshold"),
            left=cls.from_dict(d["left"], decode),
            right=cls.from_dict(d["right"], decode),
        )


@dataclass
class RegressionTree:
    root: TreeNode
    # Set by the fit: each training row's leaf value, predict's bit for bit.
    fitted: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def predict(self, xt: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Leaf value per row of x into out, from xt = x.T (fastest C-contiguous);
        rows go left when value <= threshold (NaN goes right)."""
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


@dataclass(eq=False)
class Presorted:
    """What every tree fit on one training matrix x shares (see presort).

    rows is the (F, n) per-feature row order of the (n, F) matrix x and
    tied the features that hold a repeated value. scratch, go_left and
    levels are the buffers that best_split and the partition overwrite at
    every node; a fit never writes rows, x or tied. x is read in place, not
    copied: a copy is one more (F, n) array at the fit's peak memory.
    """

    rows: np.ndarray
    x: np.ndarray
    tied: np.ndarray

    def __post_init__(self):
        size = self.rows.size
        self.scratch = np.empty((3, size))  # best_split's take, cumsum and gain passes
        self.go_left = np.empty(size, dtype=bool)
        self.levels = np.empty((2, size), dtype=np.intp)  # children's row lists, level by level


def presort(x: np.ndarray) -> Presorted:
    """The workspace of every fit_regression_tree call on x: per-feature row
    order (stable sort by value), the features with a repeated value and the
    search's scratch. Build it once per training matrix."""
    x = as_matrix(x)
    rows = np.argsort(x.T, axis=1, kind="stable")
    values = np.take_along_axis(x.T, rows, axis=1)
    tied = np.flatnonzero((values[:, 1:] == values[:, :-1]).any(axis=1))
    return Presorted(rows, x, tied)


def best_split(
    presorted: Presorted,
    rows: np.ndarray,
    targets: np.ndarray,
    total: float,
    min_leaf_count: int,
) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over all exact splits of one node, or None.

    rows is the node's (F, n) presorted lists, C-contiguous: row f holds the
    node's row indices sorted by feature f. targets is indexed by row; total
    is the node's target sum in ascending row order. Gain is the SSE
    reduction sum_L^2/n_L + sum_R^2/n_R - sum^2/n, computed in the scratch of
    presorted. A position between two equal values is no split; only the
    features in presorted.tied can hold one. Ties go to the lowest feature
    index, then to the smallest threshold.
    """
    f, n = rows.shape
    lo, hi = min_leaf_count - 1, n - min_leaf_count  # split after position i in [lo, hi)
    if lo >= hi or rows.size == 0:
        return None
    scratch, span = presorted.scratch, f * (hi - lo)
    picked = np.take(targets, rows, out=scratch[0, : rows.size].reshape(f, n), mode="clip")
    left_sum = np.cumsum(picked, axis=1, out=scratch[1, : rows.size].reshape(f, n))[:, lo:hi]
    sizes = np.arange(lo + 1, hi + 1, dtype=np.float64)  # left-side sizes
    # Contiguous outputs (arithmetic on the strided left_sum is slow), in
    # place, in the order of L*L/nL + R*R/nR - total*total/n.
    gains = np.multiply(left_sum, left_sum, out=scratch[2, :span].reshape(f, -1))
    gains /= sizes
    right = np.subtract(total, left_sum, out=scratch[0, :span].reshape(f, -1))
    right *= right
    right /= n - sizes
    gains += right
    gains -= total * total / n
    tied = presorted.tied
    if tied.size:
        values = presorted.x[rows[tied], tied[:, None]]
        equal = values[:, lo + 1 : hi + 1] == values[:, lo:hi]
        gains[tied] = np.where(equal, -np.inf, gains[tied])
    pos = gains.argmax(axis=1)  # first max -> smallest threshold wins ties
    per_feature = gains[np.arange(f), pos]
    feat = int(per_feature.argmax())  # first max -> lowest feature wins ties
    gain = float(per_feature[feat])
    if gain <= 0.0:
        return None
    i = lo + int(pos[feat])
    below, above = presorted.x[rows[feat, i : i + 2], feat]
    return gain, feat, float((below + above) / 2.0)


def _partition(presorted: Presorted, rows, row_left, out):
    """The children's (F, n_L) and (F, n_R) lists: rows kept where row_left
    (indexed by row) is True or False, order kept, written one after the
    other into out."""
    f = rows.shape[0]
    flat = rows.reshape(-1)
    go_left = np.take(row_left, flat, out=presorted.go_left[: flat.size], mode="clip")
    split = int(np.count_nonzero(go_left))  # every feature keeps the same rows
    left = np.take(flat, np.flatnonzero(go_left), out=out[:split], mode="clip")
    go_right = np.logical_not(go_left, out=go_left)
    right = np.take(flat, np.flatnonzero(go_right), out=out[split : flat.size], mode="clip")
    return left.reshape(f, -1), right.reshape(f, -1)


def _leaf_value(targets, denominators, idx) -> float:
    """sum(targets) / sum(denominators) over the leaf's rows, 0.0 where that
    sum is 0; without denominators each row counts 1 (the mean, bit for bit)."""
    weight = idx.shape[0] if denominators is None else denominators[idx].sum()
    return float(targets[idx].sum() / weight) if weight != 0.0 else 0.0


def _grow(presorted: Presorted, targets, denominators, max_depth, min_leaf_count):
    """(root, fitted) of the tree grown level by level: a node holds its rows
    in ascending order and, where it may search, its presorted lists, which
    sit in presorted.rows (the root) or in one of the two level buffers."""
    n = presorted.x.shape[0]
    fitted, row_left = np.empty(n), np.empty(n, dtype=bool)
    root = TreeNode()
    level = [(root, np.arange(n), presorted.rows)]
    for depth in range(max_depth + 1):
        children, out, at = [], presorted.levels[depth % 2], 0
        for node, idx, rows in level:
            best = None
            # A split needs depth left, min_leaf_count rows per side and non-constant targets.
            if depth < max_depth and idx.shape[0] >= 2 * min_leaf_count:
                ys = targets[idx]
                if ys.min() != ys.max():
                    best = best_split(presorted, rows, targets, ys.sum(), min_leaf_count)
            if best is None:
                node.value = _leaf_value(targets, denominators, idx)
                fitted[idx] = node.value
                continue
            _, node.feature, node.threshold = best
            np.less_equal(presorted.x[:, node.feature], node.threshold, out=row_left)
            go_left = row_left[idx]
            left_idx, right_idx = idx[go_left], idx[~go_left]
            left = right = None  # children at max_depth are leaves and never search
            if depth + 1 < max_depth:
                left, right = _partition(presorted, rows, row_left, out[at:])
                at += rows.size
            node.left, node.right = TreeNode(), TreeNode()
            children += [(node.left, left_idx, left), (node.right, right_idx, right)]
        level = children
    return root, fitted


def fit_regression_tree(
    x: np.ndarray | Presorted,
    targets: np.ndarray,
    max_depth: int,
    min_leaf_count: int = 1,
    denominators: np.ndarray | None = None,
) -> RegressionTree:
    """Greedy exact least-squares tree on x: an (n, F) matrix or its presort.

    Stops on depth, on leaves that cannot keep min_leaf_count rows per
    side, on constant targets, and on zero SSE gain. A presort is the
    workspace every fit on its matrix shares, of which a fit overwrites only
    the scratch; a plain matrix is presorted here. Each leaf is sum(targets) /
    sum(denominators) over its rows, 0.0 where that sum is 0; without
    denominators each row counts 1, which is the mean (the split search fits
    targets by least squares either way). `fitted` holds each row's leaf value.
    """
    presorted = x if isinstance(x, Presorted) else presort(x)
    targets = np.asarray(targets, dtype=np.float64)
    n = presorted.x.shape[0]
    if n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    if n != targets.shape[0]:
        raise ValueError(f"row count {n} does not match target count {targets.shape[0]}")
    if min_leaf_count < 1:
        raise ValueError("min_leaf_count must be >= 1")
    root, fitted = _grow(presorted, targets, denominators, max_depth, min_leaf_count)
    tree = RegressionTree(root)
    tree.fitted = fitted
    return tree
