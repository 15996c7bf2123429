"""A CART regression tree, implemented from scratch.

The L2 controller stores module costs in "a compact regression tree"
(Breiman's CART): binary axis-aligned splits chosen to maximise variance
reduction, with depth and leaf-size limits keeping the tree compact enough
for real-time queries.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.common.validation import require_positive


class RegressionTree:
    """Least-squares regression tree (CART).

    The fitted tree is five parallel lists indexed by node, the root
    being node 0: ``feature``, ``threshold``, ``left``, ``right`` and
    ``prediction``. A leaf has ``left == -1``; an internal node sends a
    point left when ``point[feature] <= threshold``. :meth:`predict`
    walks the lists row by row in plain Python. The L2 does not walk
    its trees: it reads them from a :func:`cell_table`, which tabulates
    trees once on the cells their thresholds cut the feature space
    into.

    Parameters
    ----------
    max_depth:
        Maximum split depth (keeps the tree "compact").
    min_samples_leaf:
        Minimum training samples on each side of a split.
    min_variance_reduction:
        Minimum absolute reduction in sum-of-squares for a split to be
        accepted (pre-pruning).
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 4,
        min_variance_reduction: float = 1e-9,
    ) -> None:
        self.max_depth = int(require_positive(max_depth, "max_depth"))
        self.min_samples_leaf = int(
            require_positive(min_samples_leaf, "min_samples_leaf")
        )
        if min_variance_reduction < 0:
            raise ConfigurationError("min_variance_reduction must be >= 0")
        self.min_variance_reduction = min_variance_reduction
        self._n_features = 0
        self._clear()

    def _clear(self) -> None:
        self.feature: "list[int]" = []
        self.threshold: "list[float]" = []
        self.left: "list[int]" = []
        self.right: "list[int]" = []
        self.prediction: "list[float]" = []

    def _add_node(self, prediction: float) -> int:
        """Append a leaf; returns its index."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.prediction.append(prediction)
        return len(self.prediction) - 1

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        """Fit the tree to ``features`` (n, d) and ``targets`` (n,)."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).reshape(-1)
        if x.shape[0] != y.size:
            raise ConfigurationError("features and targets must align")
        if y.size == 0:
            raise ConfigurationError("cannot fit on an empty dataset")
        self._n_features = x.shape[1]
        self._clear()
        self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        node = self._add_node(float(y.mean()))
        if depth >= self.max_depth or y.size < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = self._build(x[mask], y[mask], depth + 1)
        self.right[node] = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        """Exhaustive variance-reduction split search (sorted-scan)."""
        n = y.size
        parent_sse = float(((y - y.mean()) ** 2).sum())
        best: tuple[int, float] | None = None
        best_gain = self.min_variance_reduction
        for feature in range(x.shape[1]):
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            cum_sum = np.cumsum(ys)
            cum_sq = np.cumsum(ys**2)
            total_sum, total_sq = cum_sum[-1], cum_sq[-1]
            # Candidate split after position i (left = 0..i).
            for i in range(self.min_samples_leaf - 1, n - self.min_samples_leaf):
                if xs[i] == xs[i + 1]:
                    continue  # cannot separate equal values
                left_n = i + 1
                right_n = n - left_n
                left_sse = cum_sq[i] - cum_sum[i] ** 2 / left_n
                right_sum = total_sum - cum_sum[i]
                right_sse = (total_sq - cum_sq[i]) - right_sum**2 / right_n
                gain = parent_sse - (left_sse + right_sse)
                if gain > best_gain:
                    best_gain = gain
                    threshold = (xs[i] + xs[i + 1]) / 2.0
                    if threshold == xs[i + 1]:
                        # Adjacent floats: the midpoint rounds onto the
                        # upper value, which ``x <= threshold`` would
                        # send left with the lower one.
                        threshold = xs[i]
                    best = (feature, float(threshold))
        return best

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d) or a single point (d,)."""
        self._require_fit()
        x = np.asarray(features, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self._n_features:
            raise ConfigurationError(
                f"expected {self._n_features} features, got {x.shape[1]}"
            )
        feature, threshold = self.feature, self.threshold
        left, right, prediction = self.left, self.right, self.prediction
        out = []
        for row in x.tolist():
            node = 0
            while left[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            out.append(prediction[node])
        out = np.array(out, dtype=float)
        return out[0] if single else out

    def _require_fit(self) -> None:
        if not self.prediction:
            raise NotTrainedError("RegressionTree.fit must be called before use")

    # ------------------------------------------------------------------
    # Serialisation (trained-map artifacts round-trip through JSON)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form of the fitted tree; JSON-safe and loss-free.

        Nodes nest from ``"root"``: a leaf is ``{"prediction"}``, an
        internal node adds ``"feature"``, ``"threshold"``, ``"left"``
        and ``"right"``.
        """
        self._require_fit()
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_variance_reduction": self.min_variance_reduction,
            "n_features": self._n_features,
            "root": self._node_to_dict(0),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RegressionTree":
        """Rebuild a fitted tree from :meth:`to_dict` output."""
        for key in ("max_depth", "min_samples_leaf", "n_features", "root"):
            if key not in payload:
                raise ConfigurationError(f"tree payload needs a {key!r} key")
        tree = cls(
            max_depth=payload["max_depth"],
            min_samples_leaf=payload["min_samples_leaf"],
            min_variance_reduction=payload.get("min_variance_reduction", 1e-9),
        )
        tree._n_features = int(payload["n_features"])
        tree._node_from_dict(payload["root"])
        return tree

    def _node_to_dict(self, node: int) -> dict:
        if self.left[node] < 0:
            return {"prediction": self.prediction[node]}
        return {
            "prediction": self.prediction[node],
            "feature": self.feature[node],
            "threshold": self.threshold[node],
            "left": self._node_to_dict(self.left[node]),
            "right": self._node_to_dict(self.right[node]),
        }

    def _node_from_dict(self, payload: dict) -> int:
        node = self._add_node(float(payload["prediction"]))
        if "left" in payload:
            self.feature[node] = int(payload["feature"])
            self.threshold[node] = float(payload["threshold"])
            self.left[node] = self._node_from_dict(payload["left"])
            self.right[node] = self._node_from_dict(payload["right"])
        return node


def cell_table(trees: "list[RegressionTree]") -> "tuple[list[np.ndarray], np.ndarray]":
    """Fitted trees of one feature space as one dense table of cells.

    Every test a tree makes is ``x[f] <= t``, with ``t`` in the sorted
    union ``edges[f]`` of the thresholds any of ``trees`` tests on
    feature ``f``. So ``np.searchsorted(edges[f], x[f], side="left")``
    is a cell index that fixes every branch any point takes: cell ``i``
    holds the values in ``(edges[f][i - 1], edges[f][i]]``, and the last
    cell those above every threshold, and NaN, which every test sends
    right. Each tree is walked once per cell, at one representative: the
    cell's upper threshold, or ``+inf`` past the last one.

    Returns ``(edges, table)``: per feature its thresholds, and the
    ``(len(trees), len(edges[0]) + 1, ...)`` predictions, so that
    ``table[k][cells]`` is ``trees[k].predict(x)`` bit for bit at the
    point's cell indices. Raises a one-line
    :class:`ConfigurationError` for a threshold that is not finite
    (no representative could stand for the cells around it) or trees of
    different feature counts.
    """
    if len({tree._n_features for tree in trees}) != 1:
        raise ConfigurationError("a cell table needs trees of one feature count")
    thresholds: "list[set[float]]" = [set() for _ in range(trees[0]._n_features)]
    for tree in trees:
        tree._require_fit()
        for feature, threshold, left in zip(tree.feature, tree.threshold, tree.left):
            if left < 0:
                continue
            if not math.isfinite(threshold):
                raise ConfigurationError(
                    f"a tree's split threshold must be finite, got {threshold!r}"
                )
            thresholds[feature].add(threshold)
    edges = [np.array(sorted(values), dtype=float) for values in thresholds]
    axes = [np.append(edge, np.inf) for edge in edges]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    cells = np.arange(len(points))
    table = np.empty((len(trees), len(points)))
    for k, tree in enumerate(trees):
        feature, threshold, left, right, prediction = (
            np.array(values)
            for values in (tree.feature, tree.threshold, tree.left, tree.right, tree.prediction)
        )
        # A vectorised descent: every cell steps down one level at a
        # time, and a leaf (feature -1, left -1) stays where it is.
        node = np.zeros(len(points), dtype=np.intp)
        inner = left[node] >= 0
        while inner.any():
            goes_left = points[cells, feature[node]] <= threshold[node]
            node = np.where(inner, np.where(goes_left, left[node], right[node]), node)
            inner = left[node] >= 0
        table[k] = prediction[node]
    return edges, table.reshape(len(trees), *(axis.size for axis in axes))
