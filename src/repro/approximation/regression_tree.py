"""A CART regression tree, implemented from scratch.

The L2 controller stores module costs in "a compact regression tree"
(Breiman's CART): binary axis-aligned splits chosen to maximise variance
reduction, with depth and leaf-size limits keeping the tree compact enough
for real-time queries.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.common.validation import require_positive


class RegressionTree:
    """Least-squares regression tree (CART).

    The fitted tree is five parallel lists indexed by node, the root
    being node 0: ``feature``, ``threshold``, ``left``, ``right`` and
    ``prediction``. A leaf has ``left == -1``; an internal node sends a
    point left when ``point[feature] <= threshold``. :meth:`predict`
    walks the lists row by row in plain Python (:meth:`predict_rows`).
    The L2 asks for one point at many values of one feature, its share
    levels, and :meth:`predict_along` answers those in one descent.

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
        out = np.array(self.predict_rows(x.tolist()), dtype=float)
        return out[0] if single else out

    def predict_rows(self, rows: "list[list[float]]") -> "list[float]":
        """:meth:`predict` on plain-float rows, without its checks."""
        feature, threshold = self.feature, self.threshold
        left, right, prediction = self.left, self.right, self.prediction
        out = []
        for row in rows:
            node = 0
            while left[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            out.append(prediction[node])
        return out

    def predict_along(
        self, point: "list[float]", feature: int, values: "list[float]"
    ) -> "list[float]":
        """:meth:`predict_rows` of ``point`` with ``point[feature]`` set to each value.

        One descent serves every value: a node that tests ``feature``
        splits the range it carries with ``bisect_right``, so the values
        ``<= threshold`` go left as :meth:`predict`'s comparison sends
        them, and any other node sends the whole range one way. Each
        value reaches the leaf that :meth:`predict` reaches for it, given
        that ``values`` ascend and hold no NaN and that no threshold on
        ``feature`` is NaN (a fit to finite points makes none).
        ``point[feature]`` is not read.
        """
        f, threshold = self.feature, self.threshold
        left, right, prediction = self.left, self.right, self.prediction
        out: "list[float]" = []
        # Depth first, left before right: the ranges end at leaves in
        # ascending order.
        stack = [(0, 0, len(values))]
        while stack:
            node, lo, hi = stack.pop()
            while left[node] >= 0:
                if f[node] != feature:
                    node = left[node] if point[f[node]] <= threshold[node] else right[node]
                    continue
                cut = bisect_right(values, threshold[node], lo, hi)
                if cut == lo:
                    node = right[node]
                    continue
                if cut < hi:
                    stack.append((right[node], cut, hi))
                node, hi = left[node], cut
            out += [prediction[node]] * (hi - lo)
        return out

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
