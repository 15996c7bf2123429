"""Tests for the CART regression tree."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, NotTrainedError
from repro.approximation import RegressionTree
from repro.approximation.regression_tree import cell_table

from helpers import tree_depth


class TestFitBasics:
    def test_requires_fit(self):
        with pytest.raises(NotTrainedError):
            RegressionTree().predict(np.zeros((1, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros((0, 1)), np.zeros(0))

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros((3, 1)), np.zeros(2))

    def test_constant_target_single_leaf(self):
        tree = RegressionTree().fit(np.arange(20.0).reshape(-1, 1), np.full(20, 3.0))
        assert tree.left.count(-1) == 1
        assert tree.predict(np.array([5.0])) == pytest.approx(3.0)

    def test_negative_variance_reduction_rejected(self):
        with pytest.raises(ConfigurationError, match="min_variance_reduction"):
            RegressionTree(min_variance_reduction=-1e-3)

    def test_wrong_feature_count_rejected(self):
        tree = RegressionTree().fit(np.zeros((4, 2)), np.arange(4.0))
        with pytest.raises(ConfigurationError):
            tree.predict(np.zeros((1, 3)))


class TestFitQuality:
    def test_recovers_step_function(self):
        x = np.linspace(0, 1, 200).reshape(-1, 1)
        y = np.where(x[:, 0] < 0.5, 1.0, 5.0)
        tree = RegressionTree(max_depth=2).fit(x, y)
        assert tree.predict(np.array([0.2])) == pytest.approx(1.0)
        assert tree.predict(np.array([0.8])) == pytest.approx(5.0)

    def test_beats_mean_predictor_on_smooth_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (500, 2))
        y = np.sin(4 * x[:, 0]) + x[:, 1] ** 2
        tree = RegressionTree(max_depth=8, min_samples_leaf=4).fit(x, y)
        predictions = tree.predict(x)
        mse_tree = np.mean((predictions - y) ** 2)
        mse_mean = np.var(y)
        assert mse_tree < mse_mean / 10

    def test_splits_on_relevant_feature(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (300, 3))
        y = np.where(x[:, 1] < 0.5, 0.0, 10.0)  # only feature 1 matters
        tree = RegressionTree(max_depth=1).fit(x, y)
        assert tree.feature[0] == 1

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (400, 1))
        y = rng.normal(0, 1, 400)
        tree = RegressionTree(max_depth=3, min_variance_reduction=0.0).fit(x, y)
        assert tree_depth(tree) <= 3

    def test_min_samples_leaf_respected(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        tree = RegressionTree(max_depth=10, min_samples_leaf=5).fit(x, y)
        # With 10 samples and 5-per-leaf, at most one split is possible.
        assert tree.left.count(-1) <= 2

    def test_single_point_prediction_matches_batch(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (100, 2))
        y = x[:, 0] * 3
        tree = RegressionTree().fit(x, y)
        batch = tree.predict(x[:5])
        singles = [tree.predict(row) for row in x[:5]]
        assert np.allclose(batch, singles)

    def test_a_split_between_adjacent_floats_separates_them(self):
        # Their midpoint rounds onto the upper value, so a split there
        # would send both values left and leave an empty right leaf.
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        x = np.array([[a], [a], [b], [b]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tree = RegressionTree(min_samples_leaf=1).fit(x, [0.0, 0.0, 10.0, 10.0])
        assert tree.predict(x).tolist() == [0.0, 0.0, 10.0, 10.0]
        assert tree.threshold[0] == a
        assert not np.isnan(tree.prediction).any()


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=-10, max_value=10),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_predictions_inside_target_hull(self, rows):
        x = np.array([[r[0]] for r in rows])
        y = np.array([r[1] for r in rows])
        tree = RegressionTree(max_depth=4, min_samples_leaf=1).fit(x, y)
        predictions = tree.predict(x)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_deeper_trees_never_fit_worse(self, depth):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (200, 1))
        y = np.sin(6 * x[:, 0])
        shallow = RegressionTree(max_depth=depth, min_samples_leaf=1).fit(x, y)
        deep = RegressionTree(max_depth=depth + 2, min_samples_leaf=1).fit(x, y)
        mse_shallow = np.mean((shallow.predict(x) - y) ** 2)
        mse_deep = np.mean((deep.predict(x) - y) ** 2)
        assert mse_deep <= mse_shallow + 1e-12


def _walk_payload(node: dict, point) -> float:
    """Predict by walking the nested ``to_dict`` payload recursively."""
    if "left" not in node:
        return node["prediction"]
    branch = "left" if point[node["feature"]] <= node["threshold"] else "right"
    return _walk_payload(node[branch], point)


def _splits(node: dict):
    """Every ``(feature, threshold)`` of the nested payload."""
    if "left" in node:
        yield node["feature"], node["threshold"]
        yield from _splits(node["left"])
        yield from _splits(node["right"])


class TestFlatNodes:
    def test_predict_equals_a_walk_of_the_nested_payload(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, (400, 3))
        y = np.sin(5 * x[:, 0]) + x[:, 1] * x[:, 2]
        tree = RegressionTree(max_depth=8, min_samples_leaf=2).fit(x, y)
        payload = tree.to_dict()
        splits = list(_splits(payload["root"]))
        assert len(splits) > 20
        # Random points, then points put exactly on each split threshold.
        points = rng.uniform(-0.1, 1.1, (300, 3))
        on_threshold = rng.uniform(0.0, 1.0, (len(splits), 3))
        for row, (feature, threshold) in zip(on_threshold, splits):
            row[feature] = threshold
        points = np.vstack([points, on_threshold])
        expected = [_walk_payload(payload["root"], row) for row in points]
        assert tree.predict(points).tolist() == expected
        assert [tree.predict(row) for row in points] == expected
        rebuilt = RegressionTree.from_dict(payload)
        assert rebuilt.predict(points).tolist() == expected
        assert rebuilt.to_dict() == payload

    def test_a_leaf_has_no_left_child(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 1.0, (120, 2))
        tree = RegressionTree(max_depth=4).fit(x, x[:, 0] + x[:, 1])
        leaves = [node for node, left in enumerate(tree.left) if left == -1]
        assert all(tree.right[node] == -1 for node in leaves)
        assert len(tree.prediction) == 2 * len(leaves) - 1


#: Feature values that stress the split rule: duplicates, ±0.0 and
#: three adjacent floats (a midpoint between two of them rounds onto
#: the upper one).
_EDGE_VALUES = [
    0.0,
    -0.0,
    1.0,
    float(np.nextafter(1.0, 2.0)),
    float(np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
    2.5,
    -3.0,
]
_VALUE = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-5.0, 10.0))


@st.composite
def _fitted_trees(draw):
    """A tree fitted on rows drawn mostly from :data:`_EDGE_VALUES`."""
    features = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(_VALUE, min_size=features, max_size=features), min_size=2, max_size=40
        )
    )
    targets = draw(st.lists(st.floats(-100.0, 100.0), min_size=len(rows), max_size=len(rows)))
    tree = RegressionTree(max_depth=draw(st.integers(1, 8)), min_samples_leaf=1)
    return tree.fit(np.array(rows), np.array(targets))


@st.composite
def _built_trees(draw):
    """A tree built by hand through ``from_dict``, thresholds on edge values."""
    features = draw(st.integers(1, 3))
    prediction = st.floats(-100.0, 100.0)
    leaf = st.builds(lambda p: {"prediction": p}, prediction)
    root = draw(
        st.recursive(
            leaf,
            lambda children: st.builds(
                lambda f, t, left, right, p: {
                    "prediction": p,
                    "feature": f,
                    "threshold": t,
                    "left": left,
                    "right": right,
                },
                st.integers(0, features - 1),
                _VALUE,
                children,
                children,
                prediction,
            ),
            max_leaves=24,
        )
    )
    return RegressionTree.from_dict(
        {"max_depth": 8, "min_samples_leaf": 1, "n_features": features, "root": root}
    )


def _cell_predictions(trees, points) -> "list[list[str]]":
    """Each tree's cell-table value at each point, as ``hex()`` strings."""
    edges, table = cell_table(trees)
    x = np.array(points, dtype=float).reshape(len(points), len(edges))
    cells = tuple(np.searchsorted(edge, x[:, f]) for f, edge in enumerate(edges))
    return [[p.hex() for p in table[k][cells].tolist()] for k in range(len(trees))]


def _thresholds(tree, feature: int) -> "list[float]":
    """The thresholds ``tree`` tests on ``feature``, ascending."""
    return sorted(
        t for f, t, left in zip(tree.feature, tree.threshold, tree.left)
        if f == feature and left >= 0
    )


def _probes(trees, feature: int) -> "list[float]":
    """Values that stress feature ``feature``'s cells in ``trees``.

    Every threshold and its two ``nextafter`` neighbours, ±0.0, NaN,
    ±inf, and a value below the first threshold and one past the last.
    """
    thresholds = sorted(t for tree in trees for t in _thresholds(tree, feature))
    values = [0.0, -0.0, float("nan"), float("inf"), float("-inf")]
    for t in thresholds:
        values += [float(np.nextafter(t, -np.inf)), t, float(np.nextafter(t, np.inf))]
    if thresholds:
        values += [thresholds[0] - 1.0, thresholds[-1] + 1.0]
    return values


class TestCellTable:
    """``cell_table`` holds the leaf ``predict`` reaches, cell by cell."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_predict_row_by_row(self, data):
        tree = data.draw(st.one_of(_fitted_trees(), _built_trees()), label="tree")
        features = tree._n_features
        # Values on the tree's own thresholds too, with duplicates, and
        # their neighbours, NaN and infinities.
        value = st.one_of(
            _VALUE,
            st.sampled_from(tree.threshold),
            st.sampled_from(_probes([tree], data.draw(st.integers(0, features - 1)))),
        )
        points = data.draw(
            st.lists(st.lists(value, min_size=features, max_size=features), max_size=14),
            label="points",
        )
        expected = [float(tree.predict(np.array(point))).hex() for point in points]
        assert _cell_predictions([tree], points) == [expected]

    def test_every_probe_of_a_fitted_grid(self):
        # The L2's case: a module map's (queue, rate, work) grid, probed
        # on every threshold, its neighbours and the cells' ends.
        rng = np.random.default_rng(8)
        x = rng.choice([0.0, 5.0, 20.0, 80.0], (300, 3)) + rng.choice([0.0, 1e-9], (300, 3))
        tree = RegressionTree(max_depth=10, min_samples_leaf=2).fit(x, rng.random(300))
        edges, _ = cell_table([tree])
        assert len(edges[1]) > 5
        # Each feature over all its probes, the others over every fifth.
        probes = [_probes([tree], f) for f in range(3)]
        points = [
            point
            for f in range(3)
            for point in itertools.product(
                *(probes[g] if g == f else probes[g][::5] for g in range(3))
            )
        ]
        expected = [p.hex() for p in tree.predict(np.array(points)).tolist()]
        assert _cell_predictions([tree], points) == [expected]

    def test_trees_whose_thresholds_interleave(self):
        # Each tree's cells are unions of the shared grid's cells.
        rng = np.random.default_rng(9)
        trees = []
        for shift in (0.0, 0.25, 0.5):
            x = rng.uniform(0.0, 4.0, (60, 2)) + shift
            y = np.sin(3.0 * x[:, 0]) + np.cos(2.0 * x[:, 1])
            trees.append(RegressionTree(max_depth=4, min_samples_leaf=2).fit(x, y))
        edges, table = cell_table(trees)
        assert table.shape == (3, len(edges[0]) + 1, len(edges[1]) + 1)
        for f in range(2):
            own = [_thresholds(tree, f) for tree in trees]
            assert edges[f].tolist() == sorted(set().union(*own))
            # Each tree splits inside the others' ranges.
            assert all(
                a[0] < b[-1] and b[0] < a[-1] for a in own for b in own if a is not b
            )
        points = list(itertools.product(_probes(trees, 0), _probes(trees, 1)))
        expected = [[p.hex() for p in tree.predict(np.array(points)).tolist()] for tree in trees]
        assert _cell_predictions(trees, points) == expected

    @pytest.mark.parametrize("threshold", [float("inf"), float("-inf"), float("nan")])
    def test_a_non_finite_threshold_is_rejected_in_one_line(self, threshold):
        tree = RegressionTree.from_dict(
            {
                "max_depth": 1,
                "min_samples_leaf": 1,
                "n_features": 2,
                "root": {
                    "prediction": 0.5,
                    "feature": 1,
                    "threshold": threshold,
                    "left": {"prediction": 0.0},
                    "right": {"prediction": 1.0},
                },
            }
        )
        with pytest.raises(ConfigurationError, match="finite") as raised:
            cell_table([tree])
        assert "\n" not in str(raised.value)
