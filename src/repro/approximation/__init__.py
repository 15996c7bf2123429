"""Function approximation substrate.

Higher-level controllers cannot afford detailed models of the components
below them, so the paper approximates lower-level behaviour two ways:

* the L1 controller's abstraction map ``g`` is "obtained off-line as a
  hash table" over a quantised input grid —
  :class:`~repro.approximation.table.LookupTableMap`, one output row per
  grid cell, looked up at the cell of each input's nearest levels
  (:func:`~repro.approximation.quantizer.nearest_level`, on the
  :func:`~repro.approximation.quantizer.level_pairs` of the grid);
* the L2 controller's module-cost map ``J~`` is "a compact regression
  tree" trained from simulation data —
  :class:`~repro.approximation.regression_tree.RegressionTree`.

:mod:`~repro.approximation.training` holds the simulation-based
learning data (Bertsekas & Tsitsiklis style): the outputs of a
lower-level simulation over a quantised input domain, and the tree
fitted to them. The trainers themselves (``ComputerBehaviorMap.train``,
``ModuleCostMap.train``) simulate their whole grid in one call and
build the map from the returned array.
"""

from repro.approximation.quantizer import GridQuantizer, level_pairs, nearest_level
from repro.approximation.regression_tree import RegressionTree
from repro.approximation.table import LookupTableMap
from repro.approximation.training import TrainingSet, train_tree

__all__ = [
    "GridQuantizer",
    "LookupTableMap",
    "RegressionTree",
    "TrainingSet",
    "level_pairs",
    "nearest_level",
    "train_tree",
]
