"""The limited-lookahead control (LLC) framework — the paper's contribution.

LLC is model-predictive control specialised to *switching hybrid systems*:
at each step the controller expands the system model over a short
prediction horizon, restricted to a finite control set, picks the
trajectory minimising cumulative cost subject to constraints, applies its
first action, and repeats. This package provides the generic machinery:

* :mod:`~repro.core.cost` — norm-based operating costs with slack
  variables (eq. 3 and the soft-constraint construction of §4.1);
* :mod:`~repro.core.constraints` — state/input constraint sets
  (``H(x) <= 0`` and ``U(x)``);
* :mod:`~repro.core.llc` — exhaustive lookahead tree search with
  branch-and-bound pruning;
* :mod:`~repro.core.uncertainty` — three-point uncertainty-band sampling
  (the chattering mitigation of §4.2);
* :mod:`~repro.core.simplex` — quantised load-fraction (gamma) vectors.

The L1's bounded neighbourhood search lives with the L1 itself, in
:mod:`repro.controllers.l1`.
"""

from repro.core.constraints import CallableConstraint, Constraint, ConstraintSet
from repro.core.cost import CostWeights, SlackResponseCost
from repro.core.llc import ControlDecision, LookaheadController
from repro.core.simplex import (
    enumerate_simplex,
    quantize_to_simplex,
    simplex_levels,
    simplex_neighbors,
)
from repro.core.uncertainty import three_point_band

__all__ = [
    "CallableConstraint",
    "Constraint",
    "ConstraintSet",
    "ControlDecision",
    "CostWeights",
    "LookaheadController",
    "SlackResponseCost",
    "enumerate_simplex",
    "quantize_to_simplex",
    "simplex_levels",
    "simplex_neighbors",
    "three_point_band",
]
