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
* :mod:`~repro.core.bounded` — bounded local search for larger decision
  spaces (the L1 strategy);
* :mod:`~repro.core.uncertainty` — three-point uncertainty-band sampling
  (the chattering mitigation of §4.2);
* :mod:`~repro.core.simplex` — quantised load-fraction (gamma) vectors;
* :mod:`~repro.core.hierarchy` — multi-rate controller scheduling.
"""

from repro.core.bounded import LocalSearchResult, local_search
from repro.core.constraints import (
    BoxConstraint,
    CallableConstraint,
    Constraint,
    ConstraintSet,
)
from repro.core.cost import CostWeights, SetPointCost, SlackResponseCost, weighted_norm
from repro.core.hierarchy import MultiRateScheduler
from repro.core.llc import ControlDecision, LookaheadController
from repro.core.simplex import (
    enumerate_simplex,
    quantize_to_simplex,
    simplex_levels,
    simplex_neighbors,
)
from repro.core.uncertainty import expected_over_band, three_point_band

__all__ = [
    "BoxConstraint",
    "CallableConstraint",
    "Constraint",
    "ConstraintSet",
    "ControlDecision",
    "CostWeights",
    "LocalSearchResult",
    "LookaheadController",
    "MultiRateScheduler",
    "SetPointCost",
    "SlackResponseCost",
    "enumerate_simplex",
    "expected_over_band",
    "local_search",
    "quantize_to_simplex",
    "simplex_levels",
    "simplex_neighbors",
    "three_point_band",
    "weighted_norm",
]
