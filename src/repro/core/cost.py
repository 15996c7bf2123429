"""Norm-based operating costs (paper eq. 3) and soft-constraint slack.

The general cost is

    J(x, u) = ||x - x*||_Q + ||u||_R + ||Delta u||_S

with user weights Q, R, S prioritising set-point tracking against
operating and switching cost. Soft constraints enter through slack
variables that are "non-zero only if the corresponding constraints are
violated" and heavily penalised — :class:`SlackResponseCost` implements
the L0 instance: J = Q * max(0, r - r*) + R * psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    require_non_negative,
    require_positive,
    store_floats,
)


def weighted_norm(vector, weight) -> float:
    """Weighted L1 norm ``sum_i w_i * |v_i|``.

    ``weight`` may be a scalar (applied to every component) or a vector
    aligned with ``vector``. The paper's ||.||_Q notation reduces to this
    for the scalar quantities used in the case study.
    """
    v = np.atleast_1d(np.asarray(vector, dtype=float))
    w = np.asarray(weight, dtype=float)
    if w.ndim == 0:
        w = np.full_like(v, float(w))
    if w.shape != v.shape:
        raise ConfigurationError("weight must be scalar or align with vector")
    if np.any(w < 0):
        raise ConfigurationError("weights must be non-negative")
    return float(np.sum(w * np.abs(v)))


@dataclass(frozen=True)
class CostWeights:
    """The paper's Q / R / S weights.

    The L0 cost reads Q and R; the generic :class:`SetPointCost` also
    reads S. The L1's switching penalty W is
    :attr:`~repro.controllers.params.L1Params.switching_weight`.
    """

    tracking: float = 100.0  # Q
    operating: float = 1.0  # R
    control_change: float = 0.0  # S

    def __post_init__(self) -> None:
        require_non_negative(self.tracking, "tracking")
        require_non_negative(self.operating, "operating")
        require_non_negative(self.control_change, "control_change")
        store_floats(self, "tracking", "operating", "control_change")


class SetPointCost:
    """General eq.-3 cost around a set point x*."""

    def __init__(self, set_point, weights: CostWeights) -> None:
        self.set_point = np.atleast_1d(np.asarray(set_point, dtype=float))
        self.weights = weights

    def evaluate(self, state, control, previous_control=None) -> float:
        """J(x, u) with the optional Delta-u term."""
        state = np.atleast_1d(np.asarray(state, dtype=float))
        if state.shape != self.set_point.shape:
            raise ConfigurationError("state must align with the set point")
        cost = weighted_norm(state - self.set_point, self.weights.tracking)
        cost += weighted_norm(control, self.weights.operating)
        if previous_control is not None and self.weights.control_change > 0:
            delta = np.atleast_1d(np.asarray(control, dtype=float)) - np.atleast_1d(
                np.asarray(previous_control, dtype=float)
            )
            cost += weighted_norm(delta, self.weights.control_change)
        return cost


class SlackResponseCost:
    """The L0 case-study cost: J = Q * eps(r) + R * psi.

    ``eps(r) = max(0, r - r*)`` is the response-time slack — zero while
    the QoS target is met, so the controller only pays tracking cost on
    violations, and the power term decides among QoS-feasible settings.
    """

    def __init__(self, target_response: float, weights: CostWeights) -> None:
        self.target_response = require_positive(target_response, "target_response")
        self.weights = weights

    def slack(self, response_time) -> np.ndarray:
        """eps: the amount by which r exceeds r* (vectorised)."""
        r = np.asarray(response_time, dtype=float)
        return np.clip(r - self.target_response, 0.0, None)

    def evaluate(self, response_time, power) -> np.ndarray:
        """Per-candidate cost, vectorised over response/power arrays."""
        return self.evaluate_checked(
            np.asarray(response_time, dtype=float), self.checked_power(power)
        )

    @staticmethod
    def checked_power(power) -> np.ndarray:
        """``power`` as a float array; raises unless it is non-negative."""
        psi = np.asarray(power, dtype=float)
        if np.any(psi < 0):
            raise ConfigurationError("power must be non-negative")
        return psi

    def evaluate_checked(
        self,
        response_time: np.ndarray,
        psi: np.ndarray,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """The cost formula on float arrays, without conversion or checks.

        ``psi`` must have come through :meth:`checked_power`; hot loops
        check their power array once when they build it and then price
        every lookahead depth through here. ``out`` (which may be
        ``response_time`` itself) receives the result in place, with the
        same operations on the same operands in the same order, so the
        values are bit-identical to the allocating form.
        """
        if out is None:
            eps = np.maximum(response_time - self.target_response, 0.0)
            return self.weights.tracking * eps + self.weights.operating * psi
        np.subtract(response_time, self.target_response, out=out)
        np.maximum(out, 0.0, out=out)
        np.multiply(self.weights.tracking, out, out=out)
        np.add(out, self.weights.operating * psi, out=out)
        return out
