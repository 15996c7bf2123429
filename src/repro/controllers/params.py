"""Controller parameter sets with the paper's §4.3 / §5.2 defaults."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    require_non_negative,
    require_positive,
    store_floats,
)
from repro.core.cost import CostWeights


@dataclass(frozen=True)
class L0Params:
    """L0 (frequency) controller parameters.

    Defaults: r* = 4 s, N_L0 = 3, T_L0 = 30 s, Q = 100, R = 1.
    """

    target_response: float = 4.0
    horizon: int = 3
    period: float = 30.0
    weights: CostWeights = field(
        default_factory=lambda: CostWeights(tracking=100.0, operating=1.0)
    )
    #: Optional robustness extension (not in the paper, default off): the
    #: arrival-rate forecasts are inflated by this fraction before the
    #: lookahead, trading energy for fewer response-time excursions when
    #: forecasts are noisy. Swept in the ablation benchmarks.
    robustness_margin: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.target_response, "target_response")
        require_positive(self.period, "period")
        require_non_negative(self.robustness_margin, "robustness_margin")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        store_floats(self, "target_response", "period", "robustness_margin")
        # A spec or payload gives the weights as a dict of their fields.
        if isinstance(self.weights, dict):
            try:
                weights = CostWeights(**self.weights)
            except TypeError as error:
                raise ConfigurationError(
                    f"invalid L0Params weights: {error}"
                ) from None
            object.__setattr__(self, "weights", weights)
        elif not isinstance(self.weights, CostWeights):
            raise ConfigurationError(
                "L0Params weights must be a CostWeights or a dict of its "
                f"fields, got {type(self.weights).__name__}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free.

        ``asdict`` recurses into the nested :class:`CostWeights`, so
        ``weights`` comes out as a plain dict already.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "L0Params":
        """Rebuild params from :meth:`to_dict` output (revalidates)."""
        try:
            return cls(**payload)
        except TypeError as error:
            raise ConfigurationError(
                f"invalid L0Params payload: {error}"
            ) from None


@dataclass(frozen=True)
class L1Params:
    """L1 (module) controller parameters.

    Defaults: T_L1 = 2 min (= 4 x T_L0), gamma step 0.05, switching
    penalty W = 8, three-point uncertainty sampling on. The L1 always
    costs two periods (N_L1 = 1: the next one and the one after it) and
    searches the Hamming-radius-1 neighbourhood of the current on/off
    configuration. ``use_uncertainty_band`` and ``band_window`` shape
    only the run's arrival filters and set-points; map training decides
    every grid cell without a band.
    """

    period: float = 120.0
    gamma_step: float = 0.05
    switching_weight: float = 8.0
    use_uncertainty_band: bool = True
    gamma_neighborhood_moves: int = 2
    #: Hard cap on gamma candidates evaluated per on/off candidate — the
    #: "limited neighborhood" bound that keeps the L1 overhead flat as
    #: modules grow (the paper's m = 10 module runs *faster* than m = 4
    #: thanks to its coarser quantisation; this cap plays the same role).
    max_gamma_candidates: int = 32
    band_window: int = 20

    def __post_init__(self) -> None:
        require_positive(self.period, "period")
        require_positive(self.gamma_step, "gamma_step")
        require_non_negative(self.switching_weight, "switching_weight")
        if self.gamma_neighborhood_moves < 0:
            raise ConfigurationError("gamma_neighborhood_moves must be >= 0")
        if self.max_gamma_candidates < 1:
            raise ConfigurationError("max_gamma_candidates must be >= 1")
        store_floats(self, "period", "gamma_step", "switching_weight")

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class L2Params:
    """L2 (cluster) controller parameters.

    Defaults: gamma step 0.1, over which the L2 enumerates the whole
    quantised simplex (286 vectors for four modules). The L2 decides on
    the L1's period (T_L2 = T_L1, :attr:`L1Params.period`) and always
    costs two periods: the next one and the one after it.
    """

    gamma_step: float = 0.1
    #: Relative predicted-cost improvement required before moving away
    #: from the current allocation. The regression trees are piecewise
    #: constant, so without hysteresis the argmin hops between
    #: near-equal-cost gamma vectors every period, whipsawing the modules
    #: (each hop hits the boot dead time).
    switching_threshold: float = 0.02
    #: Cost per machine-equivalent of load shifted onto a module (the L2
    #: analogue of the L1's ||Delta alpha||_W): the module cost maps are
    #: trained in steady configuration, so the transient of booting
    #: machines to absorb a gamma increase must be charged explicitly.
    #: Default W + a*l = 8 + 0.75*4.
    reconfiguration_weight: float = 11.0

    def __post_init__(self) -> None:
        require_positive(self.gamma_step, "gamma_step")
        require_non_negative(self.switching_threshold, "switching_threshold")
        require_non_negative(self.reconfiguration_weight, "reconfiguration_weight")
