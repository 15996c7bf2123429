"""Heuristic baseline controllers.

The paper contrasts its optimisation framework against the heuristic
cluster managers of the time: "the number of computers and their speeds
are increased (decreased) if processor utilization exceeds (falls below)
specified threshold values" ([14] Elnozahy et al., [25] Pinheiro et al.).
These baselines make that comparison concrete:

* :class:`ThresholdOnOffController` — Pinheiro-style: machines at full
  frequency, turned on/off by utilisation thresholds;
* :class:`ThresholdDvfsController` — Elnozahy-style: threshold on/off
  *plus* per-machine voltage scaling to a target utilisation;
* :class:`AlwaysOnMaxController` — everything on at full speed (the
  QoS-safe / energy-worst reference point).

Like the hierarchy's controllers they hold no filters: the engine
forecasts each module's arrival rate and processing time and hands both
to ``act(rate, work, alpha_current)``, so one run can drive either
controller family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import require_between
from repro.cluster.specs import ModuleSpec
from repro.controllers.stats import ControllerStats
from repro.core.simplex import quantize_to_simplex


@dataclass(frozen=True)
class BaselineDecision:
    """A baseline's module configuration for the next interval."""

    alpha: np.ndarray  # on/off per computer
    gamma: np.ndarray  # load fraction per computer
    frequency_indices: np.ndarray  # DVFS setting per computer


class _BaselineBase:
    """Shared plumbing: capacity bookkeeping and the proportional split.

    ``act(rate, work, alpha_current)`` takes the predicted arrival rate
    (requests/s) and c-hat (seconds/request) for the coming interval.
    """

    def __init__(self, module_spec: ModuleSpec, gamma_step: float = 0.05) -> None:
        self.spec = module_spec
        self.gamma_step = gamma_step
        self.stats = ControllerStats()
        self.speed_factors = np.array(
            [c.effective_speed_factor for c in module_spec.computers]
        )
        self.max_indices = np.array(
            [c.processor.setting_count - 1 for c in module_spec.computers]
        )

    def _capacities(self, work: float) -> np.ndarray:
        """Full-speed service rates at processing time ``work``."""
        return self.speed_factors / work

    def _proportional_gamma(self, alpha: np.ndarray, work: float) -> np.ndarray:
        weights = np.where(alpha, self._capacities(work), 0.0)
        return quantize_to_simplex(weights, self.gamma_step)


#: Registered baseline policies, addressable by name from declarative
#: configs (``ControlSpec.baseline``) and the cluster engine.
BASELINES: "dict[str, type]" = {}


def register_baseline(name: str):
    """Class decorator: register a baseline controller under ``name``."""

    def decorator(cls):
        BASELINES[name] = cls
        cls.baseline_name = name
        return cls

    return decorator


def make_baseline(name: str, module_spec: ModuleSpec, **params) -> _BaselineBase:
    """Instantiate a registered baseline policy for ``module_spec``.

    ``name`` is one of :data:`BASELINES` (e.g. ``"threshold-dvfs"``);
    ``params`` are forwarded to the controller's constructor.
    """
    if name not in BASELINES:
        raise ConfigurationError(
            f"unknown baseline {name!r}; registered: {sorted(BASELINES)}"
        )
    return BASELINES[name](module_spec, **params)


@register_baseline("always-on-max")
class AlwaysOnMaxController(_BaselineBase):
    """All machines on, all at maximum frequency."""

    def act(
        self, rate: float, work: float, alpha_current: np.ndarray
    ) -> BaselineDecision:
        """Static decision; ignores the rate and state."""
        started = time.perf_counter()
        alpha = np.ones(self.spec.size, dtype=int)
        decision = BaselineDecision(
            alpha=alpha,
            gamma=self._proportional_gamma(alpha.astype(bool), work),
            frequency_indices=self.max_indices.copy(),
        )
        self.stats.record(1, time.perf_counter() - started)
        return decision


@register_baseline("threshold-on-off")
class ThresholdOnOffController(_BaselineBase):
    """Utilisation-threshold machine provisioning at full frequency.

    If predicted utilisation of the on-set exceeds ``upper``, one more
    machine is turned on; if removing the least efficient active machine
    would keep utilisation below ``lower_headroom * upper``, it is turned
    off. This is the reactive heuristic the paper argues against — no
    lookahead, no dead-time awareness, no switching penalty.
    """

    def __init__(
        self,
        module_spec: ModuleSpec,
        upper: float = 0.75,
        lower: float = 0.45,
        gamma_step: float = 0.05,
    ) -> None:
        super().__init__(module_spec, gamma_step)
        self.upper = require_between(upper, 0.0, 1.0, "upper")
        self.lower = require_between(lower, 0.0, upper, "lower")

    def act(
        self, rate: float, work: float, alpha_current: np.ndarray
    ) -> BaselineDecision:
        """Threshold rule on the one-step-ahead predicted utilisation."""
        started = time.perf_counter()
        alpha = np.asarray(alpha_current).astype(bool).copy()
        if not alpha.any():
            alpha[int(np.argmax(self.speed_factors))] = True
        capacities = self._capacities(work)
        explored = 1

        utilisation = rate / max(capacities[alpha].sum(), 1e-9)
        if utilisation > self.upper and not alpha.all():
            # Turn on the largest remaining machine.
            off = np.flatnonzero(~alpha)
            alpha[off[np.argmax(capacities[off])]] = True
            explored += 1
        elif utilisation < self.lower and alpha.sum() > 1:
            # Turn off the smallest active machine if headroom remains.
            on = np.flatnonzero(alpha)
            candidate = on[np.argmin(capacities[on])]
            remaining = capacities[alpha].sum() - capacities[candidate]
            if rate / max(remaining, 1e-9) < self.upper:
                alpha[candidate] = False
                explored += 1
        decision = BaselineDecision(
            alpha=alpha.astype(int),
            gamma=self._proportional_gamma(alpha, work),
            frequency_indices=self.max_indices.copy(),
        )
        self.stats.record(explored, time.perf_counter() - started)
        return decision


@register_baseline("threshold-dvfs")
class ThresholdDvfsController(ThresholdOnOffController):
    """Threshold on/off combined with per-machine voltage scaling.

    After provisioning, each active machine's frequency is lowered to the
    smallest setting whose service rate still keeps that machine's share
    of the load below ``dvfs_target`` utilisation — the Elnozahy-style
    "voltage scaling plus on/off" heuristic.
    """

    def __init__(
        self,
        module_spec: ModuleSpec,
        upper: float = 0.75,
        lower: float = 0.45,
        dvfs_target: float = 0.8,
        gamma_step: float = 0.05,
    ) -> None:
        super().__init__(module_spec, upper, lower, gamma_step)
        self.dvfs_target = require_between(dvfs_target, 0.0, 1.0, "dvfs_target")
        if self.dvfs_target == 0.0:
            raise ConfigurationError("dvfs_target must be > 0")

    def act(
        self, rate: float, work: float, alpha_current: np.ndarray
    ) -> BaselineDecision:
        """Provision machines, then scale each one's frequency down."""
        base = super().act(rate, work, alpha_current)
        frequencies = base.frequency_indices.copy()
        for j, computer in enumerate(self.spec.computers):
            if not base.alpha[j]:
                continue
            local_rate = base.gamma[j] * rate
            needed = local_rate / self.dvfs_target
            factors = computer.processor.scaling_factors
            rates_at = factors * computer.effective_speed_factor / work
            feasible = np.flatnonzero(rates_at >= needed)
            frequencies[j] = int(feasible[0]) if feasible.size else len(factors) - 1
        return BaselineDecision(
            alpha=base.alpha, gamma=base.gamma, frequency_indices=frequencies
        )
