"""Fluent construction of :class:`~repro.scenario.spec.ScenarioSpec`.

The builder validates every call eagerly — a typo'd workload kind or
baseline name fails at the call site, not deep inside a run::

    from repro.scenario import Scenario

    spec = (
        Scenario.module(m=4)
        .workload("synthetic", samples=240)
        .baseline("threshold-dvfs")
        .seed(3)
        .build()
    )

    spec = (
        Scenario.cluster(p=4)
        .workload("wc98", samples=300)
        .with_failures((3600.0, 1, 0, "fail"))  # module 1, computer 0
        .build()
    )
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    require_failure_events,
    require_in,
    require_non_negative_int,
)
from repro.controllers.baselines import BASELINES
from repro.scenario.spec import (
    WORKLOAD_KINDS,
    ControlSpec,
    FaultSpec,
    PlantSpec,
    ScenarioSpec,
    ServiceSpec,
    WorkloadSpec,
)


class Scenario:
    """Fluent builder for :class:`ScenarioSpec`.

    Start from :meth:`Scenario.module` or :meth:`Scenario.cluster`; every
    method validates its arguments immediately and returns the builder,
    so calls chain. :meth:`build` produces the frozen spec (which
    re-validates the whole as a unit).
    """

    def __init__(self, plant: PlantSpec) -> None:
        self._plant = plant
        self._workload: WorkloadSpec | None = None
        self._control = ControlSpec()
        self._faults = FaultSpec()
        self._service = ServiceSpec()
        self._seed = 0
        self._name = ""
        self._description = ""

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    @classmethod
    def module(cls, m: int = 4) -> "Scenario":
        """A single-module scenario of ``m`` computers (§4.3 family)."""
        return cls(PlantSpec(kind="module", m=m))

    @classmethod
    def cluster(cls, p: int = 4, computers_per_module: int = 4) -> "Scenario":
        """A cluster scenario of ``p`` modules (§5.2 family)."""
        return cls(
            PlantSpec(
                kind="cluster", p=p, computers_per_module=computers_per_module
            )
        )

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------

    def workload(
        self,
        kind: str,
        samples: int | None = None,
        rate: float | None = None,
        scale: float | None = None,
        seed: int | None = None,
        **fields,
    ) -> "Scenario":
        """Select the driving workload; ``seed`` also sets the run seed.

        Kind-specific fields pass through to :class:`WorkloadSpec` —
        ``path``/``column``/``units`` for ``trace`` files,
        ``spike_every``/``spike_magnitude``/``spike_decay`` for
        ``flashcrowd``, ``zipf_exponent``/``rotate_every`` for
        ``zipfmix`` — and are validated eagerly.
        """
        require_in(kind, WORKLOAD_KINDS, "workload kind")
        try:
            self._workload = WorkloadSpec(
                kind=kind, samples=samples, rate=rate, scale=scale, **fields
            )
        except TypeError as error:
            raise ConfigurationError(
                f"invalid workload fields: {error}"
            ) from None
        if seed is not None:
            self.seed(seed)
        return self

    def baseline(self, name: str, **params) -> "Scenario":
        """Pin the plant to a registered heuristic baseline policy."""
        require_in(name, tuple(BASELINES), "baseline")
        self._control = replace(
            self._control, mode=name, baseline_params=dict(params)
        )
        return self

    def control(
        self,
        l0: dict | None = None,
        l1: dict | None = None,
        l2: dict | None = None,
        warmup_intervals: int | None = None,
        mean_work: float | None = None,
    ) -> "Scenario":
        """Override controller parameters and simulation knobs."""
        updates: dict = {}
        if l0 is not None:
            updates["l0"] = dict(l0)
        if l1 is not None:
            updates["l1"] = dict(l1)
        if l2 is not None:
            updates["l2"] = dict(l2)
        if warmup_intervals is not None:
            updates["warmup_intervals"] = warmup_intervals
        if mean_work is not None:
            updates["mean_work"] = mean_work
        self._control = replace(self._control, **updates)
        return self

    def kernel(self, name: str) -> "Scenario":
        """Select the control-period kernel: ``"scalar"`` or ``"vector"``.

        ``vector`` batches the hot loops (L0 bank lookahead, map
        queries, baseline-cluster substeps) with numpy; deterministic
        summary metrics are bit-identical to the scalar reference path.
        """
        self._control = replace(self._control, kernel=name)
        return self

    def window(self, steps: int) -> "Scenario":
        """Bound recorder memory to the last ``steps`` T_L0 steps.

        Time series beyond the window are dropped as the run advances;
        summary metrics are accumulated online and stay bit-identical
        to the full recorder's.
        """
        self._control = replace(self._control, window=steps)
        return self

    def map_cache(self, directory: str) -> "Scenario":
        """Persist trained abstraction maps in ``directory``.

        The offline-learned behaviour/cost maps are stored there
        content-addressed (:mod:`repro.maps`); warm-cache runs load the
        artifacts instead of retraining, with bit-identical results.
        """
        self._control = replace(self._control, map_cache=str(directory))
        return self

    def with_failures(self, *events: tuple) -> "Scenario":
        """Inject failure/repair events.

        Module scenarios take ``(time_seconds, computer_index,
        'fail'|'repair')`` tuples; cluster scenarios take
        ``(time_seconds, module_index, computer_index, 'fail'|'repair')``.
        """
        if self._plant.kind == "cluster":
            bounds = {"module": self._plant.p, "computer": self._plant.computers_per_module}
        else:
            bounds = {"computer": self._plant.module_size}
        validated = require_failure_events(events, bounds, "fault events")
        self._faults = FaultSpec(events=self._faults.events + validated)
        return self

    def seed(self, seed: int) -> "Scenario":
        """Set the run's random seed."""
        self._seed = require_non_negative_int(seed, "seed")
        return self

    def describe(self, description: str) -> "Scenario":
        """Attach a human-readable description."""
        self._description = str(description)
        return self

    # ------------------------------------------------------------------
    # Terminal
    # ------------------------------------------------------------------

    def build(self) -> ScenarioSpec:
        """Produce the frozen, fully-validated :class:`ScenarioSpec`."""
        workload = self._workload
        if workload is None:
            # Paper pairings: the synthetic day drives modules, the
            # WC'98 day drives clusters.
            kind = "synthetic" if self._plant.kind == "module" else "wc98"
            workload = WorkloadSpec(kind=kind)
        return ScenarioSpec(
            name=self._name,
            description=self._description,
            plant=self._plant,
            workload=workload,
            control=self._control,
            faults=self._faults,
            service=self._service,
            seed=self._seed,
        )
