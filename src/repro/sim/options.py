"""First-class engine options: one surface for the per-run knobs.

Historically the engines grew one ad-hoc seam per knob (``set_telemetry``,
``set_decision_deadline``, ``map_cache=``); the kernel selector would have
been the fourth. :class:`EngineOptions` gathers them behind a single
validated object consumed by both :class:`~repro.sim.engine.ModuleSimulation`
and :class:`~repro.sim.engine.ClusterSimulation`. The engines' setters
(``set_telemetry``, ``set_decision_deadline``) and the ``kernel`` /
``metrics`` / ``tracer`` / ``decision_deadline`` properties read and
write this object, written once in the engines' shared base class.

This module is import-light on purpose (no numpy): the scenario layer
imports :data:`KERNELS` for spec validation, which must work even on an
interpreter where numpy is broken — the error for that case lives in
:mod:`repro.sim.kernels` and names ``--kernel scalar`` as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.validation import require_in

#: Control-period kernels a run can execute on. ``vector`` (the
#: default) batches the hot path across computers/modules with numpy;
#: ``scalar`` is the reference implementation (pure-Python per-computer
#: loops) that parity checks compare against. Both give bit-identical
#: results and output.
KERNELS = ("scalar", "vector")

#: Period-boundary pipelining modes for pooled execution backends.
#: ``off`` keeps the hard per-period barrier; ``boundary`` overlaps the
#: parent's L2 solve / forecast for period t+1 with the workers' period-t
#: compute (a one-period software pipeline, bit-identical by construction).
PIPELINE_MODES = ("off", "boundary")


@dataclass
class EngineOptions:
    """Per-run engine knobs shared by module and cluster simulations.

    ``kernel`` selects the control-period kernel (see :data:`KERNELS`).
    ``metrics``/``tracer`` are the telemetry seams (a
    :class:`~repro.obs.registry.MetricsRegistry` and a
    :class:`~repro.obs.trace.Tracer`; ``None`` detaches and skips every
    related branch and clock read). ``decision_deadline`` budgets each
    boundary decision to so-many wall seconds (``None`` disables).
    ``map_provider`` supplies trained abstraction maps (a
    :class:`~repro.maps.provider.MapProvider`); ``None`` lets the engine
    construct one from its ``map_cache`` argument. ``pipeline`` selects
    the period-boundary schedule for pooled backends (see
    :data:`PIPELINE_MODES`); serial runs ignore it, and a run with a
    decision deadline attached falls back to the barrier schedule so the
    deadline keeps measuring a single boundary's wall time.
    """

    kernel: str = "vector"
    metrics: object = None
    tracer: object = None
    decision_deadline: "float | None" = None
    map_provider: object = None
    pipeline: str = "boundary"

    def __post_init__(self) -> None:
        require_in(self.kernel, KERNELS, "kernel")
        require_in(self.pipeline, PIPELINE_MODES, "pipeline")
        self.set_decision_deadline(self.decision_deadline)

    def set_decision_deadline(self, seconds: "float | None") -> None:
        """Validate and set the per-decision wall-time budget."""
        if seconds is not None and not seconds > 0:
            raise ConfigurationError(
                f"decision deadline must be positive or None, got {seconds!r}"
            )
        self.decision_deadline = None if seconds is None else float(seconds)

    def set_telemetry(self, metrics=None, tracer=None) -> None:
        """Attach (or with ``None`` detach) the telemetry sinks."""
        self.metrics = metrics
        self.tracer = tracer


def resolve_engine_options(
    engine_options: "EngineOptions | None",
) -> EngineOptions:
    """The engine-side default: a fresh all-defaults options object."""
    if engine_options is None:
        return EngineOptions()
    if not isinstance(engine_options, EngineOptions):
        raise ConfigurationError(
            f"engine_options must be an EngineOptions, got "
            f"{type(engine_options).__name__}"
        )
    return engine_options
