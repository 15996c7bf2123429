"""First-class engine options: one surface for the per-run knobs.

:class:`EngineOptions` gathers every per-run knob — the kernel,
telemetry, the decision deadline, and the warm-up, mean work and
recorder window — behind a single validated object
consumed by both :class:`~repro.sim.engine.ModuleSimulation` and
:class:`~repro.sim.engine.ClusterSimulation`. The engines' setters
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
from repro.common.validation import (
    require_in,
    require_non_negative,
    require_positive,
    require_positive_int,
)

#: Control-period kernels a run can execute on. ``vector`` (the
#: default) batches the hot path across computers/modules with numpy;
#: ``scalar`` is the reference implementation (pure-Python per-computer
#: loops) that parity checks compare against. Both give bit-identical
#: results and output.
KERNELS = ("scalar", "vector")


@dataclass
class EngineOptions:
    """Per-run engine knobs shared by module and cluster simulations.

    ``kernel`` selects the control-period kernel (see :data:`KERNELS`).
    ``metrics``/``tracer`` are the telemetry seams (a
    :class:`~repro.obs.registry.MetricsRegistry` and a
    :class:`~repro.obs.trace.Tracer`; ``None`` detaches and skips every
    related branch and clock read). ``decision_deadline`` budgets each
    boundary decision to so-many wall seconds (``None`` disables).

    ``warmup_intervals`` is the initial portion of the workload (in L1
    periods) used to tune the Kalman filters before the run, mirroring
    §4.3. ``mean_work`` is the mean service demand (seconds per request)
    wherever no per-step work series is given. ``recorder_window``
    bounds recorder memory to the last so-many T_L0 steps/periods
    (``None`` records the whole horizon); summaries stay bit-identical
    either way. These three are checked like their ``control.*`` spec
    fields.
    """

    kernel: str = "vector"
    metrics: object = None
    tracer: object = None
    decision_deadline: "float | None" = None
    warmup_intervals: int = 48
    mean_work: float = 0.0175
    recorder_window: "int | None" = None

    def __post_init__(self) -> None:
        require_in(self.kernel, KERNELS, "kernel")
        require_non_negative(self.warmup_intervals, "warmup_intervals")
        require_positive(self.mean_work, "mean_work")
        if self.recorder_window is not None:
            require_positive_int(self.recorder_window, "recorder_window")
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
