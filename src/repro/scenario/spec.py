"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is a frozen, eagerly-validated value object that
fully describes one experiment: the plant (:class:`PlantSpec`), the
workload that drives it (:class:`WorkloadSpec`), the control policy and
its parameters (:class:`ControlSpec`), and any injected faults
(:class:`FaultSpec`). Scenarios serialise to plain dicts (and JSON) and
back without loss, so they can be stored in files, diffed, swept, and
shipped to remote runners. The imperative side lives in
:mod:`repro.scenario.runner`.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    require_cluster_failure_events,
    require_failure_events,
    require_in,
    require_non_negative,
    require_payload_keys,
    require_positive,
    require_positive_int,
)
from repro.controllers.baselines import BASELINES
from repro.controllers.params import L0Params, L1Params, L2Params
from repro.sim.options import KERNELS, PIPELINE_MODES
from repro.sim.shard import EXECUTION_MODES

#: Plant families a scenario can instantiate.
PLANT_KINDS = ("module", "cluster")

#: Workload generators a scenario can reference by name.
WORKLOAD_KINDS = ("synthetic", "wc98", "steady", "trace", "flashcrowd", "zipfmix")

#: Control modes: the full LLC hierarchy or any registered baseline.
HIERARCHY_MODE = "hierarchy"

#: Default trace lengths (in 2-minute control periods) per workload kind.
#: ``None`` means the whole source (the ``trace`` kind replays its file
#: end to end unless ``samples`` shortens it).
DEFAULT_SAMPLES = {
    "synthetic": 1600,
    "wc98": 600,
    "steady": 90,
    "trace": None,
    "flashcrowd": 400,
    "zipfmix": 400,
}

#: Which workload kinds each kind-specific :class:`WorkloadSpec` field
#: applies to; setting one on any other kind is a configuration error.
_WORKLOAD_FIELD_KINDS = {
    "rate": ("steady", "flashcrowd", "zipfmix"),
    "path": ("trace",),
    "column": ("trace",),
    "units": ("trace",),
    "spike_every": ("flashcrowd",),
    "spike_magnitude": ("flashcrowd",),
    "spike_decay": ("flashcrowd",),
    "zipf_exponent": ("zipfmix",),
    "rotate_every": ("zipfmix",),
}


@dataclass(frozen=True)
class PlantSpec:
    """Which system the scenario runs.

    ``kind = "module"`` builds the §4.3 heterogeneous module of ``m``
    computers (the paper's exact module for ``m = 4``, the C1..C4
    profile cycle otherwise); ``kind = "cluster"`` builds the §5.2
    cluster of ``p`` modules with ``computers_per_module`` machines each.
    """

    kind: str = "module"
    m: int = 4
    p: int = 4
    computers_per_module: int = 4

    def __post_init__(self) -> None:
        require_in(self.kind, PLANT_KINDS, "plant.kind")
        require_positive(self.m, "plant.m")
        require_positive(self.p, "plant.p")
        require_positive(self.computers_per_module, "plant.computers_per_module")

    @property
    def module_size(self) -> int:
        """Computers per module."""
        return self.m if self.kind == "module" else self.computers_per_module

    @property
    def computer_count(self) -> int:
        """Total computers in the plant."""
        if self.kind == "module":
            return self.m
        return self.p * self.computers_per_module

    def build(self):
        """Instantiate the concrete :class:`ModuleSpec`/:class:`ClusterSpec`."""
        from repro.cluster.specs import (
            paper_cluster_spec,
            paper_module_spec,
            scaled_module_spec,
        )

        if self.kind == "module":
            return paper_module_spec() if self.m == 4 else scaled_module_spec(self.m)
        return paper_cluster_spec(
            p=self.p, computers_per_module=self.computers_per_module
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Which arrival trace drives the plant.

    ``samples`` is the length in 2-minute control periods (``None``
    picks the kind's default span; the ``trace`` kind replays its whole
    file). ``rate`` (requests/s) is required for ``steady`` and sets the
    base/mean rate for ``flashcrowd``/``zipfmix``. ``scale`` multiplies
    the trace; ``None`` means automatic capacity planning for wc98
    cluster runs and no scaling otherwise.

    Kind-specific fields: ``path``/``column``/``units`` locate and
    interpret a ``trace`` file (:meth:`ArrivalTrace.load_file`);
    ``spike_every``/``spike_magnitude``/``spike_decay`` shape the
    ``flashcrowd`` spike train; ``zipf_exponent``/``rotate_every`` tune
    the ``zipfmix`` popularity drift. Setting a field on a kind it does
    not apply to is rejected eagerly.
    """

    kind: str = "synthetic"
    samples: int | None = None
    rate: float | None = None
    scale: float | None = None
    path: str | None = None
    column: int | None = None
    units: str | None = None
    spike_every: int | None = None
    spike_magnitude: float | None = None
    spike_decay: float | None = None
    zipf_exponent: float | None = None
    rotate_every: int | None = None

    def __post_init__(self) -> None:
        require_in(self.kind, WORKLOAD_KINDS, "workload.kind")
        if self.samples is not None:
            require_positive(self.samples, "workload.samples")
        if self.scale is not None:
            require_positive(self.scale, "workload.scale")
        for field_name, kinds in _WORKLOAD_FIELD_KINDS.items():
            if getattr(self, field_name) is not None and self.kind not in kinds:
                applies = " or ".join(repr(k) for k in kinds)
                raise ConfigurationError(
                    f"workload.{field_name} only applies to {applies}, "
                    f"not {self.kind!r}"
                )
        if self.kind == "steady" and self.rate is None:
            raise ConfigurationError(
                "steady workloads need an arrival rate (requests/s)"
            )
        if self.rate is not None:
            require_positive(self.rate, "workload.rate")
        if self.kind == "trace":
            if not self.path:
                raise ConfigurationError(
                    "trace workloads need a workload.path (arrival-rate file)"
                )
            if self.column is not None and (
                not isinstance(self.column, int)
                or isinstance(self.column, bool)
                or self.column < 0
            ):
                raise ConfigurationError(
                    "workload.column must be a non-negative int (0-based), "
                    f"got {self.column!r}"
                )
            if self.units is not None:
                require_in(self.units, ("count", "rate"), "workload.units")
        if self.spike_every is not None:
            require_positive_int(self.spike_every, "workload.spike_every")
        if self.spike_magnitude is not None:
            require_positive(self.spike_magnitude, "workload.spike_magnitude")
        if self.spike_decay is not None:
            require_positive(self.spike_decay, "workload.spike_decay")
        if self.zipf_exponent is not None:
            require_non_negative(self.zipf_exponent, "workload.zipf_exponent")
        if self.rotate_every is not None:
            require_positive_int(self.rotate_every, "workload.rotate_every")

    @property
    def resolved_samples(self) -> "int | None":
        """Trace length in control periods with kind defaults applied.

        ``None`` (the ``trace`` kind without an explicit ``samples``)
        means "the whole source file" — the length is only known once
        the file is read.
        """
        if self.samples is not None:
            return self.samples
        return DEFAULT_SAMPLES[self.kind]


def _params_or_raise(cls, overrides: dict, name: str):
    """Build a params dataclass from override kwargs, eagerly."""
    try:
        return cls(**overrides)
    except TypeError as error:
        raise ConfigurationError(f"invalid {name} overrides: {error}") from None


@dataclass(frozen=True)
class ControlSpec:
    """Which policy manages the plant, and with what parameters.

    ``mode`` is ``"hierarchy"`` (the paper's L2/L1/L0 stack) or any
    registered baseline name (``"always-on-max"``, ``"threshold-on-off"``,
    ``"threshold-dvfs"``); baselines now apply at cluster level too, with
    every module pinned to the policy. The ``l0``/``l1``/``l2`` dicts
    override individual fields of :class:`L0Params`/:class:`L1Params`/
    :class:`L2Params` and are validated eagerly on construction.

    ``execution`` picks the cluster backend: ``"serial"`` (default) or
    ``"sharded"`` — a pool of persistent worker processes, one per
    module capped at the core count (``shard_workers`` overrides). The
    sharded backend produces bit-identical results to the serial path;
    only cluster plants accept it.

    ``pipeline`` picks the period-boundary schedule for the pooled
    backends (:data:`~repro.sim.options.PIPELINE_MODES`):
    ``"boundary"`` (default) overlaps the parent's next-period L2
    solve/forecast and event replay with the workers' compute — a
    one-period software pipeline, bit-identical to ``"off"``, which
    keeps the hard per-period barrier. Serial runs ignore it.

    ``window`` bounds recorder memory: the run keeps only the last
    ``window`` T_L0 steps (and control periods) of every time series in
    ring buffers, with the summary metrics accumulated online — a
    month-long trace then runs in constant memory, and the resulting
    :class:`~repro.sim.results.RunSummary` is bit-identical to the full
    recorder's. ``None`` (the default) records the whole horizon.

    ``kernel`` selects the control-period kernel
    (:data:`~repro.sim.options.KERNELS`): ``"scalar"`` is the
    pure-Python reference path; ``"vector"`` batches the hot loops with
    numpy — bit-identical summaries, selectable per run and carried by
    the spec so serial and sharded backends agree.

    ``map_cache`` names a directory for the trained-map artifact cache
    (:mod:`repro.maps`): the offline-learned behaviour/cost maps are
    stored there content-addressed, so repeated runs, sweep workers,
    and ``repro train``-warmed sessions load artifacts instead of
    retraining — with bit-identical results. ``None`` (the default)
    falls back to ``$REPRO_MAP_CACHE`` when set and otherwise keeps
    training in-process only. Hierarchy mode only; baselines train no
    maps.
    """

    mode: str = HIERARCHY_MODE
    baseline_params: dict = field(default_factory=dict)
    l0: dict = field(default_factory=dict)
    l1: dict = field(default_factory=dict)
    l2: dict = field(default_factory=dict)
    warmup_intervals: int = 48
    mean_work: float = 0.0175
    execution: str = "serial"
    shard_workers: int | None = None
    window: int | None = None
    map_cache: str | None = None
    kernel: str = "scalar"
    pipeline: str = "boundary"

    def __post_init__(self) -> None:
        modes = (HIERARCHY_MODE, *BASELINES)
        require_in(self.mode, modes, "control.mode")
        require_in(self.kernel, KERNELS, "control.kernel")
        if self.baseline_params and self.mode == HIERARCHY_MODE:
            raise ConfigurationError(
                "control.baseline_params given but control.mode is 'hierarchy'"
            )
        require_non_negative(self.warmup_intervals, "control.warmup_intervals")
        require_positive(self.mean_work, "control.mean_work")
        require_in(self.execution, EXECUTION_MODES, "control.execution")
        require_in(self.pipeline, PIPELINE_MODES, "control.pipeline")
        if self.shard_workers is not None:
            require_positive_int(self.shard_workers, "control.shard_workers")
            if self.execution == "serial":
                raise ConfigurationError(
                    "control.shard_workers requires control.execution = "
                    "'sharded'"
                )
        if self.window is not None:
            require_positive_int(self.window, "control.window")
        if self.map_cache is not None:
            if not isinstance(self.map_cache, str) or not self.map_cache:
                raise ConfigurationError(
                    "control.map_cache must be a non-empty directory path, "
                    f"got {self.map_cache!r}"
                )
            if self.is_baseline:
                raise ConfigurationError(
                    "control.map_cache is for hierarchy mode; baseline "
                    "policies train no abstraction maps"
                )
        # Validate the overrides eagerly (and the values they carry).
        _params_or_raise(L0Params, self.l0, "L0Params")
        _params_or_raise(L1Params, self.l1, "L1Params")
        _params_or_raise(L2Params, self.l2, "L2Params")

    @property
    def is_baseline(self) -> bool:
        """True when a heuristic baseline replaces the hierarchy."""
        return self.mode != HIERARCHY_MODE


@dataclass(frozen=True)
class FaultSpec:
    """Failure/repair events to inject during the run.

    Module-plant events are ``(time_seconds, computer_index,
    'fail'|'repair')`` tuples; cluster-plant events carry a module index
    too: ``(time_seconds, module_index, computer_index, 'fail'|'repair')``.
    Both forms are validated on construction (non-negative times,
    integral indices); the two may not be mixed, and index ranges
    against the concrete plant are checked by :class:`ScenarioSpec`,
    which knows the plant shape.
    """

    events: tuple = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, Sequence) or isinstance(event, str):
                raise ConfigurationError(
                    "fault events are (time, [module,] computer, "
                    f"'fail'|'repair') tuples, got {event!r}"
                )
        events = tuple(tuple(event) for event in self.events)
        if any(len(event) == 4 for event in events):
            if not all(len(event) == 4 for event in events):
                raise ConfigurationError(
                    "fault events must be uniformly module-level "
                    "(time, computer, kind) or cluster-level "
                    "(time, module, computer, kind), not a mix"
                )
            events = require_cluster_failure_events(
                events, None, None, "fault events"
            )
        else:
            events = require_failure_events(events, None, "fault events")
        object.__setattr__(self, "events", events)

    @property
    def is_cluster_level(self) -> bool:
        """True when the events carry module indices (cluster plants)."""
        return bool(self.events) and len(self.events[0]) == 4

    def __bool__(self) -> bool:
        return bool(self.events)


@dataclass(frozen=True)
class ServiceSpec:
    """Live-service parameters (:mod:`repro.service`, ``repro serve``).

    Batch runs ignore this part entirely. ``tick_seconds`` paces the
    supervisor loop in wall time per T_L0 step (0, the default, runs
    free — it still yields to the event loop every step).
    ``deadline_seconds`` budgets each control-period boundary's L2+L1
    decisions in wall seconds; an overrun holds the previous allocation
    and is logged (``None``, the default, disables the budget and keeps
    the run byte-identical to batch). ``override_ttl_seconds`` is the
    default expiry applied to operator overrides issued without an
    explicit TTL. ``shed_fraction_on_hold`` > 0 arms automatic load
    shedding: after a control period that held a decision past its
    deadline budget, the supervisor drops that fraction of incoming
    load until a clean period passes (0, the default, never sheds).
    """

    tick_seconds: float = 0.0
    deadline_seconds: float | None = None
    override_ttl_seconds: float = 3600.0
    shed_fraction_on_hold: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.tick_seconds, "service.tick_seconds")
        if self.deadline_seconds is not None:
            require_positive(self.deadline_seconds, "service.deadline_seconds")
        require_positive(
            self.override_ttl_seconds, "service.override_ttl_seconds"
        )
        if not 0.0 <= self.shed_fraction_on_hold <= 1.0:
            raise ConfigurationError(
                "service.shed_fraction_on_hold must be in [0, 1], got "
                f"{self.shed_fraction_on_hold!r}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described, serialisable experiment."""

    name: str = ""
    description: str = ""
    plant: PlantSpec = field(default_factory=PlantSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    control: ControlSpec = field(default_factory=ControlSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    service: ServiceSpec = field(default_factory=ServiceSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if (
            not isinstance(self.seed, int)
            or isinstance(self.seed, bool)
            or self.seed < 0
        ):
            raise ConfigurationError(
                f"seed must be a non-negative int, got {self.seed!r}"
            )
        if (
            self.control.execution == "sharded"
            and self.plant.kind != "cluster"
        ):
            raise ConfigurationError(
                f"control.execution = {self.control.execution!r} requires a "
                "cluster plant (pooled backends fan modules out, and a "
                "module plant has none)"
            )
        if self.faults:
            if self.control.is_baseline:
                raise ConfigurationError(
                    "fault injection is supported in hierarchy mode only"
                )
            if self.plant.kind == "module":
                if self.faults.is_cluster_level:
                    raise ConfigurationError(
                        "module plants take (time, computer, 'fail'|'repair') "
                        "fault events; the module index form is for clusters"
                    )
                require_failure_events(
                    self.faults.events, self.plant.module_size, "fault events"
                )
            else:
                if not self.faults.is_cluster_level:
                    raise ConfigurationError(
                        "cluster plants take (time, module, computer, "
                        "'fail'|'repair') fault events"
                    )
                require_cluster_failure_events(
                    self.faults.events,
                    self.plant.p,
                    self.plant.computers_per_module,
                    "fault events",
                )
            # Events beyond the trace would silently never fire — a
            # shortened failover drill must fail loudly, not read as a
            # healthy run (e.g. `--samples` overrides on module-failover).
            # A `trace` workload without explicit samples has an unknown
            # span until the file is read, so the check moves to run time.
            period = float(self.control.l1.get("period", 120.0))
            if self.workload.resolved_samples is None:
                return
            duration = self.workload.resolved_samples * period
            for event in self.faults.events:
                if event[0] >= duration:
                    raise ConfigurationError(
                        f"fault event {tuple(event)!r} falls beyond the "
                        f"{duration:.0f}s trace "
                        f"({self.workload.resolved_samples} control periods); "
                        "lengthen workload.samples or drop the event"
                    )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free."""
        payload = dataclasses.asdict(self)
        payload["faults"]["events"] = [
            list(event) for event in self.faults.events
        ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (validates again)."""
        require_payload_keys(
            payload, (f.name for f in dataclasses.fields(cls)), "scenario"
        )
        data = dict(payload)
        for key, sub_cls in (
            ("plant", PlantSpec),
            ("workload", WorkloadSpec),
            ("control", ControlSpec),
            ("service", ServiceSpec),
        ):
            if key in data and isinstance(data[key], dict):
                try:
                    data[key] = sub_cls(**data[key])
                except TypeError as error:
                    raise ConfigurationError(
                        f"invalid scenario {key!r} payload: {error}"
                    ) from None
        if "faults" in data and isinstance(data["faults"], dict):
            events = tuple(
                tuple(event) for event in data["faults"].get("events", ())
            )
            data["faults"] = FaultSpec(events=events)
        try:
            return cls(**data)
        except TypeError as error:
            raise ConfigurationError(f"invalid scenario payload: {error}") from None

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid scenario JSON: {error}") from None
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    _PARTS = (
        ("plant", PlantSpec),
        ("workload", WorkloadSpec),
        ("control", ControlSpec),
        ("faults", FaultSpec),
        ("service", ServiceSpec),
    )

    #: Shorthand override keys and the dotted fields they resolve to.
    OVERRIDE_ALIASES = {"samples": "workload.samples"}

    @classmethod
    def override_keys(cls) -> "tuple[str, ...]":
        """Every key :meth:`with_overrides` accepts.

        ``samples`` and ``seed`` are shorthands; nested part fields use
        dotted ``part.field`` form (``plant.m``, ``control.mode``, ...).
        """
        keys = ["name", "description", "samples", "seed"]
        for part_name, part_cls in cls._PARTS:
            keys.extend(
                f"{part_name}.{f.name}" for f in dataclasses.fields(part_cls)
            )
        return tuple(keys)

    def with_overrides(
        self, samples: int | None = None, seed: int | None = None, **overrides
    ) -> "ScenarioSpec":
        """A copy with selected fields replaced (revalidated as a whole).

        ``samples`` and ``seed`` are the knobs the CLI and tests
        routinely shorten. Any other field is reachable through a dotted
        ``part.field`` key or a part-level dict, which is what sweep
        axes expand through::

            spec.with_overrides(**{"plant.m": 6, "control.mode": "threshold-dvfs"})
            spec.with_overrides(workload={"scale": 1.5})

        Unknown keys raise :class:`ConfigurationError` naming the valid
        ones; the replacement spec re-runs every validation rule.
        """
        if samples is not None:
            overrides["samples"] = samples
        if seed is not None:
            overrides["seed"] = seed
        valid = self.override_keys()

        def reject(key) -> "ConfigurationError":
            return ConfigurationError(
                f"unknown override key {key!r}; valid keys: {', '.join(valid)}"
            )

        part_updates: "dict[str, dict]" = {name: {} for name, _ in self._PARTS}
        updates: dict = {}

        def set_part(part_name: str, sub_key: str, value) -> None:
            # The same target is reachable through several routes (the
            # `samples` shorthand, a dotted key, a part dict); a second
            # write would silently shadow the first, so conflicts fail.
            if sub_key in part_updates[part_name]:
                raise ConfigurationError(
                    f"conflicting overrides for {part_name}.{sub_key} "
                    "(given through more than one key)"
                )
            part_updates[part_name][sub_key] = value

        for key, value in overrides.items():
            if key == "samples":
                set_part("workload", "samples", value)
            elif key in ("name", "description", "seed"):
                updates[key] = value
            elif key in part_updates:
                if not isinstance(value, dict):
                    raise ConfigurationError(
                        f"part override {key!r} must be a dict of field "
                        f"values (e.g. {key}={{...}}), got "
                        f"{type(value).__name__}"
                    )
                for sub_key, sub_value in value.items():
                    if f"{key}.{sub_key}" not in valid:
                        raise reject(f"{key}.{sub_key}")
                    set_part(key, sub_key, sub_value)
            elif key in valid:
                part_name, _, sub_key = key.partition(".")
                set_part(part_name, sub_key, value)
            else:
                raise reject(key)
        for part_name, fields_ in part_updates.items():
            if fields_:
                updates[part_name] = replace(getattr(self, part_name), **fields_)
        return replace(self, **updates) if updates else self
