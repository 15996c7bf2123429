"""Layer spans recorded from outside the program.

The benchmark's traced run wraps each layer's public entry points (the
:data:`LAYERS` table) with a timing shim installed on the owning class
or module, records one span per call in memory, and reduces the spans
to per-layer counts and self times when the run ends. Nothing in the
program is edited: :class:`SpanRecorder` patches attributes and puts
every one of them back on :meth:`SpanRecorder.uninstall`.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans, so the self times of all layers
under a root span add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

#: Marker for "the attribute was not in the owner's own namespace".
_MISSING = object()


@dataclass(frozen=True)
class Layer:
    """One layer: its name and the entry points wrapped.

    ``entry_points`` are ``"module:Qualified.name"`` strings. Which
    end-to-end metric each layer should move, on which workload, is
    tabled in ``perfbench/README.md``.
    """

    name: str
    entry_points: "tuple[str, ...]"
    phase: str = "stepping"  # "setup" layers run before the first step


_OBSERVER_HOOKS = (
    "on_run_start",
    "on_l1_decision",
    "on_l2_decision",
    "on_step",
    "on_period_end",
    "on_run_end",
)

#: The paper's decision path, split into the repository's modules.
LAYERS: "tuple[Layer, ...]" = (
    Layer("scenario", ("repro.scenario.runner:build_simulation",), phase="setup"),
    Layer(
        "maps",
        (
            "repro.maps.provider:MapProvider.behavior_maps",
            "repro.maps.provider:MapProvider.module_map",
        ),
        phase="setup",
    ),
    Layer("l2", ("repro.controllers.l2:L2Controller.decide",)),
    Layer("l1", ("repro.controllers.l1:L1Controller.decide",)),
    Layer(
        "l0",
        (
            "repro.controllers.l0:L0Controller.decide",
            "repro.sim.kernels:L0BankKernel.decide_many",
        ),
    ),
    Layer(
        "baselines",
        (
            "repro.controllers.baselines:BASELINES[*].act",
            "repro.sim.kernels:fast_baseline_act",
        ),
    ),
    Layer(
        "forecast",
        (
            "repro.forecast.structural:WorkloadPredictor.observe",
            "repro.forecast.structural:WorkloadPredictor.forecast",
            "repro.forecast.structural:WorkloadPredictor.tune_on",
            "repro.sim.kernels:batched_predictor_observe",
        ),
    ),
    Layer(
        "plant",
        (
            "repro.cluster.module:Module.step_fluid",
            "repro.sim.kernels:ClusterVectorExecutor.step_all",
        ),
    ),
    Layer(
        "observers",
        tuple(f"repro.sim.observers:ObserverList.{hook}" for hook in _OBSERVER_HOOKS)
        + ("repro.sim.observers:ModuleRecorder.on_step_fast",),
    ),
    Layer(
        "runner",
        (
            "repro.sim.shard:ModuleShardRunner.begin_period",
            "repro.sim.shard:ModuleShardRunner.step",
        ),
    ),
    Layer(
        "engine",
        (
            "repro.sim.engine:ModuleSimulation.step",
            "repro.sim.engine:ClusterSimulation.step",
        ),
    ),
)


def resolve_entry_point(entry_point: str) -> "list[tuple[object, str]]":
    """The ``(owner, attribute)`` pairs an entry-point string names.

    ``"pkg.mod:Class.method"`` names one method, ``"pkg.mod:func"`` one
    module function, and ``"pkg.mod:REGISTRY[*].method"`` the method on
    every class of a registry dict that defines it itself. A name that
    no longer exists resolves to an empty list — the layer is then
    reported absent instead of crashing the benchmark.
    """
    module_name, _, qualname = entry_point.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return []
    *path, attribute = qualname.split(".")
    for part in path:
        if part.endswith("[*]"):
            registry = getattr(owner, part[:-3], None)
            if not isinstance(registry, dict):
                return []
            return [
                (cls, attribute)
                for cls in registry.values()
                if attribute in vars(cls)
            ]
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if not callable(getattr(owner, attribute, None)):
        return []
    return [(owner, attribute)]


class SpanRecorder:
    """Wraps entry points, keeps spans in memory, reduces them per layer.

    A span is ``(parent, layer, start, end)``; ``parent`` is the index
    of the enclosing span or -1. Spans are stored in call order (the
    index is taken when the call starts).
    """

    def __init__(self) -> None:
        self.spans: "list[tuple[int, str, float, float] | None]" = []
        self._stack: "list[int]" = []
        self._patches: "list[tuple[object, str, object]]" = []
        #: Entry-point strings that resolved to nothing, per layer.
        self.missing: "dict[str, list[str]]" = {}

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, function):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent, layer, start, end)

        return traced

    def install(self, layers: "tuple[Layer, ...]") -> None:
        """Wrap every resolvable entry point of ``layers``."""
        for layer in layers:
            for entry_point in layer.entry_points:
                targets = resolve_entry_point(entry_point)
                if not targets:
                    self.missing.setdefault(layer.name, []).append(entry_point)
                for owner, attribute in targets:
                    own = vars(owner).get(attribute, _MISSING)
                    if isinstance(own, (staticmethod, classmethod)):
                        wrapped = type(own)(self._wrap(layer.name, own.__func__))
                    else:
                        wrapped = self._wrap(layer.name, getattr(owner, attribute))
                    self._patches.append((owner, attribute, own))
                    setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was found."""
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    # -- reduction -----------------------------------------------------

    def write(self, stream, phase: str) -> None:
        """Write the recorded spans as JSON lines (once, at run end)."""
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            parent, layer, start, end = span
            record = {
                "phase": phase,
                "id": index,
                "parent": parent,
                "layer": layer,
                "start": start,
                "end": end,
            }
            stream.write(json.dumps(record) + "\n")


@dataclass
class LayerTotals:
    """What the spans of one layer add up to."""

    calls: int = 0
    self_s: float = 0.0


def layer_totals(
    spans: "list[tuple[int, str, float, float] | None]",
) -> "dict[str, LayerTotals]":
    """Per-layer call counts and self times from a span list.

    A call is a span with no ancestor of the same layer (a baseline
    ``act`` that calls its parent class's ``act`` is one call). Self
    time is duration minus the durations of direct children. Spans
    still open (``None``) are skipped.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is None:
            continue
        parent, _, start, end = span
        if parent >= 0:
            child_time[parent] += end - start
    totals: "dict[str, LayerTotals]" = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        parent, layer, start, end = span
        entry = totals.setdefault(layer, LayerTotals())
        entry.self_s += end - start - child_time[index]
        ancestor = parent
        nested = False
        while ancestor >= 0:
            ancestor_span = spans[ancestor]
            if ancestor_span is None:
                break
            if ancestor_span[1] == layer:
                nested = True
                break
            ancestor = ancestor_span[0]
        if not nested:
            entry.calls += 1
    return totals


def root_seconds(spans: "list[tuple[int, str, float, float] | None]") -> float:
    """Summed duration of the top-level spans."""
    return sum(
        span[3] - span[2] for span in spans if span is not None and span[0] < 0
    )
