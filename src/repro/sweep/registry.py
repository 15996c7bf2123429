"""Named, discoverable sweeps.

The sweep registry mirrors the scenario registry: stable names map to
zero-argument :class:`SweepSpec` factories, the CLI consumes them
(``repro sweep run module-showdown --workers 4 --out DIR``), and user
code can add its own::

    from repro.sweep import GridAxis, SweepSpec, register_sweep

    @register_sweep("my/seeds")
    def _my_seeds():
        return SweepSpec(
            base="paper/fig4-module4",
            axes=(GridAxis(field="seed", values=(0, 1, 2, 3)),),
        )
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.sweep.spec import GridAxis, SweepSpec

_REGISTRY: "dict[str, Callable[[], SweepSpec]]" = {}


@dataclass(frozen=True)
class RegisteredSweep:
    """One listing row: name, description, and expanded run count."""

    name: str
    description: str
    runs: int


def register_sweep(
    name: str, replace_existing: bool = False
) -> "Callable[[Callable[[], SweepSpec]], Callable[[], SweepSpec]]":
    """Decorator: register a zero-argument :class:`SweepSpec` factory."""
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"sweep name must be a non-empty string, got {name!r}"
        )

    def decorator(factory: "Callable[[], SweepSpec]"):
        if name in _REGISTRY and not replace_existing:
            raise ConfigurationError(f"sweep {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def get_sweep(name: str) -> SweepSpec:
    """Build a registered sweep by name."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown sweep {name!r}; registered sweeps: {known}"
        )
    spec = _REGISTRY[name]()
    if not spec.name:
        spec = replace(spec, name=name)
    return spec


def list_sweeps() -> "tuple[RegisteredSweep, ...]":
    """All registered sweeps, sorted by name."""
    rows = []
    for name in sorted(_REGISTRY):
        spec = _REGISTRY[name]()
        rows.append(
            RegisteredSweep(
                name=name, description=spec.description, runs=spec.size()
            )
        )
    return tuple(rows)


# ----------------------------------------------------------------------
# Built-in entries
# ----------------------------------------------------------------------


@register_sweep("module-showdown")
def _module_showdown() -> SweepSpec:
    """The paper's §4.3 comparison as a statistics-bearing campaign."""
    return SweepSpec(
        name="module-showdown",
        description=(
            "hierarchy vs threshold-DVFS baseline x module sizes {4, 6} x "
            "four seeds on the synthetic day (16 runs) — the Fig. 4/5 "
            "comparison with error bars instead of a single trace"
        ),
        base="paper/fig4-module4",
        axes=(
            GridAxis(field="control.mode", values=("hierarchy", "threshold-dvfs")),
            GridAxis(field="plant.m", values=(4, 6)),
            GridAxis(field="seed", values=(0, 1, 2, 3)),
        ),
    )


@register_sweep("workloads/flashcrowd-severity")
def _flashcrowd_severity() -> SweepSpec:
    """How spike magnitude stresses the module hierarchy."""
    return SweepSpec(
        name="workloads/flashcrowd-severity",
        description=(
            "the flash-crowd module scenario across spike magnitudes "
            "{2, 4, 6} x two seeds — how hard a crowd the L1/L0 stack "
            "absorbs before response-time violations climb"
        ),
        base="workloads/flashcrowd-module",
        axes=(
            GridAxis(
                field="workload.spike_magnitude", values=(2.0, 4.0, 6.0)
            ),
            GridAxis(field="seed", values=(0, 1)),
        ),
    )


@register_sweep("workloads/window-parity")
def _window_parity() -> SweepSpec:
    """Windowed-vs-full recorder determinism gate as a sweep campaign."""
    return SweepSpec(
        name="workloads/window-parity",
        description=(
            "the flash-crowd module scenario under recorder windows "
            "{1 step, 256 steps, effectively unbounded} × two seeds — "
            "grouped by control.window, every summary metric must agree "
            "exactly, which is the streaming-recorder determinism gate"
        ),
        base="workloads/flashcrowd-module",
        axes=(
            GridAxis(field="control.window", values=(1, 256, 10_000_000)),
            GridAxis(field="seed", values=(0, 1)),
        ),
    )


@register_sweep("module-seeds")
def _module_seeds() -> SweepSpec:
    """Seed-replicate sweep of the paper's module-of-four run."""
    return SweepSpec(
        name="module-seeds",
        description=(
            "paper/fig4-module4 across eight seeds — mean/std of every "
            "headline metric for the Fig. 4 setup"
        ),
        base="paper/fig4-module4",
        axes=(GridAxis(field="seed", values=tuple(range(8))),),
    )
