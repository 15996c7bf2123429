"""Declarative sweep descriptions.

A :class:`SweepSpec` declares a *family* of runs: a base scenario (a
registered name or an inline :class:`~repro.scenario.spec.ScenarioSpec`)
plus a tuple of axes that vary scenario fields. Axes come in three
kinds — :class:`GridAxis` (cross one field over listed values),
:class:`ListAxis` (explicit override points that may move several fields
together), and :class:`RandomAxis` (seeded random sampling of one
field) — and the sweep is their cross product, expanded deterministically
through :meth:`ScenarioSpec.with_overrides`. Like scenarios, sweeps are
frozen, eagerly validated, and serialise to/from dicts and JSON, so a
sweep file fully pins an experiment campaign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    require_in,
    require_non_negative_int,
    require_payload_keys,
    require_positive,
)
from repro.scenario.spec import ScenarioSpec


def _require_override_keys(keys, label: str) -> None:
    valid = ScenarioSpec.override_keys()
    for key in keys:
        if key not in valid:
            raise ConfigurationError(
                f"{label}: unknown scenario override key {key!r}; "
                f"valid keys: {', '.join(valid)}"
            )


@dataclass(frozen=True)
class GridAxis:
    """Cross one scenario field over an explicit list of values."""

    field: str
    values: tuple = ()
    kind: str = "grid"

    def __post_init__(self) -> None:
        require_in(self.kind, ("grid",), "axis.kind")
        _require_override_keys((self.field,), "grid axis")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(
                f"grid axis over {self.field!r} needs at least one value"
            )

    @property
    def fields(self) -> "tuple[str, ...]":
        return (self.field,)

    def expand(self) -> "tuple[dict, ...]":
        return tuple({self.field: value} for value in self.values)


@dataclass(frozen=True)
class ListAxis:
    """Explicit override points; each may move several fields at once."""

    points: "tuple[dict, ...]" = ()
    kind: str = "list"

    def __post_init__(self) -> None:
        require_in(self.kind, ("list",), "axis.kind")
        normalised = []
        for point in self.points:
            if not isinstance(point, dict) or not point:
                raise ConfigurationError(
                    "list axis points must be non-empty override dicts, "
                    f"got {point!r}"
                )
            _require_override_keys(point, "list axis")
            normalised.append(dict(point))
        if not normalised:
            raise ConfigurationError("list axis needs at least one point")
        object.__setattr__(self, "points", tuple(normalised))

    @property
    def fields(self) -> "tuple[str, ...]":
        seen: "dict[str, None]" = {}
        for point in self.points:
            seen.update(dict.fromkeys(point))
        return tuple(seen)

    def expand(self) -> "tuple[dict, ...]":
        return tuple(dict(point) for point in self.points)


@dataclass(frozen=True)
class RandomAxis:
    """Seeded random sampling of one field: ``count`` draws.

    Draws come from ``choices`` (uniform pick) when given, otherwise
    uniformly from ``[low, high]`` — integers when ``integer`` is set,
    floats otherwise. The axis seed makes expansion deterministic: the
    same spec always yields the same sample, independent of backend.
    """

    field: str
    count: int = 1
    seed: int = 0
    low: float | None = None
    high: float | None = None
    choices: "tuple | None" = None
    integer: bool = False
    kind: str = "random"

    def __post_init__(self) -> None:
        require_in(self.kind, ("random",), "axis.kind")
        _require_override_keys((self.field,), "random axis")
        require_positive(self.count, "random axis count")
        require_non_negative_int(self.seed, "random axis seed")
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))
            if not self.choices:
                raise ConfigurationError("random axis choices must be non-empty")
            if self.low is not None or self.high is not None:
                raise ConfigurationError(
                    "random axis takes either choices or a low/high range, not both"
                )
        else:
            if self.low is None or self.high is None:
                raise ConfigurationError(
                    f"random axis over {self.field!r} needs choices or both "
                    "low and high"
                )
            if not self.low <= self.high:
                raise ConfigurationError(
                    f"random axis range is empty: low={self.low!r} > high={self.high!r}"
                )

    @property
    def fields(self) -> "tuple[str, ...]":
        return (self.field,)

    def expand(self) -> "tuple[dict, ...]":
        rng = np.random.default_rng(self.seed)
        if self.choices is not None:
            draws = [
                self.choices[int(i)]
                for i in rng.integers(0, len(self.choices), size=self.count)
            ]
        elif self.integer:
            draws = [
                int(v)
                for v in rng.integers(
                    int(self.low), int(self.high), size=self.count, endpoint=True
                )
            ]
        else:
            draws = [float(v) for v in rng.uniform(self.low, self.high, size=self.count)]
        return tuple({self.field: value} for value in draws)


#: Axis constructors by their serialised ``kind`` tag.
AXIS_KINDS = {"grid": GridAxis, "list": ListAxis, "random": RandomAxis}


def axis_from_dict(payload: dict) -> "GridAxis | ListAxis | RandomAxis":
    """Rebuild one axis from its :func:`axis_to_dict` form."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"sweep axis payload must be a dict, got {type(payload).__name__}"
        )
    kind = payload.get("kind", "grid")
    if kind not in AXIS_KINDS:
        raise ConfigurationError(
            f"unknown sweep axis kind {kind!r}; known kinds: "
            f"{', '.join(sorted(AXIS_KINDS))}"
        )
    data = dict(payload)
    if kind == "list" and "points" in data:
        data["points"] = tuple(data["points"])
    if kind == "grid" and "values" in data:
        data["values"] = tuple(data["values"])
    if kind == "random" and data.get("choices") is not None:
        data["choices"] = tuple(data["choices"])
    try:
        return AXIS_KINDS[kind](**data)
    except TypeError as error:
        raise ConfigurationError(f"invalid {kind} axis payload: {error}") from None


def axis_to_dict(axis) -> dict:
    """JSON-safe dict form of one axis (drops unset optional fields)."""
    payload = dataclasses.asdict(axis)
    if axis.kind == "list":
        payload["points"] = [dict(point) for point in payload["points"]]
    if axis.kind == "random":
        for key in ("low", "high", "choices"):
            if payload[key] is None:
                del payload[key]
        if payload.get("choices") is not None:
            payload["choices"] = list(payload["choices"])
    if axis.kind == "grid":
        payload["values"] = list(payload["values"])
    return payload


@dataclass(frozen=True)
class SweepPoint:
    """One expanded run of a sweep.

    ``run_id`` is deterministic — the expansion index plus a digest of
    the fully-resolved scenario — so a restarted sweep recognises the
    rows an earlier invocation already stored.
    """

    index: int
    run_id: str
    overrides: dict
    scenario: ScenarioSpec


@dataclass(frozen=True)
class SweepSpec:
    """A declarative family of scenario runs: base × axes."""

    base: "ScenarioSpec | str" = field(default_factory=ScenarioSpec)
    axes: tuple = ()
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.base, (ScenarioSpec, str)):
            raise ConfigurationError(
                "sweep base must be a ScenarioSpec or a registered scenario "
                f"name, got {type(self.base).__name__}"
            )
        if isinstance(self.base, str) and not self.base:
            raise ConfigurationError("sweep base scenario name is empty")
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if not axes:
            raise ConfigurationError("a sweep needs at least one axis")
        seen: "set[str]" = set()
        for axis in axes:
            if not isinstance(axis, tuple(AXIS_KINDS.values())):
                raise ConfigurationError(
                    f"sweep axes must be GridAxis/ListAxis/RandomAxis, "
                    f"got {type(axis).__name__}"
                )
            for field_name in axis.fields:
                # Compare resolved targets, not key spellings: `samples`
                # and `workload.samples` are the same scenario field.
                canonical = ScenarioSpec.OVERRIDE_ALIASES.get(
                    field_name, field_name
                )
                if canonical in seen:
                    raise ConfigurationError(
                        f"field {field_name!r} appears on more than one sweep axis"
                    )
                seen.add(canonical)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def resolve_base(self, samples: int | None = None) -> ScenarioSpec:
        """The base scenario with an optional run-length override."""
        base = self.base
        if isinstance(base, str):
            from repro.scenario.registry import get_scenario

            base = get_scenario(base)
        return base.with_overrides(samples=samples)

    def expand(self, samples: int | None = None) -> "tuple[SweepPoint, ...]":
        """Materialise every run, deterministically ordered.

        The cross product iterates axes in declared order with the last
        axis fastest (like nested for-loops). ``samples`` shortens the
        base scenario before expansion — the CLI smoke path.
        """
        base = self.resolve_base(samples=samples)
        points = []
        for index, combo in enumerate(
            itertools.product(*(axis.expand() for axis in self.axes))
        ):
            overrides: dict = {}
            for axis_point in combo:
                overrides.update(axis_point)
            scenario = base.with_overrides(**overrides)
            digest = hashlib.sha1(
                scenario.to_json(indent=None).encode()
            ).hexdigest()
            points.append(
                SweepPoint(
                    index=index,
                    run_id=f"{index:04d}-{digest[:10]}",
                    overrides=overrides,
                    scenario=scenario,
                )
            )
        return tuple(points)

    def size(self) -> int:
        """Number of runs the sweep expands to (without materialising)."""
        total = 1
        for axis in self.axes:
            total *= len(axis.expand())
        return total

    @property
    def axis_fields(self) -> "tuple[str, ...]":
        """Every override key any axis moves, in axis order."""
        fields_: "dict[str, None]" = {}
        for axis in self.axes:
            fields_.update(dict.fromkeys(axis.fields))
        return tuple(fields_)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free."""
        base = self.base if isinstance(self.base, str) else self.base.to_dict()
        return {
            "name": self.name,
            "description": self.description,
            "base": base,
            "axes": [axis_to_dict(axis) for axis in self.axes],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        """Rebuild a sweep from :meth:`to_dict` output (validates again)."""
        require_payload_keys(
            payload, (f.name for f in dataclasses.fields(cls)), "sweep"
        )
        data = dict(payload)
        if isinstance(data.get("base"), dict):
            data["base"] = ScenarioSpec.from_dict(data["base"])
        if "axes" in data:
            data["axes"] = tuple(
                axis if isinstance(axis, tuple(AXIS_KINDS.values()))
                else axis_from_dict(axis)
                for axis in data["axes"]
            )
        try:
            return cls(**data)
        except TypeError as error:
            raise ConfigurationError(f"invalid sweep payload: {error}") from None

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Rebuild a sweep from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid sweep JSON: {error}") from None
        return cls.from_dict(payload)

    def digest(self) -> str:
        """Semantic content hash — the store's resume-compatibility check.

        Only the fields that determine what runs are hashed: the base
        (a named base as its *resolved* scenario, so a store survives
        exactly as long as the registered definition it was built from)
        and the axes. Cosmetic renames or description rewords don't
        invalidate half-finished stores; a changed registry entry does,
        so resuming fails loudly instead of mixing rows from two
        different scenario definitions.
        """
        base = self.base
        if isinstance(base, str):
            base = self.resolve_base()
        payload = {
            "base": base.to_dict(),
            "axes": [axis_to_dict(axis) for axis in self.axes],
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha1(text.encode()).hexdigest()
