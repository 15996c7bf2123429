"""Small argument-validation helpers used across the library.

These raise :class:`~repro.common.errors.ConfigurationError` with uniform
messages so construction failures are easy to diagnose from test output.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.common.errors import ConfigurationError


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise ConfigurationError."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def require_positive_int(value: object, name: str) -> int:
    """Return ``value`` if a positive int (bools rejected), else raise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(
            f"{name} must be a positive int, got {value!r}"
        )
    return value


def require_non_negative_int(value: object, name: str) -> int:
    """Return ``value`` if an int >= 0 (bools rejected), else raise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(
            f"{name} must be a non-negative int, got {value!r}"
        )
    return value


def store_floats(instance: object, *names: str) -> None:
    """Store each named int field of a frozen dataclass as its float.

    A number keeps one spelling, so ``120`` and ``120.0`` give one
    JSON text and one trained-map digest. Only an ``int`` is coerced: a
    bool or any other value stays as given, for its own check to judge.
    Call it after the checks, so their messages show the value given.
    """
    for name in names:
        value = getattr(instance, name)
        if isinstance(value, int) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                ) from None
            object.__setattr__(instance, name, number)


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, else raise ConfigurationError."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_between(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if within ``[low, high]``, else raise."""
    if not (low <= value <= high):
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )
    return value


def require_in(value: object, options: Iterable[object], name: str) -> object:
    """Return ``value`` if it is one of ``options``, else raise."""
    options = tuple(options)
    if value not in options:
        raise ConfigurationError(f"{name} must be one of {options}, got {value!r}")
    return value


def require_payload_keys(
    payload: object,
    known: Iterable[str],
    label: str,
    complete: bool = False,
) -> dict:
    """Validate a ``to_dict``-style payload against its field names.

    The payload must be a dict whose keys are drawn from ``known`` —
    all of them present when ``complete`` is set. Returns the payload
    unchanged. Shared by the ``from_dict`` constructors so every spec
    rejects malformed payloads the same way.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{label} payload must be a dict, got {type(payload).__name__}"
        )
    known = set(known)
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(f"unknown {label} fields: {sorted(unknown)}")
    if complete:
        missing = known - set(payload)
        if missing:
            raise ConfigurationError(
                f"missing {label} fields: {sorted(missing)}"
            )
    return payload


def require_failure_events(
    events: Iterable[object],
    bounds: "dict[str, int | None]",
    name: str = "failure_events",
) -> tuple:
    """Validate a sequence of failure-injection events.

    Each event is a ``(time_seconds, *indices, 'fail'|'repair')`` tuple
    with a non-negative time and one integer index per ``bounds`` entry,
    in order: the entry maps the index's label to its bound, and the
    index must lie in ``[0, bound)`` (``>= 0`` for a ``None`` bound).
    Module events index a computer (``{"computer": size}``); cluster
    events a module, then a computer (``{"module": p, "computer":
    size}``). Returns the normalised tuple (times as floats, indices as
    ints). Shared by the declarative specs, the ``Scenario`` builder and
    both engines, so all reject the same malformed inputs.
    """
    shape = ", ".join(f"{label}_index" for label in bounds)
    validated = []
    for event in events:
        if not isinstance(event, Sequence) or len(event) != len(bounds) + 2:
            raise ConfigurationError(
                f"{name} entries are (time_seconds, {shape}, "
                f"'fail'|'repair') tuples, got {event!r}"
            )
        time, *indices, kind = event
        if kind not in ("fail", "repair"):
            raise ConfigurationError(
                f"{name} kind must be 'fail' or 'repair', got {kind!r}"
            )
        try:
            time = float(time)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{name} time must be a number, got {event[0]!r}"
            ) from None
        if not time >= 0:
            raise ConfigurationError(f"{name} time must be >= 0, got {time!r}")
        checked = []
        for index, (label, bound) in zip(indices, bounds.items()):
            if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
                raise ConfigurationError(
                    f"{name} {label} index must be an integer, got {index!r}"
                )
            index = int(index)
            if index < 0 or (bound is not None and index >= bound):
                span = f"[0, {bound})" if bound is not None else ">= 0"
                raise ConfigurationError(
                    f"{name} {label} index must be in {span}, got {index}"
                )
            checked.append(index)
        validated.append((time, *checked, kind))
    return tuple(validated)


def require_probability_vector(values: Sequence[float], name: str) -> np.ndarray:
    """Validate a vector of finite, non-negative fractions summing to one.

    Entries may dip below zero, and the sum stray from one, by 1e-6.
    Returns the vector as a float ndarray. Used for load-distribution
    factors (the paper's gamma vectors). A NaN entry fails no sum or
    sign comparison, so non-finite entries are rejected first.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    finite = np.isfinite(arr)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ConfigurationError(
            f"{name}[{index}] must be finite, got {float(arr[index])}"
        )
    if np.any(arr < -1e-6):
        raise ConfigurationError(f"{name} must be non-negative, got {arr}")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-6:
        raise ConfigurationError(f"{name} must sum to 1, got sum={total}")
    return np.clip(arr, 0.0, None)
