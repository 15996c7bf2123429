"""State and input constraints: H(x) <= 0 and u in U(x).

Constraints are predicates over states; a :class:`ConstraintSet` combines
them. The LLC search discards trajectories whose predicted states violate
any hard constraint (soft constraints belong in the cost via slack
variables — see :mod:`repro.core.cost`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Protocol, runtime_checkable


@runtime_checkable
class Constraint(Protocol):
    """Predicate over predicted states."""

    def satisfied(self, state) -> bool:
        """Return True when the state is admissible."""
        ...


class CallableConstraint:
    """Wraps an arbitrary predicate, with a name for diagnostics."""

    def __init__(self, predicate: Callable[[object], bool], name: str = "") -> None:
        self.predicate = predicate
        self.name = name or getattr(predicate, "__name__", "constraint")

    def satisfied(self, state) -> bool:
        """Delegate to the wrapped predicate."""
        return bool(self.predicate(state))


class ConstraintSet:
    """Conjunction of constraints."""

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        self._constraints = list(constraints)

    def satisfied(self, state) -> bool:
        """True when every member constraint admits the state."""
        return all(c.satisfied(state) for c in self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)
