"""Machine power-state machine with boot dead time.

(De)activating a computer is the canonical "control action with dead time"
motivating the paper's proactive control: a machine switched on consumes
base power during its boot delay but serves nothing. States:

    OFF --power_on--> BOOTING --(boot_delay elapses)--> ON
    ON  --power_off--> DRAINING --(queue empties)--> OFF

DRAINING machines finish their queued work (at full speed) but receive no
new arrivals; this mirrors the graceful-shutdown behaviour a load balancer
provides in practice and keeps requests from being dropped.
"""

from __future__ import annotations

import enum

from repro.common.errors import ControlError
from repro.common.validation import require_non_negative
from repro.cluster.state import BOOTING, DRAINING, FAILED, OFF, ON, PlantState


class PowerState(enum.Enum):
    """Operating condition of one computer."""

    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    DRAINING = "draining"
    FAILED = "failed"


#: Each :class:`PowerState` at its :class:`~repro.cluster.state.PlantState` code.
POWER_STATES = (
    PowerState.OFF,
    PowerState.BOOTING,
    PowerState.ON,
    PowerState.DRAINING,
    PowerState.FAILED,
)


class MachineLifecycle:
    """Tracks one machine's power state through time.

    The state and boot countdown live in cell ``at`` (row, column) of
    ``plant``, a :class:`~repro.cluster.state.PlantState` shared with
    the rest of the run; a lifecycle made without one gets a one-cell
    state of its own.
    """

    def __init__(
        self,
        boot_delay: float = 120.0,
        initially_on: bool = True,
        plant: "PlantState | None" = None,
        at: "tuple[int, int]" = (0, 0),
    ) -> None:
        self.boot_delay = require_non_negative(boot_delay, "boot_delay")
        self._plant = plant if plant is not None else PlantState([1])
        row, self._at = at
        self._states = self._plant.power_states[row]
        self._boots = self._plant.boot_remaining[row]
        self._states[self._at] = ON if initially_on else OFF
        self._boots[self._at] = 0.0
        self.switch_on_count = 0
        self.switch_off_count = 0

    @property
    def state(self) -> PowerState:
        """The machine's current power state."""
        return POWER_STATES[self._states.item(self._at)]

    @property
    def code(self) -> int:
        """The current state's :class:`~repro.cluster.state.PlantState` code."""
        return self._states.item(self._at)

    def _set(self, code: int) -> None:
        """Move to the state of ``code``, counting a real change."""
        if self._states.item(self._at) != code:
            self._states[self._at] = code
            self._plant.power_changes += 1

    @property
    def is_serving(self) -> bool:
        """True when the machine can process requests (ON or DRAINING)."""
        code = self._states.item(self._at)
        return code == ON or code == DRAINING

    @property
    def accepts_work(self) -> bool:
        """True when the dispatcher may route new requests here."""
        return self._states.item(self._at) == ON

    @property
    def draws_power(self) -> bool:
        """True when the machine consumes energy (not OFF, not FAILED)."""
        code = self._states.item(self._at)
        return code != OFF and code != FAILED

    def fail(self) -> None:
        """Hard failure: the machine stops instantly and cannot serve."""
        self._set(FAILED)
        self._boots[self._at] = 0.0

    def repair(self) -> None:
        """Repair a failed machine; it returns to the OFF state."""
        if self._states.item(self._at) == FAILED:
            self._set(OFF)

    @property
    def is_failed(self) -> bool:
        """True while the machine is failed (cannot be powered on)."""
        return self._states.item(self._at) == FAILED

    def power_on(self) -> None:
        """Command the machine on; a no-op if already on, booting, or failed."""
        code = self._states.item(self._at)
        if code == ON or code == BOOTING or code == FAILED:
            return
        if code == DRAINING:
            # Cancel the shutdown; the machine never stopped serving.
            self._set(ON)
            return
        self._set(BOOTING if self.boot_delay else ON)
        self._boots[self._at] = self.boot_delay
        self.switch_on_count += 1

    def power_off(self) -> None:
        """Command the machine off; it drains queued work first."""
        code = self._states.item(self._at)
        if code == OFF or code == DRAINING or code == FAILED:
            return
        if code == BOOTING:
            # Abort the boot outright; nothing was queued yet.
            self._set(OFF)
            self._boots[self._at] = 0.0
            return
        self._set(DRAINING)
        self.switch_off_count += 1

    def tick(self, dt: float, queue_empty: bool) -> None:
        """Advance time: complete boots and finish drains."""
        if dt < 0:
            raise ControlError("lifecycle cannot tick backwards")
        code = self._states.item(self._at)
        if code == BOOTING:
            remaining = self._boots.item(self._at) - dt
            if remaining <= 1e-12:
                remaining = 0.0
                self._set(ON)
            self._boots[self._at] = remaining
        elif code == DRAINING and queue_empty:
            self._set(OFF)
