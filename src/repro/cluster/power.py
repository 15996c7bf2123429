"""Energy accounting.

Power is measured in the paper's normalised units: an operating computer
draws ``a + p * phi**2`` (base plus dynamic), and switching a machine on
costs a one-shot transient. :class:`EnergyMeter` integrates power over time
and itemises base, dynamic and transient energy so benchmarks can report
where the joules went.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.validation import require_non_negative


@dataclass
class EnergyMeter:
    """Integrates energy (power x time) with per-category breakdown."""

    base_energy: float = 0.0
    dynamic_energy: float = 0.0
    transient_energy: float = 0.0

    def add_interval(self, base_power: float, dynamic_power: float, dt: float) -> None:
        """Accumulate one interval of draw at the given power split."""
        require_non_negative(dt, "dt")
        require_non_negative(base_power, "base_power")
        require_non_negative(dynamic_power, "dynamic_power")
        self.base_energy += base_power * dt
        self.dynamic_energy += dynamic_power * dt

    def add_transient(self, energy: float) -> None:
        """Accumulate a one-shot switching transient."""
        require_non_negative(energy, "energy")
        self.transient_energy += energy

    @property
    def total(self) -> float:
        """Total energy consumed (normalised units x seconds)."""
        return self.base_energy + self.dynamic_energy + self.transient_energy
