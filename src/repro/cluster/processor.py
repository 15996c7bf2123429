"""DVFS processor descriptions.

A processor exposes a *finite* set of operating frequencies — the defining
property that makes the cluster a switching hybrid system. The paper cites
the mobile AMD-K6-2+ (8 discrete settings) and the Pentium M (10 settings);
the module-of-four experiment uses four heterogeneous computers C1..C4 with
5-7 settings each (its Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ProcessorSpec:
    """A named, finite, sorted set of operating frequencies (GHz)."""

    name: str
    frequencies_ghz: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.frequencies_ghz:
            raise ConfigurationError("a processor needs at least one frequency")
        freqs = tuple(float(f) for f in self.frequencies_ghz)
        if any(f <= 0 for f in freqs):
            raise ConfigurationError("frequencies must be positive")
        if list(freqs) != sorted(set(freqs)):
            raise ConfigurationError("frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies_ghz", freqs)

    @property
    def max_frequency(self) -> float:
        """The top frequency u_max (GHz)."""
        return self.frequencies_ghz[-1]

    @property
    def min_frequency(self) -> float:
        """The lowest frequency (GHz)."""
        return self.frequencies_ghz[0]

    @property
    def setting_count(self) -> int:
        """Size of the control-input set |U| for the L0 controller."""
        return len(self.frequencies_ghz)

    @property
    def scaling_factors(self) -> np.ndarray:
        """The paper's phi values: each frequency divided by u_max."""
        freqs = np.asarray(self.frequencies_ghz)
        return freqs / freqs[-1]

    def scaling_factor(self, index: int) -> float:
        """phi for the setting at ``index``."""
        return float(self.frequencies_ghz[index] / self.max_frequency)

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free."""
        return {"name": self.name, "frequencies_ghz": list(self.frequencies_ghz)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ProcessorSpec":
        """Rebuild a processor spec from :meth:`to_dict` output."""
        try:
            return cls(
                name=payload["name"],
                frequencies_ghz=tuple(payload["frequencies_ghz"]),
            )
        except KeyError as error:
            raise ConfigurationError(
                f"processor payload missing key {error}"
            ) from None


#: Frequency profiles used across experiments (GHz). C1..C4 realise the
#: module-of-four in the paper's Fig. 3; the AMD and Pentium M profiles
#: mirror the parts cited in §4.1.
PROCESSOR_PROFILES: dict[str, ProcessorSpec] = {
    "c1": ProcessorSpec("c1", (0.6, 0.8, 1.0, 1.2, 1.4)),
    "c2": ProcessorSpec("c2", (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)),
    "c3": ProcessorSpec("c3", (0.53, 0.8, 1.07, 1.33, 1.6, 1.87)),
    "c4": ProcessorSpec("c4", (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)),
    "amd_k6_2plus": ProcessorSpec(
        "amd_k6_2plus", (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55)
    ),
    "pentium_m": ProcessorSpec(
        "pentium_m", (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.6)
    ),
}


def processor_profile(name: str) -> ProcessorSpec:
    """Look up a built-in processor profile by name."""
    try:
        return PROCESSOR_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown processor profile {name!r}; "
            f"available: {sorted(PROCESSOR_PROFILES)}"
        ) from None
