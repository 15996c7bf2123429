"""Configuration dataclasses for computers, modules, and clusters.

The factory functions at the bottom build the exact systems evaluated in
the paper: the heterogeneous module of four (§4.3), its m = 6 and m = 10
variants, and the sixteen-computer four-module cluster (§5.2, with a
twenty-computer five-module variant).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.validation import require_non_negative, require_positive
from repro.cluster.processor import ProcessorSpec, processor_profile

#: Reference frequency (GHz) used to derive default speed factors: a
#: computer's full-speed throughput scales with its top frequency.
REFERENCE_FREQUENCY_GHZ = 2.0


@dataclass(frozen=True)
class ComputerSpec:
    """Static description of one computer.

    Parameters
    ----------
    name:
        Unique identifier within its module.
    processor:
        The DVFS frequency set.
    base_power:
        The paper's ``a`` — constant draw while on (default 0.75).
    power_scale:
        Relative peak dynamic power ``p`` (paper: 1.0 for all machines).
    speed_factor:
        Full-speed throughput relative to the reference machine. ``None``
        derives it from the processor's top frequency.
    boot_delay:
        Dead time between power-on command and serving (default 120 s,
        the paper's "typical time delay incurred in switching on a
        computer").
    boot_energy:
        One-shot transient energy charged on power-up.
    """

    name: str
    processor: ProcessorSpec
    base_power: float = 0.75
    power_scale: float = 1.0
    speed_factor: float | None = None
    boot_delay: float = 120.0
    boot_energy: float = 8.0

    def __post_init__(self) -> None:
        require_non_negative(self.base_power, "base_power")
        require_positive(self.power_scale, "power_scale")
        require_non_negative(self.boot_delay, "boot_delay")
        require_non_negative(self.boot_energy, "boot_energy")
        if self.speed_factor is not None:
            require_positive(self.speed_factor, "speed_factor")

    @property
    def effective_speed_factor(self) -> float:
        """Resolved speed factor (derived from top frequency if unset)."""
        if self.speed_factor is not None:
            return self.speed_factor
        return self.processor.max_frequency / REFERENCE_FREQUENCY_GHZ

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free."""
        return {
            "name": self.name,
            "processor": self.processor.to_dict(),
            "base_power": self.base_power,
            "power_scale": self.power_scale,
            "speed_factor": self.speed_factor,
            "boot_delay": self.boot_delay,
            "boot_energy": self.boot_energy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ComputerSpec":
        """Rebuild a computer spec from :meth:`to_dict` output."""
        try:
            return cls(
                name=payload["name"],
                processor=ProcessorSpec.from_dict(payload["processor"]),
                base_power=payload["base_power"],
                power_scale=payload["power_scale"],
                speed_factor=payload["speed_factor"],
                boot_delay=payload["boot_delay"],
                boot_energy=payload["boot_energy"],
            )
        except KeyError as error:
            raise ConfigurationError(
                f"computer payload missing key {error}"
            ) from None


@dataclass(frozen=True)
class ModuleSpec:
    """A named group of computers managed by one L1 controller."""

    name: str
    computers: tuple[ComputerSpec, ...]

    def __post_init__(self) -> None:
        if not self.computers:
            raise ConfigurationError("a module needs at least one computer")
        names = [c.name for c in self.computers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate computer names in {self.name}")

    @property
    def size(self) -> int:
        """Number of computers m in the module."""
        return len(self.computers)

    def max_service_rate(self, mean_work: float) -> float:
        """Aggregate full-speed capacity (requests/s) for work ``mean_work``."""
        require_positive(mean_work, "mean_work")
        return sum(c.effective_speed_factor for c in self.computers) / mean_work

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free."""
        return {
            "name": self.name,
            "computers": [c.to_dict() for c in self.computers],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModuleSpec":
        """Rebuild a module spec from :meth:`to_dict` output."""
        try:
            return cls(
                name=payload["name"],
                computers=tuple(
                    ComputerSpec.from_dict(c) for c in payload["computers"]
                ),
            )
        except KeyError as error:
            raise ConfigurationError(
                f"module payload missing key {error}"
            ) from None


@dataclass(frozen=True)
class ClusterSpec:
    """A named group of modules managed by one L2 controller."""

    name: str
    modules: tuple[ModuleSpec, ...]

    def __post_init__(self) -> None:
        if not self.modules:
            raise ConfigurationError("a cluster needs at least one module")
        names = [m.name for m in self.modules]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate module names in {self.name}")

    @property
    def module_count(self) -> int:
        """Number of modules p."""
        return len(self.modules)


def paper_module_spec(
    name: str = "M1",
    profiles: tuple[str, ...] = ("c1", "c2", "c3", "c4"),
    **computer_kwargs,
) -> ModuleSpec:
    """The heterogeneous module of four from §4.3 (Fig. 3)."""
    computers = tuple(
        ComputerSpec(
            name=f"{name}.{profile.upper()}",
            processor=processor_profile(profile),
            **computer_kwargs,
        )
        for profile in profiles
    )
    return ModuleSpec(name=name, computers=computers)


def scaled_module_spec(m: int, name: str = "M1", **computer_kwargs) -> ModuleSpec:
    """A module of ``m`` computers cycling through the C1..C4 profiles.

    Used for the m = 6 and m = 10 overhead experiments in §4.3.
    """
    require_positive(m, "m")
    base_profiles = ("c1", "c2", "c3", "c4")
    computers = tuple(
        ComputerSpec(
            name=f"{name}.C{i + 1}",
            processor=processor_profile(base_profiles[i % 4]),
            **computer_kwargs,
        )
        for i in range(m)
    )
    return ModuleSpec(name=name, computers=computers)


def paper_cluster_spec(p: int = 4, computers_per_module: int = 4) -> ClusterSpec:
    """The sixteen-computer, four-module cluster of §5.2.

    Modules are themselves heterogeneous ("different sets of computers are
    present within each module"): each module rotates the profile list by
    its index, so no two modules have identical machine mixes.
    """
    require_positive(p, "p")
    require_positive(computers_per_module, "computers_per_module")
    base_profiles = ("c1", "c2", "c3", "c4", "pentium_m")
    modules = []
    for i in range(p):
        name = f"M{i + 1}"
        rotated = tuple(
            base_profiles[(i + j) % len(base_profiles)]
            for j in range(computers_per_module)
        )
        computers = tuple(
            ComputerSpec(
                name=f"{name}.C{j + 1}",
                processor=processor_profile(profile),
            )
            for j, profile in enumerate(rotated)
        )
        modules.append(ModuleSpec(name=name, computers=computers))
    return ClusterSpec(name=f"cluster-{p}x{computers_per_module}", modules=tuple(modules))
