"""Structured results from simulation runs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.controllers.stats import ControllerStats
from repro.sim.observers import StreamStats

#: :class:`RunSummary` fields that are deterministic across hosts and
#: kernels. ``controller_seconds`` is wall-clock time — it
#: varies per machine and per run — so every byte-compared surface (the
#: sweep stores, ``repro run --json``, the CI identity gates) sticks to
#: this subset.
DETERMINISTIC_SUMMARY_METRICS = (
    "mean_response",
    "violation_fraction",
    "total_energy",
    "base_energy",
    "dynamic_energy",
    "transient_energy",
    "switch_ons",
    "switch_offs",
    "mean_computers_on",
    "l1_mean_states",
)


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers for one run (the quantities the paper reports)."""

    mean_response: float
    violation_fraction: float
    total_energy: float
    base_energy: float
    dynamic_energy: float
    transient_energy: float
    switch_ons: int
    switch_offs: int
    mean_computers_on: float
    controller_seconds: float
    l1_mean_states: float

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free."""
        return dataclasses.asdict(self)

    def deterministic_dict(self) -> dict:
        """The reproducible metrics only (no wall-clock fields).

        This is the payload behind every byte-identity comparison:
        scalar and vector runs of the same scenario agree on it bit for
        bit, as do serial and process-pool sweep stores.
        """
        return {
            name: getattr(self, name) for name in DETERMINISTIC_SUMMARY_METRICS
        }

    def deterministic_str(self) -> str:
        """The one-line rendering minus wall-clock fields.

        Reproducible across hosts and runs — what byte-compared
        artifacts (committed benchmark reports) should embed, leaving
        ``ctrl = ...`` to :meth:`__str__` consumers.
        """
        return (
            f"mean r = {self.mean_response:.2f} s | "
            f"violations = {100 * self.violation_fraction:.2f}% | "
            f"energy = {self.total_energy:.0f} "
            f"(base {self.base_energy:.0f} / dyn {self.dynamic_energy:.0f} / "
            f"boot {self.transient_energy:.0f}) | "
            f"switches on/off = {self.switch_ons}/{self.switch_offs} | "
            f"avg on = {self.mean_computers_on:.2f}"
        )

    def __str__(self) -> str:
        return (
            f"{self.deterministic_str()} | "
            f"ctrl = {self.controller_seconds:.2f} s"
        )


def stream_quality(streams: "list[StreamStats]") -> "tuple[float, float, float]":
    """``(mean response, violation fraction, mean machines on)``.

    Merges the modules' whole-run :class:`StreamStats`: responses and
    violations over their total count, machines on summed over modules
    per control period.
    """
    total_count = sum(s.response_count for s in streams)
    mean_response = (
        sum(s.response_sum for s in streams) / total_count if total_count else 0.0
    )
    violations = (
        sum(s.violation_count for s in streams) / total_count
        if total_count
        else 0.0
    )
    periods = max(s.decision_count for s in streams)
    mean_on = sum(s.computers_on_sum for s in streams) / periods if periods else 0.0
    return mean_response, violations, mean_on


def fold_summary(
    modules: list,
    quality: "tuple[float, float, float]",
    l2_seconds: float = 0.0,
) -> RunSummary:
    """The one summary fold of run results and live runs.

    ``modules`` carry ``energy_*``, ``switch_*``, ``l0_stats`` and
    ``l1_stats`` (module results or runner finalizations). A live
    summary at the end of a run folds the same numbers in the same order
    as the result's ``summary()``, so the two agree bit for bit.
    """
    mean_response, violations, mean_on = quality
    l0 = ControllerStats()
    l1 = ControllerStats()
    for module in modules:
        l0 = l0.merged_with(module.l0_stats)
        l1 = l1.merged_with(module.l1_stats)
    return RunSummary(
        mean_response=mean_response,
        violation_fraction=violations,
        total_energy=sum(
            m.energy_base + m.energy_dynamic + m.energy_transient for m in modules
        ),
        base_energy=sum(m.energy_base for m in modules),
        dynamic_energy=sum(m.energy_dynamic for m in modules),
        transient_energy=sum(m.energy_transient for m in modules),
        switch_ons=sum(m.switch_ons for m in modules),
        switch_offs=sum(m.switch_offs for m in modules),
        mean_computers_on=mean_on,
        controller_seconds=l0.total_seconds + l1.total_seconds + l2_seconds,
        l1_mean_states=l1.mean_states,
    )


@dataclass
class ModuleRunResult:
    """Time series and stats from one module simulation.

    L0-rate series have one entry per T_L0 step; L1-rate series one entry
    per T_L1 period. ``frequencies``/``responses``/``queues`` are
    (steps, m) matrices.
    """

    l0_period: float
    l1_period: float
    computer_names: list[str]
    # L0-rate series
    arrivals: np.ndarray
    frequencies: np.ndarray
    responses: np.ndarray
    queues: np.ndarray
    power: np.ndarray
    # L1-rate series
    l1_arrivals: np.ndarray
    l1_predictions: np.ndarray
    computers_on: np.ndarray
    # Aggregates
    target_response: float
    energy_base: float
    energy_dynamic: float
    energy_transient: float
    switch_ons: int
    switch_offs: int
    l0_stats: ControllerStats
    l1_stats: ControllerStats
    #: Online summary aggregates over the whole run. With a recorder
    #: ``window`` the arrays above hold only the tail of the run, so the
    #: summary derives from these instead — and for bit-identity between
    #: windowed and full runs, the full recorder accumulates (and the
    #: summary uses) the very same aggregates.
    stream: StreamStats

    @property
    def steps(self) -> int:
        """Number of T_L0 steps simulated (retained steps under a window)."""
        return self.arrivals.size

    @property
    def module_response(self) -> np.ndarray:
        """Mean response per step across serving computers (NaN when idle)."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            return np.nanmean(self.responses, axis=1)

    def summary(self) -> RunSummary:
        """Headline metrics over the run.

        They fold the :attr:`stream` aggregates, which cover the *whole*
        run (a recorder window only trims the arrays).
        """
        return fold_summary([self], stream_quality([self.stream]))


@dataclass
class ClusterRunResult:
    """Time series and stats from a cluster (L2 + modules) simulation."""

    l2_period: float
    module_names: list[str]
    # L2-rate series
    global_arrivals: np.ndarray
    global_predictions: np.ndarray
    gamma_history: np.ndarray  # (periods, p)
    total_computers_on: np.ndarray
    per_module_on: np.ndarray  # (periods, p)
    # Aggregates
    target_response: float
    module_results: list[ModuleRunResult]
    l2_stats: ControllerStats

    def summary(self) -> RunSummary:
        """Cluster-wide headline metrics (modules merged).

        Mirrors :meth:`ModuleRunResult.summary`: the modules' whole-run
        stream aggregates merge through :func:`stream_quality`.
        """
        quality = stream_quality([m.stream for m in self.module_results])
        return fold_summary(self.module_results, quality, self.l2_stats.total_seconds)

    def hierarchy_path_seconds(self) -> float:
        """Average execution time along one L2 -> L1 -> L0 path per period.

        The paper's §5.2 scalability metric: the hierarchy's latency is
        the sum of controller times along one path of Fig. 2(a), not the
        sum over all controllers.
        """
        l2_mean = self.l2_stats.mean_seconds
        l1_mean = max(m.l1_stats.mean_seconds for m in self.module_results)
        # One L1 period spans several L0 decisions on the same computer.
        worst_module = max(
            self.module_results,
            key=lambda m: m.l0_stats.mean_seconds,
        )
        substeps = round(worst_module.l1_period / worst_module.l0_period)
        l0_mean = worst_module.l0_stats.mean_seconds * substeps
        return l2_mean + l1_mean + l0_mean
