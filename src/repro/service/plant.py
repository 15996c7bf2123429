"""The plant seam: what the live controller hierarchy manages.

A :class:`Plant` is the supervisor's only view of the managed system —
observe arrivals, apply control, report state. The simulation engine is
just one implementation; a hardware-in-the-loop deployment is another
plant behind the same three verbs, which is the seam this subsystem
exists to establish.

Both bundled plants wrap the stepwise engine
(:class:`~repro.sim.engine.ModuleSimulation` /
:class:`~repro.sim.engine.ClusterSimulation`), differing only in where
arrivals come from: :class:`SimulatedPlant` replays the scenario's own
workload; :class:`ReplayPlant` overwrites each step's arrivals with an
externally fed observation *before* stepping, so external traffic
drives the very same controller code. Fed the scenario's own series, a
replay run is bit-identical to the batch run — JSON round-trips floats
exactly, and the engine's operation order does not change.
"""

from __future__ import annotations

from repro.common.errors import ControlError


class Plant:
    """Base plant: a stepwise simulation plus the supervisor's verbs.

    ``advance()`` is the single async step — observe one T_L0 period of
    arrivals (however the concrete plant obtains them), apply the
    controllers' decisions, and return the engine's step event(s), or
    ``None`` when no more steps will come.
    """

    def __init__(self, simulation) -> None:
        self.simulation = simulation
        #: Fraction of incoming load deliberately dropped before the
        #: engine sees it (0.0 = shedding off). Set by the supervisor —
        #: operator ``shed`` verb or the automatic deadline-hold policy.
        self.shed_fraction = 0.0
        #: Cumulative requests dropped by shedding (trace units).
        self.shed_requests = 0.0

    def bind(self, observers=()) -> None:
        """Reset the underlying run with the supervisor's observers."""
        self.simulation.reset(observers=observers)

    def _apply_shed(self, k: int) -> None:
        """Scale step ``k``'s arrivals down by the active shed fraction.

        Mutates the trace bin before the engine reads it, exactly as the
        replay plant overwrites bins with observed arrivals — the engine
        itself never learns shedding exists. No-op at fraction 0, so
        batch-identical runs stay batch-identical.
        """
        fraction = self.shed_fraction
        if fraction <= 0.0:
            return
        counts = self.simulation.trace.counts
        kept = counts[k] * (1.0 - fraction)
        self.shed_requests += float(counts[k] - kept)
        counts[k] = kept

    @property
    def finished(self) -> bool:
        """True once the run's horizon completed."""
        return self.simulation.finished

    @property
    def steps_taken(self) -> int:
        """T_L0 steps taken so far."""
        return self.simulation.steps_taken

    @property
    def total_steps(self) -> int:
        """T_L0 steps in the full horizon."""
        return self.simulation.total_steps

    def finish(self):
        """The structured run result (once finished)."""
        return self.simulation.finish()

    async def advance(self):
        raise NotImplementedError


class SimulatedPlant(Plant):
    """The scenario's own workload drives the engine (self-paced)."""

    async def advance(self):
        if self.simulation.finished:
            return None
        self._apply_shed(self.simulation.steps_taken)
        return self.simulation.step()


class ReplayPlant(Plant):
    """An external observation feed drives the engine.

    Each ``advance()`` awaits the feed's next observation, overwrites
    the corresponding trace bin (and work-series bin, when fed) with the
    observed value, then steps the engine. Observations must arrive in
    step order; a gap or replayed step is a hard error, because the
    Kalman filters consume a time series.
    """

    def __init__(self, simulation, feed) -> None:
        super().__init__(simulation)
        self.feed = feed

    async def advance(self):
        simulation = self.simulation
        if simulation.finished:
            return None
        observation = await self.feed.next()
        if observation is None:
            return None
        k = simulation.steps_taken
        if observation.step != k:
            raise ControlError(
                f"replay feed out of order: expected step {k}, "
                f"got step {observation.step}"
            )
        simulation.trace.counts[k] = observation.arrivals
        if observation.work is not None:
            if simulation.work_series is None:
                raise ControlError(
                    "feed supplies per-step work but this scenario has no "
                    "work series (cluster runs default to a constant mean "
                    "work; use a zipfmix workload to carry one)"
                )
            simulation.work_series[k] = observation.work
        self._apply_shed(k)
        return simulation.step()
