"""The per-module step path, driven directly.

Both engines step a module through :class:`ModuleShardRunner`
(``begin_period`` / ``step`` / ``finalize``); these tests drive one
runner by hand on a baseline module, so each promise of the three calls
— fault application, the hold and deadline seams, manual overrides,
work defaults and the final fold — is checked without an engine around
it. :func:`forced_configuration` and :func:`control_substeps` are checked
as the pure functions they are.
"""

import time

import numpy as np
import pytest

from repro.cluster import paper_module_spec
from repro.cluster.lifecycle import PowerState
from repro.cluster.module import Module
from repro.controllers import ThresholdDvfsController
from repro.common import ConfigurationError
from repro.controllers.params import L0Params, L1Params
from repro.forecast import WorkloadPredictor
from repro.sim.shard import (
    ModuleBoundaryInput,
    ModuleShardRunner,
    ModuleStepInput,
    control_substeps,
    forced_configuration,
)

MEAN_WORK = 0.0175


def _runner(events=(), kernel="scalar", module_index=0):
    """A fresh baseline runner on the paper's four-machine module."""
    spec = paper_module_spec()
    return ModuleShardRunner(
        module_index=module_index,
        plant=Module(spec, initially_on=True),
        controller=ThresholdDvfsController(spec),
        l0_bank=[],
        l0_params=L0Params(),
        mean_work=MEAN_WORK,
        is_baseline=True,
        failure_events=events,
        kernel=kernel,
    )


def _boundary(**fields):
    """The first boundary's input at the mean work, with ``fields`` set."""
    return ModuleBoundaryInput(period=0, now=0.0, work=MEAN_WORK, **fields)


def _step(runner, step=0, time_s=0.0, share=100.0, work=None):
    return runner.step(
        ModuleStepInput(
            step=step, time=time_s, share=share, gamma_module=1.0, work=work
        )
    )


def _steps_equal(a, b):
    return (
        a.step == b.step
        and a.module == b.module
        and a.arrivals == b.arrivals
        and a.power == b.power
        and np.array_equal(a.frequencies, b.frequencies)
        and np.array_equal(a.responses, b.responses, equal_nan=True)
        and np.array_equal(a.queues, b.queues)
    )


class TestForcedConfiguration:
    ALPHA = np.array([True, False, False, True])
    GAMMA = np.array([0.5, 0.0, 0.0, 0.5])

    def test_first_available_machines_split_evenly(self):
        alpha, gamma = forced_configuration(
            np.ones(4, dtype=bool), 3, self.ALPHA, self.GAMMA
        )
        assert alpha.dtype == bool
        assert alpha.tolist() == [True, True, True, False]
        assert gamma.tolist() == [1 / 3, 1 / 3, 1 / 3, 0.0]

    def test_failed_machines_are_skipped(self):
        available = np.array([False, True, False, True])
        alpha, gamma = forced_configuration(available, 2, self.ALPHA, self.GAMMA)
        assert alpha.tolist() == [False, True, False, True]
        assert gamma.tolist() == [0.0, 0.5, 0.0, 0.5]

    def test_count_clamps_to_the_available_machines(self):
        available = np.array([True, True, False, False])
        alpha, gamma = forced_configuration(available, 9, self.ALPHA, self.GAMMA)
        assert alpha.tolist() == [True, True, False, False]
        assert gamma.tolist() == [0.5, 0.5, 0.0, 0.0]

    @pytest.mark.parametrize("force_on", [0, -2])
    def test_count_clamps_up_to_one_machine(self, force_on):
        alpha, gamma = forced_configuration(
            np.ones(4, dtype=bool), force_on, self.ALPHA, self.GAMMA
        )
        assert alpha.tolist() == [True, False, False, False]
        assert gamma.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_nothing_available_keeps_the_configuration(self):
        alpha, gamma = forced_configuration(
            np.zeros(4, dtype=bool), 2, self.ALPHA, self.GAMMA
        )
        assert alpha is self.ALPHA
        assert gamma is self.GAMMA


class TestControlSubsteps:
    """T_L0 steps per control period, as both engines count them."""

    def test_paper_periods_give_four_steps(self):
        assert control_substeps(L0Params(), L1Params()) == 4  # 120 s / 30 s

    def test_a_period_that_is_no_multiple_rounds_to_the_nearest(self):
        assert control_substeps(L0Params(period=30.0), L1Params(period=100.0)) == 3
        assert control_substeps(L0Params(period=30.0), L1Params(period=110.0)) == 4

    def test_a_control_period_under_half_a_step_is_rejected(self):
        with pytest.raises(ConfigurationError, match="T_L1 must cover at least one T_L0"):
            control_substeps(L0Params(period=30.0), L1Params(period=10.0))


class TestFaults:
    def test_pending_events_are_time_ordered(self):
        runner = _runner(events=((60.0, 1, "fail"), (0.0, 0, "fail")))
        assert runner.pending_events == [(0.0, 0, "fail"), (60.0, 1, "fail")]

    def test_event_not_yet_due_stays_pending(self):
        runner = _runner(events=((60.0, 1, "fail"),))
        _step(runner, time_s=30.0)
        assert runner.pending_events == [(60.0, 1, "fail")]
        assert runner.plant.available_mask.all()

    def test_failing_a_serving_machine_renormalises_gamma(self):
        runner = _runner(events=((0.0, 1, "fail"),))
        event = _step(runner)
        assert runner.plant.available_mask.tolist() == [True, False, True, True]
        assert runner.alpha.tolist() == [True, False, True, True]
        assert runner.gamma.tolist() == [1 / 3, 0.0, 1 / 3, 1 / 3]
        # The failed machine takes no share of the step's arrivals.
        assert event.queues[1] == 0.0

    def test_losing_the_only_server_boots_the_fastest_survivor(self):
        runner = _runner(events=((0.0, 2, "fail"),))
        runner.alpha = np.array([False, False, True, False])
        runner.gamma = np.array([0.0, 0.0, 1.0, 0.0])
        runner.plant.apply_configuration(runner.alpha)
        _step(runner)
        # Machine 3 is the fastest of the survivors (speed factor 1.0).
        assert runner.alpha.tolist() == [False, False, False, True]
        assert runner.gamma.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert runner.plant.computers[2].is_failed
        assert runner.plant.computers[3].lifecycle.state is PowerState.ON

    def test_repair_returns_the_machine(self):
        runner = _runner(events=((0.0, 1, "fail"), (30.0, 1, "repair")))
        _step(runner, time_s=0.0)
        assert not runner.plant.available_mask[1]
        _step(runner, step=1, time_s=30.0)
        assert runner.plant.available_mask.all()
        assert runner.pending_events == []

    def test_boundary_applies_due_faults_before_deciding(self):
        runner = _runner(events=((0.0, 0, "fail"),))
        event = runner.begin_period(_boundary())
        assert not event.alpha[0]
        assert event.gamma[0] == 0.0


class TestBoundary:
    def test_decision_is_applied(self):
        runner = _runner()
        event = runner.begin_period(_boundary())
        assert not event.held and not event.forced
        assert event.module == 0 and event.period == 0
        assert np.array_equal(event.alpha, runner.alpha)
        assert np.array_equal(event.gamma, runner.gamma)
        serving = [c.lifecycle.state is PowerState.ON for c in runner.plant.computers]
        assert serving == runner.alpha.tolist()
        assert runner.controller.stats.invocations == 1

    def test_event_holds_copies(self):
        runner = _runner()
        event = runner.begin_period(_boundary())
        event.alpha[:] = False
        event.gamma[:] = 0.0
        assert runner.alpha.any()
        assert runner.gamma.sum() == pytest.approx(1.0)

    def test_hold_keeps_the_previous_allocation_without_deciding(self):
        runner = _runner()
        before_alpha, before_gamma = runner.alpha.copy(), runner.gamma.copy()
        event = runner.begin_period(_boundary(hold=True))
        assert event.held
        assert np.array_equal(runner.alpha, before_alpha)
        assert np.array_equal(runner.gamma, before_gamma)
        assert runner.controller.stats.invocations == 0

    def test_missed_deadline_discards_the_decision(self):
        fresh = _runner().begin_period(_boundary())
        runner = _runner()
        before_alpha = runner.alpha.copy()
        event = runner.begin_period(
            _boundary(deadline_at=time.monotonic() - 1.0)
        )
        # The decision was computed (and differs) but never applied.
        assert not np.array_equal(fresh.alpha, before_alpha)
        assert runner.controller.stats.invocations == 1
        assert event.held
        assert np.array_equal(runner.alpha, before_alpha)

    def test_force_on_pins_the_first_available_machines(self):
        runner = _runner(events=((0.0, 0, "fail"),))
        event = runner.begin_period(_boundary(force_on=2))
        assert event.forced and not event.held
        assert runner.alpha.tolist() == [False, True, True, False]
        assert runner.gamma.tolist() == [0.0, 0.5, 0.5, 0.0]
        states = [c.lifecycle.state for c in runner.plant.computers]
        assert states[1] is PowerState.ON and states[2] is PowerState.ON

    def test_scalar_and_vector_boundaries_agree(self):
        runners = [_runner(kernel="scalar"), _runner(kernel="vector")]
        predictor = WorkloadPredictor()
        for period, arrivals in enumerate((None, 4200.0, 9100.0, 2600.0)):
            if arrivals is not None:
                predictor.observe(arrivals)
            # Both kernels read the filter's one-step forecast, as the
            # engine does.
            count = float(predictor.forecast(1)[0])
            events = [
                runner.begin_period(
                    ModuleBoundaryInput(
                        period=period,
                        now=60.0 * period,
                        work=MEAN_WORK,
                        rate_hat=count / 120.0,
                        prediction=count,
                    )
                )
                for runner in runners
            ]
            scalar, vector = events
            assert np.array_equal(scalar.alpha, vector.alpha)
            assert np.array_equal(scalar.gamma, vector.gamma)
            assert scalar.prediction == vector.prediction
            steps = [
                _step(runner, step=period, time_s=60.0 * period, share=140.0)
                for runner in runners
            ]
            assert _steps_equal(*steps)


class TestStep:
    def test_event_reports_module_share_and_plant(self):
        runner = _runner(module_index=3)
        event = _step(runner, step=7, time_s=210.0, share=120.0)
        assert (event.module, event.step, event.time) == (3, 7, 210.0)
        assert event.arrivals == 120.0
        assert event.frequencies.tolist() == [
            c.frequency_ghz for c in runner.plant.computers
        ]
        assert event.power > 0

    def test_default_work_is_the_mean_work(self):
        implicit = _step(_runner(), share=150.0)
        explicit = _step(_runner(), share=150.0, work=MEAN_WORK)
        heavier = _step(_runner(), share=150.0, work=4 * MEAN_WORK)
        assert _steps_equal(implicit, explicit)
        assert np.nansum(heavier.responses) > np.nansum(implicit.responses)


class TestFinalize:
    def test_folds_the_plant_and_controller_aggregates(self):
        runner = _runner(module_index=2)
        runner.begin_period(_boundary())
        for step in range(4):
            _step(runner, step=step, time_s=30.0 * step)
        final = runner.finalize()
        computers = runner.plant.computers
        assert final.module == 2
        assert final.energy_base == sum(c.energy.base_energy for c in computers)
        assert final.energy_dynamic == sum(
            c.energy.dynamic_energy for c in computers
        )
        assert final.energy_transient == sum(
            c.energy.transient_energy for c in computers
        )
        assert (final.switch_ons, final.switch_offs) == (
            runner.plant.switch_counts()
        )
        assert final.l1_stats is runner.controller.stats
        # A baseline module has no L0 bank to fold.
        assert final.l0_stats.invocations == 0
