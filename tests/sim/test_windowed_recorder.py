"""Windowed (constant-memory) recorders vs the full preallocating ones.

The contract under test: a recorder ``window`` changes only how much of
the time series is retained — every :class:`RunSummary` metric is
accumulated online and must be **bit-identical** (``==``, not approx)
to the full recorder's.
"""

import json

import numpy as np
import pytest

from repro.scenario import Scenario, get_scenario, run_scenario

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _module_spec(samples=12, **control):
    return (
        Scenario.module(m=4)
        .workload("flashcrowd", samples=samples, rate=40.0, spike_every=8)
        .control(warmup_intervals=4)
        .build()
    )


def _summary_json(spec):
    return json.dumps(
        run_scenario(spec).summary().deterministic_dict(), sort_keys=True
    )


class TestModuleWindowedParity:
    SAMPLES = 12  # 48 T_L0 steps

    @pytest.mark.parametrize("window", [1, 2, 5, 16, 48, 49, 10_000])
    def test_summary_bit_identical_across_window_sizes(self, window):
        spec = _module_spec(samples=self.SAMPLES)
        full = _summary_json(spec)
        windowed = _summary_json(
            spec.with_overrides(**{"control.window": window})
        )
        assert windowed == full

    def test_window_covering_horizon_retains_everything(self):
        spec = _module_spec(samples=self.SAMPLES)
        full = run_scenario(spec)
        windowed = run_scenario(
            spec.with_overrides(**{"control.window": 10_000})
        )
        assert windowed.steps == full.steps
        np.testing.assert_array_equal(windowed.arrivals, full.arrivals)
        np.testing.assert_array_equal(windowed.responses, full.responses)

    def test_windowed_arrays_are_the_chronological_tail(self):
        spec = _module_spec(samples=self.SAMPLES)
        full = run_scenario(spec)
        windowed = run_scenario(spec.with_overrides(**{"control.window": 7}))
        assert windowed.steps == 7
        np.testing.assert_array_equal(windowed.arrivals, full.arrivals[-7:])
        np.testing.assert_array_equal(windowed.power, full.power[-7:])
        np.testing.assert_array_equal(
            windowed.frequencies, full.frequencies[-7:]
        )
        np.testing.assert_array_equal(
            windowed.l1_arrivals, full.l1_arrivals[-7:]
        )

    def test_window_of_one_step(self):
        spec = _module_spec(samples=self.SAMPLES)
        full = run_scenario(spec)
        windowed = run_scenario(spec.with_overrides(**{"control.window": 1}))
        assert windowed.steps == 1
        np.testing.assert_array_equal(windowed.arrivals, full.arrivals[-1:])
        np.testing.assert_array_equal(
            windowed.computers_on, full.computers_on[-1:]
        )

    def test_stream_attached_and_consistent(self):
        result = run_scenario(_module_spec(samples=self.SAMPLES))
        stream = result.stream
        assert stream is not None
        assert stream.steps_seen == result.steps
        assert stream.decision_count == result.computers_on.size
        # The full-array arithmetic agrees with the online aggregates.
        responses = result.responses[~np.isnan(result.responses)]
        assert stream.response_count == responses.size
        assert stream.response_sum / stream.response_count == pytest.approx(
            responses.mean()
        )
        assert stream.response_max == pytest.approx(responses.max())
        assert stream.energy == pytest.approx(result.power.sum() * 30.0)
        assert stream.power_max == pytest.approx(result.power.max())


class TestClusterWindowedParity:
    def _cluster_spec(self, **overrides):
        spec = get_scenario("workloads/zipfmix-cluster16", samples=6)
        return spec.with_overrides(**overrides) if overrides else spec

    def test_serial_windowed_matches_full(self):
        full = _summary_json(self._cluster_spec())
        for window in (1, 3, 1000):
            assert (
                _summary_json(self._cluster_spec(**{"control.window": window}))
                == full
            )

    def test_windowed_cluster_arrays_are_the_tail(self):
        full = run_scenario(self._cluster_spec())
        windowed = run_scenario(self._cluster_spec(**{"control.window": 2}))
        np.testing.assert_array_equal(
            windowed.global_arrivals, full.global_arrivals[-2:]
        )
        np.testing.assert_array_equal(
            windowed.gamma_history, full.gamma_history[-2:]
        )
        np.testing.assert_array_equal(
            windowed.per_module_on, full.per_module_on[-2:]
        )
        for win_mod, full_mod in zip(
            windowed.module_results, full.module_results
        ):
            np.testing.assert_array_equal(
                win_mod.arrivals, full_mod.arrivals[-2:]
            )

    def test_baseline_cluster_windowed_parity(self):
        spec = get_scenario("cluster-baseline-showdown", samples=6)
        full = _summary_json(spec)
        assert _summary_json(spec.with_overrides(**{"control.window": 4})) == full


class TestWindowValidation:
    def test_window_must_be_positive(self):
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError, match="control.window"):
            _module_spec().with_overrides(**{"control.window": 0})

    def test_builder_window(self):
        spec = (
            Scenario.module(m=4)
            .workload("steady", samples=4, rate=50.0)
            .window(256)
            .build()
        )
        assert spec.control.window == 256

    def test_window_round_trips_through_json(self):
        from repro.scenario import ScenarioSpec

        spec = _module_spec().with_overrides(**{"control.window": 17})
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec


class TestTraceKindFaultGuard:
    def test_fault_beyond_trace_file_fails_at_build(self, tmp_path):
        from repro.common import ConfigurationError
        from repro.scenario import Scenario
        from repro.scenario.runner import build_simulation

        path = tmp_path / "short.csv"
        path.write_text("# bin_seconds=120\n" + "100\n" * 8)
        spec = (
            Scenario.module(m=4)
            .workload("trace", path=str(path))
            .control(warmup_intervals=2)
            .with_failures((999_999.0, 0, "fail"))
            .build()
        )
        # The spec alone cannot know the file's span; materialising the
        # run must reject the event that would silently never fire.
        with pytest.raises(ConfigurationError, match="beyond"):
            build_simulation(spec)
