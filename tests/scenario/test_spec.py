"""Validation and serialisation of the declarative scenario specs."""

import dataclasses
import json

import pytest

from repro.common import ConfigurationError
from repro.scenario import (
    ControlSpec,
    FaultSpec,
    PlantSpec,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
)


class TestPlantSpec:
    def test_defaults_are_the_paper_module(self):
        plant = PlantSpec()
        assert plant.kind == "module"
        assert plant.module_size == 4

    def test_cluster_counts(self):
        plant = PlantSpec(kind="cluster", p=5, computers_per_module=4)
        assert (plant.p, plant.module_size) == (5, 4)

    def test_build_module_and_cluster(self):
        assert PlantSpec(kind="module", m=6).build().size == 6
        cluster = PlantSpec(kind="cluster", p=3).build()
        assert cluster.module_count == 3

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            PlantSpec(kind="mainframe")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            PlantSpec(m=0)
        with pytest.raises(ConfigurationError):
            PlantSpec(kind="cluster", p=-1)


class TestWorkloadSpec:
    def test_kind_defaults(self):
        assert WorkloadSpec(kind="synthetic").resolved_samples == 1600
        assert WorkloadSpec(kind="wc98").resolved_samples == 600

    def test_explicit_samples_win(self):
        assert WorkloadSpec(kind="wc98", samples=42).resolved_samples == 42

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="fractal")

    def test_steady_requires_rate(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="steady")
        assert WorkloadSpec(kind="steady", rate=80.0).rate == 80.0

    def test_rate_only_for_rated_kinds(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="wc98", rate=80.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="synthetic", rate=80.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, -0.001])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="workload.scale"):
            WorkloadSpec(scale=scale)

    @pytest.mark.parametrize("kind", ["steady", "flashcrowd", "zipfmix"])
    def test_non_positive_rate_rejected(self, kind):
        with pytest.raises(ConfigurationError, match="workload.rate"):
            WorkloadSpec(kind=kind, rate=0.0)


class TestWorkloadKindFields:
    """The kind-specific fields of the trace/flashcrowd/zipfmix kinds."""

    def test_new_kinds_have_default_samples(self):
        from repro.scenario.spec import DEFAULT_SAMPLES, WORKLOAD_KINDS

        assert set(DEFAULT_SAMPLES) == set(WORKLOAD_KINDS)
        assert WorkloadSpec(kind="flashcrowd").resolved_samples == 400
        assert WorkloadSpec(kind="zipfmix").resolved_samples == 400
        # The trace kind replays its whole file by default.
        assert (
            WorkloadSpec(kind="trace", path="some.csv").resolved_samples
            is None
        )

    def test_trace_requires_path(self):
        with pytest.raises(ConfigurationError, match="workload.path"):
            WorkloadSpec(kind="trace")

    def test_trace_options_validated(self):
        spec = WorkloadSpec(
            kind="trace", path="some.csv", column=2, units="rate"
        )
        assert spec.units == "rate"
        with pytest.raises(ConfigurationError, match="workload.units"):
            WorkloadSpec(kind="trace", path="some.csv", units="bogus")
        with pytest.raises(ConfigurationError, match="workload.column"):
            WorkloadSpec(kind="trace", path="some.csv", column=-1)
        with pytest.raises(ConfigurationError, match="workload.column"):
            WorkloadSpec(kind="trace", path="some.csv", column=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("path", "some.csv"),
            ("column", 1),
            ("units", "rate"),
            ("spike_every", 10),
            ("spike_magnitude", 2.0),
            ("spike_decay", 5.0),
            ("zipf_exponent", 0.8),
            ("rotate_every", 10),
        ],
    )
    def test_kind_specific_fields_rejected_elsewhere(self, field, value):
        with pytest.raises(ConfigurationError, match=f"workload.{field}"):
            WorkloadSpec(kind="synthetic", **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("spike_every", 0),
            ("spike_every", 1.5),
            ("spike_magnitude", 0.0),
            ("spike_decay", -1.0),
        ],
    )
    def test_flashcrowd_fields_validated(self, field, value):
        with pytest.raises(ConfigurationError, match=f"workload.{field}"):
            WorkloadSpec(kind="flashcrowd", **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("zipf_exponent", -0.1), ("rotate_every", 0), ("rotate_every", 2.5)],
    )
    def test_zipfmix_fields_validated(self, field, value):
        with pytest.raises(ConfigurationError, match=f"workload.{field}"):
            WorkloadSpec(kind="zipfmix", **{field: value})

    def test_every_new_field_round_trips_through_json(self):
        for workload in (
            WorkloadSpec(
                kind="trace", path="some.csv", column=3, units="rate"
            ),
            WorkloadSpec(
                kind="flashcrowd",
                rate=50.0,
                spike_every=60,
                spike_magnitude=3.0,
                spike_decay=12.0,
            ),
            WorkloadSpec(
                kind="zipfmix", rate=120.0, zipf_exponent=0.9, rotate_every=40
            ),
        ):
            spec = ScenarioSpec(workload=workload)
            rebuilt = ScenarioSpec.from_dict(json.loads(spec.to_json()))
            assert rebuilt == spec
            assert rebuilt.workload == workload

    def test_every_new_field_reachable_through_overrides(self):
        base = ScenarioSpec(
            workload=WorkloadSpec(kind="flashcrowd", rate=40.0)
        )
        for key, value in {
            "workload.rate": 55.0,
            "workload.spike_every": 30,
            "workload.spike_magnitude": 6.0,
            "workload.spike_decay": 9.0,
        }.items():
            updated = base.with_overrides(**{key: value})
            assert getattr(updated.workload, key.split(".")[1]) == value
        zipf = base.with_overrides(
            workload={"kind": "zipfmix", "spike_every": None, "rotate_every": 20}
        )
        assert zipf.workload.rotate_every == 20
        trace = base.with_overrides(
            workload={
                "kind": "trace",
                "rate": None,
                "path": "some.csv",
                "units": "count",
            }
        )
        assert trace.workload.path == "some.csv"

    def test_override_to_invalid_combination_rejected(self):
        base = ScenarioSpec(workload=WorkloadSpec(kind="synthetic"))
        with pytest.raises(ConfigurationError, match="workload.spike_every"):
            base.with_overrides(**{"workload.spike_every": 10})


class TestControlSpec:
    def test_hierarchy_default(self):
        control = ControlSpec()
        assert not control.is_baseline

    def test_baseline_modes(self):
        assert ControlSpec(mode="threshold-dvfs").is_baseline
        assert ControlSpec(mode="always-on-max").is_baseline

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ControlSpec(mode="magic")

    def test_param_overrides_validated_eagerly(self):
        ControlSpec(l0={"target_response": 2.0}, l1={"gamma_step": 0.1})
        with pytest.raises(ConfigurationError):
            ControlSpec(l0={"no_such_field": 1})
        with pytest.raises(ConfigurationError):
            ControlSpec(l1={"gamma_step": -0.5})

    def test_baseline_params_need_baseline(self):
        with pytest.raises(ConfigurationError):
            ControlSpec(baseline_params={"upper": 0.8})


class TestFaultSpec:
    def test_events_normalised(self):
        faults = FaultSpec(events=((120, 1, "fail"), (60.0, 0, "repair")))
        assert faults.events == ((120.0, 1, "fail"), (60.0, 0, "repair"))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(events=((-1.0, 0, "fail"),))

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(events=((0.0, 0, "explode"),))

    def test_non_integer_index_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(events=((0.0, 1.5, "fail"),))


class TestScenarioSpecValidation:
    def test_fault_index_checked_against_plant(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                plant=PlantSpec(kind="module", m=4),
                faults=FaultSpec(events=((0.0, 7, "fail"),)),
            )

    def test_faults_incompatible_with_baseline(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                control=ControlSpec(mode="always-on-max"),
                faults=FaultSpec(events=((0.0, 0, "fail"),)),
            )

    def test_fault_beyond_trace_rejected(self):
        """Shortening a failover drill below its fault times must fail
        loudly, not silently run a healthy trace."""
        from repro.scenario import get_scenario

        with pytest.raises(ConfigurationError, match="beyond"):
            get_scenario("module-failover", samples=12)
        # at full length it still builds
        assert get_scenario("module-failover").faults

    def test_fault_beyond_trace_names_the_offending_tuple(self):
        """The error must point at the exact event, not the whole spec."""
        from repro.scenario import get_scenario

        with pytest.raises(
            ConfigurationError,
            match=r"fault event \(3600\.0, .*lengthen workload\.samples",
        ):
            get_scenario("module-failover", samples=12)

    def test_fault_window_counts_two_minute_samples_at_any_l1_period(self):
        """Every workload builds ``samples`` two-minute bins: 64 samples
        span 7,680 s at a 60 s L1 period too."""
        from repro.scenario import get_scenario

        spec = get_scenario("module-failover", samples=64).with_overrides(
            **{"control.l1": {"period": 60.0}}
        )
        assert spec.faults.events[-1][0] == 7200.0
        with pytest.raises(
            ConfigurationError, match=r"7680s trace \(64 two-minute samples\)"
        ):
            spec.with_overrides(**{"faults.events": [[7680.0, 3, "repair"]]})

    def test_faults_incompatible_with_cluster(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                plant=PlantSpec(kind="cluster"),
                faults=FaultSpec(events=((0.0, 0, "fail"),)),
            )


class TestServiceSpec:
    def test_defaults(self):
        from repro.scenario import ServiceSpec

        service = ServiceSpec()
        assert service.tick_seconds == 0.0
        assert service.deadline_seconds is None
        assert service.override_ttl_seconds == 3600.0
        assert ScenarioSpec().service == service

    def test_validation(self):
        from repro.scenario import ServiceSpec

        with pytest.raises(ConfigurationError):
            ServiceSpec(tick_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceSpec(deadline_seconds=0.0)
        with pytest.raises(ConfigurationError):
            ServiceSpec(override_ttl_seconds=0.0)

    def test_round_trips_through_dict(self):
        from repro.scenario import ServiceSpec

        spec = ScenarioSpec(
            service=ServiceSpec(tick_seconds=0.5, deadline_seconds=0.2)
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.service == spec.service

    def test_dotted_overrides(self):
        spec = ScenarioSpec().with_overrides(
            **{"service.deadline_seconds": 0.25, "service.tick_seconds": 1.0}
        )
        assert spec.service.deadline_seconds == 0.25
        assert spec.service.tick_seconds == 1.0


class TestSerialisation:
    def _specimen(self) -> ScenarioSpec:
        return (
            Scenario.module(m=6)
            .workload("synthetic", samples=120)
            .control(l1={"gamma_step": 0.1}, warmup_intervals=12)
            .with_failures((240.0, 2, "fail"), (960.0, 2, "repair"))
            .seed(7)
            .describe("round-trip specimen")
            .build()
        )

    def test_dict_round_trip(self):
        spec = self._specimen()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self._specimen()
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_json_round_trip_cluster_baseline(self):
        spec = (
            Scenario.cluster(p=4)
            .workload("wc98", samples=60)
            .baseline("threshold-dvfs", upper=0.8)
            .build()
        )
        again = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert again == spec
        assert again.control.baseline_params == {"upper": 0.8}

    def test_to_dict_is_json_safe_plain_data(self):
        payload = self._specimen().to_dict()
        json.dumps(payload)  # must not raise
        assert isinstance(payload["faults"]["events"][0], list)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"plants": {}})

    def test_unknown_nested_field_rejected_cleanly(self):
        with pytest.raises(ConfigurationError, match="plant"):
            ScenarioSpec.from_dict({"plant": {"bogus": 1}})
        with pytest.raises(ConfigurationError, match="workload"):
            ScenarioSpec.from_dict({"workload": {"bogus": 1}})

    def test_with_overrides(self):
        spec = self._specimen()
        shorter = spec.with_overrides(samples=24, seed=9)
        assert shorter.workload.samples == 24
        assert shorter.seed == 9
        # everything else untouched
        assert shorter.control == spec.control
        assert shorter.faults == spec.faults

    def test_specs_are_frozen(self):
        spec = self._specimen()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1


class TestWithOverrides:
    """Nested-part overrides — the seam sweep axes expand through."""

    def _spec(self) -> ScenarioSpec:
        return Scenario.module(m=4).workload("synthetic", samples=48).build()

    def test_unknown_key_names_valid_fields(self):
        with pytest.raises(ConfigurationError) as excinfo:
            self._spec().with_overrides(**{"plant.q": 3})
        message = str(excinfo.value)
        assert "plant.q" in message
        assert "plant.m" in message and "control.mode" in message
        assert "\n" not in message  # one-line error

    def test_unknown_bare_key_rejected(self):
        with pytest.raises(ConfigurationError, match="samples"):
            self._spec().with_overrides(smaples=12)  # the classic typo

    def test_dotted_part_overrides(self):
        spec = self._spec().with_overrides(
            **{"plant.m": 6, "control.mode": "threshold-dvfs", "seed": 3}
        )
        assert spec.plant.m == 6
        assert spec.control.mode == "threshold-dvfs"
        assert spec.seed == 3
        # untouched siblings survive
        assert spec.workload.samples == 48
        assert spec.plant.kind == "module"

    def test_part_dict_overrides_merge(self):
        spec = self._spec().with_overrides(
            workload={"kind": "steady", "rate": 80.0, "samples": 20}
        )
        assert spec.workload.kind == "steady"
        assert spec.workload.rate == 80.0
        assert spec.workload.samples == 20

    def test_part_dict_rejects_unknown_inner_key(self):
        with pytest.raises(ConfigurationError, match="plant.q"):
            self._spec().with_overrides(plant={"q": 1})

    def test_part_key_with_non_dict_value_gets_targeted_error(self):
        with pytest.raises(ConfigurationError, match="must be a dict"):
            self._spec().with_overrides(plant=PlantSpec(m=6))
        with pytest.raises(ConfigurationError, match="must be a dict"):
            self._spec().with_overrides(workload=5)

    def test_conflicting_alias_routes_rejected(self):
        """`samples`, `workload.samples`, and workload={...} all hit the
        same field; two routes in one call must fail, not shadow."""
        spec = self._spec()
        with pytest.raises(ConfigurationError, match="conflicting"):
            spec.with_overrides(samples=5, **{"workload.samples": 6})
        with pytest.raises(ConfigurationError, match="conflicting"):
            spec.with_overrides(samples=5, workload={"samples": 6})
        with pytest.raises(ConfigurationError, match="conflicting"):
            spec.with_overrides(
                workload={"samples": 5}, **{"workload.samples": 6}
            )

    def test_overridden_spec_is_revalidated(self):
        with pytest.raises(ConfigurationError):
            self._spec().with_overrides(**{"plant.m": 0})
        with pytest.raises(ConfigurationError):
            self._spec().with_overrides(**{"workload.rate": 50.0})  # not steady

    def test_top_level_name_and_description(self):
        spec = self._spec().with_overrides(name="x", description="y")
        assert (spec.name, spec.description) == ("x", "y")

    def test_fault_events_overridable(self):
        spec = self._spec().with_overrides(
            **{"faults.events": ((240.0, 1, "fail"),)}
        )
        assert spec.faults.events == ((240.0, 1, "fail"),)

    def test_no_overrides_returns_self(self):
        spec = self._spec()
        assert spec.with_overrides() is spec

    def test_override_keys_lists_every_part_field(self):
        keys = ScenarioSpec.override_keys()
        for expected in (
            "samples", "seed", "plant.m", "workload.scale",
            "control.l1", "faults.events",
        ):
            assert expected in keys


#: The process-pool knobs: deleted with the pool, not kept as aliases.
REMOVED_CONTROL_FIELDS = {
    "execution": "sharded",
    "shard_workers": 2,
    "pipeline": "off",
}


class TestRemovedPoolKnobs:
    """The pool's ``control.*`` fields fail as unknown keys, in one line."""

    @pytest.mark.parametrize("field", sorted(REMOVED_CONTROL_FIELDS))
    def test_with_overrides_rejects(self, field):
        spec = ScenarioSpec(plant=PlantSpec(kind="cluster"))
        with pytest.raises(ConfigurationError) as excinfo:
            spec.with_overrides(
                **{f"control.{field}": REMOVED_CONTROL_FIELDS[field]}
            )
        message = str(excinfo.value)
        assert message.startswith(f"unknown override key 'control.{field}'")
        assert "\n" not in message

    @pytest.mark.parametrize("field", sorted(REMOVED_CONTROL_FIELDS))
    def test_from_dict_rejects(self, field):
        payload = ScenarioSpec(plant=PlantSpec(kind="cluster")).to_dict()
        payload["control"][field] = REMOVED_CONTROL_FIELDS[field]
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(payload)
        message = str(excinfo.value)
        assert message.startswith("invalid scenario 'control' payload")
        assert repr(field) in message
        assert "\n" not in message


class TestClusterFaults:
    def _cluster(self, events):
        return ScenarioSpec(
            plant=PlantSpec(kind="cluster", p=2, computers_per_module=2),
            faults=FaultSpec(events=events),
        )

    def test_cluster_events_accepted_and_round_trip(self):
        spec = self._cluster(((60.0, 1, 0, "fail"), (120.0, 1, 0, "repair")))
        assert spec.faults.is_cluster_level
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.faults.events == spec.faults.events

    def test_cluster_event_indices_checked(self):
        with pytest.raises(ConfigurationError):
            self._cluster(((60.0, 5, 0, "fail"),))
        with pytest.raises(ConfigurationError):
            self._cluster(((60.0, 0, 7, "fail"),))

    def test_cluster_rejects_module_form(self):
        with pytest.raises(ConfigurationError):
            self._cluster(((60.0, 0, "fail"),))

    def test_module_plant_rejects_cluster_form(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(faults=FaultSpec(events=((60.0, 0, 0, "fail"),)))

    def test_mixed_event_arity_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(events=((60.0, 0, "fail"), (90.0, 0, 0, "fail")))

    def test_cluster_baseline_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                plant=PlantSpec(kind="cluster", p=2, computers_per_module=2),
                control=ControlSpec(mode="always-on-max"),
                faults=FaultSpec(events=((60.0, 0, 0, "fail"),)),
            )

    def test_cluster_event_beyond_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                plant=PlantSpec(kind="cluster", p=2, computers_per_module=2),
                workload=WorkloadSpec(kind="wc98", samples=10),
                faults=FaultSpec(events=((100 * 120.0, 0, 0, "fail"),)),
            )

    def test_non_sequence_event_rejected_cleanly(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(events=(5,))
