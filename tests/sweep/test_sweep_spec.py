"""SweepSpec: axes, deterministic expansion, serialisation."""

import pytest

from repro.common import ConfigurationError
from repro.scenario import Scenario
from repro.sweep import GridAxis, ListAxis, RandomAxis, SweepSpec
from repro.sweep.spec import axis_from_dict, axis_to_dict


def _base():
    return Scenario.module(m=4).workload("synthetic", samples=12).build()


class TestAxes:
    def test_grid_points(self):
        axis = GridAxis(field="seed", values=(0, 1, 2))
        assert axis.expand() == ({"seed": 0}, {"seed": 1}, {"seed": 2})
        assert axis.fields == ("seed",)

    def test_grid_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError, match="valid keys"):
            GridAxis(field="plant.q", values=(1,))

    def test_grid_rejects_empty_values(self):
        with pytest.raises(ConfigurationError):
            GridAxis(field="seed", values=())

    def test_list_points_move_several_fields(self):
        axis = ListAxis(
            points=(
                {"plant.m": 4},
                {"plant.m": 6, "control.l1": {"gamma_step": 0.1}},
            )
        )
        assert axis.fields == ("plant.m", "control.l1")
        assert len(axis.expand()) == 2

    @pytest.mark.parametrize(
        "field, values",
        [
            ("control.execution", ("serial", "sharded")),
            ("control.shard_workers", (1, 2)),
            ("control.pipeline", ("off", "boundary")),
        ],
    )
    def test_removed_pool_fields_are_not_axes(self, field, values):
        with pytest.raises(
            ConfigurationError,
            match=f"^grid axis: unknown scenario override key '{field}'",
        ):
            GridAxis(field=field, values=values)

    def test_list_rejects_bad_points(self):
        with pytest.raises(ConfigurationError):
            ListAxis(points=({},))
        with pytest.raises(ConfigurationError, match="valid keys"):
            ListAxis(points=({"bogus": 1},))

    def test_random_choices_deterministic(self):
        axis = RandomAxis(field="workload.kind", count=5, seed=3,
                          choices=("synthetic", "wc98"))
        assert axis.expand() == axis.expand()
        assert all(p["workload.kind"] in ("synthetic", "wc98")
                   for p in axis.expand())

    def test_random_integer_range(self):
        axis = RandomAxis(field="seed", count=8, seed=1, low=0, high=10,
                          integer=True)
        values = [p["seed"] for p in axis.expand()]
        assert all(isinstance(v, int) and 0 <= v <= 10 for v in values)
        # Different axis seeds draw different samples.
        other = RandomAxis(field="seed", count=8, seed=2, low=0, high=10,
                           integer=True)
        assert values != [p["seed"] for p in other.expand()]

    def test_random_float_range(self):
        axis = RandomAxis(field="workload.scale", count=4, seed=0,
                          low=0.5, high=2.0)
        values = [p["workload.scale"] for p in axis.expand()]
        assert all(isinstance(v, float) and 0.5 <= v <= 2.0 for v in values)

    def test_random_needs_choices_or_range(self):
        with pytest.raises(ConfigurationError):
            RandomAxis(field="seed", count=2)
        with pytest.raises(ConfigurationError, match="not both"):
            RandomAxis(field="seed", count=2, low=0, high=1, choices=(1, 2))


class TestAxisPayloads:
    """One axis to and from its plain-dict form (a sweep file's ``axes``)."""

    def test_a_payload_without_kind_is_a_grid(self):
        axis = axis_from_dict({"field": "seed", "values": [0, 1]})
        assert axis == GridAxis(field="seed", values=(0, 1))
        assert axis_to_dict(axis) == {"field": "seed", "values": [0, 1], "kind": "grid"}

    def test_a_non_dict_payload_is_rejected(self):
        with pytest.raises(
            ConfigurationError, match="^sweep axis payload must be a dict, got list$"
        ):
            axis_from_dict(["seed", 0, 1])

    def test_a_stray_field_fails_in_one_line_naming_the_kind(self):
        with pytest.raises(ConfigurationError) as caught:
            axis_from_dict({"kind": "random", "field": "seed", "choices": [1], "size": 3})
        message = str(caught.value)
        assert message.startswith("invalid random axis payload")
        assert "'size'" in message and "\n" not in message

    def test_a_range_axis_drops_its_unset_choices(self):
        axis = RandomAxis(field="plant.m", count=2, seed=5, low=4, high=10, integer=True)
        payload = axis_to_dict(axis)
        assert "choices" not in payload
        assert axis_from_dict(payload) == axis

    def test_a_choices_axis_drops_its_unset_range(self):
        axis = RandomAxis(field="workload.kind", count=3, choices=("synthetic", "wc98"))
        payload = axis_to_dict(axis)
        assert "low" not in payload and "high" not in payload
        assert payload["choices"] == ["synthetic", "wc98"]
        assert axis_from_dict(payload) == axis

    def test_list_points_come_out_as_copies(self):
        axis = ListAxis(points=({"plant.m": 4, "seed": 1},))
        payload = axis_to_dict(axis)
        payload["points"][0]["seed"] = 99
        assert axis.points == ({"plant.m": 4, "seed": 1},)
        assert axis_from_dict(axis_to_dict(axis)) == axis


class TestSweepSpec:
    def _sweep(self):
        return SweepSpec(
            name="t",
            base=_base(),
            axes=(
                GridAxis(field="control.mode",
                         values=("hierarchy", "threshold-dvfs")),
                GridAxis(field="seed", values=(0, 1, 2)),
            ),
        )

    def test_needs_axes(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(base=_base(), axes=())

    def test_rejects_duplicate_fields_across_axes(self):
        with pytest.raises(ConfigurationError, match="more than one"):
            SweepSpec(
                base=_base(),
                axes=(
                    GridAxis(field="seed", values=(0,)),
                    GridAxis(field="seed", values=(1,)),
                ),
            )

    def test_rejects_aliased_duplicate_fields_across_axes(self):
        """`samples` and `workload.samples` are two spellings of the
        same scenario field — sweeping both is a conflict."""
        with pytest.raises(ConfigurationError, match="more than one"):
            SweepSpec(
                base=_base(),
                axes=(
                    GridAxis(field="samples", values=(10, 20)),
                    GridAxis(field="workload.samples", values=(30,)),
                ),
            )

    def test_size_and_expansion_order(self):
        sweep = self._sweep()
        assert sweep.size() == 6
        points = sweep.expand()
        assert len(points) == 6
        # Last axis fastest, like nested loops.
        assert [p.overrides["seed"] for p in points] == [0, 1, 2, 0, 1, 2]
        assert [p.overrides["control.mode"] for p in points[:3]] == ["hierarchy"] * 3
        assert [p.index for p in points] == list(range(6))

    def test_expansion_applies_overrides(self):
        points = self._sweep().expand()
        assert points[0].scenario.control.mode == "hierarchy"
        assert points[3].scenario.control.mode == "threshold-dvfs"
        assert points[4].scenario.seed == 1

    def test_run_ids_deterministic_and_unique(self):
        a = self._sweep().expand()
        b = self._sweep().expand()
        assert [p.run_id for p in a] == [p.run_id for p in b]
        assert len({p.run_id for p in a}) == len(a)

    def test_samples_override_changes_run_ids(self):
        full = self._sweep().expand()
        short = self._sweep().expand(samples=6)
        assert all(p.scenario.workload.samples == 6 for p in short)
        assert {p.run_id for p in full}.isdisjoint(p.run_id for p in short)

    def test_registered_base_resolves(self):
        sweep = SweepSpec(
            base="paper/fig4-module4",
            axes=(GridAxis(field="seed", values=(0, 1)),),
        )
        points = sweep.expand(samples=8)
        assert all(p.scenario.plant.m == 4 for p in points)
        assert all(p.scenario.workload.samples == 8 for p in points)

    def test_unknown_base_name_fails_on_expand(self):
        sweep = SweepSpec(
            base="paper/fig99",
            axes=(GridAxis(field="seed", values=(0,)),),
        )
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            sweep.expand()

    def test_cross_axis_kinds_compose(self):
        sweep = SweepSpec(
            base=_base(),
            axes=(
                ListAxis(points=({"plant.m": 4}, {"plant.m": 6})),
                RandomAxis(field="seed", count=3, seed=5, low=0, high=100,
                           integer=True),
            ),
        )
        points = sweep.expand()
        assert len(points) == 6
        seeds = [p.overrides["seed"] for p in points[:3]]
        assert [p.overrides["seed"] for p in points[3:]] == seeds


class TestSerialisation:
    def _sweep(self):
        return SweepSpec(
            name="round/trip",
            description="specimen",
            base=_base(),
            axes=(
                GridAxis(field="plant.m", values=(4, 6)),
                ListAxis(points=({"control.mode": "hierarchy"},)),
                RandomAxis(field="seed", count=2, seed=9, low=0, high=50,
                           integer=True),
            ),
        )

    def test_json_round_trip(self):
        sweep = self._sweep()
        again = SweepSpec.from_json(sweep.to_json())
        assert again == sweep
        assert again.digest() == sweep.digest()

    def test_named_base_round_trip(self):
        sweep = SweepSpec(
            base="paper/fig4-module4",
            axes=(GridAxis(field="seed", values=(0,)),),
        )
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_json_is_plain_data(self):
        import json

        payload = self._sweep().to_dict()
        json.dumps(payload)  # must not raise
        kinds = [axis["kind"] for axis in payload["axes"]]
        assert kinds == ["grid", "list", "random"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep fields"):
            SweepSpec.from_dict({"bases": {}})

    def test_unknown_axis_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="axis kind"):
            SweepSpec.from_dict(
                {"base": "paper/fig4-module4",
                 "axes": [{"kind": "spiral", "field": "seed"}]}
            )

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_json("{not json")

    def test_digest_tracks_semantic_content_only(self):
        """Rewording a description must not invalidate half-finished
        stores; changing what actually runs must."""
        sweep = self._sweep()
        reworded = SweepSpec.from_dict(
            {**sweep.to_dict(), "description": "changed", "name": "renamed"}
        )
        assert reworded.digest() == sweep.digest()
        widened = SweepSpec.from_dict(
            {
                **sweep.to_dict(),
                "axes": [{"kind": "grid", "field": "plant.m", "values": [4, 6, 10]}],
            }
        )
        assert widened.digest() != sweep.digest()


class TestResolveBase:
    def test_a_named_base_is_looked_up_and_shortened(self):
        from repro.scenario import get_scenario

        sweep = SweepSpec(
            base="paper/fig4-module4", axes=(GridAxis(field="seed", values=(0,)),)
        )
        registered = get_scenario("paper/fig4-module4")
        assert sweep.resolve_base() == registered
        shortened = sweep.resolve_base(samples=12)
        assert shortened == registered.with_overrides(samples=12)
        assert shortened.workload.samples == 12

    def test_an_inline_base_is_used_as_given(self):
        base = _base()
        sweep = SweepSpec(base=base, axes=(GridAxis(field="seed", values=(0,)),))
        assert sweep.resolve_base() == base
        assert sweep.resolve_base(samples=6).workload.samples == 6
