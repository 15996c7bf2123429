"""The sweep registry and its built-in campaigns."""

import pytest

from repro.common import ConfigurationError
from repro.sweep import (
    GridAxis,
    SweepSpec,
    get_sweep,
    list_sweeps,
    register_sweep,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = [row.name for row in list_sweeps()]
        assert "module-showdown" in names
        assert "module-seeds" in names

    def test_get_unknown_sweep_names_known_ones(self):
        with pytest.raises(ConfigurationError, match="module-showdown"):
            get_sweep("nope")

    def test_listing_is_sorted_with_run_counts(self):
        rows = list_sweeps()
        assert [row.name for row in rows] == sorted(row.name for row in rows)
        showdown = {row.name: row for row in rows}["module-showdown"]
        assert showdown.runs == 16
        assert showdown.description

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_sweep("module-showdown")
            def _clash():
                return get_sweep("module-seeds")

    def test_user_registration_and_replace(self):
        @register_sweep("test/mine", replace_existing=True)
        def _mine():
            return SweepSpec(
                base="paper/fig4-module4",
                axes=(GridAxis(field="seed", values=(0,)),),
            )

        sweep = get_sweep("test/mine")
        assert sweep.name == "test/mine"  # name attached from the registry
        assert sweep.size() == 1

    def test_module_showdown_spans_modes_sizes_seeds(self):
        sweep = get_sweep("module-showdown")
        assert sweep.axis_fields == ("control.mode", "plant.m", "seed")
        points = sweep.expand(samples=6)
        assert len(points) == 16
        modes = {p.scenario.control.mode for p in points}
        assert modes == {"hierarchy", "threshold-dvfs"}
        assert {p.scenario.plant.m for p in points} == {4, 6}
        assert {p.scenario.seed for p in points} == {0, 1, 2, 3}
