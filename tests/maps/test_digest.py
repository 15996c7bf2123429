"""Content digests: stable identity, name-blind, parameter-sensitive."""

import dataclasses
import re

import pytest

from repro.cluster.processor import processor_profile
from repro.common.errors import ConfigurationError
from repro.cluster.specs import ComputerSpec, ModuleSpec, paper_module_spec
from repro.controllers.l2 import ModuleCostMap
from repro.controllers.params import L0Params, L1Params
from repro.core.cost import CostWeights
from repro.maps.digest import (
    RUN_ONLY_L1_FIELDS,
    behavior_map_digest,
    module_map_digest,
)
from repro.maps.provider import MapProvider

#: A value other than the default for every L0Params field and weight.
L0_CHANGES = {
    "target_response": 2.0,
    "horizon": 2,
    "period": 60.0,
    "robustness_margin": 0.1,
    "weights.tracking": 50.0,
    "weights.operating": 2.0,
    "weights.control_change": 1.0,
}

#: A value other than the default for every L1Params field.
L1_CHANGES = {
    "period": 240.0,
    "gamma_step": 0.1,
    "switching_weight": 4.0,
    "use_uncertainty_band": False,
    "gamma_neighborhood_moves": 1,
    "max_gamma_candidates": 8,
    "band_window": 5,
}


def _computer(name: str = "C1", profile: str = "c4") -> ComputerSpec:
    return ComputerSpec(name=name, processor=processor_profile(profile))


class TestBehaviorDigest:
    def test_stable_across_calls(self):
        d1 = behavior_map_digest(_computer(), L0Params(), 120.0)
        d2 = behavior_map_digest(_computer(), L0Params(), 120.0)
        assert d1 == d2

    def test_name_does_not_enter_identity(self):
        # M2's machines must hit M1's cache entries.
        d1 = behavior_map_digest(_computer("M1.C1"), L0Params(), 120.0)
        d2 = behavior_map_digest(_computer("M7.C3"), L0Params(), 120.0)
        assert d1 == d2

    def test_boot_fields_do_not_enter_identity(self):
        # The behaviour-map cell simulation never reads boot delay or
        # boot energy, so they must not fragment the cache.
        base = _computer()
        tweaked = ComputerSpec(
            name="C1",
            processor=processor_profile("c4"),
            boot_delay=999.0,
            boot_energy=123.0,
        )
        assert behavior_map_digest(base, L0Params(), 120.0) == (
            behavior_map_digest(tweaked, L0Params(), 120.0)
        )

    def test_processor_changes_identity(self):
        d1 = behavior_map_digest(_computer(profile="c1"), L0Params(), 120.0)
        d2 = behavior_map_digest(_computer(profile="c4"), L0Params(), 120.0)
        assert d1 != d2

    def test_l0_params_change_identity(self):
        base = behavior_map_digest(_computer(), L0Params(), 120.0)
        assert base != behavior_map_digest(
            _computer(), L0Params(target_response=2.0), 120.0
        )
        assert base != behavior_map_digest(
            _computer(),
            L0Params(weights=CostWeights(tracking=50.0)),
            120.0,
        )

    def test_l1_period_changes_identity(self):
        base = behavior_map_digest(_computer(), L0Params(), 120.0)
        assert base != behavior_map_digest(_computer(), L0Params(), 240.0)

    def test_every_l0_field_enters_identity(self):
        fields = {f.name for f in dataclasses.fields(L0Params)} - {"weights"}
        fields |= {f"weights.{f.name}" for f in dataclasses.fields(CostWeights)}
        assert set(L0_CHANGES) == fields
        base = behavior_map_digest(_computer(), L0Params(), 120.0)
        for name, value in L0_CHANGES.items():
            if name.startswith("weights."):
                value = {"weights": {name.partition(".")[2]: value}}
            else:
                value = {name: value}
            assert base != behavior_map_digest(_computer(), L0Params(**value), 120.0), name


class TestModuleDigest:
    def test_homogeneous_modules_share_identity(self):
        computers = tuple(
            ComputerSpec(name=f"M1.C{j}", processor=processor_profile("c4"))
            for j in range(3)
        )
        other = tuple(
            ComputerSpec(name=f"M9.C{j}", processor=processor_profile("c4"))
            for j in range(3)
        )
        d1 = module_map_digest(
            ModuleSpec("M1", computers), L1Params(), L0Params()
        )
        d2 = module_map_digest(ModuleSpec("M9", other), L1Params(), L0Params())
        assert d1 == d2

    def test_machine_order_matters(self):
        spec = paper_module_spec()
        reordered = ModuleSpec("M1", tuple(reversed(spec.computers)))
        assert module_map_digest(spec, L1Params(), L0Params()) != (
            module_map_digest(reordered, L1Params(), L0Params())
        )

    def test_l1_params_change_identity(self):
        spec = paper_module_spec()
        base = module_map_digest(spec, L1Params(), L0Params())
        assert base != module_map_digest(
            spec, L1Params(gamma_step=0.1), L0Params()
        )

    def test_every_l1_field_but_the_run_only_ones_enters_identity(self):
        assert set(L1_CHANGES) == {f.name for f in dataclasses.fields(L1Params)}
        spec = paper_module_spec()
        base = module_map_digest(spec, L1Params(), L0Params())
        for name, value in L1_CHANGES.items():
            changed = module_map_digest(spec, L1Params(**{name: value}), L0Params())
            assert (changed == base) is (name in RUN_ONLY_L1_FIELDS), name

    def test_l0_params_change_identity(self):
        spec = paper_module_spec()
        base = module_map_digest(spec, L1Params(), L0Params())
        assert base != module_map_digest(
            spec, L1Params(), L0Params(weights={"tracking": 50.0})
        )

    def test_kind_separates_behavior_and_module(self):
        # A one-computer module and its computer share training content
        # shape but must never collide in the cache.
        computer = _computer()
        module = ModuleSpec("M1", (computer,))
        assert behavior_map_digest(computer, L0Params(), 120.0) != (
            module_map_digest(module, L1Params(), L0Params())
        )


class TestNumberSpelling:
    """An int and its float twin are one identity: training reads one number."""

    def test_l1_period_spelled_as_an_int(self):
        spec = paper_module_spec()
        assert module_map_digest(spec, L1Params(period=120), L0Params()) == (
            module_map_digest(spec, L1Params(period=120.0), L0Params())
        )

    def test_l0_target_spelled_as_an_int(self):
        computer = _computer()
        assert behavior_map_digest(
            computer, L0Params(target_response=4), 120.0
        ) == behavior_map_digest(computer, L0Params(target_response=4.0), 120.0)

    def test_weights_spelled_as_ints(self):
        computer = _computer()
        assert behavior_map_digest(
            computer, L0Params(weights={"tracking": 100, "operating": 1}), 120.0
        ) == behavior_map_digest(computer, L0Params(), 120.0)

    @pytest.mark.parametrize(
        "make,name",
        [
            (L0Params, "target_response"),
            (L0Params, "period"),
            (L0Params, "robustness_margin"),
            (CostWeights, "tracking"),
            (CostWeights, "operating"),
            (CostWeights, "control_change"),
            (L1Params, "period"),
            (L1Params, "gamma_step"),
            (L1Params, "switching_weight"),
        ],
    )
    def test_every_float_field_stores_an_int_as_its_float(self, make, name):
        value = getattr(make(**{name: 3}), name)
        assert type(value) is float and value == 3.0

    def test_counts_and_flags_keep_their_type(self):
        assert type(L0Params(horizon=2).horizon) is int
        assert L1Params(use_uncertainty_band=True).use_uncertainty_band is True

    @pytest.mark.parametrize(
        "make,fields,message",
        [
            (L0Params, {"period": 0}, "period must be > 0, got 0"),
            (L0Params, {"robustness_margin": -1}, "robustness_margin must be >= 0, got -1"),
            (L1Params, {"gamma_step": -2}, "gamma_step must be > 0, got -2"),
            (CostWeights, {"tracking": -5}, "tracking must be >= 0, got -5"),
        ],
    )
    def test_rejected_ints_keep_their_message(self, make, fields, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            make(**fields)

    def test_an_int_past_the_float_range_fails_in_one_line(self):
        with pytest.raises(ConfigurationError, match="period must be a finite number"):
            L1Params(period=10**400)


class TestRunOnlyFields:
    """Each field the identity leaves out is proven unread by training."""

    @pytest.fixture(scope="class")
    def trained(self):
        spec = paper_module_spec()
        maps = MapProvider().behavior_maps(spec, L0Params(), L1Params())

        def train(**changes):
            module_map = ModuleCostMap.train(spec, maps, L1Params(**changes), L0Params())
            return module_map.to_dict()

        return train

    @pytest.mark.parametrize("name", sorted(RUN_ONLY_L1_FIELDS))
    def test_training_ignores_the_field(self, trained, name):
        # Module-map training decides every cell without a band (delta
        # 0), so the band settings shape no table.
        changed = {name: L1_CHANGES[name]}
        spec = paper_module_spec()
        assert module_map_digest(spec, L1Params(**changed), L0Params()) == (
            module_map_digest(spec, L1Params(), L0Params())
        )
        assert trained(**changed) == trained()
