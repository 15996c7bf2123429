"""Tests for configuration dataclasses and paper factory functions."""

import pytest

from repro.common import ConfigurationError
from repro.cluster import (
    ClusterSpec,
    ComputerSpec,
    ModuleSpec,
    paper_cluster_spec,
    paper_module_spec,
    processor_profile,
    scaled_module_spec,
)


def _computer(name="C1", profile="c1", **kwargs):
    return ComputerSpec(name=name, processor=processor_profile(profile), **kwargs)


class TestComputerSpec:
    def test_defaults_match_paper(self):
        spec = _computer()
        assert spec.base_power == pytest.approx(0.75)
        assert spec.boot_delay == pytest.approx(120.0)

    def test_speed_factor_derived_from_top_frequency(self):
        c4 = _computer(profile="c4")
        c1 = _computer(profile="c1")
        assert c4.effective_speed_factor == pytest.approx(1.0)
        assert c1.effective_speed_factor == pytest.approx(0.7)

    def test_explicit_speed_factor_wins(self):
        spec = _computer(speed_factor=3.0)
        assert spec.effective_speed_factor == 3.0

    def test_rejects_negative_base_power(self):
        with pytest.raises(ConfigurationError):
            _computer(base_power=-1.0)

    def test_rejects_zero_speed_factor(self):
        with pytest.raises(ConfigurationError):
            _computer(speed_factor=0.0)


class TestModuleSpec:
    def test_size(self):
        assert paper_module_spec().size == 4

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ModuleSpec(name="M", computers=())

    def test_rejects_duplicate_names(self):
        c = _computer()
        with pytest.raises(ConfigurationError):
            ModuleSpec(name="M", computers=(c, c))

    def test_max_service_rate(self):
        module = paper_module_spec()
        # Speed factors: 0.7 + 0.8 + 0.935 + 1.0 = 3.435 at c = 0.0175 s.
        expected = (0.7 + 0.8 + 1.87 / 2.0 + 1.0) / 0.0175
        assert module.max_service_rate(0.0175) == pytest.approx(expected)


class TestPaperFactories:
    def test_paper_module_uses_c1_to_c4(self):
        module = paper_module_spec()
        names = [c.processor.name for c in module.computers]
        assert names == ["c1", "c2", "c3", "c4"]

    def test_scaled_module_cycles_profiles(self):
        module = scaled_module_spec(6)
        assert module.size == 6
        assert module.computers[4].processor.name == "c1"

    def test_paper_cluster_shape(self):
        cluster = paper_cluster_spec()
        assert cluster.module_count == 4
        assert sum(m.size for m in cluster.modules) == 16

    def test_twenty_computer_variant(self):
        cluster = paper_cluster_spec(p=5)
        assert sum(m.size for m in cluster.modules) == 20

    def test_modules_are_heterogeneous(self):
        cluster = paper_cluster_spec()
        mixes = {
            tuple(c.processor.name for c in m.computers) for m in cluster.modules
        }
        assert len(mixes) == cluster.module_count

    def test_cluster_rejects_duplicate_module_names(self):
        module = paper_module_spec()
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="X", modules=(module, module))


class TestPayloadErrors:
    def test_a_cluster_needs_a_module(self):
        with pytest.raises(ConfigurationError, match="at least one module"):
            ClusterSpec("empty", ())

    def test_a_computer_payload_names_its_missing_key(self):
        payload = ComputerSpec(name="C", processor=processor_profile("c1")).to_dict()
        del payload["base_power"]
        with pytest.raises(ConfigurationError, match="computer payload missing key 'base_power'"):
            ComputerSpec.from_dict(payload)

    def test_a_module_payload_names_its_missing_key(self):
        payload = paper_module_spec().to_dict()
        del payload["computers"]
        with pytest.raises(ConfigurationError, match="module payload missing key 'computers'"):
            ModuleSpec.from_dict(payload)
