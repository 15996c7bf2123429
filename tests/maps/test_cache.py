"""The on-disk content-addressed artifact cache."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.maps.cache import (
    CACHE_ENV_VAR,
    MapCache,
    env_cache_dir,
    resolve_cache_dir,
)
from repro.maps.digest import MAPS_SCHEMA_VERSION

DIGEST = "a" * 64


class TestResolution:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert resolve_cache_dir(None).name == "repro-maps"

    def test_env_cache_dir_has_no_home_default(self, tmp_path, monkeypatch):
        # The run-side chain stops at the env var: a bare run must not
        # implicitly write under ~/.cache.
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert env_cache_dir() is None
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert env_cache_dir() == str(tmp_path)


class TestStoreLoad:
    def test_round_trip(self, tmp_path):
        cache = MapCache(tmp_path)
        artifact = {"table": [1.0, 2.5], "nested": {"x": 3}}
        path = cache.store("behavior", DIGEST, artifact, "test artifact")
        assert path.is_file()
        assert cache.load_entry("behavior", DIGEST) == (
            artifact,
            "test artifact",
        )

    def test_miss_returns_none(self, tmp_path):
        assert MapCache(tmp_path).load_entry("behavior", DIGEST) is None

    def test_kinds_do_not_collide(self, tmp_path):
        cache = MapCache(tmp_path)
        cache.store("behavior", DIGEST, {"kind": "b"})
        assert cache.load_entry("module", DIGEST) is None

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            MapCache(tmp_path).path_for("tree", DIGEST)

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        cache = MapCache(tmp_path)
        cache.path_for("behavior", DIGEST).parent.mkdir(
            parents=True, exist_ok=True
        )
        cache.path_for("behavior", DIGEST).write_text("{not json")
        assert cache.load_entry("behavior", DIGEST) is None

    def test_non_dict_json_reads_as_miss(self, tmp_path):
        # Valid JSON of a foreign shape must miss, not crash.
        cache = MapCache(tmp_path)
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path_for("behavior", DIGEST).write_text("[]")
        assert cache.load_entry("behavior", DIGEST) is None
        assert cache.entries()[0].description == "(unreadable)"

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        cache = MapCache(tmp_path)
        cache.store("behavior", DIGEST, {"v": 1})
        path = cache.path_for("behavior", DIGEST)
        wrapper = json.loads(path.read_text())
        wrapper["schema"] = MAPS_SCHEMA_VERSION + 1
        path.write_text(json.dumps(wrapper))
        assert cache.load_entry("behavior", DIGEST) is None

    def test_digest_mismatch_reads_as_miss(self, tmp_path):
        # A renamed/copied file must not serve under the wrong identity.
        cache = MapCache(tmp_path)
        cache.store("behavior", DIGEST, {"v": 1})
        other = "b" * 64
        cache.path_for("behavior", DIGEST).rename(
            cache.path_for("behavior", other)
        )
        assert cache.load_entry("behavior", other) is None


class TestEntriesAndClear:
    def test_entries_listed_sorted(self, tmp_path):
        cache = MapCache(tmp_path)
        cache.store("module", "f" * 64, {"v": 1}, "module artifact")
        cache.store("behavior", DIGEST, {"v": 2}, "behavior artifact")
        entries = cache.entries()
        assert [e.kind for e in entries] == ["behavior", "module"]
        assert entries[0].digest == DIGEST
        assert entries[0].description == "behavior artifact"
        assert entries[0].size_bytes > 0

    def test_foreign_json_files_are_not_listed(self, tmp_path):
        cache = MapCache(tmp_path)
        cache.store("behavior", DIGEST, {"v": 1})
        (tmp_path / "notes.json").write_text("{}")
        (tmp_path / "module.json").write_text("{}")  # no digest part
        assert [e.digest for e in cache.entries()] == [DIGEST]

    def test_missing_directory_lists_empty(self, tmp_path):
        assert MapCache(tmp_path / "nope").entries() == []

    def test_clear_removes_everything(self, tmp_path):
        cache = MapCache(tmp_path)
        cache.store("behavior", DIGEST, {"v": 1})
        cache.store("module", "c" * 64, {"v": 2})
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        # The residue of a writer killed between mkstemp and rename.
        cache = MapCache(tmp_path)
        cache.store("behavior", DIGEST, {"v": 1})
        (tmp_path / ".behavior-abc123.tmp").write_text("{partial")
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []
