"""On-disk content-addressed cache for trained-map artifacts.

One JSON file per artifact, named by its content digest
(``behavior-<digest>.json`` / ``module-<digest>.json``), so a cache
entry can never be stale: anything that would change the trained table
changes the digest, which is a different file. Writes go through a
temp-file + atomic rename, so concurrent writers (sweep workers racing
on the same digest) at worst overwrite each other with byte-identical
content.

A :class:`MapCache` built without an explicit path resolves the
``REPRO_MAP_CACHE`` environment variable, then the default
``~/.cache/repro-maps`` (used by ``repro train list/clear``). Scenario
*runs* deliberately stop one step earlier — ``control.map_cache``
falling back to the env var only (:func:`env_cache_dir`) — so a bare
run never writes under the user's home implicitly.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ConfigurationError
from repro.maps.digest import MAPS_SCHEMA_VERSION

#: Environment variable naming the cache directory when no explicit
#: path is given (``ControlSpec.map_cache`` / ``--map-cache`` win).
CACHE_ENV_VAR = "REPRO_MAP_CACHE"

#: Fallback cache location under the user's home.
DEFAULT_CACHE_DIR = "~/.cache/repro-maps"

#: Artifact kinds the cache stores (also the filename prefixes).
ARTIFACT_KINDS = ("behavior", "module")


def resolve_cache_dir(directory: "Path | str | None" = None) -> Path:
    """Resolve the cache directory (explicit > env var > default)."""
    if directory is None:
        directory = os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR
    return Path(directory).expanduser()


def env_cache_dir() -> "str | None":
    """The ``REPRO_MAP_CACHE`` directory, or ``None`` when unset.

    Scenario runs resolve their cache as ``control.map_cache`` falling
    back to this — never to the ``~/.cache`` default, so a bare run
    stays hermetic (no implicit writes under the user's home).
    """
    return os.environ.get(CACHE_ENV_VAR) or None


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact, as listed by :meth:`MapCache.entries`."""

    kind: str
    digest: str
    path: Path
    size_bytes: int
    description: str


class MapCache:
    """A directory of digest-addressed trained-map artifacts."""

    def __init__(self, directory: "Path | str | None" = None) -> None:
        self.directory = resolve_cache_dir(directory)

    def path_for(self, kind: str, digest: str) -> Path:
        """The artifact file for one ``(kind, digest)`` identity."""
        if kind not in ARTIFACT_KINDS:
            raise ConfigurationError(
                f"artifact kind must be one of {ARTIFACT_KINDS}, got {kind!r}"
            )
        return self.directory / f"{kind}-{digest}.json"

    def load_entry(self, kind: str, digest: str) -> "tuple[dict, str] | None":
        """``(artifact payload, description)``, or ``None`` on a miss.

        Unreadable or schema-mismatched files read as misses (the caller
        retrains and overwrites) rather than failing the run.
        """
        path = self.path_for(kind, digest)
        try:
            with open(path) as handle:
                wrapper = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(wrapper, dict):
            return None  # valid JSON, foreign shape: still a miss
        if wrapper.get("schema") != MAPS_SCHEMA_VERSION:
            return None
        if wrapper.get("digest") != digest or wrapper.get("kind") != kind:
            return None
        return wrapper.get("artifact"), wrapper.get("description", "")

    def store(
        self, kind: str, digest: str, artifact: dict, description: str = ""
    ) -> Path:
        """Atomically write one artifact; returns its path."""
        path = self.path_for(kind, digest)
        self.directory.mkdir(parents=True, exist_ok=True)
        wrapper = {
            "schema": MAPS_SCHEMA_VERSION,
            "kind": kind,
            "digest": digest,
            "description": description,
            "artifact": artifact,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{kind}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(wrapper, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def entries(self) -> "list[CacheEntry]":
        """Every stored artifact, sorted by (kind, digest)."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in sorted(self.directory.glob("*.json")):
            kind, _, rest = path.stem.partition("-")
            if kind not in ARTIFACT_KINDS or not rest:
                continue
            description = ""
            try:
                with open(path) as handle:
                    wrapper = json.load(handle)
                description = (
                    wrapper.get("description", "")
                    if isinstance(wrapper, dict)
                    else "(unreadable)"
                )
            except (OSError, json.JSONDecodeError):
                description = "(unreadable)"
            found.append(
                CacheEntry(
                    kind=kind,
                    digest=rest,
                    path=path,
                    size_bytes=path.stat().st_size,
                    description=description,
                )
            )
        return found

    def clear(self) -> int:
        """Delete every stored artifact; returns the count removed.

        Also sweeps orphaned ``.*.tmp`` files — the residue of writers
        killed between ``mkstemp`` and the atomic rename — which
        :meth:`entries` deliberately never lists.
        """
        removed = 0
        for entry in self.entries():
            try:
                entry.path.unlink()
                removed += 1
            except OSError:
                pass
        if self.directory.is_dir():
            for stale in self.directory.glob(".*.tmp"):
                try:
                    stale.unlink()
                except OSError:
                    pass
        return removed
