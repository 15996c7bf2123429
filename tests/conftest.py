"""Puts ``tests/`` on ``sys.path`` so every test directory can import ``helpers``.

Every test starts without ``$REPRO_MAP_CACHE``, so a cache the caller's
shell names never turns a test's cold run warm; a test of the variable
sets it itself.
"""

import sys
from pathlib import Path

import pytest

from repro.maps.cache import CACHE_ENV_VAR

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _no_caller_map_cache(monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
