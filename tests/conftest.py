"""Puts ``tests/`` on ``sys.path`` so every test directory can import ``helpers``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
