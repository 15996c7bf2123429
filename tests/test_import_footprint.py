"""A batch run loads none of the live service's, the sweep pool's or the DES's code.

``repro``, ``repro.obs`` and ``repro.sim`` re-export only what a run
executes; the asyncio HTTP server (``repro.obs.http``), the sweep
process pool (``repro.sweep``), the request-level DES
(``repro.sim.des``) and the daemon (``repro.service``) are imported by
name where they are used. The check runs in a fresh interpreter, since
pytest's own process already holds most of these modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.maps.cache import CACHE_ENV_VAR

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (and their submodules) no batch run may load.
NOT_LOADED = (
    "asyncio",
    "ssl",
    "multiprocessing",
    "concurrent.futures",
    "repro.service",
    "repro.sweep",
    "repro.sim.des",
    "repro.obs.http",
)

_RUNS = """
import contextlib, io, json, sys

import repro
from repro.cli import main
from repro.scenario import build_simulation, get_scenario

for name, samples in (("cluster-baseline-showdown", 12), ("paper/fig6-cluster16", 8)):
    simulation = build_simulation(get_scenario(name, samples=samples))
    simulation.reset()
    simulation.step()

metrics, trace, forbidden = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main([
        "run", "paper/fig4-module4", "--samples", "12", "--json",
        "--metrics-out", metrics, "--trace-out", trace,
    ])
loaded = sorted(
    name for name in sys.modules
    if any(name == m or name.startswith(m + ".") for m in forbidden)
)
print(json.dumps({"code": code, "summary": bool(out.getvalue()), "loaded": loaded}))
"""


def test_a_batch_run_loads_no_service_sweep_or_des_code(tmp_path):
    metrics, trace = tmp_path / "metrics.prom", tmp_path / "trace.jsonl"
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNS, str(metrics), str(trace), json.dumps(NOT_LOADED)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # The CLI run really ran, with telemetry attached.
    assert report["code"] == 0 and report["summary"]
    assert metrics.stat().st_size > 0 and trace.stat().st_size > 0
    assert report["loaded"] == []
