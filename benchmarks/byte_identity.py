"""Byte-identity gate: the registry's run output across two source trees.

An engine refactor must not change a byte of what ``repro run`` prints.
This script runs one matrix of CLI invocations against a source tree and
stores every output, then compares two stored matrices file by file::

    python benchmarks/byte_identity.py record --src OLD/src --out /tmp/old \\
        --map-cache /tmp/maps
    python benchmarks/byte_identity.py record --src src --out /tmp/new \\
        --map-cache /tmp/maps
    python benchmarks/byte_identity.py compare /tmp/old /tmp/new

Each cell is ``repro run <name> --samples 12 --kernel K --json
--decisions-out F`` (64 samples for ``module-failover``, whose fault
lands at t = 1 h). The matrix covers every registry scenario on both
kernels, and ``paper/fig4-module4`` plus ``module-failover`` again with
``--window 16``. Both trees may share one ``--map-cache`` so training
happens once, unless the change touches map training: then give each
tree a fresh cache, or the change is served the parent's maps and never
trains. ``compare`` prints one line per cell and exits non-zero when
any file differs or is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

#: Cells rerun under ``--window 16``.
WINDOWED = ("paper/fig4-module4", "module-failover")
KERNELS = ("scalar", "vector")


def _samples(name: str) -> int:
    return 64 if name == "module-failover" else 12


def _registry(src: Path, env: dict) -> "list[str]":
    """The name of every scenario the tree registers."""
    code = (
        "import json\n"
        "from repro.scenario.registry import scenario_names\n"
        "print(json.dumps(scenario_names()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def matrix(registry: "list[str]") -> "list[tuple[str, str, list[str]]]":
    """``(cell slug, scenario name, CLI args)`` for every cell of the gate."""
    cells = []
    for name in registry:
        slug = name.replace("/", "-")
        for kernel in KERNELS:
            base = ["--samples", str(_samples(name)), "--kernel", kernel]
            cells.append((f"{slug}--{kernel}", name, base))
            if name in WINDOWED:
                cells.append(
                    (f"{slug}--{kernel}--window16", name, base + ["--window", "16"])
                )
    return cells


def record(src: Path, out: Path, map_cache: "Path | None") -> int:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    if map_cache is not None:
        env["REPRO_MAP_CACHE"] = str(map_cache.resolve())
    out.mkdir(parents=True, exist_ok=True)
    registry = _registry(src, env)
    failures = 0
    for slug, name, args in matrix(registry):
        decisions = out / f"{slug}.jsonl"
        with open(out / f"{slug}.json", "w") as stdout:
            code = subprocess.run(
                [sys.executable, "-m", "repro.cli", "run", name, *args,
                 "--json", "--decisions-out", str(decisions)],
                env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
            )
        status = "ok" if code.returncode == 0 else f"exit {code.returncode}"
        failures += code.returncode != 0
        print(f"{slug:55s} {status}", flush=True)
        if code.returncode:
            print(code.stderr, file=sys.stderr)
    return 1 if failures else 0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def compare(left: Path, right: Path) -> int:
    names = sorted(
        {p.name for p in left.glob("*.json*")} | {p.name for p in right.glob("*.json*")}
    )
    differing = 0
    for name in names:
        a, b = left / name, right / name
        if not (a.exists() and b.exists()):
            verdict = "MISSING"
        elif a.read_bytes() == b.read_bytes():
            verdict = f"identical {_digest(a)}"
        else:
            verdict = "DIFFERS"
        differing += not verdict.startswith("identical")
        print(f"{name:62s} {verdict}")
    print(f"{len(names) - differing}/{len(names)} files byte-identical")
    return 1 if differing else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("record", help="run the matrix against one tree")
    run.add_argument("--src", type=Path, required=True, help="the tree's src/ dir")
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--map-cache", type=Path, default=None)
    check = commands.add_parser("compare", help="cmp two recorded matrices")
    check.add_argument("left", type=Path)
    check.add_argument("right", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.src, args.out, args.map_cache)
    return compare(args.left, args.right)


if __name__ == "__main__":
    sys.exit(main())
