"""Decision capture and the committed correctness reference.

Every run's decisions are checked period by period. A control period's
record set is the L2 decision (cluster runs) and every module's L1
decision, each rendered by :func:`repro.common.schema.decision_line` —
the same lines ``repro run --decisions-out`` writes. Each period's lines
hash to a short digest; the committed reference holds one digest per
period plus the run's ``RunSummary.deterministic_dict()``.

A period whose digest differs from the reference fails. A run whose
summary differs fails all of its periods.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

from repro.common.schema import (
    decision_line,
    dump_json,
    l1_decision_record,
    l2_decision_record,
)
from repro.sim.observers import SimulationObserver

#: Bytes kept per period digest. A wrong period slips through only if
#: its 32-bit digest collides with the reference's (odds 2**-32).
DIGEST_BYTES = 4

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class DecisionCapture(SimulationObserver):
    """Observer that keeps the decision events of one run in memory.

    Rendering is deferred to :func:`decision_lines`, after the timed
    loop, so the capture adds one list append per decision to the run.
    """

    def __init__(self) -> None:
        self.events: list = []

    def on_l1_decision(self, event) -> None:
        self.events.append(("l1", event))

    def on_l2_decision(self, event) -> None:
        self.events.append(("l2", event))


def decision_lines(capture: DecisionCapture) -> "dict[int, list[str]]":
    """The captured decisions as ``decision_line`` text, by period."""
    render = {"l1": l1_decision_record, "l2": l2_decision_record}
    by_period: "dict[int, list[str]]" = {}
    for kind, event in capture.events:
        by_period.setdefault(int(event.period), []).append(
            decision_line(render[kind](event))
        )
    return by_period


def digest_lines(lines: "list[str]") -> bytes:
    """The short digest of one period's decision lines."""
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).digest()[:DIGEST_BYTES]


def period_digests(by_period: "dict[int, list[str]]", periods: int) -> "list[bytes]":
    """One digest per control period ``0 .. periods-1``.

    A period with no decision gets an all-zero digest; every period of
    a committed reference has decisions.
    """
    empty = bytes(DIGEST_BYTES)
    return [
        digest_lines(by_period[period]) if period in by_period else empty
        for period in range(periods)
    ]


def pack_digests(digests: "list[bytes]") -> str:
    """The digests as one base64 string (the reference file's form)."""
    return base64.b64encode(b"".join(digests)).decode("ascii")


def unpack_digests(packed: str) -> "list[bytes]":
    raw = base64.b64decode(packed)
    return [raw[i : i + DIGEST_BYTES] for i in range(0, len(raw), DIGEST_BYTES)]


def failed_periods(
    digests: "list[bytes]",
    summary: dict,
    reference_digests: "list[bytes]",
    reference_summary: dict,
) -> int:
    """Periods that differ from the reference (all of them if the summary does)."""
    if canonical(summary) != canonical(reference_summary) or len(digests) != len(
        reference_digests
    ):
        return len(digests)
    return sum(1 for ours, theirs in zip(digests, reference_digests) if ours != theirs)


def canonical(summary: dict) -> str:
    """The byte-comparable rendering ``repro run --json`` uses."""
    return dump_json(summary)


def reference_path(workload: str, seed: int, root: Path = REFERENCE_DIR) -> Path:
    return root / workload / f"seed-{seed}.json"


def load_reference(
    workload: str, seed: int, root: Path = REFERENCE_DIR
) -> "tuple[list[bytes], dict] | None":
    """The committed ``(digests, summary)`` for ``(workload, seed)``, or ``None``."""
    path = reference_path(workload, seed, root)
    if not path.is_file():
        return None
    payload = json.loads(path.read_text(encoding="utf-8"))
    return unpack_digests(payload["digests"]), payload["summary"]
