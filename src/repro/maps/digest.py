"""Canonical content digests for trained-map artifacts.

A trained abstraction map is fully determined by the *content* that went
into its offline training: the computer/module spec fields the cell
simulations read, the L0/L1 parameters, and the training-code revision
(the default grids depend only on the spec). Hashing exactly that
content gives every map a stable identity — two modules with identical
machines share one digest (and therefore one training), while any change
to a spec, a parameter training reads, or the training code itself
produces a new digest and a cache miss, never a stale artifact.

The parameter identities take every field by default, so a field added
later enters the digest without anyone listing it. Only fields proven
unread by training stay out, each with a test that trains with it
changed and gets the same payload:

* ``L1Params.use_uncertainty_band`` and ``L1Params.band_window`` shape
  the run's arrival filters and set-points only; module-map training
  decides every grid cell without a band (delta 0), so changing them
  must not retrain a map.

Presentation-only spec fields stay out too: computer and module *names*
never enter a digest (module ``M2`` built from the same machines as
``M1`` must hit ``M1``'s cache entry), and neither do boot delay/energy,
which the behaviour-map cell simulation never reads (the fluid rollout
models serving computers only; boots are costed by the L1 search, not by
the map).
"""

from __future__ import annotations

import hashlib
import json

from repro.cluster.specs import ComputerSpec, ModuleSpec
from repro.controllers.params import L0Params, L1Params

#: Bump when the training loops, grids, digest content or artifact
#: format change: every cached artifact keyed under the old version then
#: misses, forcing retraining instead of silently serving stale numbers
#: or a payload the loaders no longer read.
MAPS_SCHEMA_VERSION = 4

#: :class:`L1Params` fields that only the run reads (its arrival filters
#: and set-points), never map training.
RUN_ONLY_L1_FIELDS = frozenset({"band_window", "use_uncertainty_band"})


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact floats."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(kind: str, payload: dict) -> str:
    """SHA-256 over the canonical form of one artifact's identity."""
    body = canonical_json(
        {"kind": kind, "schema": MAPS_SCHEMA_VERSION, "content": payload}
    )
    return hashlib.sha256(body.encode()).hexdigest()


def computer_identity(spec: ComputerSpec) -> dict:
    """The :class:`ComputerSpec` fields map training actually consumes."""
    return {
        "frequencies_ghz": list(spec.processor.frequencies_ghz),
        "base_power": spec.base_power,
        "power_scale": spec.power_scale,
        "speed_factor": spec.effective_speed_factor,
    }


def l0_identity(params: L0Params) -> dict:
    """Every :class:`L0Params` field, the weights as a dict."""
    return params.to_dict()


def l1_identity(params: L1Params) -> dict:
    """Every :class:`L1Params` field but :data:`RUN_ONLY_L1_FIELDS`."""
    return {
        name: value
        for name, value in params.to_dict().items()
        if name not in RUN_ONLY_L1_FIELDS
    }


def behavior_map_digest(
    spec: ComputerSpec, l0_params: L0Params, l1_period: float
) -> str:
    """Digest of one computer-behaviour map's training content."""
    return content_digest(
        "behavior",
        {
            "computer": computer_identity(spec),
            "l0": l0_identity(l0_params),
            "l1_period": float(l1_period),
        },
    )


def module_map_digest(
    spec: ModuleSpec, l1_params: L1Params, l0_params: L0Params
) -> str:
    """Digest of one module-cost map's training content.

    The per-computer identities are position-sensitive (the L1 search
    indexes computers), so reordering machines is a different module.
    """
    return content_digest(
        "module",
        {
            "computers": [computer_identity(c) for c in spec.computers],
            "l1": l1_identity(l1_params),
            "l0": l0_identity(l0_params),
        },
    )
