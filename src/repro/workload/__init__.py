"""Workload substrate: arrival traces, virtual store, request streams.

The paper evaluates on (i) a synthetic day-scale trace derived from an ISP
workload — structure extracted, scaled by four, piecewise Gaussian noise
re-added (its Fig. 4) — and (ii) the France'98 World Cup HTTP trace (its
Figs. 1b and 6). The original WC'98 tapes are not redistributable, so
:mod:`~repro.workload.wc98` generates a calibrated trace reproducing the
published shape (see DESIGN.md, substitutions).

Request-level content follows the paper's §4.3 recipe for the store: a
10,000-object virtual store with per-object service times U(10, 25) ms and
Zipf popularity with a 1000-object "popular" set receiving 90 % of
requests. The recipe's lognormal temporal locality is not modelled: each
request draws its object independently from that popularity.
"""

from repro.workload.flashcrowd import (
    FlashCrowdSpec,
    flashcrowd_rate_profile,
    flashcrowd_trace,
)
from repro.workload.requests import RequestStream, RequestStreamGenerator
from repro.workload.store import VirtualStore
from repro.workload.synthetic import SyntheticWorkloadSpec, synthetic_trace
from repro.workload.trace import ArrivalTrace
from repro.workload.wc98 import WC98Spec, wc98_trace
from repro.workload.zipf import zipf_weights
from repro.workload.zipfmix import ZipfMixSpec, zipfmix_workload

__all__ = [
    "ArrivalTrace",
    "FlashCrowdSpec",
    "RequestStream",
    "RequestStreamGenerator",
    "SyntheticWorkloadSpec",
    "VirtualStore",
    "WC98Spec",
    "ZipfMixSpec",
    "flashcrowd_rate_profile",
    "flashcrowd_trace",
    "synthetic_trace",
    "wc98_trace",
    "zipf_weights",
    "zipfmix_workload",
]
