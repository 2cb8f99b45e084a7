"""Simulation-as-a-service: keep the engine resident, serve runs over HTTP.

The serving tier the ROADMAP's north star calls for, built from the two
ingredients the repo already had — the deterministic parallel run engine
(:mod:`repro.core.planner`) and the content-addressed result cache
(:mod:`repro.core.runcache`) — and governed by the paper's own medicine:
a bounded admission queue (429 + ``Retry-After`` on overflow, never an
unbounded backlog) and exponential back-off on new admissions while
simulation exceeds its share of host capacity (the Figure 11 loop,
applied to the service itself).  See ``docs/service.md``.

Layout:

* :mod:`~repro.service.jobs` — job specs, lifecycle, TTL'd store, dedupe
* :mod:`~repro.service.admission` — bounded queue + QoS governor
* :mod:`~repro.service.scheduler` — batch drain onto the parallel engine
* :mod:`~repro.service.server` — ``ThreadingHTTPServer`` JSON API
* :mod:`~repro.service.obs` — job trace documents, ``/v1/ops`` snapshot,
  structured JSONL ops logging
* :mod:`~repro.service.client` — stdlib client + ``hiss client`` CLI
* :mod:`~repro.service.daemon` — ``hiss serve`` entry point
* :mod:`~repro.service.top` — ``hiss top`` live console
"""

from typing import TYPE_CHECKING

from .admission import AdmissionController, RejectedJob, ServiceGovernor
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    BadSpec,
    Job,
    JobSpec,
    JobStore,
)
from .obs import OpsLog, build_stitched_trace, build_trace_document, ops_document
from .scheduler import JobScheduler, dedupe_key_for, plan_spec
from .server import HissService

if TYPE_CHECKING:  # pragma: no cover
    from .client import ServiceClient, ServiceError, ServiceRejected

#: Client classes resolve lazily (PEP 562) so ``python -m
#: repro.service.client`` doesn't double-import the module it is running.
_CLIENT_EXPORTS = ("ServiceClient", "ServiceError", "ServiceRejected")


def __getattr__(name: str):
    if name in _CLIENT_EXPORTS:
        from . import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissionController",
    "BadSpec",
    "CANCELLED",
    "DONE",
    "FAILED",
    "HissService",
    "Job",
    "JobScheduler",
    "JobSpec",
    "JobStore",
    "OpsLog",
    "QUEUED",
    "RUNNING",
    "RejectedJob",
    "ServiceClient",
    "ServiceError",
    "ServiceGovernor",
    "ServiceRejected",
    "build_stitched_trace",
    "build_trace_document",
    "dedupe_key_for",
    "ops_document",
    "plan_spec",
]
