"""``repro.service``: the long-lived solver service.

The library's decision procedures are fast inside one process
(:meth:`repro.api.Solver.solve_many`, :class:`repro.api.AsyncSolver`) but,
by themselves, unreachable from outside it.  This package turns the
solver into an operable network service on nothing but the standard
library:

* :class:`~repro.service.server.SolverService` -- an asyncio-streams
  HTTP/1.1 server exposing ``POST /v1/solve`` (schema-versioned JSON
  envelopes over the ``to_dict`` outcome surface; revision 1.1 adds
  resume-by-token for checkpointed chases and, with checkpointing on,
  crash recovery of orphaned logs at startup), ``GET /healthz`` and
  ``GET /metrics``;
* :class:`~repro.service.coalescer.RequestCoalescer` -- gathers the
  queries of one event-loop turn into a ``solve_many`` batch and shares
  in-flight results between clients asking the same question concurrently;
* :class:`~repro.service.fairness.FairnessGate` -- a per-client in-flight
  budget, answered with 429-style backpressure when exceeded, so one heavy
  tenant cannot starve the rest;
* :class:`~repro.service.ratelimit.TokenBucketLimiter` -- a per-client
  token bucket (``requests_per_second`` / ``burst``) ahead of the fairness
  gate, answered with the distinct 429 ``rate_limited`` code;
* :class:`~repro.service.access_log.AccessLog` -- one structured JSONL
  line per request (client, fingerprint, batch id, join class, latency
  split, outcome, status), with size rotation;
* :class:`~repro.service.metrics.MetricsRegistry` -- counters, gauges and
  histograms behind ``GET /metrics``, also fed by the chase engine's run
  observer seam; under multi-worker deployment each worker flushes a
  sidecar snapshot that any worker's scrape folds into a fleet aggregate;
* :class:`~repro.service.client.ServiceClient` -- a minimal blocking
  client used by the tests, the benchmark and ``examples/service_client.py``;
* :class:`~repro.service.supervisor.Supervisor` -- the ``--workers N``
  pre-fork supervisor: one listening port shared by N worker processes
  (``SO_REUSEPORT`` where available, inherited FD elsewhere),
  respawn-with-backoff, and SIGTERM fanned out into a coordinated drain --
  the service's only multi-core mechanism;
* ``python -m repro.service`` -- the entrypoint, with SIGTERM/SIGINT
  triggering a graceful drain (stop accepting, flush in-flight batches).

Requests may carry ``deadline_ms`` (and the service may configure
``default_deadline_ms``): past the deadline the chase is cut at the next
round boundary and the request answers 504 ``deadline_exceeded`` --
with a resumable ``checkpoint_token`` when checkpointing is on.

Configuration travels as a frozen :class:`repro.config.ServiceConfig`,
JSON round-trippable like :class:`repro.config.SolverConfig`.
"""

from repro.config import ServiceConfig
from repro.service.access_log import AccessLog
from repro.service.client import ServiceClient, ServiceError
from repro.service.coalescer import CoalescerStats, RequestCoalescer
from repro.service.fairness import FairnessGate
from repro.service.metrics import MetricsRegistry, merge_metric_snapshots
from repro.service.ratelimit import TokenBucketLimiter
from repro.service.protocol import (
    PROTOCOL_REVISION,
    PROTOCOL_VERSION,
    SUPPORTED_SCHEMAS,
    ProtocolError,
    ResumeRequest,
    SolveRequest,
    decode_request,
    decode_response,
    encode_outcome,
    error_response,
    success_response,
)
from repro.service.server import ServiceHandle, SolverService, serve_in_thread
from repro.service.supervisor import Supervisor

__all__ = [
    "ServiceConfig",
    "ServiceClient",
    "ServiceError",
    "AccessLog",
    "CoalescerStats",
    "RequestCoalescer",
    "FairnessGate",
    "TokenBucketLimiter",
    "MetricsRegistry",
    "merge_metric_snapshots",
    "Supervisor",
    "PROTOCOL_REVISION",
    "PROTOCOL_VERSION",
    "SUPPORTED_SCHEMAS",
    "ProtocolError",
    "ResumeRequest",
    "SolveRequest",
    "decode_request",
    "decode_response",
    "encode_outcome",
    "error_response",
    "success_response",
    "ServiceHandle",
    "SolverService",
    "serve_in_thread",
]
