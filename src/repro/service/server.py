"""The persistent solver service: an asyncio-streams HTTP/1.1 server.

:class:`SolverService` exposes one :class:`~repro.api.Solver` over the wire
on nothing but the standard library:

* ``POST /v1/solve`` -- one schema-versioned solve envelope in, one out
  (:mod:`repro.service.protocol`); requests flow through the per-client
  :class:`~repro.service.fairness.FairnessGate` (429 ``overloaded`` beyond
  the budget) and the :class:`~repro.service.coalescer.RequestCoalescer`
  (one ``solve_many`` batch per event-loop turn, cross-client result
  sharing);
* ``GET /healthz`` -- liveness plus the drain state;
* ``GET /metrics`` -- the :class:`~repro.service.metrics.MetricsRegistry`
  snapshot, the solver's lifetime :class:`~repro.api.batch.BatchStats`,
  the coalescer counters, and the fairness gate's per-client view.

**Solving happens off the event loop.**  The coalescer dispatches each
batch to ``Solver.solve_many`` on a worker thread (``asyncio.to_thread``),
so health checks stay responsive while a chase runs, and the batch's
deadline reaches the chase itself.  The answers are byte-identical to
in-process ``solve_many`` -- the differential test in
``tests/service/test_server.py`` holds the JSON-normalized bytes equal.
More cores come from ``python -m repro.service --workers N``, never from a
pool inside one service.

**Graceful drain.**  :meth:`SolverService.drain` stops accepting
connections, answers late requests on kept-alive connections with 503
``draining``, flushes the batch not yet dispatched, waits (bounded by
``drain_timeout``) for in-flight batches and responses to finish, and
finally closes surviving idle connections.  ``python -m repro.service``
wires SIGTERM/SIGINT to exactly this path.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import threading
import time
from typing import Optional, Tuple

from repro.api.solver import Solver
from repro.chase import engine as chase_engine
from repro.chase.checkpoint import (
    checkpoint_counters,
    load_checkpoint,
    scan_resumable,
)
from repro.chase.engine import resume_chase
from repro.chase.kernel import resolve_kernel
from repro.config import ServiceConfig
from repro.service import protocol
from repro.service.access_log import AccessLog, worker_log_path
from repro.service.coalescer import RequestCoalescer
from repro.service.fairness import FairnessGate
from repro.service.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
    merge_metric_snapshots,
    read_worker_snapshots,
    write_worker_snapshot,
)
from repro.service.ratelimit import TokenBucketLimiter

#: Largest accepted request body; anything bigger is rejected up front.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: A claim file older than this is presumed to belong to a worker that died
#: mid-recovery; the next worker to trip over it takes the orphan over.
STALE_CLAIM_SECONDS = 300.0

#: Ceiling on per-request metrics-sidecar writes: during a burst the sidecar
#: is flushed at most once per interval (plus one trailing flush), so the
#: fleet aggregate is exact within this bound of quiescence without taxing
#: every request with a filesystem write.
SIDECAR_FLUSH_INTERVAL = 0.05

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class SolverService:
    """One solver served over HTTP with batching, fairness, and metrics.

    Parameters
    ----------
    solver:
        The solver to serve.  ``None`` builds one from the config's
        ``universe`` / ``solver`` fields.
    config:
        The frozen :class:`~repro.config.ServiceConfig`; defaults to
        ``ServiceConfig()``.
    """

    def __init__(
        self,
        solver: Optional[Solver] = None,
        *,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self._config = config if config is not None else ServiceConfig()
        if solver is None:
            solver = Solver(
                universe=self._config.universe, config=self._config.solver
            )
        self._solver = solver
        self._strategy = solver.config.chase.resolved_strategy()
        # The trigger matcher this service's runs will use; rescan never
        # consults the kernel, every other strategy resolves the configured
        # mode once.
        if self._strategy == "rescan":
            self._kernel = "off"
        else:
            self._kernel = resolve_kernel(solver.config.chase.chase_kernel) or "off"
        self._checkpoint_mode = solver.config.chase.checkpoint.resolved_mode()
        self._checkpoint_dir = solver.config.chase.checkpoint.resolved_directory()
        self._recovered_orphans = 0
        self._resumes_total = 0
        self._metrics = MetricsRegistry()
        self._fairness = FairnessGate(self._config.per_client_in_flight)
        burst = self._config.resolved_burst()
        self._ratelimit: Optional[TokenBucketLimiter] = (
            TokenBucketLimiter(self._config.requests_per_second, burst)
            if self._config.requests_per_second is not None and burst is not None
            else None
        )
        self._access_log: Optional[AccessLog] = None
        self._coalescer: Optional[RequestCoalescer] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._address: Optional[Tuple[str, int]] = None
        self._draining = False
        self._drained = False
        self._started_at: Optional[float] = None
        self._active_requests = 0
        self._idle_event: Optional[asyncio.Event] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._sidecar_last = 0.0
        self._sidecar_timer: Optional[asyncio.TimerHandle] = None
        self._sidecar_write_errors = 0

        # -- instruments -------------------------------------------------------
        self._requests_total = self._metrics.counter(
            "requests_total", "HTTP requests served, by endpoint and status"
        )
        self._batch_sizes = self._metrics.histogram(
            "batch_size", "distinct problems per coalesced batch", SIZE_BUCKETS
        )
        self._saturation = self._metrics.gauge(
            "pool_saturation", "in-flight batches over max_concurrent_batches"
        )
        self._latency = self._metrics.histogram(
            "solve_latency_seconds",
            "per-request solve latency, by chase strategy and kernel",
            LATENCY_BUCKETS,
        )
        self._chase_rounds = self._metrics.histogram(
            "chase_rounds", "rounds per chase run, by strategy", SIZE_BUCKETS
        )
        self._chase_steps = self._metrics.counter(
            "chase_steps_total", "applied chase steps, by strategy"
        )

    # -- accessors -------------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        """The frozen service configuration."""
        return self._config

    @property
    def solver(self) -> Solver:
        """The served solver (caches and stats shared with direct use)."""
        return self._solver

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's metric registry (the ``/metrics`` payload source)."""
        return self._metrics

    @property
    def fairness(self) -> FairnessGate:
        """The per-client admission gate."""
        return self._fairness

    @property
    def coalescer(self) -> Optional[RequestCoalescer]:
        """The request coalescer (``None`` before :meth:`start`)."""
        return self._coalescer

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (available after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("the service has not been started")
        return self._address

    @property
    def draining(self) -> bool:
        """Whether a graceful drain has begun."""
        return self._draining

    # -- lifecycle -------------------------------------------------------------

    async def start(self, sock=None) -> Tuple[str, int]:
        """Bind the listen socket and return the actual ``(host, port)``.

        ``sock``, when given, is a pre-bound listening socket (the
        supervisor's ``SO_REUSEPORT`` or inherited-FD modes); the service
        adopts it instead of binding ``config.host:config.port`` itself.
        """
        if self._server is not None:
            raise RuntimeError("the service is already started")
        self._loop = asyncio.get_running_loop()
        if self._config.access_log_path is not None:
            self._access_log = AccessLog(
                worker_log_path(
                    self._config.access_log_path, self._config.worker_id
                ),
                max_bytes=self._config.access_log_max_bytes,
                backups=self._config.access_log_backups,
            )
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._stop_event = asyncio.Event()
        self._coalescer = RequestCoalescer(
            self._dispatch,
            max_batch=self._config.max_batch_size,
            max_concurrent=self._config.max_concurrent_batches,
            on_batch=self._observe_batch,
            # Key coalescer slots exactly like the outcome store below: in
            # canonical mode, renamed isomorphic queries share one slot.
            identity=self._solver.identity,
        )
        chase_engine.add_run_observer(self._observe_chase)
        if self._checkpoint_mode == "on":
            await asyncio.to_thread(self._recover_orphans)
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self._config.host,
                port=self._config.port,
            )
        bound = self._server.sockets[0]
        host, port = bound.getsockname()[:2]
        self._address = (host, port)
        self._started_at = time.monotonic()
        self._flush_worker_metrics()
        return self._address

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`signal_drain` fires, then drain and return."""
        if self._stop_event is None:
            raise RuntimeError("start() the service first")
        await self._stop_event.wait()
        await self.drain()

    def signal_drain(self) -> None:
        """Request a graceful drain (safe to call from signal handlers and
        other threads)."""
        loop = self._loop
        if loop is None or self._stop_event is None:
            return
        loop.call_soon_threadsafe(self._stop_event.set)

    async def drain(self) -> None:
        """Gracefully stop: no new work, flush in-flight batches."""
        if self._drained:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self._config.drain_timeout
        if self._coalescer is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._coalescer.drain(),
                    timeout=max(0.0, deadline - time.monotonic()),
                )
        # Wait for responses still being written (requests admitted before
        # the drain began), bounded by the remaining drain budget.
        if self._idle_event is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._idle_event.wait(),
                    timeout=max(0.0, deadline - time.monotonic()),
                )
        chase_engine.remove_run_observer(self._observe_chase)
        for task in tuple(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*tuple(self._connections), return_exceptions=True)
        self._flush_worker_metrics()
        if self._access_log is not None:
            self._access_log.close()
        self._drained = True

    # -- wiring ----------------------------------------------------------------

    async def _dispatch(self, problems, deadline=None):
        """The coalescer's batch dispatcher: ``solve_many`` on a thread.

        The batch deadline travels into the chase (``solve_many(deadline=
        ...)``), so an expiring request stops chasing at the next round
        boundary instead of holding its batch in flight.
        """
        return await asyncio.to_thread(
            self._solver.solve_many, problems, deadline=deadline
        )

    # -- checkpoint recovery and resume ----------------------------------------

    def _claim_orphan(self, path: str) -> bool:
        """Atomically claim one orphan log for this worker.

        Multiple workers sharing a checkpoint directory race to recover the
        same orphans on startup; an exclusive-create claim file makes each
        log exactly one worker's job.  A claim older than
        :data:`STALE_CLAIM_SECONDS` is treated as the residue of a worker
        that died mid-recovery and is taken over.
        """
        claim = path + ".claim"
        try:
            os.close(os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            try:
                age = time.time() - os.stat(claim).st_mtime
            except OSError:
                return False  # Claim vanished: its owner just finished.
            if age <= STALE_CLAIM_SECONDS:
                return False
            with contextlib.suppress(OSError):
                os.utime(claim)  # Refresh so only one taker wins the stale race.
                return True
            return False
        except OSError:
            return False

    def _recover_orphans(self) -> None:
        """Finish chases a crashed worker left mid-run (footer-less logs).

        Every orphan is resumed under its logged budget -- terminating runs
        finish, budget-bound ones re-exhaust -- and the resumed run writes a
        fresh sealed log, after which the crash residue is deleted.  Logs
        that fail to load are renamed ``*.corrupt`` and skipped: recovery
        must never prevent startup.  Under multi-worker deployment every
        worker shares one checkpoint directory, so each orphan is first
        claimed (see :meth:`_claim_orphan`) and recovered by exactly one
        worker.
        """
        for token in scan_resumable(self._checkpoint_dir):
            path = os.path.join(self._checkpoint_dir, token)
            if not self._claim_orphan(path):
                continue
            try:
                point = load_checkpoint(
                    token, directory=self._checkpoint_dir, allow_torn_tail=True
                )
                resume_chase(point, budget=self._durable_budget(point.budget))
            except Exception:
                with contextlib.suppress(OSError):
                    os.replace(path, path + ".corrupt")
            else:
                self._recovered_orphans += 1
                with contextlib.suppress(OSError):
                    os.remove(path)
            finally:
                with contextlib.suppress(OSError):
                    os.remove(path + ".claim")

    def _durable_budget(self, budget):
        """A budget whose resumed run checkpoints into this service's directory."""
        return dataclasses.replace(
            budget,
            checkpoint=dataclasses.replace(
                budget.checkpoint, mode="on", directory=self._checkpoint_dir
            ),
        )

    def _resume_and_judge(self, request):
        """Resume a checkpointed chase and judge it against the conclusion.

        Runs on a worker thread.  Returns ``(outcome, new_token)`` where the
        token is ``None`` unless the resumed run exhausted its (possibly
        raised) budget again.
        """
        from repro.api.dsl import parse_dependency
        from repro.implication.chase_prover import outcome_from_result
        from repro.implication.normalize import normalize_dependency

        if self._checkpoint_mode != "on":
            raise protocol.ProtocolError(
                protocol.ERROR_BAD_REQUEST,
                "checkpointing is disabled on this service; start it with "
                "chase.checkpoint mode 'on' (or REPRO_CHECKPOINT=on) to resume",
            )
        point = load_checkpoint(
            request.checkpoint_token,
            directory=self._checkpoint_dir,
            allow_torn_tail=True,
        )
        universe = point.instance.universe
        conclusion = parse_dependency(request.conclusion, universe=universe)
        primitives = normalize_dependency(conclusion, universe)
        if len(primitives) != 1:
            raise protocol.ProtocolError(
                protocol.ERROR_BAD_REQUEST,
                "the conclusion must normalise to exactly one chase primitive "
                "to be judged against one checkpointed chase",
            )
        primitive = primitives[0]
        if primitive.body != point.instance:
            raise protocol.ProtocolError(
                protocol.ERROR_BAD_REQUEST,
                "the conclusion's body is not the instance this checkpoint chased",
            )
        budget = point.budget.raised_to(
            request.max_steps or 0, request.max_rows or 0
        )
        result = resume_chase(point, budget=self._durable_budget(budget))
        self._resumes_total += 1
        return outcome_from_result(result, primitive), result.checkpoint

    def _observe_batch(self, size: int, in_flight: int, capacity: int) -> None:
        self._batch_sizes.labels().observe(size)
        self._saturation.labels().set(in_flight / capacity)

    def _observe_chase(self, result) -> None:
        kernel = result.kernel or "off"
        self._chase_rounds.labels(strategy=result.strategy, kernel=kernel).observe(
            result.rounds
        )
        self._chase_steps.labels(strategy=result.strategy, kernel=kernel).inc(
            result.steps
        )

    # -- HTTP ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            keep_alive = (
                not self._draining
                and headers.get("connection", "keep-alive").lower() != "close"
            )
            status, payload = await self._route(method, path, body)
            self._requests_total.labels(path=path, status=str(status)).inc()
            # Touched after the counter bump so the sidecar (throttled, with
            # a trailing flush) converges on the true counts within
            # SIDECAR_FLUSH_INTERVAL of the last request.
            self._touch_worker_metrics()
            self._write_response(writer, status, payload, keep_alive)
            await writer.drain()
            if not keep_alive:
                return

    async def _read_request(self, reader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _write_response(
        self, writer, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = protocol.dumps(payload)
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # -- routing ---------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                return 405, protocol.error_response(
                    protocol.ERROR_METHOD, "healthz only answers GET"
                )
            return 200, self._health_payload()
        if path == "/metrics":
            if method != "GET":
                return 405, protocol.error_response(
                    protocol.ERROR_METHOD, "metrics only answers GET"
                )
            return 200, self._metrics_payload()
        if path == "/v1/solve":
            if method != "POST":
                return 405, protocol.error_response(
                    protocol.ERROR_METHOD, "solve only answers POST"
                )
            return await self._handle_solve(body)
        return 404, protocol.error_response(
            protocol.ERROR_NOT_FOUND, f"no route for {path}"
        )

    def _health_payload(self) -> dict:
        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0
        )
        return {
            "schema": protocol.PROTOCOL_VERSION,
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(uptime, 3),
            "in_flight_batches": (
                self._coalescer.in_flight_batches if self._coalescer else 0
            ),
        }

    def _flush_worker_metrics(self) -> None:
        """Write this worker's metrics sidecar (no-op without ``metrics_dir``).

        A disk fault skips the flush (the previous sidecar stays in place)
        and counts as ``workers.write_errors`` on this worker's ``/metrics``.
        """
        if self._config.metrics_dir is None:
            return
        if self._sidecar_timer is not None:
            self._sidecar_timer.cancel()
            self._sidecar_timer = None
        self._sidecar_last = time.monotonic()
        try:
            write_worker_snapshot(
                self._config.metrics_dir,
                self._config.worker_id,
                self._metrics.to_dict(),
            )
        except OSError:
            self._sidecar_write_errors += 1

    def _touch_worker_metrics(self) -> None:
        """The per-request sidecar update, throttled.

        Flushes immediately when the interval has elapsed; otherwise
        schedules one trailing flush, so the sidecar goes stale by at most
        :data:`SIDECAR_FLUSH_INTERVAL` after the last request of a burst.
        """
        if self._config.metrics_dir is None:
            return
        elapsed = time.monotonic() - self._sidecar_last
        if elapsed >= SIDECAR_FLUSH_INTERVAL:
            self._flush_worker_metrics()
        elif self._sidecar_timer is None and self._loop is not None:
            self._sidecar_timer = self._loop.call_later(
                SIDECAR_FLUSH_INTERVAL - elapsed, self._deferred_sidecar_flush
            )

    def _deferred_sidecar_flush(self) -> None:
        """The trailing flush a throttled :meth:`_touch_worker_metrics` left."""
        self._sidecar_timer = None
        self._flush_worker_metrics()

    def _workers_aggregate(self) -> Optional[dict]:
        """The fleet-wide metrics view folded from every worker's sidecar."""
        if self._config.metrics_dir is None:
            return None
        self._flush_worker_metrics()  # This worker's view must be current.
        snapshots = read_worker_snapshots(self._config.metrics_dir)
        return {
            "count": len(snapshots),
            "ids": [worker_id for worker_id, _ in snapshots],
            # This worker's own failed flushes: a sidecar it could not write
            # is missing from ``count`` above.
            "write_errors": self._sidecar_write_errors,
            "metrics": merge_metric_snapshots(
                [payload for _, payload in snapshots]
            ),
        }

    def _metrics_payload(self) -> dict:
        workers = self._workers_aggregate()
        return {
            **({"workers": workers} if workers is not None else {}),
            "schema": protocol.PROTOCOL_VERSION,
            "metrics": self._metrics.to_dict(),
            "solver": self._solver.stats.to_dict(),
            "coalescer": (
                self._coalescer.stats.to_dict() if self._coalescer else {}
            ),
            "store": {
                "size": len(self._solver.store),
                **self._solver.store.stats.to_dict(),
                # Store-wide counters when the store is shared across
                # workers (FileOutcomeStore sidecars); absent otherwise.
                **(
                    {"shared": self._solver.store.shared_stats().to_dict()}
                    if hasattr(self._solver.store, "shared_stats")
                    else {}
                ),
            },
            "checkpoint": {
                "mode": self._checkpoint_mode,
                "recovered_orphans": self._recovered_orphans,
                "resumes_total": self._resumes_total,
                **checkpoint_counters().to_dict(),
            },
            "fairness": self._fairness.snapshot(),
            **(
                {"access_log": self._access_log.snapshot()}
                if self._access_log is not None
                else {}
            ),
            **(
                {"ratelimit": self._ratelimit.snapshot()}
                if self._ratelimit is not None
                else {}
            ),
            "service": {
                "strategy": self._strategy,
                "kernel": self._kernel,
                "cache_mode": self._solver.cache_mode,
                "draining": self._draining,
                "max_concurrent_batches": self._config.max_concurrent_batches,
                "per_client_in_flight": self._config.per_client_in_flight,
                "worker_id": self._config.worker_id,
                "workers": self._config.workers,
            },
        }

    def _request_deadline(self, arrival: float, deadline_ms) -> Optional[float]:
        """The request's absolute monotonic deadline (or ``None``).

        The tighter of the envelope's ``deadline_ms`` and the service's
        ``default_deadline_ms`` wins; a request can shorten the server
        default but never extend past it.
        """
        bounds = [
            ms
            for ms in (deadline_ms, self._config.default_deadline_ms)
            if ms is not None
        ]
        if not bounds:
            return None
        return arrival + min(bounds) / 1000.0

    def _log_access(
        self, record: dict, *, status: int, code=None, latency=None
    ) -> None:
        """Append one access-log line (a no-op without a configured log)."""
        if self._access_log is None:
            return
        entry = dict(record)
        entry["ts"] = round(time.time(), 6)
        entry["worker"] = self._config.worker_id
        entry["status"] = status
        if code is not None:
            entry["code"] = code
        if latency is not None:
            entry["latency_s"] = round(latency, 6)
        self._access_log.write(entry)

    async def _handle_solve(self, body: bytes):
        arrival = time.monotonic()
        record: dict = {"endpoint": "/v1/solve"}
        try:
            request = protocol.decode_request(body)
        except protocol.ProtocolError as exc:
            self._log_access(
                record,
                status=exc.http_status,
                code=exc.code,
                latency=time.monotonic() - arrival,
            )
            return exc.http_status, protocol.error_response(exc.code, exc.message)
        request_id = request.id
        record["client"] = request.client
        if request_id is not None:
            record["request_id"] = request_id
        if self._draining:
            self._log_access(
                record,
                status=503,
                code=protocol.ERROR_DRAINING,
                latency=time.monotonic() - arrival,
            )
            return 503, protocol.error_response(
                protocol.ERROR_DRAINING, "the service is draining", request_id
            )
        if self._ratelimit is not None and not self._ratelimit.try_acquire(
            request.client
        ):
            self._log_access(
                record,
                status=429,
                code=protocol.ERROR_RATE_LIMITED,
                latency=time.monotonic() - arrival,
            )
            return 429, protocol.error_response(
                protocol.ERROR_RATE_LIMITED,
                f"client {request.client!r} is over its request rate "
                f"({self._ratelimit.rate}/s, burst {self._ratelimit.burst}); "
                "slow down and retry",
                request_id,
            )
        if not self._fairness.try_acquire(request.client):
            self._log_access(
                record,
                status=429,
                code=protocol.ERROR_OVERLOADED,
                latency=time.monotonic() - arrival,
            )
            return 429, protocol.error_response(
                protocol.ERROR_OVERLOADED,
                f"client {request.client!r} is over its in-flight budget "
                f"({self._fairness.cap}); retry after a response arrives",
                request_id,
            )
        self._active_requests += 1
        self._idle_event.clear()
        started = time.monotonic()
        deadline = self._request_deadline(
            arrival, getattr(request, "deadline_ms", None)
        )
        info: dict = {}
        status = 500
        code = None
        try:
            if isinstance(request, protocol.ResumeRequest):
                # Resume-by-token bypasses the coalescer: a checkpoint names
                # one specific mid-flight chase, so there is nothing to
                # coalesce with and no cache identity to share.
                record["kind"] = "resume"
                outcome, token = await asyncio.to_thread(
                    self._resume_and_judge, request
                )
            else:
                record["kind"] = "solve"
                record["strategy"] = self._strategy
                record["kernel"] = self._kernel
                problem = self._solver.problem(
                    request.premises, request.conclusion, finite=request.finite
                )
                identity = self._solver.identity(problem)
                fingerprint = getattr(identity, "fingerprint", None)
                if fingerprint is not None:
                    record["fingerprint"] = fingerprint
                if deadline is not None:
                    outcome = await asyncio.wait_for(
                        self._coalescer.submit(
                            problem, deadline=deadline, info=info
                        ),
                        max(0.0, deadline - time.monotonic()),
                    )
                else:
                    outcome = await self._coalescer.submit(problem, info=info)
                token = (
                    outcome.chase.checkpoint if outcome.chase is not None else None
                )
        except BaseException as exc:
            if isinstance(exc, asyncio.CancelledError):
                raise
            if isinstance(exc, asyncio.TimeoutError):
                # The response deadline fired while the batch was still
                # solving; the batch itself keeps running for its other
                # waiters (or is cut by the chase-level deadline when this
                # waiter was the latest one).
                code = protocol.ERROR_DEADLINE_EXCEEDED
                message = (
                    "the request deadline expired before the solve finished"
                )
            else:
                code, message = protocol.classify_exception(exc)
            status = protocol.HTTP_STATUS.get(code, 500)
            return status, protocol.error_response(
                code,
                message,
                request_id,
                checkpoint_token=getattr(exc, "checkpoint", None),
            )
        else:
            status = 200
            verdict = getattr(outcome, "verdict", None)
            if verdict is not None:
                record["outcome"] = getattr(verdict, "value", str(verdict))
            self._latency.labels(strategy=self._strategy, kernel=self._kernel).observe(
                time.monotonic() - started
            )
            return 200, protocol.success_response(
                outcome, request_id, checkpoint_token=token
            )
        finally:
            self._fairness.release(request.client)
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle_event.set()
            for field in ("join", "batch_id", "batch_size"):
                if field in info:
                    record[field] = info[field]
            for field in ("queue_s", "solve_s"):
                if field in info:
                    record[field] = round(info[field], 6)
            self._log_access(
                record,
                status=status,
                code=code,
                latency=time.monotonic() - arrival,
            )


class ServiceHandle:
    """A running service on a background thread (tests, bench, examples).

    Wraps one :class:`SolverService` whose event loop lives on a daemon
    thread; :meth:`drain` requests the graceful shutdown and joins the
    thread.  Use via :func:`serve_in_thread`.
    """

    def __init__(self, service: SolverService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Start the loop thread and return the bound address."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("the service thread did not start in time")
        if self._failure is not None:
            raise RuntimeError("the service failed to start") from self._failure
        return self.service.address

    def _run(self) -> None:
        async def main() -> None:
            """Start the service and serve until drained."""
            try:
                await self.service.start()
            except BaseException as exc:  # bind failures surface to start()
                self._failure = exc
                self._started.set()
                raise
            self._started.set()
            await self.service.serve_until_drained()

        with contextlib.suppress(BaseException):
            asyncio.run(main())

    def drain(self, timeout: float = 30.0) -> None:
        """Request a graceful drain and join the service thread."""
        self.service.signal_drain()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("the service thread did not drain in time")

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.service.address


@contextlib.contextmanager
def serve_in_thread(
    service: Optional[SolverService] = None,
    *,
    config: Optional[ServiceConfig] = None,
):
    """Context manager: a live service on a background thread.

    ``config`` defaults to an ephemeral-port localhost service.  Yields the
    :class:`ServiceHandle`; the exit path always drains.
    """
    if service is None:
        if config is None:
            config = ServiceConfig(port=0)
        service = SolverService(config=config)
    handle = ServiceHandle(service)
    handle.start()
    try:
        yield handle
    finally:
        handle.drain()
