"""The request coalescer: tick batching with cross-client result sharing.

Service traffic arrives one query at a time, but the solver's batch path
(:meth:`repro.api.Solver.solve_many`) is at its best over *batches*:
repeated problems dedup, shared premise sets normalise once, and dispatch
amortises.  The coalescer reconciles the two shapes without making any
query wait for companions:

* the first query to arrive opens a batch and schedules its flush for the
  next event-loop turn (``loop.call_soon``); every query submitted in the
  same turn joins that batch, which flushes at once if it reaches
  ``max_batch`` distinct problems first;
* queries are keyed by a :class:`~repro.api.identity.ProblemIdentity`
  (the server passes its solver's identity function, so the coalescer
  dedups in the same syntactic/canonical regime as the cache below it):
  duplicates of a problem in the batch not yet dispatched join its pending
  entry (a ``"window"`` join, a name kept from when batches waited a fixed
  window), duplicates of a problem whose batch is already **in flight**
  await that batch's shared future -- across clients, which is where
  multi-tenant traffic overlaps; in canonical mode, renamed isomorphic
  queries from different tenants collapse into one slot;
* at most ``max_concurrent`` batches solve at once (a semaphore); the
  ``in_flight_batches`` gauge over that capacity is the service's
  saturation signal.

The coalescer does not solve anything itself: it is handed an async
``dispatch`` callable (``(problems, *, deadline) -> outcomes``); the server
wires ``solve_many`` on a worker thread, and tests substitute fakes behind
the same batching policy.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
)

from repro.api.identity import identity_of
from repro.implication.problem import ImplicationOutcome, ImplicationProblem

#: ``dispatch(problems, deadline=...)``: the batch's problems and its
#: deadline (an absolute ``time.monotonic()`` instant, or ``None``).
Dispatch = Callable[..., Awaitable[List[ImplicationOutcome]]]

#: The keying function queries are deduplicated under.  Anything hashable
#: works; a :class:`~repro.api.identity.ProblemIdentity` additionally lets
#: the coalescer classify joins as canonical vs syntactic.
IdentityFn = Callable[[ImplicationProblem], Hashable]


@dataclass
class _Slot:
    """One deduplicated problem awaiting (or undergoing) dispatch.

    ``deadline`` aggregates the waiters' deadlines under the batch rule
    (max of bounded deadlines; ``None`` as soon as any waiter is
    unbounded, since the batch must finish for them regardless).
    ``infos`` collects the per-request annotation dicts of every waiter
    so the batch can stamp them with its id and timings on completion.
    """

    problem: ImplicationProblem
    future: asyncio.Future
    fingerprint: Optional[str]
    deadline: Optional[float]
    enqueued: float
    infos: List[dict] = field(default_factory=list)


@dataclass
class CoalescerStats:
    """Lifetime counters describing how much coalescing actually happened.

    ``window_joins`` counts joins into a batch that has not been
    dispatched yet (one submitted in the same event-loop turn),
    ``in_flight_joins`` joins into a batch that is already solving.
    ``canonical_hits``/``syntactic_hits`` split the joins
    (``window_joins + in_flight_joins``) by how they matched: a join whose
    statement differs from the slot opener's (a renamed isomorphic twin,
    possible only under canonical identity) is canonical, a verbatim
    repeat is syntactic.  ``evictions`` counts slots abandoned without a
    result (their batch's dispatch failed).
    """

    submitted: int = 0
    dispatched: int = 0
    window_joins: int = 0
    in_flight_joins: int = 0
    batches: int = 0
    largest_batch: int = 0
    canonical_hits: int = 0
    syntactic_hits: int = 0
    evictions: int = 0

    @property
    def coalesced(self) -> int:
        """Queries served without their own dispatch slot."""
        return self.window_joins + self.in_flight_joins

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "submitted": self.submitted,
            "dispatched": self.dispatched,
            "window_joins": self.window_joins,
            "in_flight_joins": self.in_flight_joins,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "canonical_hits": self.canonical_hits,
            "syntactic_hits": self.syntactic_hits,
            "evictions": self.evictions,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CoalescerStats":
        """Rebuild counters from :meth:`to_dict` output."""
        return cls(
            submitted=payload.get("submitted", 0),
            dispatched=payload.get("dispatched", 0),
            window_joins=payload.get("window_joins", 0),
            in_flight_joins=payload.get("in_flight_joins", 0),
            batches=payload.get("batches", 0),
            largest_batch=payload.get("largest_batch", 0),
            canonical_hits=payload.get("canonical_hits", 0),
            syntactic_hits=payload.get("syntactic_hits", 0),
            evictions=payload.get("evictions", 0),
        )


class RequestCoalescer:
    """Batches the queries of one event-loop turn and shares in-flight results.

    Parameters
    ----------
    dispatch:
        Async callable solving one batch, called as
        ``dispatch(problems, deadline=...)`` with the batch deadline
        (``None`` when unbounded); results must align positionally with
        the problems (exactly ``solve_many``'s contract).
    max_batch:
        The most *distinct* problems one batch holds: a turn that submits
        more flushes a full batch at once and opens the next.
    max_concurrent:
        How many flushed batches may be solving at once.
    on_batch:
        Optional hook ``(batch_size, in_flight, capacity) -> None`` invoked
        at each flush, for the server's metrics.
    identity:
        The keying function; defaults to syntactic
        :func:`~repro.api.identity.identity_of`.  The server passes its
        solver's :meth:`~repro.api.Solver.identity` so the coalescer and
        the outcome store dedup in the same regime.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        *,
        max_batch: int = 64,
        max_concurrent: int = 4,
        on_batch: Optional[Callable[[int, int, int], None]] = None,
        identity: Optional[IdentityFn] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("a coalescer needs max_batch >= 1")
        if max_concurrent < 1:
            raise ValueError("a coalescer needs max_concurrent >= 1")
        self._dispatch = dispatch
        self._max_batch = max_batch
        self._capacity = max_concurrent
        self._on_batch = on_batch
        self._identity: IdentityFn = identity if identity is not None else identity_of
        self.stats = CoalescerStats()
        self._pending: Dict[Hashable, _Slot] = {}
        self._in_flight: Dict[Hashable, _Slot] = {}
        self._flush_handle: Optional[asyncio.Handle] = None
        self._batch_tasks: set = set()
        self._gate: Optional[asyncio.Semaphore] = None
        self._solving = 0
        self._closed = False

    @property
    def in_flight_batches(self) -> int:
        """How many flushed batches are currently solving."""
        return self._solving

    @property
    def capacity(self) -> int:
        """The concurrent-batch bound (the saturation denominator)."""
        return self._capacity

    async def submit(
        self,
        problem: ImplicationProblem,
        *,
        deadline: Optional[float] = None,
        info: Optional[dict] = None,
    ) -> ImplicationOutcome:
        """Queue one problem and await its outcome.

        Duplicate problems (same identity) share one slot: in the batch not
        yet dispatched they join the pending entry, and while a batch is
        solving they await its shared future.  Waiter cancellation never
        cancels the shared future (other clients may be waiting on it).

        ``deadline`` is an absolute ``time.monotonic()`` instant after
        which this waiter no longer cares; the batch is dispatched with
        the *latest* of its members' deadlines (or none, if any member is
        unbounded), so one impatient client can never cut a batch short
        for the others.  Joining an already-dispatched batch cannot
        extend its deadline.  ``info``, when given, is annotated in place
        with the join class (``leader``/``window``/``in_flight``) and --
        once the batch completes -- its ``batch_id``, ``batch_size``,
        ``queue_s`` (submission to dispatch: one loop turn, plus any wait
        for a free batch slot) and ``solve_s``, for the server's access log.
        """
        if self._closed:
            raise RuntimeError("this RequestCoalescer is draining/closed")
        key = self._identity(problem)
        fingerprint = getattr(key, "fingerprint", None)
        self.stats.submitted += 1
        slot = self._in_flight.get(key)
        if slot is not None:
            self.stats.in_flight_joins += 1
            self._classify_join(fingerprint, slot.fingerprint)
            if info is not None:
                info["join"] = "in_flight"
                slot.infos.append(info)
            return await asyncio.shield(slot.future)
        slot = self._pending.get(key)
        if slot is not None:
            self.stats.window_joins += 1
            self._classify_join(fingerprint, slot.fingerprint)
            if deadline is None:
                slot.deadline = None
            elif slot.deadline is not None:
                slot.deadline = max(slot.deadline, deadline)
            if info is not None:
                info["join"] = "window"
                slot.infos.append(info)
            return await asyncio.shield(slot.future)
        loop = asyncio.get_running_loop()
        if self._gate is None:
            self._gate = asyncio.Semaphore(self._capacity)
        future: asyncio.Future = loop.create_future()
        slot = _Slot(problem, future, fingerprint, deadline, time.monotonic())
        if info is not None:
            info["join"] = "leader"
            slot.infos.append(info)
        self._pending[key] = slot
        if len(self._pending) >= self._max_batch:
            self._flush(loop)
        elif self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush, loop)
        return await asyncio.shield(future)

    async def drain(self) -> None:
        """Flush the batch not yet dispatched and wait for every in-flight one.

        After a drain the coalescer rejects new submissions; this is the
        service's graceful-shutdown path.
        """
        self._closed = True
        self._flush(asyncio.get_running_loop())
        while self._batch_tasks:
            await asyncio.gather(*tuple(self._batch_tasks), return_exceptions=True)

    # -- internals -------------------------------------------------------------

    def _classify_join(
        self, fingerprint: Optional[str], leader_fingerprint: Optional[str]
    ) -> None:
        """Count one join as canonical (renamed twin) or syntactic (repeat)."""
        if (
            fingerprint is not None
            and leader_fingerprint is not None
            and fingerprint != leader_fingerprint
        ):
            self.stats.canonical_hits += 1
        else:
            self.stats.syntactic_hits += 1

    def _flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending:
            return
        batch, self._pending = self._pending, {}
        self._in_flight.update(batch)
        task = loop.create_task(self._run_batch(batch))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    @staticmethod
    def _batch_deadline(batch: Dict[Hashable, _Slot]) -> Optional[float]:
        """The batch-wide deadline: max over members, unbounded wins."""
        deadline: Optional[float] = None
        for slot in batch.values():
            if slot.deadline is None:
                return None
            if deadline is None or slot.deadline > deadline:
                deadline = slot.deadline
        return deadline

    async def _run_batch(self, batch: Dict[Hashable, _Slot]) -> None:
        assert self._gate is not None
        async with self._gate:
            self._solving += 1
            self.stats.batches += 1
            batch_id = self.stats.batches
            self.stats.dispatched += len(batch)
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
            if self._on_batch is not None:
                self._on_batch(len(batch), self._solving, self._capacity)
            problems = [slot.problem for slot in batch.values()]
            started = time.monotonic()
            try:
                outcomes = await self._dispatch(
                    problems, deadline=self._batch_deadline(batch)
                )
            except BaseException as exc:
                # These slots deliver no result: their waiters re-raise and
                # nothing was cached, so count them as evicted.
                self.stats.evictions += len(batch)
                for slot in batch.values():
                    if not slot.future.done():
                        slot.future.set_exception(exc)
                        # Mark retrieved: every waiter re-raises through its
                        # shielded await; without this an abandoned future
                        # would log "exception never retrieved".
                        slot.future.exception()
                if isinstance(exc, asyncio.CancelledError):
                    raise
            else:
                for slot, outcome in zip(batch.values(), outcomes):
                    if not slot.future.done():
                        slot.future.set_result(outcome)
            finally:
                solve_s = time.monotonic() - started
                for slot in batch.values():
                    for info in slot.infos:
                        info["batch_id"] = batch_id
                        info["batch_size"] = len(batch)
                        info["queue_s"] = max(0.0, started - slot.enqueued)
                        info["solve_s"] = solve_s
                self._solving -= 1
                for key in batch:
                    self._in_flight.pop(key, None)
