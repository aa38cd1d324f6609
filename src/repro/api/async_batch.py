"""The asyncio batch front-end: :class:`AsyncSolver` / ``solve_many_async``.

:meth:`repro.api.Solver.solve_many` answers a batch the caller assembled up
front.  Service-shaped traffic -- thousands of *independent* implication
queries arriving continuously -- wants queries answered as they come, with
backpressure instead of unbounded fan-out.  :class:`AsyncSolver` provides
exactly that:

* **semaphore backpressure** -- at most ``max_in_flight`` queries are
  dispatched at any moment; the rest await the semaphore, so a burst of
  10k queries never swamps the executor's queue or the host's memory;
* **shared dedup/memoization** -- the same
  :class:`~repro.api.identity.ProblemIdentity` keying the synchronous
  batch path uses: solved outcomes come from (and feed) the wrapped
  solver's outcome store, and *concurrently* in-flight duplicates (in
  canonical mode, including renamed isomorphic twins) await one shared
  future instead of solving twice;
* **an optional caller-owned executor** -- by default queries solve inline
  on the event loop (cooperative sequential mode); pass ``executor=`` (for
  example a :mod:`concurrent.futures` process pool the caller creates and
  shuts down) to spread distinct queries over its workers.

The library never creates a pool of its own; for request traffic, more
cores come from ``python -m repro.service --workers N``.

Every answer is byte-identical to :meth:`Solver.solve` -- executor workers
rebuild the same solver from the same frozen config -- so the front-end is
purely a throughput/latency device.  If the executor breaks (a dead pool,
a sandbox that refuses to fork) it degrades to inline solving with the
same answers.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import BrokenExecutor, Executor
from typing import TYPE_CHECKING, Optional, Sequence

from repro.implication.problem import ImplicationOutcome, ImplicationProblem
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.solver import Solver

#: Default bound on concurrently dispatched queries (the backpressure knob).
DEFAULT_MAX_IN_FLIGHT = 64


class AsyncSolverError(ReproError):
    """A misconfigured :class:`AsyncSolver`."""


def _solve_in_worker(payload) -> ImplicationOutcome:
    """Executor entry point: rebuild a solver and solve one problem.

    Top-level (hence picklable) on purpose.  Each worker gets the parent
    solver's config and universe, so budgets and dispatch are identical to a
    sequential run.
    """
    from repro.api.solver import Solver

    config, universe, problem = payload
    return Solver(universe=universe, config=config).solve(problem)


class AsyncSolver:
    """An asyncio front-end multiplexing queries with semaphore backpressure.

    Parameters
    ----------
    solver:
        The :class:`~repro.api.solver.Solver` answering the queries (its
        frozen config fixes every budget; its outcome cache is shared with
        the synchronous paths).  ``None`` builds a fresh solver from
        ``universe`` / ``config``.
    universe, config:
        Forwarded to :class:`~repro.api.solver.Solver` when ``solver`` is
        ``None``; passing them *alongside* a solver is an error.
    max_in_flight:
        Bound on concurrently dispatched queries; further ``solve`` calls
        await a semaphore.  This is what keeps ``solve_many`` over
        thousands of problems from swamping the executor's queue.
    executor:
        An :class:`~concurrent.futures.Executor` to dispatch distinct
        queries to, for example a process pool shared by several
        front-ends.  ``None`` (the default) solves inline on the event loop
        (cooperative sequential mode -- same answers, no parallelism).  The
        caller keeps ownership: :meth:`close` does not shut it down.

    One front-end serves one event loop at a time: the semaphore and the
    in-flight futures re-bind automatically when a new loop (a fresh
    ``asyncio.run``) takes over.
    """

    def __init__(
        self,
        solver: Optional["Solver"] = None,
        *,
        universe=None,
        config=None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        executor: Optional[Executor] = None,
    ) -> None:
        if solver is None:
            from repro.api.solver import Solver

            solver = Solver(universe=universe, config=config)
        elif universe is not None or config is not None:
            raise AsyncSolverError(
                "pass either a ready Solver or universe/config, not both"
            )
        if max_in_flight < 1:
            raise AsyncSolverError("an AsyncSolver needs max_in_flight >= 1")
        self._solver = solver
        self._max_in_flight = max_in_flight
        self._executor = executor
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._gate: Optional[asyncio.Semaphore] = None
        self._in_flight: dict = {}

    # -- accessors -------------------------------------------------------------

    @property
    def solver(self) -> "Solver":
        """The wrapped solver (caches and stats are shared with it)."""
        return self._solver

    @property
    def max_in_flight(self) -> int:
        """The configured concurrency bound."""
        return self._max_in_flight

    # -- queries ---------------------------------------------------------------

    async def solve(self, problem: ImplicationProblem) -> ImplicationOutcome:
        """Solve one problem through the executor (or the caches).

        Identical problems are solved once: a memoized outcome returns
        immediately, and a problem currently being solved by another task
        is awaited instead of re-dispatched.  If that other task is
        *cancelled* mid-solve, one of its awaiters takes over as the new
        leader (a cancelled sibling never poisons the rest); real solver
        errors propagate to every awaiter.
        """
        if self._closed:
            raise RuntimeError(
                "this AsyncSolver is closed; create a new front-end"
            )
        identity = self._solver.identity(problem)
        while True:
            hit = self._solver.lookup(identity)
            if hit is not None:
                self._solver.stats.merge_run(
                    problems=1,
                    unique=0,
                    hits=1,
                    solved=0,
                    canonical_hits=int(hit.canonical),
                    syntactic_hits=int(not hit.canonical),
                )
                return hit.outcome
            loop, gate = self._bind_loop()
            pending = self._in_flight.get(identity)
            if pending is None:
                break
            shared, leader_fingerprint = pending
            try:
                # shield: cancelling THIS waiter must cancel only its own
                # await, never the shared future the leader will resolve.
                outcome = await asyncio.shield(shared)
            except asyncio.CancelledError:
                if shared.cancelled():
                    # The leader died of *its own* cancellation (it pops
                    # the key before cancelling the future); yield once so
                    # a done-future can never spin the loop, then retry as
                    # the new leader.
                    await asyncio.sleep(0)
                    continue
                raise  # this waiter was cancelled: honour it
            canonical = leader_fingerprint != identity.fingerprint
            self._solver.stats.merge_run(
                problems=1,
                unique=0,
                hits=1,
                solved=0,
                canonical_hits=int(canonical),
                syntactic_hits=int(not canonical),
            )
            return outcome
        future: asyncio.Future = loop.create_future()
        self._in_flight[identity] = (future, identity.fingerprint)
        try:
            async with gate:
                outcome = await self._dispatch(loop, problem)
        except BaseException as exc:
            self._in_flight.pop(identity, None)
            if not future.done():
                if isinstance(exc, asyncio.CancelledError):
                    future.cancel()
                else:
                    future.set_exception(exc)
                    # Mark retrieved: sibling awaiters re-raise through the
                    # future; without one, an unobserved exception would log.
                    future.exception()
            raise
        self._solver.seed_outcome(identity, outcome)
        self._in_flight.pop(identity, None)
        if not future.done():
            future.set_result(outcome)
        self._solver.stats.merge_run(problems=1, unique=1, hits=0, solved=1)
        return outcome

    async def solve_many(
        self, problems: Sequence[ImplicationProblem]
    ) -> list[ImplicationOutcome]:
        """Solve many problems concurrently; results align positionally.

        All queries are admitted at once and the semaphore meters them into
        dispatch ``max_in_flight`` at a time, so the call scales to
        thousands of problems with bounded resource use.
        """
        return list(await asyncio.gather(*(self.solve(p) for p in problems)))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the front-end for good (idempotent and terminal).

        The front-end drops its executor reference but never shuts the
        executor down: it belongs to the caller, who may share it.  Safe
        to call from ``finally`` blocks and to call twice.  A closed
        front-end is *done*: later ``solve`` / ``solve_many`` calls raise
        a clear ``RuntimeError`` instead of dispatching to an executor its
        owner may already have shut down.
        """
        self._closed = True
        self._executor = None

    async def __aenter__(self) -> "AsyncSolver":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- internals -------------------------------------------------------------

    def _bind_loop(self):
        """The running loop's semaphore/in-flight table (re-bound per loop)."""
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            self._gate = asyncio.Semaphore(self._max_in_flight)
            self._in_flight = {}
        return loop, self._gate

    async def _dispatch(
        self, loop: asyncio.AbstractEventLoop, problem: ImplicationProblem
    ) -> ImplicationOutcome:
        executor = self._executor
        if executor is None:
            # Cooperative sequential mode: solve inline, then yield so
            # sibling tasks (and their cache hits) interleave fairly.
            outcome = self._solver.solve(problem)
            await asyncio.sleep(0)
            return outcome
        payload = (self._solver.config, self._solver.universe, problem)
        try:
            return await loop.run_in_executor(executor, _solve_in_worker, payload)
        except (OSError, BrokenExecutor):
            # The pool died or the sandbox refused to fork: answers are
            # identical inline, so degrade for this and every later query
            # (the executor is dropped but left for its owner to shut down).
            self._executor = None
            return self._solver.solve(problem)
