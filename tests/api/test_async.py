"""Tests for the asyncio batch front-end (AsyncSolver / solve_many_async).

The front-end must be a pure throughput device: answers byte-identical to
the sequential paths, concurrency bounded by the semaphore, identical
queries deduplicated (memoized outcomes and shared in-flight futures), a
broken executor degraded to inline solving, and a caller-owned executor
left to its owner on every path.  No pytest-asyncio here: each test drives
its own event loop through ``asyncio.run``.
"""

import asyncio
import multiprocessing
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

import pytest

from repro.api import (
    AsyncSolver,
    AsyncSolverError,
    DEFAULT_MAX_IN_FLIGHT,
    Solver,
)

UNIVERSE = "ABCD"


@pytest.fixture(autouse=True)
def _default_cache_env(monkeypatch):
    """These tests pin default-cache dedup semantics; scrub the CI legs'
    REPRO_CACHE_MODE override so "auto" resolves to its documented default."""
    from repro.config import CACHE_MODE_ENV

    monkeypatch.delenv(CACHE_MODE_ENV, raising=False)


PREMISE_BLOCKS = [
    ["A -> B", "B -> C"],
    ["A ->> B"],
    ["AB -> C", "C -> D"],
]

CONCLUSIONS = ["A -> C", "A ->> B", "AB -> D", "A -> D"]


def process_pool():
    """Two real worker processes, spawned (forking a threaded test run is unsafe)."""
    return ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))


def distinct_problems(solver):
    return [
        solver.problem(premises, conclusion)
        for premises in PREMISE_BLOCKS
        for conclusion in CONCLUSIONS
    ]


class InstrumentedExecutor(ThreadPoolExecutor):
    """A thread pool that records peak concurrent task execution."""

    def __init__(self, max_workers=8, delay=0.005):
        super().__init__(max_workers=max_workers)
        self._lock = threading.Lock()
        self._delay = delay
        self.active = 0
        self.peak = 0
        self.submitted = 0

    def submit(self, fn, *args):
        def wrapped(*inner):
            with self._lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            try:
                time.sleep(self._delay)  # widen the overlap window
                return fn(*inner)
            finally:
                with self._lock:
                    self.active -= 1

        with self._lock:
            self.submitted += 1
        return super().submit(wrapped, *args)


class ExplodingExecutor(ThreadPoolExecutor):
    """A pool whose submissions always fail like a broken process pool."""

    def submit(self, fn, *args):
        raise BrokenExecutor("worker pool is gone")


class TestAnswers:
    def test_inline_mode_matches_solve_many(self):
        solver = Solver(universe=UNIVERSE)
        problems = distinct_problems(solver) * 3
        expected = Solver(universe=UNIVERSE).solve_many(problems)
        outcomes = asyncio.run(solver.solve_many_async(problems))
        assert len(outcomes) == len(problems)
        for fast, slow in zip(outcomes, expected):
            assert fast.verdict is slow.verdict
            assert fast.reason == slow.reason

    def test_pool_mode_matches_solve_many(self):
        solver = Solver(universe=UNIVERSE)
        problems = distinct_problems(solver) * 2
        expected = Solver(universe=UNIVERSE).solve_many(problems)

        async def main(pool):
            async with AsyncSolver(solver, executor=pool) as front:
                return await front.solve_many(problems)

        with process_pool() as pool:
            outcomes = asyncio.run(main(pool))
        for fast, slow in zip(outcomes, expected):
            assert fast.verdict is slow.verdict
            assert fast.reason == slow.reason

    def test_outcomes_feed_the_shared_solver_cache(self):
        solver = Solver(universe=UNIVERSE)
        problems = distinct_problems(solver)
        asyncio.run(solver.solve_many_async(problems))
        # A later *synchronous* batch is served entirely from the cache.
        before = solver.stats.solved
        solver.solve_many(problems)
        assert solver.stats.solved == before

    def test_front_end_survives_consecutive_event_loops(self):
        solver = Solver(universe=UNIVERSE)
        front = AsyncSolver(solver)
        problems = distinct_problems(solver)[:4]
        first = asyncio.run(front.solve_many(problems))
        second = asyncio.run(front.solve_many(problems))  # a fresh loop
        for a, b in zip(first, second):
            assert a.verdict is b.verdict
        front.close()


class TestBackpressureAndDedup:
    def test_semaphore_bounds_in_flight_dispatches(self):
        solver = Solver(universe=UNIVERSE)
        problems = distinct_problems(solver)
        executor = InstrumentedExecutor()
        try:
            front = AsyncSolver(solver, max_in_flight=3, executor=executor)
            asyncio.run(front.solve_many(problems))
        finally:
            executor.shutdown(wait=True)
        assert executor.peak <= 3
        assert executor.peak >= 2, "queries never overlapped"

    def test_concurrent_duplicates_share_one_dispatch(self):
        solver = Solver(universe=UNIVERSE)
        problems = distinct_problems(solver)[:3] * 5
        executor = InstrumentedExecutor()
        try:
            front = AsyncSolver(solver, executor=executor)
            outcomes = asyncio.run(front.solve_many(problems))
        finally:
            executor.shutdown(wait=True)
        assert executor.submitted == 3
        assert len(outcomes) == len(problems)
        assert solver.stats.problems == len(problems)
        assert solver.stats.solved == 3
        assert solver.stats.cache_hits == len(problems) - 3

    def test_memoized_outcomes_never_reach_the_pool(self):
        solver = Solver(universe=UNIVERSE)
        problems = distinct_problems(solver)[:3]
        executor = InstrumentedExecutor()
        try:
            front = AsyncSolver(solver, executor=executor)
            asyncio.run(front.solve_many(problems))
            asyncio.run(front.solve_many(problems))
        finally:
            executor.shutdown(wait=True)
        assert executor.submitted == 3


class TestFailurePaths:
    def test_broken_pool_degrades_to_inline_with_identical_answers(self):
        solver = Solver(universe=UNIVERSE)
        problems = distinct_problems(solver)
        expected = Solver(universe=UNIVERSE).solve_many(problems)
        executor = ExplodingExecutor(max_workers=1)
        try:
            front = AsyncSolver(solver, executor=executor)
            outcomes = asyncio.run(front.solve_many(problems))
        finally:
            executor.shutdown(wait=True)
        for fast, slow in zip(outcomes, expected):
            assert fast.verdict is slow.verdict

    def test_worker_errors_propagate_to_every_awaiter(self):
        solver = Solver(universe=UNIVERSE)
        problem = distinct_problems(solver)[0]

        class FailingExecutor(ThreadPoolExecutor):
            def submit(self, fn, *args):
                return super().submit(self._explode)

            @staticmethod
            def _explode():
                raise RuntimeError("injected worker failure")

        executor = FailingExecutor(max_workers=1)
        try:
            front = AsyncSolver(solver, executor=executor)

            async def main():
                return await asyncio.gather(
                    front.solve(problem),
                    front.solve(problem),
                    return_exceptions=True,
                )

            results = asyncio.run(main())
        finally:
            executor.shutdown(wait=True)
        assert len(results) == 2
        for result in results:
            assert isinstance(result, RuntimeError)
        # The failure is not cached: the problem can be retried.
        assert solver.cached_outcome(problem) is None

    def test_misconfiguration_raises(self):
        solver = Solver(universe=UNIVERSE)
        with pytest.raises(AsyncSolverError):
            AsyncSolver(solver, universe=UNIVERSE)
        with pytest.raises(AsyncSolverError):
            AsyncSolver(solver, max_in_flight=0)

    def test_cancelled_leader_does_not_poison_siblings(self):
        """A sibling awaiting a shared in-flight future must survive the
        leader task's cancellation by taking over as the new leader."""
        import contextlib

        solver = Solver(universe=UNIVERSE)
        problem = distinct_problems(solver)[0]
        executor = InstrumentedExecutor(delay=0.05)
        try:
            front = AsyncSolver(solver, executor=executor)

            async def main():
                leader = asyncio.create_task(front.solve(problem))
                await asyncio.sleep(0.01)  # leader registers and dispatches
                sibling = asyncio.create_task(front.solve(problem))
                await asyncio.sleep(0.01)  # sibling awaits the shared future
                leader.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await leader
                return await sibling

            outcome = asyncio.run(main())
        finally:
            executor.shutdown(wait=True)
        expected = Solver(universe=UNIVERSE).solve(problem)
        assert outcome.verdict is expected.verdict
        assert executor.submitted == 2  # the sibling re-dispatched

    def test_cancelled_waiter_neither_poisons_nor_livelocks(self):
        """Cancelling a task that *awaits* a shared in-flight future must
        cancel only that waiter: the shared future stays alive for the
        leader to resolve, the leader's answer arrives, and nothing spins
        the event loop (regression for a livelock where the waiter's
        cancellation propagated into the shared future)."""
        import contextlib

        solver = Solver(universe=UNIVERSE)
        problem = distinct_problems(solver)[0]
        executor = InstrumentedExecutor(delay=0.05)
        try:
            front = AsyncSolver(solver, executor=executor)

            async def main():
                leader = asyncio.create_task(front.solve(problem))
                await asyncio.sleep(0.01)  # leader registers and dispatches
                waiter = asyncio.create_task(front.solve(problem))
                await asyncio.sleep(0.01)  # waiter awaits the shared future
                waiter.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await waiter
                assert waiter.cancelled()
                return await asyncio.wait_for(leader, timeout=10)

            outcome = asyncio.run(main())
        finally:
            executor.shutdown(wait=True)
        expected = Solver(universe=UNIVERSE).solve(problem)
        assert outcome.verdict is expected.verdict
        assert executor.submitted == 1  # the leader's dispatch, undisturbed

    def test_close_is_idempotent_and_leaves_no_pool(self):
        """close() drops the front-end's executor reference but leaves the
        pool itself usable: the caller owns it."""
        with process_pool() as pool:
            front = AsyncSolver(Solver(universe=UNIVERSE), executor=pool)
            problems = distinct_problems(front.solver)[:2]
            asyncio.run(front.solve_many(problems))
            front.close()
            front.close()
            assert front._executor is None
            assert pool.submit(pow, 2, 5).result(timeout=10) == 32

    def test_solve_after_close_raises_runtime_error(self):
        """close() is terminal: later queries raise a clear RuntimeError
        instead of dying inside a torn-down executor or silently
        resurrecting a pool nothing would shut down."""
        with process_pool() as pool:
            front = AsyncSolver(Solver(universe=UNIVERSE), executor=pool)
            problems = distinct_problems(front.solver)
            asyncio.run(front.solve_many(problems[:2]))
            front.close()
            with pytest.raises(RuntimeError, match="closed"):
                asyncio.run(front.solve_many(problems[2:4]))
            assert front._executor is None  # no pool came back

    def test_double_close_then_solve_still_raises_cleanly(self):
        """The double-close regression: the second close() must stay a
        no-op and the closed state must survive it."""
        with process_pool() as pool:
            front = AsyncSolver(Solver(universe=UNIVERSE), executor=pool)
            front.close()
            front.close()
            with pytest.raises(RuntimeError, match="closed"):
                asyncio.run(front.solve(distinct_problems(front.solver)[0]))

    def test_context_manager_exit_closes_for_good(self):
        async def main():
            async with AsyncSolver(Solver(universe=UNIVERSE)) as front:
                problems = distinct_problems(front.solver)[:2]
                outcomes = await front.solve_many(problems)
            return front, outcomes

        front, outcomes = asyncio.run(main())
        assert len(outcomes) == 2
        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(front.solve(distinct_problems(front.solver)[0]))

    def test_default_max_in_flight_is_sane(self):
        assert DEFAULT_MAX_IN_FLIGHT >= 1
        front = AsyncSolver(Solver(universe=UNIVERSE))
        assert front.max_in_flight == DEFAULT_MAX_IN_FLIGHT
