"""Tests for the request coalescer: tick batching, dedup, backpressure, drain.

The coalescer dispatches each batch on the next event-loop turn.  The
queries of one turn form the batch the test names call the window (and
``CoalescerStats.window_joins`` counts joins into it); ``asyncio.gather``
over several ``submit`` calls starts them all in the same turn.
"""

import asyncio

import pytest

from repro.api import Solver
from repro.service.coalescer import RequestCoalescer

UNIVERSE = "ABC"


def make_problems(solver, count):
    """Distinct (all implied) problems A -> B, A -> C, ... over one premise set."""
    names = [name for name in UNIVERSE if name != "A"]
    return [
        solver.problem(["A -> B", "A -> C"], f"A -> {names[i % len(names)]}")
        for i in range(count)
    ]


class RecordingDispatch:
    """An async dispatch that records batches and answers via the solver."""

    def __init__(self, solver, *, delay=0.0, fail=False):
        self.solver = solver
        self.delay = delay
        self.fail = fail
        self.batches = []

    async def __call__(self, problems, deadline=None):
        self.batches.append(list(problems))
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail:
            raise RuntimeError("dispatch blew up")
        return [self.solver.solve(problem) for problem in problems]


def run(coro):
    return asyncio.run(coro)


class TestBatching:
    def test_queries_in_one_window_share_one_batch(self):
        # Submitted in one event-loop turn, so dispatched as one batch.
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch, max_batch=64)

        async def scenario():
            problems = make_problems(solver, 2)
            outcomes = await asyncio.gather(
                *(coalescer.submit(problem) for problem in problems)
            )
            return outcomes

        outcomes = run(scenario())
        assert len(dispatch.batches) == 1
        assert len(dispatch.batches[0]) == 2
        assert all(outcome.is_implied() for outcome in outcomes)
        assert coalescer.stats.batches == 1
        assert coalescer.stats.submitted == 2

    def test_full_batch_flushes_before_the_window_closes(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        # Three distinct problems in one turn: only the max_batch early
        # flush explains a first batch that stops at two.
        coalescer = RequestCoalescer(dispatch, max_batch=2)

        async def scenario():
            third = solver.problem(["B -> C"], "B ->> C")
            problems = make_problems(solver, 2) + [third]
            return await asyncio.wait_for(
                asyncio.gather(*(coalescer.submit(p) for p in problems)),
                timeout=5.0,
            )

        outcomes = run(scenario())
        assert len(outcomes) == 3
        assert [len(batch) for batch in dispatch.batches] == [2, 1]
        assert coalescer.stats.largest_batch == 2

    def test_results_align_with_their_problems(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch, max_batch=64)

        async def scenario():
            implied = solver.problem(["A -> B"], "A ->> B")
            refuted = solver.problem(["A ->> B"], "A -> B")
            return await asyncio.gather(
                coalescer.submit(implied), coalescer.submit(refuted)
            )

        yes, no = run(scenario())
        assert yes.is_implied()
        assert no.is_refuted()


class TestDedup:
    def test_window_duplicates_join_one_slot(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch, max_batch=64)

        async def scenario():
            problem = solver.problem(["A -> B"], "A ->> B")
            return await asyncio.gather(
                *(coalescer.submit(problem) for _ in range(5))
            )

        outcomes = run(scenario())
        assert len(dispatch.batches) == 1
        assert len(dispatch.batches[0]) == 1  # five submissions, one slot
        assert coalescer.stats.window_joins == 4
        assert coalescer.stats.dispatched == 1
        assert coalescer.stats.coalesced == 4
        assert len({id(outcome) for outcome in outcomes}) == 1

    def test_in_flight_duplicates_await_the_running_batch(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver, delay=0.05)
        coalescer = RequestCoalescer(dispatch, max_batch=64)

        async def scenario():
            problem = solver.problem(["A -> B"], "A ->> B")
            first = asyncio.ensure_future(coalescer.submit(problem))
            # Let the next turn flush the batch and the batch start solving.
            await asyncio.sleep(0.02)
            assert coalescer.in_flight_batches == 1
            second = asyncio.ensure_future(coalescer.submit(problem))
            return await asyncio.gather(first, second)

        first, second = run(scenario())
        assert first is second
        assert len(dispatch.batches) == 1
        assert coalescer.stats.in_flight_joins == 1


class TestBackpressureAndFailure:
    def test_concurrent_batches_respect_the_semaphore(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        observed = []

        async def dispatch(problems, deadline=None):
            await asyncio.sleep(0.02)
            return [solver.solve(problem) for problem in problems]

        coalescer = RequestCoalescer(
            dispatch,
            max_batch=1,
            max_concurrent=2,
            on_batch=lambda size, solving, cap: observed.append((solving, cap)),
        )

        async def scenario():
            problems = make_problems(solver, 2) + [
                solver.problem(["A -> C"], "A ->> C"),
                solver.problem(["B -> C"], "B ->> C"),
            ]
            return await asyncio.gather(
                *(coalescer.submit(problem) for problem in problems)
            )

        outcomes = run(scenario())
        assert len(outcomes) == 4
        assert observed  # the hook fired
        assert max(solving for solving, _ in observed) <= 2
        assert all(cap == 2 for _, cap in observed)

    def test_dispatch_failure_propagates_to_every_waiter(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver, fail=True)
        coalescer = RequestCoalescer(dispatch, max_batch=64)

        async def scenario():
            problem = solver.problem(["A -> B"], "A ->> B")
            return await asyncio.gather(
                *(coalescer.submit(problem) for _ in range(3)),
                return_exceptions=True,
            )

        results = run(scenario())
        assert len(results) == 3
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_waiter_cancellation_spares_the_other_waiters(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver, delay=0.05)
        coalescer = RequestCoalescer(dispatch, max_batch=64)

        async def scenario():
            problem = solver.problem(["A -> B"], "A ->> B")
            survivor = asyncio.ensure_future(coalescer.submit(problem))
            doomed = asyncio.ensure_future(coalescer.submit(problem))
            await asyncio.sleep(0.01)
            doomed.cancel()
            outcome = await survivor
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return outcome

        assert run(scenario()).is_implied()


class TestDrain:
    def test_drain_flushes_the_open_window(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch, max_batch=64)

        async def scenario():
            problem = solver.problem(["A -> B"], "A ->> B")
            pending = asyncio.ensure_future(coalescer.submit(problem))
            # One yield: the submission opens a batch whose flush waits for
            # the next turn, and drain() runs first.
            await asyncio.sleep(0)
            assert dispatch.batches == []
            await coalescer.drain()
            # Only drain() flushed and awaited the batch before returning.
            assert len(dispatch.batches) == 1
            return await pending

        assert run(scenario()).is_implied()
        assert len(dispatch.batches) == 1

    def test_submissions_after_drain_are_rejected(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch)

        async def scenario():
            await coalescer.drain()
            with pytest.raises(RuntimeError):
                await coalescer.submit(solver.problem(["A -> B"], "A ->> B"))

        run(scenario())

    def test_constructor_validates_its_knobs(self):
        async def dispatch(problems, deadline=None):  # pragma: no cover - never invoked
            return []

        with pytest.raises(ValueError):
            RequestCoalescer(dispatch, max_batch=0)
        with pytest.raises(ValueError):
            RequestCoalescer(dispatch, max_concurrent=0)


class TestStats:
    """Satellite: joins split into canonical vs syntactic, evictions counted."""

    def test_window_repeats_are_syntactic_hits(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch)

        async def scenario():
            problem = solver.problem(["A -> B"], "A ->> B")
            await asyncio.gather(*(coalescer.submit(problem) for _ in range(3)))

        run(scenario())
        assert coalescer.stats.window_joins == 2
        assert coalescer.stats.syntactic_hits == 2
        assert coalescer.stats.canonical_hits == 0
        assert coalescer.stats.evictions == 0

    def test_renamed_twins_join_canonically(self):
        from repro.config import SolverConfig
        from repro.model.canon import rename_problem

        solver = Solver(
            universe=UNIVERSE,
            config=SolverConfig().with_cache(mode="canonical"),
            use_cache=False,
        )
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch, identity=solver.identity)

        async def scenario():
            problem = solver.problem(["A -> B"], "A -> C")
            twin = rename_problem(problem, {"B": "C", "C": "B"})
            await asyncio.gather(coalescer.submit(problem), coalescer.submit(twin))

        run(scenario())
        # the renamed twin joined the opener's slot -- one dispatched problem
        assert len(dispatch.batches) == 1
        assert len(dispatch.batches[0]) == 1
        assert coalescer.stats.canonical_hits == 1
        assert coalescer.stats.syntactic_hits == 0

    def test_failed_batches_count_as_evictions(self):
        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver, fail=True)
        coalescer = RequestCoalescer(dispatch)

        async def scenario():
            with pytest.raises(RuntimeError):
                await coalescer.submit(solver.problem(["A -> B"], "A ->> B"))

        run(scenario())
        assert coalescer.stats.evictions == 1

    def test_stats_round_trip(self):
        from repro.service.coalescer import CoalescerStats

        solver = Solver(universe=UNIVERSE, use_cache=False)
        dispatch = RecordingDispatch(solver)
        coalescer = RequestCoalescer(dispatch)

        async def scenario():
            problem = solver.problem(["A -> B"], "A ->> B")
            await asyncio.gather(*(coalescer.submit(problem) for _ in range(4)))

        run(scenario())
        stats = coalescer.stats
        rebuilt = CoalescerStats.from_dict(stats.to_dict())
        assert rebuilt == stats
        assert rebuilt.coalesced == stats.window_joins + stats.in_flight_joins
