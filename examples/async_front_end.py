"""Service-shaped solving: the asyncio front-end.

``Solver.solve_many_async`` / :class:`~repro.api.AsyncSolver` multiplex a
burst of independent implication queries with semaphore backpressure --
the calling style of a service that answers queries as they arrive instead
of in carefully pre-assembled batches.

Run with::

    PYTHONPATH=src python examples/async_front_end.py
"""

import asyncio
import time

from repro.api import AsyncSolver, Solver

ATTRIBUTES = "ABCD"

PREMISE_BLOCKS = [
    ["A -> B", "B -> C"],
    ["A ->> B", "B ->> C"],
    ["AB -> C", "C -> D"],
    ["A ->> B"],
]

CONCLUSIONS = ["A -> C", "A -> D", "A ->> B", "AB -> D", "join[AB, ACD]"]


def query_burst(solver: Solver, repeats: int = 10):
    """A service-shaped burst: distinct queries interleaved with repeats."""
    distinct = [
        solver.problem(premises, conclusion)
        for premises in PREMISE_BLOCKS
        for conclusion in CONCLUSIONS
    ]
    return distinct * repeats


async def async_front_end_demo() -> None:
    solver = Solver(universe=ATTRIBUTES)
    burst = query_burst(solver)
    print(
        f"async front-end: {len(burst)} queries "
        f"({len(PREMISE_BLOCKS) * len(CONCLUSIONS)} distinct)"
    )
    start = time.perf_counter()
    async with AsyncSolver(solver, max_in_flight=8) as front:
        outcomes = await front.solve_many(burst)
    elapsed = time.perf_counter() - start
    implied = sum(1 for outcome in outcomes if outcome.is_implied())
    print(f"  answered in {elapsed * 1e3:.1f} ms; {implied} implied")
    print(
        f"  {solver.stats} -- every repeat was a cache hit or a shared"
        " in-flight future"
    )


def main() -> None:
    asyncio.run(async_front_end_demo())


if __name__ == "__main__":
    main()
