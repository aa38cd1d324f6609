"""Service-shaped solving: the asyncio front-end and the streaming chase.

Two production-scale features, end to end:

* ``Solver.solve_many_async`` / :class:`~repro.api.AsyncSolver` multiplex a
  burst of independent implication queries with semaphore backpressure --
  the calling style of a service that answers queries as they arrive
  instead of in carefully pre-assembled batches;
* ``chase_strategy="streaming"`` streams each chase step's delta to shard
  workers the moment it applies, so next-round trigger discovery overlaps
  the current round's tail (the sharded strategy's barrier, pipelined).

Run with::

    PYTHONPATH=src python examples/async_streaming.py
"""

import asyncio
import time

from repro.api import AsyncSolver, ChaseBudget, Solver
from repro.chase import chase
from repro.dependencies import TemplateDependency
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row

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


def streaming_chase_demo() -> None:
    universe = Universe.from_names("ABC")
    rotations = [
        (["x", "y", "z"], ["y", "z", "w1"]),
        (["x", "y", "z"], ["z", "x", "w2"]),
    ]
    dependencies = []
    for i, (body_row, conclusion) in enumerate(rotations):
        body = Relation.untyped(universe, [body_row])
        dependencies.append(
            TemplateDependency(
                Row.untyped_over(universe, conclusion), body, name=f"rotate{i}"
            )
        )
    rows = [
        [f"c{chain}v{i}", f"c{chain}v{i + 1}", f"c{chain}u{i}"]
        for chain in range(4)
        for i in range(6)
    ]
    instance = Relation.untyped(universe, rows)
    budget = ChaseBudget(max_steps=120, max_rows=5000, shard_count=2)
    print("\nstreaming chase: 4 parallel chains, 2 rotation tds, 120 steps")
    reference = None
    for strategy in ("incremental", "sharded", "streaming"):
        start = time.perf_counter()
        result = chase(instance, dependencies, budget=budget, strategy=strategy)
        elapsed = time.perf_counter() - start
        print(
            f"  {strategy:>11}: {elapsed * 1e3:7.1f} ms "
            f"({result.steps} steps, {len(result.relation)} rows)"
        )
        if reference is None:
            reference = result
        else:
            assert result.relation == reference.relation
            assert result.steps == reference.steps
    print("  all three strategies produced byte-identical tableaux")


def main() -> None:
    asyncio.run(async_front_end_demo())
    streaming_chase_demo()


if __name__ == "__main__":
    main()
