"""Batch solving: `Solver.solve_many` on a repeated-premises workload.

The shape of real implication traffic -- schema-design loops, dependency
linters, services answering the same queries for many clients -- repeats
premise sets and whole problems constantly.  The batch path answers each
distinct problem once and shares premise normalisation, without changing a
single verdict.  For heavy batches, the asyncio front-end can spread the
distinct problems over a process pool the caller creates and owns.

Run with ``PYTHONPATH=src python examples/batch_solving.py``.
"""

import asyncio
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

from repro.api import AsyncSolver, Solver


async def fan_out(problems, pool):
    """Solve ``problems`` with a fresh solver over the caller's ``pool``."""
    async with AsyncSolver(Solver(universe="ABCD"), executor=pool) as front:
        return await front.solve_many(problems)


def main() -> None:
    solver = Solver(universe="ABCD")

    # Three "schemas" under design, each probed with the same question bank.
    schemas = {
        "keyed":      ["A -> BCD"],
        "transitive": ["A -> B", "B -> C", "C -> D"],
        "decomposed": ["A ->> B", "B ->> C"],
    }
    question_bank = ["A -> D", "A ->> B", "join[AB, ACD]", "AB -> C"]

    problems = [
        solver.problem(premises, question)
        for premises in schemas.values()
        for question in question_bank
    ]
    # ... and every client asks the bank five times.
    problems = problems * 5

    start = time.perf_counter()
    outcomes = solver.solve_many(problems)
    elapsed = time.perf_counter() - start

    print(f"solved {len(problems)} problems in {elapsed * 1e3:.1f} ms")
    print(f"work actually performed: {solver.stats}\n")

    labels = [
        f"{{{', '.join(premises)}}} |= {question}"
        for premises in schemas.values()
        for question in question_bank
    ]
    for label, outcome in zip(labels, outcomes):
        print(f"  {label:<48} {outcome.verdict.value}")

    # The pool fan-out (identical verdicts, useful for heavy workloads).  A
    # fresh solver, so every distinct problem really travels to a worker.
    # Spawned workers: forking a process that runs threads is unsafe.
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        pooled = asyncio.run(fan_out(problems, pool))
    assert [o.verdict for o in pooled] == [o.verdict for o in outcomes]
    print("\nprocess-pool fan-out agrees with the sequential batch")


if __name__ == "__main__":
    main()
