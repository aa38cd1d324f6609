"""Differential acceptance suite: cached answers are byte-identical.

Pins the PR's caching contract at every dedup layer: with the outcome
store on (syntactic mode, the byte-identity default) or off, the batch
path, the async front-end and the live service must produce outcomes
byte-identical to an uncached solver.  Canonical mode additionally pins
the weaker-but-sound contract for renamed twins: identical verdict and
reason, and a cached counterexample that genuinely refutes.
"""

import asyncio
import random

from repro.api import AsyncSolver, Solver, SolverConfig
from repro.dependencies import is_counterexample
from repro.model.canon import rename_problem
from repro.service import protocol
from repro.config import ServiceConfig
from repro.service.client import ServiceClient
from repro.service.server import serve_in_thread

ABCD_NAMES = "ABCD"
FD_POOL = ["A -> B", "B -> C", "C -> D", "D -> A", "A -> C", "B -> D"]
MVD_POOL = ["A ->> B", "B ->> C", "C ->> D", "A ->> C"]
POOL = FD_POOL + MVD_POOL


def workload(solver, seed=1982, count=40, repeats=3):
    """A randomized problem list where every problem recurs ``repeats`` times."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        premises = rng.sample(POOL, k=rng.randint(1, 3))
        conclusion = rng.choice(POOL)
        finite = rng.random() < 0.3
        problems.append(solver.problem(premises, conclusion, finite=finite))
    problems = problems * repeats
    rng.shuffle(problems)
    return problems


def payloads(outcomes):
    """The byte-level view a transport would see."""
    return [protocol.dumps(outcome.to_dict()) for outcome in outcomes]


class TestBatchLayer:
    # store/mode pinned explicitly throughout this module so the CI legs'
    # REPRO_CACHE_MODE override (which only rewrites "auto") can't change
    # what each test exercises.

    def test_store_on_equals_store_off_byte_for_byte(self):
        cached = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(mode="syntactic", store="memory"),
        )
        uncached = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(store="off"),
        )
        problems = workload(cached)
        assert payloads(cached.solve_many(problems)) == payloads(
            [uncached.solve(p) for p in problems]
        )
        assert cached.stats.cache_hits > 0  # the cache actually engaged
        assert uncached.stats.cache_hits == 0

    def test_ambient_cache_mode_honours_its_contract(self):
        # Deliberately unpinned: this solver follows REPRO_CACHE_MODE (the
        # CI matrix's cache leg).  Syntactic identity (and store-off)
        # promise byte identity; canonical identity promises identical
        # verdict and reason (a workload can contain distinct-but-
        # isomorphic problems, whose shared counterexample keeps the
        # first-seen naming).
        from repro.config import CacheConfig

        ambient = Solver(universe=ABCD_NAMES)
        uncached = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(store="off"),
        )
        problems = workload(ambient, seed=3)
        merged = ambient.solve_many(problems)
        plain = [uncached.solve(p) for p in problems]
        if CacheConfig().resolved_mode() == "canonical":
            for fast, slow in zip(merged, plain):
                assert fast.verdict is slow.verdict
                assert fast.reason == slow.reason
        else:
            assert payloads(merged) == payloads(plain)

    def test_canonical_mode_identical_on_exact_repeats(self):
        canonical = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(mode="canonical", store="memory"),
        )
        plain = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(store="off"),
        )
        problems = workload(canonical, seed=7)
        assert payloads(canonical.solve_many(problems)) == payloads(
            [plain.solve(p) for p in problems]
        )


class TestAsyncLayer:
    def test_front_end_equals_uncached_solver_byte_for_byte(self):
        front = AsyncSolver(
            solver=Solver(
                universe=ABCD_NAMES,
                config=SolverConfig().with_cache(
                    mode="syntactic", store="memory"
                ),
            )
        )
        uncached = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(store="off"),
        )
        problems = workload(front.solver, seed=11, count=25)

        async def run():
            async with front:
                return await front.solve_many(problems)

        assert payloads(asyncio.run(run())) == payloads(
            [uncached.solve(p) for p in problems]
        )
        assert front.solver.stats.cache_hits > 0


class TestCanonicalTwins:
    def test_twin_hits_keep_verdict_reason_and_refutation_valid(self):
        solver = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(mode="canonical", store="memory"),
        )
        fresh = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(store="off"),
        )
        rng = random.Random(23)
        originals = workload(solver, seed=23, count=20, repeats=1)
        for problem in originals:
            permuted = list(ABCD_NAMES)
            rng.shuffle(permuted)
            twin = rename_problem(problem, dict(zip(ABCD_NAMES, permuted)))
            first = solver.solve(problem)
            cached = solver.solve(twin)
            direct = fresh.solve(twin)
            # verdict and reason are renaming-invariant and must survive
            # the canonical cache hit ...
            assert cached.verdict is direct.verdict
            assert cached.reason == direct.reason
            assert cached.verdict is first.verdict
            # ... and a refuting relation from the cache genuinely refutes
            # (presented under the first-seen naming).
            if cached.counterexample is not None:
                assert is_counterexample(
                    cached.counterexample, problem.premises, problem.conclusion
                )
        assert solver.store.stats.canonical_hits > 0


class TestServiceLayer:
    def test_repeat_queries_are_byte_identical_and_counted(self):
        config = ServiceConfig(
            port=0,
            universe=ABCD_NAMES,
            solver=SolverConfig().with_cache(mode="syntactic", store="memory"),
        )
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with ServiceClient(host, port, client_id="diff-store") as client:
                first = client.solve_raw(["A -> B", "B -> C"], "A -> C")
                second = client.solve_raw(["A -> B", "B -> C"], "A -> C")
                assert first[0] == second[0] == 200
                first_outcome = protocol.decode_response(first[1])["outcome"]
                second_outcome = protocol.decode_response(second[1])["outcome"]
                assert protocol.dumps(first_outcome) == protocol.dumps(
                    second_outcome
                )
                metrics = client.metrics()
        assert metrics["store"]["hits"] >= 1
        assert metrics["store"]["syntactic_hits"] >= 1
        assert metrics["service"]["cache_mode"] == "syntactic"
