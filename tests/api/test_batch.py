"""The batch path: dedup, memoization, and equivalence with sequential calls."""

import pytest

from repro.api import Solver
from repro.config import CACHE_MODE_ENV
from repro.dependencies import FunctionalDependency

ABCD_NAMES = "ABCD"


@pytest.fixture(autouse=True)
def _default_cache_env(monkeypatch):
    """These tests pin default-cache counting semantics; scrub the CI legs'
    REPRO_CACHE_MODE override so "auto" resolves to its documented default."""
    monkeypatch.delenv(CACHE_MODE_ENV, raising=False)


def mixed_problems(solver):
    """A small mixed fd/mvd/jd workload with heavy premise repetition."""
    premise_blocks = [
        ["A -> B", "B -> C"],
        ["A ->> B"],
        ["AB -> C", "C -> D"],
    ]
    conclusions = ["A -> C", "join[AB, ACD]", "A ->> B", "AB -> D", "A -> D"]
    problems = []
    for premises in premise_blocks:
        for conclusion in conclusions:
            problems.append(solver.problem(premises, conclusion))
    return problems * 3  # repetition: the batch path should solve each once


class TestSolveMany:
    def test_identical_to_sequential(self):
        batch_solver = Solver(universe=ABCD_NAMES)
        problems = mixed_problems(batch_solver)
        batch = batch_solver.solve_many(problems)

        sequential_solver = Solver(universe=ABCD_NAMES, use_cache=False)
        sequential = [sequential_solver.solve(p) for p in problems]

        assert len(batch) == len(problems)
        for fast, slow in zip(batch, sequential):
            assert fast.verdict is slow.verdict
            assert fast.reason == slow.reason

    def test_each_unique_problem_solved_once(self):
        solver = Solver(universe=ABCD_NAMES)
        problems = mixed_problems(solver)
        solver.solve_many(problems)
        assert solver.stats.problems == len(problems)
        assert solver.stats.unique_problems == 15
        assert solver.stats.solved == 15
        assert solver.stats.cache_hits == len(problems) - 15

    def test_second_batch_fully_cached(self):
        solver = Solver(universe=ABCD_NAMES)
        problems = mixed_problems(solver)
        solver.solve_many(problems)
        solver.solve_many(problems)
        assert solver.stats.solved == 15  # nothing new on the second pass

    def test_finite_and_unrestricted_cached_separately(self):
        solver = Solver(universe=ABCD_NAMES)
        problems = [
            solver.problem(["A -> B"], "A ->> B", finite=False),
            solver.problem(["A -> B"], "A ->> B", finite=True),
        ]
        outcomes = solver.solve_many(problems)
        assert solver.stats.unique_problems == 2
        assert all(o.is_implied() for o in outcomes)

    def test_uncached_solver_still_correct(self):
        solver = Solver(universe=ABCD_NAMES, use_cache=False)
        problems = [solver.problem(["A -> B"], "A ->> B")] * 3
        outcomes = solver.solve_many(problems)
        assert all(o.is_implied() for o in outcomes)

    def test_uncached_solver_still_dedupes_within_a_batch(self):
        solver = Solver(universe=ABCD_NAMES, use_cache=False)
        calls = []
        original = solver.engine.solve
        solver._engine.solve = lambda p: (calls.append(p), original(p))[1]
        problems = [solver.problem(["A -> B"], "A ->> B")] * 3
        solver.solve_many(problems)
        assert len(calls) == 1

    def test_empty_batch(self):
        solver = Solver(universe=ABCD_NAMES)
        assert solver.solve_many([]) == []


class TestPremiseNormalizationSharing:
    def test_premise_cache_populated_per_premise_tuple(self):
        # Projected (non-total) jds are outside the decidable full fragment,
        # so these queries exercise the general chase path -- the one that
        # shares premise normalisation through the cache.
        solver = Solver(universe=ABCD_NAMES)
        problems = [
            solver.problem(["A ->> B", "pjoin[AB, BC] => AC"], conclusion)
            for conclusion in (
                "pjoin[AB, BC] => A",
                "pjoin[AB, BC] => C",
                "pjoin[AB, BC] => AC",
            )
        ]
        solver.solve_many(problems)
        premise_keys = {
            key for key in solver._premise_cache if len(key[0]) == 2
        }
        # one shared premise tuple, normalised once despite three conclusions
        assert len(premise_keys) == 1

    def test_cache_clears(self):
        solver = Solver(universe=ABCD_NAMES)
        solver.implies(["A -> B"], "A ->> B")
        assert len(solver.store)
        solver.clear_caches()
        assert not len(solver.store)
        assert not solver._premise_cache


class TestCoercion:
    def test_mixed_objects_and_text(self):
        solver = Solver(universe=ABCD_NAMES)
        outcome = solver.implies(
            [FunctionalDependency(["A"], ["B"]), "B -> C"], "A -> C"
        )
        assert outcome.is_implied()


class TestRunStats:
    """Satellite: solve_many no longer discards its per-run hit/miss numbers."""

    def test_last_run_reports_dedup_and_hits(self):
        solver = Solver(universe=ABCD_NAMES)
        problems = mixed_problems(solver)  # 15 distinct problems, x3 each
        solver.solve_many(problems)
        run = solver.stats.last_run
        assert run is not None
        assert run.problems == len(problems)
        assert run.unique_problems == len(problems) // 3
        assert run.solved == run.unique_problems
        assert run.cache_hits == run.problems - run.solved
        assert run.hit_rate == run.cache_hits / run.problems

    def test_second_run_is_fully_cached(self):
        solver = Solver(universe=ABCD_NAMES)
        problems = mixed_problems(solver)
        solver.solve_many(problems)
        solver.solve_many(problems)
        run = solver.stats.last_run
        assert run.solved == 0
        assert run.cache_hits == run.problems
        assert run.hit_rate == 1.0
        assert solver.stats.runs == 2

    def test_lifetime_counters_accumulate_across_runs(self):
        solver = Solver(universe=ABCD_NAMES)
        problems = mixed_problems(solver)
        solver.solve_many(problems)
        solver.solve_many(problems)
        stats = solver.stats
        assert stats.problems == 2 * len(problems)
        assert stats.solved == len(problems) // 3
        assert stats.cache_hits == stats.problems - stats.solved

    def test_empty_run_has_zero_hit_rate(self):
        solver = Solver(universe=ABCD_NAMES)
        solver.solve_many([])
        run = solver.stats.last_run
        assert run.problems == 0
        assert run.hit_rate == 0.0

    def test_to_dict_round_trips_through_json(self):
        import json

        solver = Solver(universe=ABCD_NAMES)
        solver.solve_many(mixed_problems(solver))
        payload = json.loads(json.dumps(solver.stats.to_dict()))
        assert payload["runs"] == 1
        assert payload["last_run"]["problems"] == payload["problems"]
        assert 0.0 <= payload["hit_rate"] <= 1.0


class TestHitClassification:
    """Satellite: per-run hits split into canonical vs syntactic, plus evictions."""

    def test_exact_repeats_count_as_syntactic_hits(self):
        solver = Solver(universe=ABCD_NAMES)
        problems = mixed_problems(solver)
        solver.solve_many(problems)
        run = solver.stats.last_run
        assert run.syntactic_hits == run.cache_hits
        assert run.canonical_hits == 0

    def test_renamed_twins_count_as_canonical_hits(self):
        from repro.config import SolverConfig
        from repro.model.canon import rename_problem

        solver = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(mode="canonical"),
        )
        problem = solver.problem(["A -> B", "B -> C"], "A -> C")
        twin = rename_problem(problem, {"A": "D", "D": "A"})
        solver.solve_many([problem, twin, problem, twin])
        run = solver.stats.last_run
        assert run.unique_problems == 1
        assert run.canonical_hits >= 1
        assert run.syntactic_hits >= 1
        assert run.canonical_hits + run.syntactic_hits == run.cache_hits

    def test_evictions_surface_in_the_run_stats(self):
        from repro.config import SolverConfig

        solver = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(max_entries=2),
        )
        problems = mixed_problems(solver)  # 15 distinct problems > 2 slots
        solver.solve_many(problems)
        assert solver.stats.last_run.evictions > 0
        assert solver.stats.evictions == solver.stats.last_run.evictions

    def test_batch_stats_round_trip(self):
        from repro.api import BatchStats

        solver = Solver(universe=ABCD_NAMES)
        solver.solve_many(mixed_problems(solver))
        stats = solver.stats
        rebuilt = BatchStats.from_dict(stats.to_dict())
        assert rebuilt == stats
        assert rebuilt.last_run == stats.last_run
