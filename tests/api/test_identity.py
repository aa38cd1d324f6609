"""Tests for ``repro.api.identity``: the one key object behind every dedup layer."""

import pytest

from repro.api import Solver
from repro.api.identity import IDENTITY_MODES, ProblemIdentity, identity_of
from repro.config import SolverConfig
from repro.dependencies import FunctionalDependency
from repro.implication.problem import ImplicationProblem
from repro.model.canon import rename_problem

ABCD_NAMES = "ABCD"


def make_problem(det="A", dep="B"):
    return ImplicationProblem.of(
        [FunctionalDependency([det], [dep])], FunctionalDependency([det], [dep])
    )


class TestIdentityOf:
    def test_syntactic_mode_is_the_default(self):
        identity = identity_of(make_problem())
        assert identity.mode == "syntactic"
        assert identity.cache_key == identity.fingerprint
        assert identity.cache_key.startswith("s:")
        assert not identity.canonical_fallback

    def test_canonical_mode_carries_both_digests(self):
        identity = identity_of(make_problem(), mode="canonical")
        assert identity.mode == "canonical"
        assert identity.cache_key.startswith("c:")
        assert identity.fingerprint.startswith("s:")
        assert not identity.canonical_fallback

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            identity_of(make_problem(), mode="telepathic")
        assert IDENTITY_MODES == ("syntactic", "canonical")

    def test_renamed_twins_collide_only_canonically(self):
        problem = make_problem()
        twin = rename_problem(problem, {"A": "C", "B": "D", "C": "A", "D": "B"})
        assert identity_of(problem, "canonical") == identity_of(twin, "canonical")
        assert identity_of(problem) != identity_of(twin)

    def test_fingerprint_classifies_the_twin(self):
        problem = make_problem()
        twin = rename_problem(problem, {"A": "B", "B": "A"})
        ours, theirs = (
            identity_of(problem, "canonical"),
            identity_of(twin, "canonical"),
        )
        assert ours == theirs  # one cache slot...
        assert ours.fingerprint != theirs.fingerprint  # ...two statements

    def test_context_scopes_identities(self):
        problem = make_problem()
        assert identity_of(problem, context=("u1",)) != identity_of(
            problem, context=("u2",)
        )

    def test_modes_never_mix_in_one_table(self):
        problem = make_problem()
        syntactic = identity_of(problem)
        canonical = identity_of(problem, "canonical")
        assert syntactic != canonical
        assert len({syntactic, canonical}) == 2


class TestEqualityAndHashing:
    def test_eq_and_hash_ignore_fingerprint(self):
        a = ProblemIdentity("canonical", "c:k", "s:one")
        b = ProblemIdentity("canonical", "c:k", "s:two", canonical_fallback=True)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_to_other_types(self):
        assert ProblemIdentity("syntactic", "s:k", "s:k") != "s:k"


class TestSolverIdentity:
    def test_solver_mode_follows_config(self):
        # modes pinned explicitly so the REPRO_CACHE_MODE CI legs can't
        # rewrite them (the env only touches default-"auto" configs)
        syntactic = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(mode="syntactic"),
        )
        canonical = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(mode="canonical"),
        )
        problem = make_problem()
        assert syntactic.identity(problem).mode == "syntactic"
        assert canonical.identity(problem).mode == "canonical"

    def test_identity_is_memoized_per_problem(self):
        solver = Solver(universe=ABCD_NAMES)
        problem = make_problem()
        assert solver.identity(problem) is solver.identity(problem)

    def test_different_configs_get_different_keys(self):
        # A shared store must never serve entries across solving contexts.
        problem = make_problem()
        base = Solver(universe=ABCD_NAMES).identity(problem)
        other_universe = Solver(universe="ABCDE").identity(problem)
        assert base.cache_key != other_universe.cache_key


class TestStoreKeys:
    def test_solver_keys_on_identities_and_problems_only(self):
        solver = Solver(
            universe=ABCD_NAMES,
            config=SolverConfig().with_cache(store="memory"),
        )
        outcome = solver.implies(["A -> B"], "A ->> B")
        problem = solver.problem(["A -> B"], "A ->> B")
        assert solver.cached_outcome(problem) == outcome
        assert solver.cached_outcome(solver.identity(problem)) == outcome
        with pytest.raises(TypeError):
            solver.cached_outcome(
                (problem.premises, problem.conclusion, problem.finite)
            )
