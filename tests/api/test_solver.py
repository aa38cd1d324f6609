"""The Solver facade: dispatch, DSL entry points, chase, serialization."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api import Solver, SolverConfig, ChaseBudget, solve_one
from repro.dependencies import (
    FunctionalDependency,
    JoinDependency,
    MultivaluedDependency,
)
from repro.implication import ImplicationEngine
from repro.model.attributes import Universe
from repro.model.relations import Relation

ABC = Universe.from_names("ABC")


@pytest.fixture()
def solver():
    return Solver(universe="ABC")


class TestSingleQueries:
    def test_implies_with_objects(self, solver):
        outcome = solver.implies(
            [FunctionalDependency(["A"], ["B"])], MultivaluedDependency(["A"], ["B"])
        )
        assert outcome.is_implied()

    def test_implies_with_dsl_text(self, solver):
        assert solver.implies(["A -> B"], "A ->> B").is_implied()
        assert solver.implies(["A ->> B"], "A -> B").is_refuted()

    def test_premises_as_dsl_block(self, solver):
        outcome = solver.solve_text(
            """
            # transitivity
            A -> B
            B -> C
            """,
            "A -> C",
        )
        assert outcome.is_implied()

    def test_finitely_implies(self, solver):
        assert solver.finitely_implies(["A -> B"], "A ->> B").is_implied()

    def test_matches_implication_engine(self, solver):
        premises = [MultivaluedDependency(["A"], ["B"])]
        conclusion = JoinDependency([["A", "B"], ["A", "C"]])
        facade = solver.implies(premises, conclusion)
        direct = ImplicationEngine(universe=ABC).implies(premises, conclusion)
        assert facade.verdict is direct.verdict

    def test_solve_one_convenience(self):
        assert solve_one(["A -> B"], "A ->> B", universe="ABC").is_implied()

    def test_universe_object_accepted(self):
        assert Solver(universe=ABC).universe == ABC


class TestOutcomeSerialization:
    def test_to_dict_is_json_serializable(self, solver):
        implied = solver.implies(["A -> B"], "A ->> B")
        refuted = solver.implies(["A ->> B"], "A -> B")
        for outcome in (implied, refuted):
            payload = json.loads(json.dumps(outcome.to_dict()))
            assert payload["verdict"] in {"implied", "not_implied", "unknown"}
            assert isinstance(payload["reason"], str)

    def test_counterexample_round_trip(self, solver):
        refuted = solver.implies(["A ->> B"], "A -> B")
        assert refuted.counterexample is not None
        payload = refuted.to_dict()
        rebuilt = Relation.from_dict(payload["counterexample"])
        assert rebuilt == refuted.counterexample

    def test_counterexample_can_be_omitted(self, solver):
        refuted = solver.implies(["A ->> B"], "A -> B")
        assert "counterexample" not in refuted.to_dict(include_counterexample=False)

    def test_problem_to_dict(self, solver):
        problem = solver.problem(["A -> B"], "A ->> B", finite=True)
        payload = problem.to_dict()
        assert payload == {
            "premises": ["A -> B"],
            "conclusion": "A ->> B",
            "finite": True,
        }


class TestSolverChase:
    def test_chase_accepts_any_dependency_class(self, solver):
        violating = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        result = solver.chase(violating, ["A ->> B", "A -> B"])
        assert result.terminated()
        for dependency in (
            MultivaluedDependency(["A"], ["B"]),
            FunctionalDependency(["A"], ["B"]),
        ):
            assert dependency.satisfied_by(result.relation)

    def test_chase_respects_budget(self):
        tight = Solver(
            universe="ABC",
            config=SolverConfig(chase=ChaseBudget(max_steps=1, max_rows=1)),
        )
        violating = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        result = tight.chase(violating, ["A ->> B"])
        assert not result.terminated()


class TestReductionPipelines:
    def test_untyped_to_typed_reduction(self, solver):
        from repro.core.untyped import AB_TO_C, UNTYPED_UNIVERSE
        from repro.dependencies import EqualityGeneratingDependency
        from repro.model.relations import Relation as R
        from repro.model.values import untyped

        body = R.untyped(UNTYPED_UNIVERSE, [["x", "y", "z"], ["x", "y", "w"]])
        sigma = EqualityGeneratingDependency(untyped("z"), untyped("w"), body)
        reduction = solver.reduce_untyped_to_typed([AB_TO_C], sigma)
        assert reduction.premises  # typed premises incl. Sigma_0

    def test_td_to_pjd_reduction(self, solver):
        from repro.dependencies import jd_to_td

        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        reduction = solver.reduce_td_to_pjd([td], td)
        assert reduction.premises_as_pjds()


class TestVerdictGuard:
    def test_verdict_truthiness_still_raises(self, solver):
        outcome = solver.implies(["A -> B"], "A ->> B")
        with pytest.raises(TypeError):
            bool(outcome.verdict)


class TestImportCost:
    """A synchronous solve never loads the asyncio front-end."""

    def test_sync_solve_leaves_asyncio_unimported(self):
        script = textwrap.dedent(
            """
            import sys

            import repro.api
            from repro.api import Solver

            assert Solver(universe="ABC").implies(["A -> B"], "A ->> B").is_implied()
            assert "asyncio" not in sys.modules, "asyncio was imported"
            assert "repro.api.async_batch" not in sys.modules
            print("ok")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[2] / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok"

    def test_async_names_resolve_on_access(self):
        import repro.api
        from repro.api.async_batch import (
            DEFAULT_MAX_IN_FLIGHT,
            AsyncSolver,
            AsyncSolverError,
        )

        assert repro.api.AsyncSolver is AsyncSolver
        assert repro.api.AsyncSolverError is AsyncSolverError
        assert repro.api.DEFAULT_MAX_IN_FLIGHT == DEFAULT_MAX_IN_FLIGHT
        assert {"AsyncSolver", "AsyncSolverError", "DEFAULT_MAX_IN_FLIGHT"} <= set(
            repro.api.__all__
        )
        assert "AsyncSolver" in dir(repro.api)
        with pytest.raises(AttributeError):
            repro.api.NoSuchName
