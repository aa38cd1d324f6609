"""Tests for the chase termination certificates."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.chase import (
    all_total,
    dependency_graph,
    guaranteed_terminating,
    is_weakly_acyclic,
)
from repro.dependencies import TemplateDependency
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row


@pytest.fixture
def abc():
    return Universe.from_names("ABC")


@pytest.fixture
def total_td(abc):
    body = Relation.typed(abc, [["a", "b1", "c1"], ["a", "b2", "c2"]])
    return TemplateDependency(Row.typed_over(abc, ["a", "b1", "c2"]), body)


@pytest.fixture
def cyclic_td(abc):
    """The untyped successor td: every row's B-value needs a row with it in column A.

    This is the textbook non-terminating chase, and it is exactly the pattern
    weak acyclicity is designed to reject (a special self-loop on B).
    """
    body = Relation.untyped(abc, [["x", "y", "z"]])
    return TemplateDependency(Row.untyped_over(abc, ["y", "w", "v"]), body)


@pytest.fixture
def safe_existential_td():
    """Weakly acyclic but not total: the existential value never feeds a cycle."""
    ab = Universe.from_names("AB")
    body = Relation.typed(ab, [["a", "b"]])
    return TemplateDependency(Row.typed_over(ab, ["a", "b_new"]), body)


def test_all_total(total_td, cyclic_td):
    assert all_total([total_td])
    assert not all_total([total_td, cyclic_td])


def test_total_sets_are_certified(total_td):
    assert guaranteed_terminating([total_td])


def test_weak_acyclicity_of_total_td(total_td):
    assert is_weakly_acyclic([total_td])


def test_cyclic_td_is_not_weakly_acyclic(cyclic_td):
    assert not is_weakly_acyclic([cyclic_td])
    assert not guaranteed_terminating([cyclic_td])


def test_cyclic_td_chase_really_diverges(abc, cyclic_td):
    """The rejected set genuinely makes the chase run away (budget cut-off)."""
    from repro.chase import ChaseStatus, chase
    from repro.config import ChaseBudget

    instance = Relation.untyped(abc, [["1", "2", "3"]])
    result = chase(
        instance, [cyclic_td], budget=ChaseBudget(max_steps=15, max_rows=100)
    )
    assert result.status is ChaseStatus.BUDGET_EXHAUSTED


def test_weakly_acyclic_but_not_total(safe_existential_td):
    assert not all_total([safe_existential_td])
    assert is_weakly_acyclic([safe_existential_td])
    assert guaranteed_terminating([safe_existential_td])


def test_dependency_graph_edges(total_td, cyclic_td):
    graph = dependency_graph([total_td])
    # The shared A-value flows from A to A; no special edges exist.
    assert graph.has_edge("A", "A")
    assert all(not data.get("special") for _, _, data in graph.edges(data=True))

    cyclic_graph = dependency_graph([cyclic_td])
    # y flows from position B to position A (regular) and feeds the
    # existential positions B and C (special) -- the special B -> B self-loop
    # is the cycle that disqualifies the set.
    assert cyclic_graph.has_edge("B", "A")
    specials = {
        (source, target)
        for source, target, data in cyclic_graph.edges(data=True)
        if data.get("special")
    }
    assert ("B", "B") in specials


def test_solving_never_imports_networkx():
    """Only the weak-acyclicity certificate needs networkx.

    The base install is dependency-free, so ``import repro.api`` and a solve
    through the chase must work with networkx unimportable.  A subprocess
    keeps the blocked import from leaking into the rest of the suite.
    """
    script = textwrap.dedent(
        """
        import sys

        sys.modules["networkx"] = None
        from repro.api import Solver

        outcome = Solver(universe="ABC").implies(["A ->> B", "B ->> C"], "A ->> C")
        assert outcome.verdict.value == "implied", outcome.verdict
        assert sys.modules["networkx"] is None
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
