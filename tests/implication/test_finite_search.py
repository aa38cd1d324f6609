"""Tests for the bounded finite-counterexample search."""

import pytest

from repro.config import ChaseBudget, FiniteSearchBudget
from repro.dependencies import FunctionalDependency, MultivaluedDependency
from repro.implication import (
    candidate_relations,
    candidate_rows,
    find_finite_counterexample,
    refute_finitely,
)
from repro.model.attributes import Universe
from repro.model.relations import Relation


@pytest.fixture
def ab():
    return Universe.from_names("AB")


@pytest.fixture
def abc():
    return Universe.from_names("ABC")


def test_candidate_rows_typed_and_untyped(ab):
    typed_rows = candidate_rows(ab, 2, typed_universe=True)
    untyped_rows = candidate_rows(ab, 2, typed_universe=False)
    assert len(typed_rows) == 4
    assert len(untyped_rows) == 4
    assert all(row.is_typed() for row in typed_rows)
    assert all(row.is_untyped() for row in untyped_rows)


def test_candidate_relations_count(ab):
    relations = list(candidate_relations(ab, max_rows=2, domain_size=2))
    # 4 singletons + C(4,2) = 6 pairs.
    assert len(relations) == 10
    assert all(1 <= len(r) <= 2 for r in relations)


def test_find_counterexample_mvd_vs_fd(abc):
    counterexample = find_finite_counterexample(
        [MultivaluedDependency(["A"], ["B"])],
        FunctionalDependency(["A"], ["B"]),
        abc,
        budget=FiniteSearchBudget(max_rows=4, domain_size=2),
    )
    assert counterexample is not None
    assert MultivaluedDependency(["A"], ["B"]).satisfied_by(counterexample)
    assert not FunctionalDependency(["A"], ["B"]).satisfied_by(counterexample)


def test_no_counterexample_for_valid_implication(abc):
    assert (
        find_finite_counterexample(
            [FunctionalDependency(["A"], ["B"])],
            MultivaluedDependency(["A"], ["B"]),
            abc,
            budget=FiniteSearchBudget(max_rows=3, domain_size=2),
        )
        is None
    )


def test_seeds_are_tried_first(abc):
    seed = Relation.typed(
        abc,
        [["a", "b1", "c1"], ["a", "b2", "c2"], ["a", "b1", "c2"], ["a", "b2", "c1"]],
    )
    found = refute_finitely(
        [MultivaluedDependency(["A"], ["B"])],
        FunctionalDependency(["A"], ["B"]),
        abc,
        seeds=[seed],
        budget=FiniteSearchBudget(max_rows=1, domain_size=1),
    )
    assert found == seed


def test_max_candidates_cap(abc):
    found = find_finite_counterexample(
        [MultivaluedDependency(["A"], ["B"])],
        FunctionalDependency(["A"], ["B"]),
        abc,
        budget=FiniteSearchBudget(max_rows=4, domain_size=2, max_candidates=1),
    )
    assert found is None


def test_near_miss_seed_is_repaired_by_chase(abc):
    """A seed violating the conclusion but narrowly missing the premises is
    chased into a premise model and returned as the counterexample."""
    near_miss = Relation.typed(abc, [["a", "b1", "c1"], ["a", "b2", "c2"]])
    mvd = MultivaluedDependency(["A"], ["B"])
    fd = FunctionalDependency(["A"], ["B"])
    assert not mvd.satisfied_by(near_miss)  # the swap rows are missing
    found = refute_finitely(
        [mvd],
        fd,
        abc,
        seeds=[near_miss],
        budget=FiniteSearchBudget(max_rows=1, domain_size=1),
    )
    assert found is not None
    assert len(found) == 4  # the chase completed the seed, not the enumeration
    assert mvd.satisfied_by(found)
    assert not fd.satisfied_by(found)


@pytest.mark.parametrize("strategy", ["rescan", "incremental"])
def test_seed_repair_respects_chase_strategy(abc, strategy):
    near_miss = Relation.typed(abc, [["a", "b1", "c1"], ["a", "b2", "c2"]])
    found = refute_finitely(
        [MultivaluedDependency(["A"], ["B"])],
        FunctionalDependency(["A"], ["B"]),
        abc,
        seeds=[near_miss],
        budget=FiniteSearchBudget(max_rows=1, domain_size=1),
        chase_budget=ChaseBudget(chase_strategy=strategy),
    )
    assert found is not None and len(found) == 4
