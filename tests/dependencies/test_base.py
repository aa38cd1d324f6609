"""Tests for the dependency base protocol helpers."""

import pytest

from repro.dependencies import (
    FunctionalDependency,
    JoinDependency,
    MultivaluedDependency,
    jd_to_td,
)
from repro.dependencies.base import all_satisfied, is_counterexample, violated
from repro.model.attributes import Universe
from repro.model.relations import Relation


@pytest.fixture
def abc():
    return Universe.from_names("ABC")


@pytest.fixture
def relation(abc):
    return Relation.typed(abc, [["a", "b1", "c1"], ["a", "b2", "c2"]])


def test_all_satisfied(relation):
    assert all_satisfied(relation, [FunctionalDependency(["B"], ["C"])])
    assert not all_satisfied(
        relation,
        [FunctionalDependency(["B"], ["C"]), FunctionalDependency(["A"], ["B"])],
    )


def test_violated_lists_only_failures(relation):
    bad = FunctionalDependency(["A"], ["B"])
    good = FunctionalDependency(["B"], ["C"])
    assert violated(relation, [bad, good]) == [bad]


def test_is_counterexample(relation):
    premises = [FunctionalDependency(["B"], ["C"])]
    conclusion = MultivaluedDependency(["A"], ["B"])
    assert is_counterexample(relation, premises, conclusion)
    # Not a counterexample when the premise itself fails.
    assert not is_counterexample(
        relation, [FunctionalDependency(["A"], ["B"])], conclusion
    )
    # Not a counterexample when the conclusion holds.
    assert not is_counterexample(relation, premises, FunctionalDependency(["B"], ["C"]))


def test_checked_counterexample_keeps_no_row_index(abc, relation):
    """The td premise's homomorphism search leaves no index on the relation."""
    premises = [jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), abc)]
    conclusion = FunctionalDependency(["A"], ["B"])
    assert not is_counterexample(relation, premises, conclusion)
    assert relation._hom_index is None
    model = Relation.typed(
        abc, [["a", b, c] for b in ("b1", "b2") for c in ("c1", "c2")]
    )
    assert is_counterexample(model, premises, conclusion)
    assert model._hom_index is None
    assert premises[0].satisfied_by(model)
    assert model._hom_index is not None


def test_str_uses_describe():
    fd = FunctionalDependency(["A"], ["B"])
    assert str(fd) == fd.describe()
