"""Tests for the chase-based (semi-)decision procedure."""

import random

import pytest

from repro.config import ChaseBudget
from repro.dependencies import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    TemplateDependency,
    fd_to_egds,
    jd_to_td,
    JoinDependency,
)
from repro.implication import Verdict, prove, prove_egd, prove_td
from repro.implication.chase_prover import chase_for_conclusion, td_conclusion_holds
from repro.model.attributes import Universe
from repro.model.instances import random_typed_relation
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import typed


@pytest.fixture
def abc():
    return Universe.from_names("ABC")


@pytest.fixture
def jd_td(abc):
    return jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), abc)


class TestTdConclusions:
    def test_reflexive_implication(self, abc, jd_td):
        outcome = prove_td([jd_td], jd_td)
        assert outcome.verdict is Verdict.IMPLIED

    def test_fd_implies_mvd_shaped_td(self, abc, jd_td):
        premises = fd_to_egds(FunctionalDependency(["A"], ["B"]), abc)
        outcome = prove_td(premises, jd_td)
        assert outcome.verdict is Verdict.IMPLIED

    def test_refutation_produces_finite_counterexample(self, abc, jd_td):
        outcome = prove_td([], jd_td)
        assert outcome.verdict is Verdict.NOT_IMPLIED
        assert outcome.counterexample is not None
        assert not jd_td.satisfied_by(outcome.counterexample)

    def test_unknown_on_budget_exhaustion(self, abc):
        body = Relation.untyped(abc, [["x", "y", "z"]])
        successor = TemplateDependency(Row.untyped_over(abc, ["y", "w", "v"]), body)
        target_body = Relation.untyped(abc, [["1", "2", "3"]])
        target = TemplateDependency(Row.untyped_over(abc, ["1", "1", "1"]), target_body)
        outcome = prove_td(
            [successor], target, budget=ChaseBudget(max_steps=10, max_rows=50)
        )
        assert outcome.verdict is Verdict.UNKNOWN


def _scan_verdict(result, conclusion):
    """The reference judgement: scan the chased relation for an image."""
    fixed = {value: result.resolve(value) for value in conclusion.body.values()}
    return result.find_row(conclusion.conclusion, fixed) is not None


class TestConclusionLookup:
    """A total conclusion is judged by one lookup, which must agree with the
    scan; a conclusion with existential values keeps the scan."""

    def test_lookup_agrees_with_scan_on_random_chase_results(self, abc, jd_td):
        verdicts = {True: 0, False: 0}
        existential = 0
        for seed in range(80):
            rng = random.Random(seed)
            body = random_typed_relation(
                abc, rows=rng.randint(2, 4), domain_size=rng.randint(2, 3), seed=seed
            )
            premises = [jd_td] if rng.random() < 0.6 else []
            if rng.random() < 0.5:
                fd = FunctionalDependency(["A"], [rng.choice("BC")])
                premises.extend(fd_to_egds(fd, abc))
            result = chase_for_conclusion(
                premises, body, budget=ChaseBudget(max_steps=rng.choice([2, 500]))
            )
            columns = {
                attr: sorted(
                    (v for v in body.values() if v.tag == attr.name),
                    key=lambda v: v.name,
                )
                for attr in abc.attributes
            }
            for _ in range(6):
                cells = {
                    attr: rng.choice(column)
                    if rng.random() < 0.85
                    else typed(f"x{attr.name.lower()}", attr)
                    for attr, column in columns.items()
                }
                conclusion = TemplateDependency(Row(cells), body)
                held = td_conclusion_holds(result, conclusion)
                assert held == _scan_verdict(result, conclusion), (seed, conclusion)
                if conclusion.is_total():
                    verdicts[held] += 1
                else:
                    existential += 1
        assert min(verdicts.values()) >= 50, verdicts
        assert existential >= 50, existential


class TestEgdConclusions:
    def test_fd_transitivity_via_egds(self, abc):
        premises = [
            *fd_to_egds(FunctionalDependency(["A"], ["B"]), abc),
            *fd_to_egds(FunctionalDependency(["B"], ["C"]), abc),
        ]
        conclusion = fd_to_egds(FunctionalDependency(["A"], ["C"]), abc)[0]
        assert prove_egd(premises, conclusion).verdict is Verdict.IMPLIED

    def test_non_implied_egd_refuted(self, abc):
        premises = fd_to_egds(FunctionalDependency(["A"], ["B"]), abc)
        conclusion = fd_to_egds(FunctionalDependency(["B"], ["A"]), abc)[0]
        outcome = prove_egd(premises, conclusion)
        assert outcome.verdict is Verdict.NOT_IMPLIED
        assert outcome.counterexample is not None

    def test_trivial_egd(self, abc):
        body = Relation.typed(abc, [["a", "b", "c"]])
        trivial = EqualityGeneratingDependency(typed("a", "A"), typed("a", "A"), body)
        assert prove_egd([], trivial).verdict is Verdict.IMPLIED

    def test_dispatch(self, abc, jd_td):
        assert prove([jd_td], jd_td).verdict is Verdict.IMPLIED
        body = Relation.typed(abc, [["a", "b", "c"]])
        trivial = EqualityGeneratingDependency(typed("a", "A"), typed("a", "A"), body)
        assert prove([], trivial).verdict is Verdict.IMPLIED
