"""Chase-based (semi-)decision procedures for implication.

``Sigma |= (w, I)`` holds iff the chase of ``I`` by ``Sigma`` produces a
relation containing an image of ``w`` that fixes the (representatives of
the) values of ``I``; ``Sigma |= (a = b, I)`` holds iff the chase identifies
``a`` and ``b``.  When the chase terminates the answer is exact and the
terminal relation is itself a (finite) counterexample in the negative case;
when the budget runs out without the conclusion appearing, the answer is
``UNKNOWN`` -- which is the best any total procedure can do, by the very
theorems this library reproduces.

All entry points take their limits as a :class:`~repro.config.ChaseBudget`
via the ``budget`` keyword (``None`` means ``ChaseBudget()``); every
parameter after the premises and the conclusion is keyword-only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.chase.engine import ChaseEngine
from repro.chase.result import ChaseResult, ChaseStatus
from repro.chase.steps import compile_dependency, td_is_violated
from repro.config import ChaseBudget
from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.td import TemplateDependency
from repro.implication.normalize import ChaseDependency
from repro.implication.problem import ImplicationOutcome, Verdict
from repro.model.valuations import Valuation
from repro.model.values import Value


def chase_for_conclusion(
    premises: Sequence[ChaseDependency],
    conclusion_body,
    *,
    trace: bool = False,
    budget: Optional[ChaseBudget] = None,
    strategy: Optional[str] = None,
) -> ChaseResult:
    """Chase the conclusion's body with the premise set.

    ``strategy`` overrides the budget's ``chase_strategy`` field (see
    :mod:`repro.chase.strategies`).
    """
    engine = ChaseEngine(
        list(premises),
        trace=trace,
        budget=budget,
        strategy=strategy,
    )
    return engine.run(conclusion_body)


def td_conclusion_holds(result: ChaseResult, conclusion: TemplateDependency) -> bool:
    """Whether the chased tableau contains the conclusion row's image.

    Values of ``w`` that occur in the body are pinned to their current
    representatives; existential values of ``w`` may match anything of the
    right type.  The chase's own violation test decides it, so a total
    ``w`` (every value occurs in the body) costs one membership test and
    ``w`` with existential values a scan of the chased relation.
    """
    fixed: dict[Value, Value] = {
        value: result.resolve(value) for value in conclusion.body.values()
    }
    return not td_is_violated(
        compile_dependency(conclusion), Valuation(fixed), result.relation
    )


def egd_conclusion_holds(
    result: ChaseResult, conclusion: EqualityGeneratingDependency
) -> bool:
    """Whether the chase identified the two sides of the conclusion egd."""
    return result.merged(conclusion.left, conclusion.right)


def outcome_from_result(
    result: ChaseResult,
    conclusion: ChaseDependency,
) -> ImplicationOutcome:
    """Judge a finished (or budget-cut) chase result against a conclusion.

    The single classification step shared by :func:`prove_td`,
    :func:`prove_egd` and the service's checkpoint-resume path -- a resumed
    chase re-enters the very same judgement an uninterrupted run would have
    received.
    """
    if isinstance(conclusion, TemplateDependency):
        held = td_conclusion_holds(result, conclusion)
        implied_reason = "the chased body contains the conclusion row"
        refuted_reason = (
            "the chase terminated without producing the conclusion row; "
            "the terminal relation is a finite counterexample"
        )
    else:
        held = egd_conclusion_holds(result, conclusion)
        implied_reason = "the chase identified the two sides of the equality"
        refuted_reason = (
            "the chase terminated without identifying the two sides; "
            "the terminal relation is a finite counterexample"
        )
    if held:
        return ImplicationOutcome(Verdict.IMPLIED, reason=implied_reason, chase=result)
    if result.status is ChaseStatus.TERMINATED:
        return ImplicationOutcome(
            Verdict.NOT_IMPLIED,
            reason=refuted_reason,
            counterexample=result.relation,
            chase=result,
        )
    return ImplicationOutcome(
        Verdict.UNKNOWN,
        reason="the chase exhausted its budget before converging",
        chase=result,
    )


def prove_td(
    premises: Sequence[ChaseDependency],
    conclusion: TemplateDependency,
    *,
    trace: bool = False,
    budget: Optional[ChaseBudget] = None,
    strategy: Optional[str] = None,
) -> ImplicationOutcome:
    """Run the chase prover on ``premises |= conclusion`` for a td conclusion."""
    result = chase_for_conclusion(
        premises,
        conclusion.body,
        trace=trace,
        budget=budget,
        strategy=strategy,
    )
    return outcome_from_result(result, conclusion)


def prove_egd(
    premises: Sequence[ChaseDependency],
    conclusion: EqualityGeneratingDependency,
    *,
    trace: bool = False,
    budget: Optional[ChaseBudget] = None,
    strategy: Optional[str] = None,
) -> ImplicationOutcome:
    """Run the chase prover on ``premises |= conclusion`` for an egd conclusion."""
    if conclusion.is_trivial():
        return ImplicationOutcome(
            Verdict.IMPLIED, reason="the conclusion equates a value with itself"
        )
    result = chase_for_conclusion(
        premises,
        conclusion.body,
        trace=trace,
        budget=budget,
        strategy=strategy,
    )
    return outcome_from_result(result, conclusion)


def prove(
    premises: Sequence[ChaseDependency],
    conclusion: ChaseDependency,
    *,
    trace: bool = False,
    budget: Optional[ChaseBudget] = None,
    strategy: Optional[str] = None,
) -> ImplicationOutcome:
    """Dispatch on the conclusion's class (td or egd).

    ``strategy`` overrides the budget's ``chase_strategy`` field, letting a
    caller pin the scheduling strategy without rebuilding the budget.
    """
    if isinstance(conclusion, TemplateDependency):
        return prove_td(
            premises, conclusion, trace=trace, budget=budget, strategy=strategy
        )
    return prove_egd(
        premises, conclusion, trace=trace, budget=budget, strategy=strategy
    )
