"""Decidable fragments: fd + mvd + total jd implication via a terminating chase.

Every total (full) template dependency and every egd keeps the chase inside
the finite space of rows over the initial tableau's values, so the chase is
a decision procedure for implication -- and, because the terminal chase
relation is finite, implication and finite implication coincide on this
fragment.  This covers fds, total mvds and total jds, the classes for which
the paper cites decidability results ([1, 22, 26]).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.chase.termination import all_total
from repro.config import ChaseBudget
from repro.dependencies.base import Dependency
from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.mvd import MultivaluedDependency
from repro.dependencies.pjd import ProjectedJoinDependency
from repro.dependencies.td import TemplateDependency
from repro.implication.chase_prover import prove
from repro.implication.normalize import normalize_all, normalize_dependency
from repro.implication.problem import ImplicationOutcome, Verdict
from repro.model.attributes import Universe
from repro.util.errors import DependencyError

FullDependency = Union[
    FunctionalDependency,
    MultivaluedDependency,
    ProjectedJoinDependency,
    EqualityGeneratingDependency,
    TemplateDependency,
]


def is_full(dependency: Dependency, universe: Universe) -> bool:
    """Whether the dependency normalises to total tds / egds over ``universe``."""
    try:
        primitives = normalize_dependency(dependency, universe)
    except DependencyError:
        return False
    return all_total(primitives)


def full_fragment_implies(
    premises: Sequence[Dependency],
    conclusion: Dependency,
    universe: Universe,
    *,
    budget: Optional[ChaseBudget] = None,
) -> ImplicationOutcome:
    """Decide implication when premises and conclusion are all full dependencies.

    Raises :class:`DependencyError` if some dependency falls outside the full
    fragment (use the general engine for those).  The verdict is never
    ``UNKNOWN`` unless the (generous) safety budget is hit, which would
    indicate an instance far larger than this decision procedure is meant
    for.  ``budget=None`` means :meth:`ChaseBudget.generous`.
    """
    for dependency in [*premises, conclusion]:
        if not is_full(dependency, universe):
            raise DependencyError(
                f"{dependency.describe()} is not a full dependency; "
                "the terminating-chase procedure does not apply"
            )
    resolved = budget if budget is not None else ChaseBudget.generous()
    premise_primitives = normalize_all(premises, universe)
    conclusion_primitives = normalize_dependency(conclusion, universe)
    if not conclusion_primitives:
        return ImplicationOutcome(Verdict.IMPLIED, reason="the conclusion is trivial")
    last_outcome: ImplicationOutcome | None = None
    for primitive in conclusion_primitives:
        outcome = prove(premise_primitives, primitive, budget=resolved)
        if outcome.verdict is not Verdict.IMPLIED:
            return outcome
        last_outcome = outcome
    return ImplicationOutcome(
        Verdict.IMPLIED,
        reason="every normalised conclusion follows by the terminating chase",
        chase=last_outcome.chase if last_outcome is not None else None,
    )


def mvd_fd_implies(
    premises: Sequence[Dependency],
    conclusion: Dependency,
    universe: Universe,
) -> bool:
    """Boolean convenience wrapper for the fd/mvd fragment.

    ``True``/``False`` is safe to return here because the chase terminates on
    this fragment; a budget overrun raises instead of guessing.
    """
    outcome = full_fragment_implies(premises, conclusion, universe)
    if outcome.verdict is Verdict.UNKNOWN:
        raise DependencyError(
            "the terminating-chase budget was exceeded; increase max_steps/max_rows"
        )
    return outcome.verdict is Verdict.IMPLIED


def jd_implies(
    premises: Sequence[Dependency],
    conclusion: ProjectedJoinDependency,
    universe: Universe,
) -> bool:
    """Decide implication of a total join dependency from full premises."""
    if not conclusion.is_total_over(universe):
        raise DependencyError(
            "jd_implies decides total join dependencies only; "
            "projected/embedded jds fall outside the decidable fragment"
        )
    return mvd_fd_implies(premises, conclusion, universe)
