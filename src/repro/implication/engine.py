"""The implication facade: one entry point for every dependency class.

:class:`ImplicationEngine` dispatches an implication query to the strongest
applicable procedure:

1. pure-fd queries go to the attribute-closure algorithm (linear time);
2. full (total) dependency sets go to the terminating chase, which decides
   both implication and finite implication;
3. everything else goes to the budgeted chase semi-decision procedure, and
   -- for finite implication -- additionally to the bounded
   finite-counterexample search.

The engine never silently turns "could not decide" into a Boolean: callers
receive an :class:`ImplicationOutcome` whose verdict may be ``UNKNOWN``.

Budgets are configured with a :class:`~repro.config.SolverConfig`, the one
place the chase budget and the finite-search bounds are set.
"""

from __future__ import annotations

from typing import MutableMapping, Optional, Sequence

from repro.config import SolverConfig
from repro.dependencies.base import Dependency
from repro.dependencies.fd import FunctionalDependency, fd_implies
from repro.implication.chase_prover import prove
from repro.implication.decidable import full_fragment_implies, is_full
from repro.implication.finite_search import refute_finitely
from repro.implication.normalize import (
    ChaseDependency,
    infer_universe,
    normalize_all,
)
from repro.implication.problem import ImplicationOutcome, ImplicationProblem, Verdict
from repro.model.attributes import Universe
from repro.model.relations import Relation


class ImplicationEngine:
    """Decision / semi-decision procedures for implication over one universe.

    Parameters
    ----------
    universe:
        The universe all queries are interpreted over.  If omitted, it is
        inferred from the first td/egd in each query.
    config:
        The :class:`~repro.config.SolverConfig` carrying the chase budget and
        the finite-search bounds (keyword-only; defaults to
        ``SolverConfig()``).
    premise_cache:
        Optional mutable mapping used to memoize premise-set normalisation
        across queries (the batch path in :mod:`repro.api` supplies one so
        repeated premise sets are converted to chase primitives only once).
    """

    def __init__(
        self,
        universe: Optional[Universe] = None,
        *,
        config: Optional[SolverConfig] = None,
        premise_cache: Optional[MutableMapping] = None,
    ) -> None:
        self._universe = universe
        self._config = config if config is not None else SolverConfig()
        self._premise_cache = premise_cache

    @property
    def config(self) -> SolverConfig:
        """The configuration all queries run under."""
        return self._config

    @property
    def universe(self) -> Optional[Universe]:
        """The fixed universe, or ``None`` when inferred per query."""
        return self._universe

    # -- helpers ---------------------------------------------------------------

    def _resolve_universe(
        self, premises: Sequence[Dependency], conclusion: Dependency
    ) -> Universe:
        if self._universe is not None:
            return self._universe
        return infer_universe([*premises, conclusion])

    def _normalized(
        self, dependencies: tuple[Dependency, ...], universe: Universe
    ) -> list[ChaseDependency]:
        """Normalise a dependency tuple, memoizing when a cache is attached."""
        if self._premise_cache is None:
            return normalize_all(dependencies, universe)
        key = (dependencies, universe)
        cached = self._premise_cache.get(key)
        if cached is None:
            cached = tuple(normalize_all(dependencies, universe))
            self._premise_cache[key] = cached
        return list(cached)

    # -- unrestricted implication ----------------------------------------------

    def implies(
        self, premises: Sequence[Dependency], conclusion: Dependency
    ) -> ImplicationOutcome:
        """Attack ``premises |= conclusion`` with the strongest applicable procedure."""
        universe = self._resolve_universe(premises, conclusion)

        if isinstance(conclusion, FunctionalDependency) and all(
            isinstance(p, FunctionalDependency) for p in premises
        ):
            implied = fd_implies(list(premises), conclusion)
            return ImplicationOutcome(
                Verdict.IMPLIED if implied else Verdict.NOT_IMPLIED,
                reason="decided by attribute closure (fd fragment)",
            )

        if all(is_full(d, universe) for d in [*premises, conclusion]):
            return full_fragment_implies(
                premises,
                conclusion,
                universe,
                budget=self._config.chase.raised_to(20000, 20000),
            )

        premise_primitives = self._normalized(tuple(premises), universe)
        conclusion_primitives = self._normalized((conclusion,), universe)
        if not conclusion_primitives:
            return ImplicationOutcome(
                Verdict.IMPLIED, reason="the conclusion is trivial"
            )
        worst: Optional[ImplicationOutcome] = None
        for primitive in conclusion_primitives:
            outcome = prove(
                premise_primitives,
                primitive,
                trace=self._config.trace,
                budget=self._config.chase,
            )
            if outcome.verdict is Verdict.NOT_IMPLIED:
                return outcome
            if outcome.verdict is Verdict.UNKNOWN:
                worst = outcome
        if worst is not None:
            return worst
        return ImplicationOutcome(
            Verdict.IMPLIED,
            reason="every normalised conclusion follows by the chase",
        )

    # -- finite implication ------------------------------------------------------

    def finitely_implies(
        self,
        premises: Sequence[Dependency],
        conclusion: Dependency,
        seeds: Sequence[Relation] = (),
    ) -> ImplicationOutcome:
        """Attack ``premises |=_f conclusion``.

        Unrestricted implication entails finite implication, so an ``IMPLIED``
        answer from :meth:`implies` is reused.  A terminating chase refutation
        is already a finite counterexample.  Otherwise a bounded search for a
        finite counterexample is attempted; exhausting it proves nothing, so
        the verdict falls back to ``UNKNOWN`` (the problem is not even
        partially solvable, as the paper shows).
        """
        universe = self._resolve_universe(premises, conclusion)
        unrestricted = self.implies(premises, conclusion)
        if unrestricted.verdict is Verdict.IMPLIED:
            return ImplicationOutcome(
                Verdict.IMPLIED,
                reason="unrestricted implication holds, hence finite implication holds",
                chase=unrestricted.chase,
            )
        if (
            unrestricted.verdict is Verdict.NOT_IMPLIED
            and unrestricted.counterexample is not None
        ):
            return ImplicationOutcome(
                Verdict.NOT_IMPLIED,
                reason="a finite counterexample was produced by the terminated chase",
                counterexample=unrestricted.counterexample,
                chase=unrestricted.chase,
            )
        typed_universe = all(
            d.is_typed() and not _uses_untagged_values(d)
            for d in [*premises, conclusion]
        )
        counterexample = refute_finitely(
            premises,
            conclusion,
            universe,
            seeds=seeds,
            typed_universe=typed_universe,
            budget=self._config.finite_search,
            chase_budget=self._config.chase,
        )
        if counterexample is not None:
            return ImplicationOutcome(
                Verdict.NOT_IMPLIED,
                reason="a finite counterexample was found by bounded enumeration",
                counterexample=counterexample,
            )
        return ImplicationOutcome(
            Verdict.UNKNOWN,
            reason=(
                "neither a chase proof nor a finite counterexample was found "
                "within the configured budgets"
            ),
        )

    # -- problem objects ----------------------------------------------------------

    def _with_deadline(self, deadline: float) -> "ImplicationEngine":
        """A shallow clone whose chase budget is cut at ``deadline``.

        The deadline is a per-call property (one service request's patience),
        not part of this engine's identity, so it never mutates ``self`` --
        the clone shares the premise cache and differs only in
        ``config.chase.deadline``.
        """
        from dataclasses import replace

        clone = object.__new__(ImplicationEngine)
        clone._universe = self._universe
        clone._config = replace(
            self._config, chase=self._config.chase.with_deadline(deadline)
        )
        clone._premise_cache = self._premise_cache
        return clone

    def solve(
        self,
        problem: ImplicationProblem,
        *,
        deadline: Optional[float] = None,
    ) -> ImplicationOutcome:
        """Solve an :class:`ImplicationProblem` object.

        ``deadline`` is an absolute ``time.monotonic()`` instant after which
        the chase stops at the next round boundary and raises
        :class:`~repro.util.errors.ChaseDeadlineExceeded` -- it bounds wall
        clock without changing any answer delivered in time.
        """
        engine = self if deadline is None else self._with_deadline(deadline)
        if problem.finite:
            return engine.finitely_implies(list(problem.premises), problem.conclusion)
        return engine.implies(list(problem.premises), problem.conclusion)


def _uses_untagged_values(dependency: Dependency) -> bool:
    """Whether the dependency mentions untagged (untyped-regime) values.

    Untyped dependencies whose variables happen not to repeat across columns
    satisfy the *syntactic* typedness test, but their counterexamples still
    live in the untyped regime -- the finite-counterexample search must then
    enumerate untyped relations, or every candidate would satisfy them
    vacuously.
    """
    from repro.dependencies.egd import EqualityGeneratingDependency
    from repro.dependencies.td import TemplateDependency

    if isinstance(dependency, TemplateDependency):
        values = dependency.body.values() | dependency.conclusion.values()
        return any(value.tag is None for value in values)
    if isinstance(dependency, EqualityGeneratingDependency):
        return any(value.tag is None for value in dependency.body.values())
    return False
