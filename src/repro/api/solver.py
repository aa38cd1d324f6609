"""The :class:`Solver` facade: one object for the whole library surface.

A solver bundles a universe, a frozen :class:`~repro.config.SolverConfig`
and two memoization layers (premise normalisation, solved outcomes) behind
the operations users actually perform:

* ``implies`` / ``finitely_implies`` / ``solve`` -- implication queries over
  any dependency class, answered by the strongest applicable procedure;
* ``solve_text`` / ``parse`` -- the same, stated in the text DSL of
  :mod:`repro.api.dsl`;
* ``solve_many`` -- the batch path (deduplication, memoization, a deadline
  that reaches every chase);
* ``chase`` -- chase an instance with dependencies of any class (conversion
  to the paper's two primitive classes happens internally);
* ``reduce_untyped_to_typed`` / ``reduce_td_to_pjd`` -- the paper's
  Theorem 2 / Theorem 6 reduction pipelines.

Every outcome is an :class:`~repro.implication.problem.ImplicationOutcome`
and therefore JSON-serializable via ``to_dict()``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.api.batch import BatchStats, solve_problems
from repro.api.dsl import describe_dependency, parse_dependency, parse_dependency_set
from repro.api.identity import ProblemIdentity, identity_of
from repro.api.store import NullStore, OutcomeStore, StoreHit, build_store
from repro.chase.engine import ChaseEngine
from repro.chase.result import ChaseResult
from repro.config import ChaseBudget, SolverConfig
from repro.dependencies.base import Dependency
from repro.implication.engine import ImplicationEngine
from repro.implication.normalize import normalize_all
from repro.implication.problem import ImplicationOutcome, ImplicationProblem
from repro.model.attributes import Universe
from repro.model.relations import Relation

#: Anything a premise/conclusion slot accepts: a dependency object or DSL text.
DependencyLike = Union[Dependency, str]


class Solver:
    """A configured, memoizing facade over the implication machinery.

    Parameters
    ----------
    universe:
        The universe queries are interpreted over -- a :class:`Universe` or a
        string of attribute names (``"ABC"``).  ``None`` infers it per query
        from the first td/egd, exactly as :class:`ImplicationEngine` does.
    config:
        The frozen solver configuration; defaults to ``SolverConfig()``.
        ``config.cache`` picks the problem-identity mode (syntactic vs
        canonical) and the backing :class:`~repro.api.store.OutcomeStore`.
    use_cache:
        Disable both memoization layers (useful for benchmarking the
        uncached path; answers are identical either way).  Equivalent to
        ``config.with_cache(store="off")`` plus an empty premise cache.
    store:
        An explicit :class:`~repro.api.store.OutcomeStore` to use instead
        of the one ``config.cache`` would build -- how several solvers (or
        service workers, via :class:`~repro.api.store.FileOutcomeStore`)
        share one cache.
    """

    def __init__(
        self,
        universe: Optional[Union[Universe, str]] = None,
        config: Optional[SolverConfig] = None,
        *,
        use_cache: bool = True,
        store: Optional[OutcomeStore] = None,
    ) -> None:
        if isinstance(universe, str):
            universe = Universe.from_names(universe)
        self._universe = universe
        self._config = config if config is not None else SolverConfig()
        self._cache_mode = self._config.cache.resolved_mode()
        if not use_cache:
            self._premise_cache: Optional[dict] = None
            self._store: OutcomeStore = NullStore()
        else:
            self._premise_cache = {}
            self._store = (
                store if store is not None else build_store(self._config.cache)
            )
        self._identity_context = self._build_identity_context()
        # One key per solver for the identity memo on each problem.
        self._identity_slot = (self._cache_mode, self._identity_context)
        self._stats = BatchStats()
        self._engine = ImplicationEngine(
            universe=universe,
            config=self._config,
            premise_cache=self._premise_cache,
        )

    def _build_identity_context(self) -> tuple:
        """The context scoping this solver's cache keys.

        Everything that can change an outcome (universe, budgets, trace
        mode) is part of the key; the cache policy itself is not, so
        differently-cached solvers sharing one store still hit.  Checkpoint
        settings only decide whether a durable log is written alongside the
        run -- never the answer -- so they are excluded the same way.
        """
        config = self._config.to_dict()
        config.pop("cache", None)
        if isinstance(config.get("chase"), dict):
            config["chase"].pop("checkpoint", None)
        universe = (
            None
            if self._universe is None
            else tuple(a.name for a in self._universe.attributes)
        )
        return (universe, repr(sorted(config.items(), key=repr)))

    # -- accessors -------------------------------------------------------------

    @property
    def universe(self) -> Optional[Universe]:
        """The fixed universe, or ``None`` when inferred per query."""
        return self._universe

    @property
    def config(self) -> SolverConfig:
        """The frozen configuration every query runs under."""
        return self._config

    @property
    def engine(self) -> ImplicationEngine:
        """The underlying implication engine (an escape hatch)."""
        return self._engine

    @property
    def store(self) -> OutcomeStore:
        """The outcome store every dedup layer routes through."""
        return self._store

    @property
    def cache_mode(self) -> str:
        """The resolved problem-identity mode (``syntactic``/``canonical``)."""
        return self._cache_mode

    @property
    def stats(self) -> BatchStats:
        """Lifetime batch counters (problems seen, cache hits, solves).

        ``stats.last_run`` holds the most recent run's own
        :class:`~repro.api.batch.BatchRunStats` -- the per-call dedup and
        hit/miss numbers that ``solve_many`` itself does not return.
        """
        return self._stats

    def clear_caches(self) -> None:
        """Drop both memoization layers (budget changes never need this --
        configs are frozen, so a differently-budgeted solver is a new object)."""
        if self._premise_cache is not None:
            self._premise_cache.clear()
        self._store.clear()

    # -- problem identity ------------------------------------------------------

    def identity(self, problem: ImplicationProblem) -> ProblemIdentity:
        """The problem's cache identity under this solver's mode and context.

        Identities are memoized on the (frozen) problem object, so the
        coalescer, the batch path and :meth:`solve` computing the identity
        of one problem pay the canonicalization cost once.
        """
        cache = problem.__dict__.get("_identity_cache")
        if cache is None:
            cache = {}
            object.__setattr__(problem, "_identity_cache", cache)
        identity = cache.get(self._identity_slot)
        if identity is None:
            identity = identity_of(
                problem, mode=self._cache_mode, context=self._identity_context
            )
            cache[self._identity_slot] = identity
        return identity

    def _coerce_identity(self, key) -> ProblemIdentity:
        """Accept an identity or a problem."""
        if isinstance(key, ProblemIdentity):
            return key
        if isinstance(key, ImplicationProblem):
            return self.identity(key)
        raise TypeError(
            "expected a ProblemIdentity or an ImplicationProblem, "
            f"got {type(key).__name__}"
        )

    # -- DSL -------------------------------------------------------------------

    def parse(self, text: str) -> Dependency:
        """Parse one dependency from DSL text, validated against the universe."""
        return parse_dependency(text, universe=self._universe)

    def parse_set(self, text: str) -> list[Dependency]:
        """Parse a newline-separated dependency list from DSL text."""
        return parse_dependency_set(text, universe=self._universe)

    def describe(self, dependency: Dependency) -> str:
        """Render a dependency in the DSL (inverse of :meth:`parse`)."""
        return describe_dependency(dependency)

    def _coerce(self, dependency: DependencyLike) -> Dependency:
        if isinstance(dependency, str):
            return self.parse(dependency)
        return dependency

    def _coerce_all(
        self, dependencies: Union[str, Iterable[DependencyLike]]
    ) -> list[Dependency]:
        if isinstance(dependencies, str):
            return self.parse_set(dependencies)
        return [self._coerce(d) for d in dependencies]

    # -- single queries --------------------------------------------------------

    def implies(
        self,
        premises: Union[str, Iterable[DependencyLike]],
        conclusion: DependencyLike,
    ) -> ImplicationOutcome:
        """Does ``premises |= conclusion``?  Accepts objects or DSL text."""
        return self.solve(self.problem(premises, conclusion, finite=False))

    def finitely_implies(
        self,
        premises: Union[str, Iterable[DependencyLike]],
        conclusion: DependencyLike,
    ) -> ImplicationOutcome:
        """Does ``premises |=_f conclusion``?  Accepts objects or DSL text."""
        return self.solve(self.problem(premises, conclusion, finite=True))

    def problem(
        self,
        premises: Union[str, Iterable[DependencyLike]],
        conclusion: DependencyLike,
        finite: bool = False,
    ) -> ImplicationProblem:
        """Build an :class:`ImplicationProblem` from objects or DSL text."""
        return ImplicationProblem.of(
            self._coerce_all(premises), self._coerce(conclusion), finite=finite
        )

    def solve(
        self,
        problem: ImplicationProblem,
        *,
        deadline: Optional[float] = None,
    ) -> ImplicationOutcome:
        """Solve one problem, consulting and feeding the outcome store.

        ``deadline`` (an absolute ``time.monotonic()`` instant) cuts the
        chase at the next round boundary with
        :class:`~repro.util.errors.ChaseDeadlineExceeded`.  A deadline cut
        raises before the store is fed, so an expired request can never
        poison the cache with a timing-dependent ``UNKNOWN``.
        """
        # Only pass the keyword when a deadline is actually set, so stubbed
        # engines with the historical solve(problem) shape keep working.
        kwargs = {} if deadline is None else {"deadline": deadline}
        if isinstance(self._store, NullStore):
            return self._engine.solve(problem, **kwargs)
        identity = self.identity(problem)
        hit = self._store.get(identity)
        if hit is not None:
            return hit.outcome
        outcome = self._engine.solve(problem, **kwargs)
        self._store.put(identity, outcome)
        return outcome

    def solve_text(
        self, premises: str, conclusion: str, finite: bool = False
    ) -> ImplicationOutcome:
        """Solve a problem stated entirely in the DSL.

        ``premises`` is a newline-separated dependency block (blank lines and
        ``#`` comments allowed), ``conclusion`` a single dependency.
        """
        return self.solve(self.problem(premises, conclusion, finite=finite))

    # -- batch path ------------------------------------------------------------

    def solve_many(
        self,
        problems: Sequence[ImplicationProblem],
        *,
        deadline: Optional[float] = None,
    ) -> list[ImplicationOutcome]:
        """Solve many problems at once (see :mod:`repro.api.batch`).

        Results align positionally with ``problems`` and are identical to
        calling :meth:`solve` on each problem in sequence; repeated problems
        and shared premise sets are solved/normalised only once.
        ``deadline`` bounds the wall clock of every solve exactly as in
        :meth:`solve`.
        """
        return solve_problems(self, problems, deadline=deadline)

    async def solve_many_async(
        self,
        problems: Sequence[ImplicationProblem],
        *,
        max_in_flight: Optional[int] = None,
    ) -> list[ImplicationOutcome]:
        """Solve many problems through a throwaway asyncio front-end.

        A convenience wrapper building an
        :class:`~repro.api.async_batch.AsyncSolver` around this solver for
        one call: queries solve inline on the event loop with at most
        ``max_in_flight`` dispatched at a time (the semaphore
        backpressure), sharing this solver's outcome cache.  To spread
        queries over an executor, hold an ``AsyncSolver(executor=...)``
        directly.  Answers are identical to :meth:`solve_many` /
        :meth:`solve`.
        """
        from repro.api.async_batch import DEFAULT_MAX_IN_FLIGHT, AsyncSolver

        front = AsyncSolver(
            self,
            max_in_flight=(
                DEFAULT_MAX_IN_FLIGHT if max_in_flight is None else max_in_flight
            ),
        )
        try:
            return await front.solve_many(problems)
        finally:
            front.close()

    def lookup(self, key) -> Optional[StoreHit]:
        """The store entry for a problem/identity, with hit classification.

        Accepts a :class:`~repro.api.identity.ProblemIdentity` or an
        :class:`ImplicationProblem`.  The returned
        :class:`~repro.api.store.StoreHit` says whether the entry was
        populated by this very statement or by a renamed twin.
        """
        return self._store.get(self._coerce_identity(key))

    def cached_outcome(self, key) -> Optional[ImplicationOutcome]:
        """The memoized outcome under a problem identity, if any."""
        hit = self.lookup(key)
        return None if hit is None else hit.outcome

    def seed_outcome(self, key, outcome: ImplicationOutcome) -> None:
        """Insert a precomputed outcome (used by the asyncio front-end)."""
        self._store.put(self._coerce_identity(key), outcome)

    # -- chase -----------------------------------------------------------------

    def chase(
        self,
        instance: Relation,
        dependencies: Union[str, Iterable[DependencyLike]],
        *,
        trace: Optional[bool] = None,
        strategy: Optional[str] = None,
    ) -> ChaseResult:
        """Chase ``instance`` with dependencies of any class.

        Non-primitive classes (fds, mvds, jds, pjds) are normalised to the
        paper's td/egd primitives over the instance's universe first, so the
        chase semantics stay exactly those of the paper.  ``strategy``
        (``"rescan"`` / ``"incremental"`` / ``"auto"``) overrides the
        configured ``chase_strategy`` for this one run.
        """
        coerced = self._coerce_all(dependencies)
        primitives = normalize_all(coerced, instance.universe)
        engine = ChaseEngine(
            primitives,
            trace=self._config.trace if trace is None else trace,
            budget=self._config.chase,
            strategy=strategy,
        )
        return engine.run(instance)

    def resume(
        self,
        checkpoint: str,
        *,
        budget: Optional[ChaseBudget] = None,
        strategy: Optional[str] = None,
    ) -> ChaseResult:
        """Resume an interrupted chase from its checkpoint token.

        ``checkpoint`` is the token a ``BUDGET_EXHAUSTED``
        :class:`~repro.chase.result.ChaseResult` carried (or a path to a log
        segment); it is resolved against this solver's configured checkpoint
        directory.  ``budget`` defaults to the solver's own chase budget --
        pass a raised one (or configure one) to let the resumed run get past
        the point where the original was cut off.  The solver's checkpoint
        policy is grafted onto whatever budget runs, so a resumed run on a
        checkpointing solver stays durable (and re-exhaustion hands back a
        fresh token).  See :func:`repro.chase.engine.resume_chase` for the
        identity guarantees.
        """
        from dataclasses import replace

        from repro.chase.engine import resume_chase

        chase_config = self._config.chase
        if budget is None:
            budget = chase_config
        else:
            budget = replace(budget, checkpoint=chase_config.checkpoint)
        return resume_chase(
            checkpoint,
            budget=budget,
            strategy=strategy,
            directory=chase_config.checkpoint.resolved_directory(),
        )

    # -- the paper's reduction pipelines ----------------------------------------

    def reduce_untyped_to_typed(self, premises, conclusion):
        """Theorem 2's reduction of untyped to typed (finite) implication.

        Delegates to :func:`repro.core.reduction_typed.reduce_untyped_to_typed`;
        the import is local so the facade stays cheap to import.
        """
        from repro.core.reduction_typed import reduce_untyped_to_typed

        return reduce_untyped_to_typed(premises, conclusion)

    def reduce_td_to_pjd(self, premises, conclusion):
        """Theorem 6's reduction of td implication to pjd implication.

        Delegates to :func:`repro.core.reduction_pjd.reduce_td_to_pjd`.
        """
        from repro.core.reduction_pjd import reduce_td_to_pjd

        return reduce_td_to_pjd(premises, conclusion)


def solve_one(
    premises: Union[str, Sequence[DependencyLike]],
    conclusion: DependencyLike,
    universe: Optional[Union[Universe, str]] = None,
    config: Optional[SolverConfig] = None,
    finite: bool = False,
) -> ImplicationOutcome:
    """One-shot convenience: build a throwaway :class:`Solver` and query it."""
    solver = Solver(universe=universe, config=config)
    return solver.solve(solver.problem(premises, conclusion, finite=finite))
