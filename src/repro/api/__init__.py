"""``repro.api``: the recommended public surface of the library.

Three pieces:

* **config objects** (:class:`ChaseBudget`, :class:`FiniteSearchBudget`,
  :class:`SolverConfig`) -- frozen, hashable budgets, the one way every
  entry point takes its limits;
* **the dependency DSL** (:func:`parse_dependency`,
  :func:`parse_dependency_set`, :func:`describe_dependency`) -- compact text
  for fds, mvds, jds/pjds and tagged td/egd tableaux, with a parse/describe
  round-trip;
* **the solver facade** (:class:`Solver`) -- implication, finite implication,
  chasing, the paper's reduction pipelines, and the batch path
  :meth:`Solver.solve_many` with memoization and deadline-aware solving;
* **the asyncio front-end** (:class:`AsyncSolver`,
  :meth:`Solver.solve_many_async`) -- thousands of independent queries
  multiplexed with semaphore backpressure, inline or over an executor the
  caller owns, sharing the batch path's dedup/memoization;
* **problem identity and the outcome store** (:class:`ProblemIdentity`,
  :func:`identity_of`, :class:`OutcomeStore` and its in-memory / file-backed
  / null implementations) -- the pluggable caching layer every dedup path
  keys on, with an isomorphism-invariant *canonical* mode that collapses
  renamed statements of the same problem into one cache entry.

Quickstart::

    from repro.api import Solver

    solver = Solver(universe="ABC")
    outcome = solver.implies(["A -> B"], "A ->> B")
    assert outcome.is_implied()
    print(outcome.to_dict())
"""

from repro.api.batch import BatchRunStats, BatchStats, solve_problems
from repro.api.dsl import (
    DSLError,
    describe_dependency,
    describe_dependency_set,
    parse_attribute_set,
    parse_dependency,
    parse_dependency_set,
)
from repro.api.identity import ProblemIdentity, identity_of
from repro.api.solver import Solver, solve_one
from repro.api.store import (
    FileOutcomeStore,
    InMemoryStore,
    NullStore,
    OutcomeStore,
    StoreHit,
    StoreStats,
    build_store,
)
from repro.config import (
    CACHE_MODES,
    CACHE_STORES,
    CHASE_STRATEGIES,
    CHECKPOINT_MODES,
    CacheConfig,
    ChaseBudget,
    CheckpointConfig,
    ConfigError,
    FiniteSearchBudget,
    SolverConfig,
)
from repro.model.canon import (
    CanonicalizationError,
    canonical_key,
    syntactic_key,
)
from repro.implication.problem import ImplicationOutcome, ImplicationProblem, Verdict

#: Names resolved on first access: the asyncio front-end imports asyncio
#: (and with it ssl), which no synchronous solve needs.
_ASYNC_NAMES = ("AsyncSolver", "AsyncSolverError", "DEFAULT_MAX_IN_FLIGHT")


def __getattr__(name: str):
    """Import the asyncio front-end on first access to one of its names."""
    if name in _ASYNC_NAMES:
        from repro.api import async_batch

        return getattr(async_batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """The module's names, the lazily imported ones included."""
    return sorted(set(globals()) | set(_ASYNC_NAMES))

__all__ = [
    "Solver",
    "solve_one",
    "AsyncSolver",
    "AsyncSolverError",
    "DEFAULT_MAX_IN_FLIGHT",
    "BatchRunStats",
    "BatchStats",
    "solve_problems",
    "ProblemIdentity",
    "identity_of",
    "OutcomeStore",
    "InMemoryStore",
    "FileOutcomeStore",
    "NullStore",
    "StoreHit",
    "StoreStats",
    "build_store",
    "CanonicalizationError",
    "canonical_key",
    "syntactic_key",
    "DSLError",
    "describe_dependency",
    "describe_dependency_set",
    "parse_attribute_set",
    "parse_dependency",
    "parse_dependency_set",
    "CACHE_MODES",
    "CACHE_STORES",
    "CHASE_STRATEGIES",
    "CHECKPOINT_MODES",
    "CacheConfig",
    "ChaseBudget",
    "CheckpointConfig",
    "ConfigError",
    "FiniteSearchBudget",
    "SolverConfig",
    "ImplicationOutcome",
    "ImplicationProblem",
    "Verdict",
]
