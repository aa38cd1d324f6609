"""The batch solving path behind :meth:`repro.api.Solver.solve_many`.

Implication workloads are heavily repetitive: schema-design loops probe many
conclusions against one premise set, and service traffic re-asks identical
queries.  The batch path exploits both shapes without changing any answer:

* **outcome memoization** -- problems are deduplicated on their
  :class:`~repro.api.identity.ProblemIdentity` (the solver's frozen
  :class:`~repro.config.SolverConfig` fixes the budgets and picks the
  syntactic or canonical identity mode), so each distinct problem is
  chased exactly once per solver -- and, in canonical mode, renamed
  isomorphic statements of one problem share a single solve;
* **shared normalisation** -- the solver threads one premise cache through
  its :class:`~repro.implication.engine.ImplicationEngine`, so a premise set
  shared by many problems is converted to chase primitives only once.

Distinct problems solve sequentially in the calling thread, so a
``deadline`` reaches every chase.  To spread queries over cores, run the
service fleet (``python -m repro.service --workers N``) or hand an
:class:`~repro.api.AsyncSolver` an executor the caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.api.identity import ProblemIdentity
from repro.implication.problem import ImplicationOutcome, ImplicationProblem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.solver import Solver


@dataclass(frozen=True)
class BatchRunStats:
    """The dedup/memoization outcome of one ``solve_many`` run.

    ``cache_hits`` counts every problem occurrence served without a solve:
    repeats deduplicated within the run plus hits on the solver's outcome
    store.  ``canonical_hits`` are the hits earned purely by canonical
    identity (a differently-named isomorphic twin was cached);
    ``syntactic_hits`` are hits on the exact statement; the two sum to
    ``cache_hits``.  ``evictions`` counts store entries evicted during the
    run (LRU pressure or TTL expiry).  The service's metrics endpoint
    consumes these per-run numbers; they are equally useful standalone
    when tuning a batch workload.
    """

    problems: int
    unique_problems: int
    cache_hits: int
    solved: int
    canonical_hits: int = 0
    syntactic_hits: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of occurrences served from a cache (0.0 on empty runs)."""
        return self.cache_hits / self.problems if self.problems else 0.0

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "problems": self.problems,
            "unique_problems": self.unique_problems,
            "cache_hits": self.cache_hits,
            "solved": self.solved,
            "canonical_hits": self.canonical_hits,
            "syntactic_hits": self.syntactic_hits,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchRunStats":
        """Rebuild a run snapshot from :meth:`to_dict` output."""
        return cls(
            problems=payload.get("problems", 0),
            unique_problems=payload.get("unique_problems", 0),
            cache_hits=payload.get("cache_hits", 0),
            solved=payload.get("solved", 0),
            canonical_hits=payload.get("canonical_hits", 0),
            syntactic_hits=payload.get("syntactic_hits", 0),
            evictions=payload.get("evictions", 0),
        )


@dataclass
class BatchStats:
    """Counters describing how much work a batch actually performed.

    The four counters are lifetime accumulations across every run the owning
    solver performed; ``last_run`` keeps the most recent run's own numbers
    (the asyncio front-end records each query as a run of one).
    """

    problems: int = 0
    unique_problems: int = 0
    cache_hits: int = 0
    solved: int = 0
    canonical_hits: int = 0
    syntactic_hits: int = 0
    evictions: int = 0
    runs: int = 0
    last_run: Optional[BatchRunStats] = field(default=None, compare=False)

    def merge_run(
        self,
        problems: int,
        unique: int,
        hits: int,
        solved: int,
        canonical_hits: int = 0,
        syntactic_hits: int = 0,
        evictions: int = 0,
    ) -> BatchRunStats:
        """Accumulate one run into the lifetime counters and snapshot it."""
        self.problems += problems
        self.unique_problems += unique
        self.cache_hits += hits
        self.solved += solved
        self.canonical_hits += canonical_hits
        self.syntactic_hits += syntactic_hits
        self.evictions += evictions
        self.runs += 1
        run = BatchRunStats(
            problems=problems,
            unique_problems=unique,
            cache_hits=hits,
            solved=solved,
            canonical_hits=canonical_hits,
            syntactic_hits=syntactic_hits,
            evictions=evictions,
        )
        self.last_run = run
        return run

    @property
    def hit_rate(self) -> float:
        """Lifetime fraction of occurrences served from a cache."""
        return self.cache_hits / self.problems if self.problems else 0.0

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (the service metrics embed it)."""
        payload = {
            "problems": self.problems,
            "unique_problems": self.unique_problems,
            "cache_hits": self.cache_hits,
            "solved": self.solved,
            "canonical_hits": self.canonical_hits,
            "syntactic_hits": self.syntactic_hits,
            "evictions": self.evictions,
            "runs": self.runs,
            "hit_rate": self.hit_rate,
        }
        if self.last_run is not None:
            payload["last_run"] = self.last_run.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchStats":
        """Rebuild lifetime counters from :meth:`to_dict` output."""
        stats = cls(
            problems=payload.get("problems", 0),
            unique_problems=payload.get("unique_problems", 0),
            cache_hits=payload.get("cache_hits", 0),
            solved=payload.get("solved", 0),
            canonical_hits=payload.get("canonical_hits", 0),
            syntactic_hits=payload.get("syntactic_hits", 0),
            evictions=payload.get("evictions", 0),
            runs=payload.get("runs", 0),
        )
        if "last_run" in payload:
            stats.last_run = BatchRunStats.from_dict(payload["last_run"])
        return stats


def solve_problems(
    solver: "Solver",
    problems: Sequence[ImplicationProblem],
    *,
    deadline: Optional[float] = None,
) -> list[ImplicationOutcome]:
    """Solve many problems, deduplicating and memoizing shared work.

    Results are positionally aligned with ``problems``.  ``deadline`` (an
    absolute ``time.monotonic()`` instant) is threaded into each solve so
    the chase itself stops at the next round boundary once the instant
    passes.
    """
    identities = [solver.identity(p) for p in problems]
    results: Dict[ProblemIdentity, ImplicationOutcome] = {}
    fresh: Dict[ProblemIdentity, ImplicationProblem] = {}
    first_fingerprint: Dict[ProblemIdentity, str] = {}
    canonical_hits = 0
    syntactic_hits = 0
    evictions_before = solver.store.stats.evictions
    for identity, problem in zip(identities, problems):
        if identity in results or identity in fresh:
            # An in-run duplicate: a renamed twin of the first occurrence
            # counts as a canonical hit, a repeat of the same statement as
            # a syntactic one.
            if identity.fingerprint != first_fingerprint[identity]:
                canonical_hits += 1
            else:
                syntactic_hits += 1
            continue
        first_fingerprint[identity] = identity.fingerprint
        hit = solver.lookup(identity)
        if hit is not None:
            results[identity] = hit.outcome
            if hit.canonical:
                canonical_hits += 1
            else:
                syntactic_hits += 1
        else:
            fresh[identity] = problem
    # Every occurrence that does not trigger a solve is served from a cache
    # (the solver's outcome store, or this run's dedup of repeated problems).
    hits = len(problems) - len(fresh)

    for identity, problem in fresh.items():
        results[identity] = solver.solve(problem, deadline=deadline)

    solver.stats.merge_run(
        problems=len(problems),
        unique=len(fresh),
        hits=hits,
        solved=len(fresh),
        canonical_hits=canonical_hits,
        syntactic_hits=syntactic_hits,
        evictions=solver.store.stats.evictions - evictions_before,
    )
    return [results[identity] for identity in identities]
