"""Bounded search for finite counterexamples (the finite implication problem).

``Sigma |=_f sigma`` fails exactly when some *finite* relation satisfies
``Sigma`` but not ``sigma``.  The set of such witnesses is recursively
enumerable, so the natural procedure is exhaustive search over finite
relations of bounded size -- which is what this module implements, with two
optimisations:

* the search enumerates relations over *canonical* per-column domains (for a
  typed universe) or a shared domain (untyped), because satisfaction is
  invariant under renaming values;
* candidate relations that do not even embed the conclusion's body are
  skipped immediately (a counterexample must embed it, otherwise the
  conclusion holds vacuously... except for egd/td conclusions whose body
  does not embed -- those are satisfied, so such relations can never refute
  the conclusion).

The search is exponential and only intended for small universes and small
bounds; the paper's whole point is that no procedure, clever or not, decides
the problem in general.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Optional, Sequence

from repro.config import ChaseBudget, FiniteSearchBudget
from repro.dependencies.base import Dependency, all_satisfied
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import typed, untyped


def candidate_rows(
    universe: Universe, domain_size: int, typed_universe: bool = True
) -> list[Row]:
    """All rows over canonical domains of the given size.

    For a typed universe each column draws from its own pool
    ``{a0, ..., a(k-1)}``; for an untyped one all columns share
    ``{v0, ..., v(k-1)}``.
    """
    attrs = universe.attributes
    pools = []
    for attr in attrs:
        if typed_universe:
            pools.append(
                [typed(f"{attr.name.lower()}{i}", attr) for i in range(domain_size)]
            )
        else:
            pools.append([untyped(f"v{i}") for i in range(domain_size)])
    rows = []
    for cells in product(*pools):
        rows.append(Row(dict(zip(attrs, cells))))
    return rows


def candidate_relations(
    universe: Universe,
    max_rows: int,
    domain_size: int,
    typed_universe: bool = True,
) -> Iterator[Relation]:
    """Enumerate relations with at most ``max_rows`` rows over canonical domains.

    Relations are produced in order of increasing row count, so the first
    counterexample found is one of minimal size within the explored space.
    """
    rows = candidate_rows(universe, domain_size, typed_universe)
    for count in range(1, max_rows + 1):
        for subset in combinations(rows, count):
            yield Relation(universe, subset)


def find_finite_counterexample(
    premises: Sequence[Dependency],
    conclusion: Dependency,
    universe: Universe,
    *,
    typed_universe: bool = True,
    budget: Optional[FiniteSearchBudget] = None,
) -> Optional[Relation]:
    """Search for a finite relation satisfying the premises but not the conclusion.

    Returns the first counterexample found, or ``None`` if the bounded space
    contains none (which does **not** establish ``Sigma |=_f sigma``).  The
    bounds come from the :class:`~repro.config.FiniteSearchBudget` passed as
    ``budget`` (``None`` means ``FiniteSearchBudget(max_rows=4)``); every
    parameter after ``universe`` is keyword-only.
    """
    resolved = budget if budget is not None else FiniteSearchBudget(max_rows=4)
    examined = 0
    for candidate in candidate_relations(
        universe, resolved.max_rows, resolved.domain_size, typed_universe
    ):
        examined += 1
        if resolved.max_candidates is not None and examined > resolved.max_candidates:
            return None
        if conclusion.satisfied_by(candidate):
            continue
        if all_satisfied(candidate, premises):
            return candidate
    return None


def refute_finitely(
    premises: Sequence[Dependency],
    conclusion: Dependency,
    universe: Universe,
    *,
    seeds: Iterable[Relation] = (),
    typed_universe: bool = True,
    budget: Optional[FiniteSearchBudget] = None,
    chase_budget: Optional[ChaseBudget] = None,
) -> Optional[Relation]:
    """Like :func:`find_finite_counterexample` but trying caller-provided seeds first.

    Callers often have good candidate witnesses (a terminated chase result,
    the translation of an untyped counterexample, ...); those are checked
    before the blind enumeration starts.  A seed that violates the conclusion
    but *narrowly misses* the premises is additionally repaired by a small
    budgeted chase: a terminating chase turns the seed into a genuine
    premise model, which is a counterexample whenever it still violates the
    conclusion.  The repair chase is scheduled per ``chase_budget`` (whose
    ``chase_strategy`` / ``chase_kernel`` fields carry the scheduling choice;
    its step/row caps are replaced by the repair's own small ones).  Every
    parameter after ``universe`` is keyword-only.
    """
    for seed in seeds:
        if not conclusion.satisfied_by(seed):
            if all_satisfied(seed, premises):
                return seed
            repaired = _repair_seed(seed, premises, conclusion, universe, chase_budget)
            if repaired is not None:
                return repaired
    return find_finite_counterexample(
        premises,
        conclusion,
        universe,
        typed_universe=typed_universe,
        budget=budget,
    )


def _repair_seed(
    seed: Relation,
    premises: Sequence[Dependency],
    conclusion: Dependency,
    universe: Universe,
    chase_budget: Optional[ChaseBudget],
) -> Optional[Relation]:
    """Chase a near-miss seed into a premise model; keep it if it still refutes.

    Sound by construction: the repaired relation is only returned after
    verifying directly that it satisfies every premise and violates the
    conclusion.  A non-terminating or erroring chase simply abstains.
    """
    from dataclasses import replace

    from repro.chase.engine import chase as run_chase
    from repro.implication.normalize import normalize_all
    from repro.util.errors import ReproError

    try:
        primitives = normalize_all(premises, universe)
        base = chase_budget if chase_budget is not None else ChaseBudget()
        budget = replace(base, max_steps=256, max_rows=max(256, len(seed) * 4))
        result = run_chase(seed, primitives, budget=budget)
    except ReproError:
        return None
    if not result.terminated():
        return None
    repaired = result.relation
    if not conclusion.satisfied_by(repaired) and all_satisfied(repaired, premises):
        return repaired
    return None
