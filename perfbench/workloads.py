"""Seeded inputs and ground truth for the three benchmark workloads.

Every generator takes a ``random.Random`` built from the ``--seed``
argument, so one seed always yields the same inputs.  The seed changes the
details (attribute names, renamings, which queries repeat, order) but
never the mix: each workload asks the same amount of work at every seed,
which is what keeps the run-to-run spread of the metrics small.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: The fixed universe of the ``service_hot`` pool.
HOT_UNIVERSE = "ABCD"

#: Distinct queries in the ``service_hot`` pool, and the share asked finitely.
HOT_POOL_SIZE = 200
HOT_FINITE_SHARE = 0.2

#: Zipf exponent of the ``service_hot`` request draw.
HOT_ZIPF = 1.1

#: The fixed universe of the ``fleet_renamed`` problems.
FLEET_UNIVERSE = "ABCDEF"


@dataclass(frozen=True)
class TextQuery:
    """One query as the wire carries it: DSL premises, conclusion, finite."""

    premises: Tuple[str, ...]
    conclusion: str
    finite: bool = False


# -- service_hot --------------------------------------------------------------


def _attr_set(rng, pool: Sequence[str], low: int, high: int) -> str:
    return "".join(sorted(rng.sample(list(pool), rng.randint(low, high))))


def _fd(rng, universe: str) -> str:
    lhs = _attr_set(rng, universe, 1, 2)
    rhs = rng.choice([a for a in universe if a not in lhs])
    return f"{lhs} -> {rhs}"


def _mvd(rng, universe: str) -> str:
    lhs = _attr_set(rng, universe, 1, 1)
    rest = [a for a in universe if a not in lhs]
    return f"{lhs} ->> {_attr_set(rng, rest, 1, 2)}"


def _jd(rng, universe: str) -> str:
    first = _attr_set(rng, universe, 2, len(universe) - 1)
    overlap = rng.choice(first)
    second = "".join(sorted(set(universe) - set(first) | {overlap}))
    return f"join[{first}, {second}]"


def _td(rng, universe: str) -> str:
    """A full typed td with a two-row body; the head reuses body values."""
    row1 = [f"{a.lower()}1" for a in universe]
    row2 = [
        cell if rng.random() < 0.4 else f"{a.lower()}2"
        for a, cell in zip(universe, row1)
    ]
    head = [rng.choice((x, y)) for x, y in zip(row1, row2)]
    return (
        f"td[{universe}]{{{' '.join(row1)}; {' '.join(row2)}}} => {' '.join(head)}"
    )


def hot_pool(rng) -> List[TextQuery]:
    """About 200 distinct small fd/mvd/jd/td queries over ``HOT_UNIVERSE``."""
    makers = (_fd, _mvd, _jd)
    conclusions = (_fd, _mvd, _jd, _td)
    seen = set()
    pool: List[TextQuery] = []
    while len(pool) < HOT_POOL_SIZE:
        premises = tuple(
            rng.choice(makers)(rng, HOT_UNIVERSE) for _ in range(rng.randint(1, 3))
        )
        conclusion = rng.choice(conclusions)(rng, HOT_UNIVERSE)
        finite = len(pool) < HOT_POOL_SIZE * HOT_FINITE_SHARE
        query = TextQuery(premises, conclusion, finite)
        if query not in seen:
            seen.add(query)
            pool.append(query)
    rng.shuffle(pool)
    return pool


def zipf_draws(rng, size: int, count: int) -> List[int]:
    """``count`` indices into a pool of ``size``, Zipf-skewed by rank."""
    weights = [1.0 / (rank + 1) ** HOT_ZIPF for rank in range(size)]
    return rng.choices(range(size), weights=weights, k=count)


# -- chase_cold ---------------------------------------------------------------


@dataclass(frozen=True)
class ColdQuery:
    """One ``chase_cold`` problem and the verdict its family must produce.

    ``build(solver)`` returns a fresh :class:`ImplicationProblem` each time,
    so no identity memoized on a problem object survives into the next
    pass.  ``expected`` is the verdict value; ``check_counterexample``
    asks the checker to validate the returned counterexample as well.
    """

    family: str
    label: str
    universe: Tuple[str, ...]
    premises: Tuple[object, ...]
    conclusion: object
    finite: bool
    expected: str
    check_counterexample: bool = False

    def build(self, solver):
        return solver.problem(list(self.premises), self.conclusion, finite=self.finite)


#: Seed of the fixed problem catalogs (word problems, fleet classes).  The
#: run's ``--seed`` renames and reorders what the workloads ask but never
#: swaps in different problems, so every seed asks the same amount of work
#: and what spreads between runs is the machine, not the inputs.
CATALOG_SEED = 1982

#: Per-pass composition of ``chase_cold``.  The ranks are laid out so each
#: reported percentile lands inside one family: the successor chains hold
#: p99 and the 12 k=6 chains (ranks 5-16 of 100, below 2 successors and 2
#: k=7 chains) hold p90 near their middle.
COLD_MVD_CHAINS = ((7, 1, 1), (6, 9, 3), (5, 3, 1))  # (k, plain, finite)
COLD_WORD_POSITIVE = (30, 10)  # (plain, finite)
COLD_WORD_NEGATIVE = (30, 10)
COLD_SUCCESSORS = (1, 1)


def _mvd_chain(rng, k: int, finite: bool) -> ColdQuery:
    """The Lemma 10 chain ``X1 ->> X2, ..., X(k-1) ->> Xk`` implying ``X1 ->> Xk``.

    The chase starts from the conclusion's two-row body and doubles the
    tableau at every link.  The chain follows the universe order, so the
    seed's letters rename the problem without changing its cost.
    """
    letters = sorted(rng.sample(string.ascii_uppercase, k))
    premises = tuple(f"{letters[i]} ->> {letters[i + 1]}" for i in range(k - 1))
    return ColdQuery(
        family="mvd_chain",
        label=f"mvd_chain k={k}{' finite' if finite else ''}",
        universe=tuple(letters),
        premises=premises,
        conclusion=f"{letters[0]} ->> {letters[-1]}",
        finite=finite,
        expected="implied",
    )


def _word_instance(generators: str, relations, goal, rename=None):
    """Build a word-problem instance from strings, generators renamed."""
    from repro.semigroups import (
        Equation,
        SemigroupPresentation,
        WordProblemInstance,
        word,
    )

    table = str.maketrans(rename or {})

    def equation(pair):
        return Equation(word(pair[0].translate(table)), word(pair[1].translate(table)))

    return WordProblemInstance(
        SemigroupPresentation(
            tuple(sorted(generators.translate(table))),
            tuple(equation(pair) for pair in relations),
        ),
        equation(goal),
    )


def _word_problem(catalog, positive: bool):
    """A word problem over commutation/idempotence presentations.

    Draws until :func:`classify_instance` certifies the wanted answer, so
    the ground truth comes from the semigroup side, not from the solver.
    Returns ``(generators, relations, goal)`` as strings.
    """
    from repro.semigroups.rewriting import classify_instance

    while True:
        generators = "".join(sorted(catalog.sample("abcde", catalog.randint(2, 3))))
        relations = []
        for _ in range(catalog.randint(1, 2)):
            if catalog.random() < 0.5:
                x, y = catalog.sample(generators, 2)
                relations.append((x + y, y + x))
            else:
                x = catalog.choice(generators)
                relations.append((x + x, x))
        left = "".join(catalog.choice(generators) for _ in range(catalog.randint(2, 3)))
        right = "".join(
            catalog.choice(generators) for _ in range(catalog.randint(1, 3))
        )
        if left == right:
            continue
        spec = (generators, tuple(relations), (left, right))
        if classify_instance(_word_instance(*spec)) is positive:
            return spec


def _semigroup(spec, rename, positive: bool, finite: bool) -> ColdQuery:
    """An encoded word problem (Theorems 3/4).

    Totality premises are left out: with them the chase of even a trivial
    instance runs for minutes.
    """
    from repro.core.inseparability import build_query
    from repro.core.untyped import UNTYPED_UNIVERSE

    query = build_query(_word_instance(*spec, rename), include_totality=False)
    if query.expected_implied() is not positive:
        raise AssertionError("renaming generators changed a word problem's answer")
    return ColdQuery(
        family="semigroup",
        label=f"word problem {query.instance.describe()}"
        f"{' finite' if finite else ''}",
        universe=tuple(a.name for a in UNTYPED_UNIVERSE.attributes),
        premises=tuple(query.encoded.premises),
        conclusion=query.untyped_query,
        finite=finite,
        expected="implied" if positive else "not_implied",
        check_counterexample=not positive,
    )


def _successor(rng, finite: bool) -> ColdQuery:
    """An untyped successor chain asked to close into a cycle.

    Every row needs a successor, so the chase never terminates: the plain
    query exhausts the default step budget and ends UNKNOWN.  A finite
    model with a self-loop refutes the cycle, so the finite twin ends
    NOT_IMPLIED with a counterexample the checker validates.
    """
    length = rng.randint(3, 6)
    body = "; ".join(f"v{i} v{i + 1}" for i in range(length))
    return ColdQuery(
        family="successor",
        label=f"successor chain n={length}{' finite' if finite else ''}",
        universe=("A", "B"),
        premises=("utd[AB]{x y} => y z",),
        conclusion=f"utd[AB]{{{body}}} => v{length} v0",
        finite=finite,
        expected="not_implied" if finite else "unknown",
        check_counterexample=finite,
    )


def cold_queries(rng, *, tiny: bool = False) -> List[ColdQuery]:
    """One pass of ``chase_cold``: a hundred distinct problems.

    The word problems come from the fixed catalog, their generators renamed
    by the seed.  ``tiny`` keeps a few queries of the cheap shapes (no
    successor chains, no k=7 chain), for the benchmark's own smoke test.
    """
    queries: List[ColdQuery] = []
    seen = set()

    def add(make, count: int) -> None:
        """Append ``count`` problems from ``make``, skipping repeats."""
        while count:
            query = make()
            key = (query.premises, query.conclusion, query.finite)
            if key not in seen:
                seen.add(key)
                queries.append(query)
                count -= 1

    chains = ((5, 1, 1), (6, 1, 0)) if tiny else COLD_MVD_CHAINS
    for k, plain, finite in chains:
        add(lambda: _mvd_chain(rng, k, False), plain)
        add(lambda: _mvd_chain(rng, k, True), finite)
    catalog = random.Random(CATALOG_SEED)
    rename = dict(zip("abcde", rng.sample("abcdefghjk", 5)))
    positive = (2, 1) if tiny else COLD_WORD_POSITIVE
    negative = (2, 1) if tiny else COLD_WORD_NEGATIVE
    for sign, (plain, finite) in ((True, positive), (False, negative)):
        for is_finite, count in ((False, plain), (True, finite)):
            add(
                lambda: _semigroup(
                    _word_problem(catalog, sign), rename, sign, is_finite
                ),
                count,
            )
    if not tiny:
        plain, finite = COLD_SUCCESSORS
        add(lambda: _successor(rng, False), plain)
        add(lambda: _successor(rng, True), finite)
    rng.shuffle(queries)
    return queries


def check_cold(query: ColdQuery, problem, outcome) -> Optional[str]:
    """``None`` when the outcome matches the family's ground truth."""
    from repro.dependencies.base import is_counterexample

    if outcome.verdict.value != query.expected:
        return f"{query.label}: expected {query.expected}, got {outcome.verdict.value}"
    if query.check_counterexample:
        if outcome.counterexample is None or not is_counterexample(
            outcome.counterexample, list(problem.premises), problem.conclusion
        ):
            return f"{query.label}: the counterexample does not refute the query"
    return None


# -- fleet_renamed ------------------------------------------------------------


def _fleet_problem(rng) -> TextQuery:
    """A tree of mvds over five of the six attributes, maybe plus a jd.

    Conclusions are mvds from the tree's root or two-way jds; cold solves
    take from about one to a few hundred milliseconds, most 20-100 ms.
    """
    order = rng.sample(FLEET_UNIVERSE, len(FLEET_UNIVERSE))
    premises = []
    for i in range(1, 5):
        lhs = order[rng.randrange(i)]
        if i >= 2 and rng.random() < 0.25:
            lhs = "".join(sorted(set(lhs) | {order[rng.randrange(i)]}))
        premises.append(f"{lhs} ->> {order[i]}")
    if rng.random() < 0.3:
        premises.append(_jd(rng, FLEET_UNIVERSE))
    rng.shuffle(premises)
    if rng.random() < 0.5:
        rest = [a for a in FLEET_UNIVERSE if a != order[0]]
        conclusion = f"{order[0]} ->> {_attr_set(rng, rest, 1, 3)}"
    else:
        conclusion = _jd(rng, FLEET_UNIVERSE)
    return TextQuery(tuple(premises), conclusion)


def rename_text(query: TextQuery, permutation: str) -> TextQuery:
    """The query restated with attribute ``FLEET_UNIVERSE[i]`` -> ``permutation[i]``."""
    table = str.maketrans(FLEET_UNIVERSE, permutation)
    return TextQuery(
        tuple(p.translate(table) for p in query.premises),
        query.conclusion.translate(table),
        query.finite,
    )


def fleet_classes(count: int) -> List[TextQuery]:
    """The first ``count`` classes of the fixed fleet catalog.

    Each is a problem from its own isomorphism class.  Classes whose
    canonical form cannot be computed are skipped: their renamed twins
    would not share a cache entry.
    """
    from repro.api import Solver
    from repro.config import SolverConfig

    canonical = Solver(
        universe=FLEET_UNIVERSE, config=SolverConfig().with_cache(mode="canonical")
    )
    catalog = random.Random(CATALOG_SEED)
    seen = set()
    classes: List[TextQuery] = []
    while len(classes) < count:
        query = _fleet_problem(catalog)
        identity = canonical.identity(
            canonical.problem(list(query.premises), query.conclusion)
        )
        if not identity.canonical_fallback and identity not in seen:
            seen.add(identity)
            classes.append(query)
    return classes


def solve_cold(queries: Sequence[TextQuery]) -> list:
    """Cold in-process solves over ``FLEET_UNIVERSE``: the fleet's reference.

    Top-level so a process pool can run it.
    """
    from repro.api import Solver

    solver = Solver(universe=FLEET_UNIVERSE)
    return [
        solver.solve_many([solver.problem(list(q.premises), q.conclusion)])[0]
        for q in queries
    ]


def tenant_permutations(rng) -> Tuple[str, str]:
    """Two distinct attribute renamings, one per tenant."""
    first = "".join(rng.sample(FLEET_UNIVERSE, len(FLEET_UNIVERSE)))
    while True:
        second = "".join(rng.sample(FLEET_UNIVERSE, len(FLEET_UNIVERSE)))
        if second != first:
            return first, second
