"""The dependency abstraction (Section 2.3).

Every dependency class in the library implements the same protocol:
``satisfied_by(relation)`` decides ``J |= sigma`` for an explicit finite
relation ``J``, ``is_typed()`` reports whether the dependency lives in the
typed regime of Section 2.4, and ``describe()`` renders the dependency in
the paper's notation.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

from repro.model.relations import Relation


class Dependency(abc.ABC):
    """Abstract base class for all data dependencies."""

    @abc.abstractmethod
    def satisfied_by(self, relation: Relation) -> bool:
        """Decide whether the finite relation ``relation`` satisfies this dependency."""

    @abc.abstractmethod
    def is_typed(self) -> bool:
        """Whether the dependency belongs to the typed regime (disjoint domains)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """A human-readable rendering in the paper's notation."""

    def __str__(self) -> str:
        return self.describe()


def all_satisfied(relation: Relation, dependencies: Iterable[Dependency]) -> bool:
    """Whether ``relation`` satisfies every dependency in the collection."""
    return all(dependency.satisfied_by(relation) for dependency in dependencies)


def violated(
    relation: Relation, dependencies: Iterable[Dependency]
) -> list[Dependency]:
    """The sub-list of dependencies that ``relation`` violates."""
    return [d for d in dependencies if not d.satisfied_by(relation)]


def is_counterexample(
    relation: Relation,
    premises: Sequence[Dependency],
    conclusion: Dependency,
) -> bool:
    """Whether ``relation`` witnesses ``premises not|= conclusion``.

    A counterexample relation (footnote 2 of the paper) satisfies every
    premise but violates the conclusion.

    The td and egd checks share one homomorphism index cached on
    ``relation``; a checked counterexample usually lives on in an outcome,
    and the index is larger than the relation, so the relation's cache slot
    is left as the check found it.
    """
    cached = relation._hom_index
    try:
        if not all_satisfied(relation, premises):
            return False
        return not conclusion.satisfied_by(relation)
    finally:
        relation._hom_index = cached
