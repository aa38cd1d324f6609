"""Functional dependencies (Section 2.3) and the attribute-closure algorithm.

An fd ``X -> Y`` is satisfied by a relation when any two rows agreeing on
``X`` also agree on ``Y``.  Every fd is equivalent to a finite set of egds
(the paper therefore treats fds as a subclass of egds); the conversion lives
in :mod:`repro.dependencies.conversion`.

The module also implements the classical attribute-closure decision
procedure for fd implication, which the library uses as one of its decidable
fragments and as an oracle in tests of the chase engine.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.dependencies.base import Dependency
from repro.model.attributes import (
    Attribute,
    AttributeLike,
    Universe,
    as_attribute,
    attribute_set,
)
from repro.model.relations import Relation
from repro.util.errors import DependencyError


class FunctionalDependency(Dependency):
    """A functional dependency ``X -> Y``.

    The attribute sets are stored as frozensets of :class:`Attribute`; the
    universe is *not* part of the fd (the paper writes ``AD -> U`` relying on
    context), so satisfaction checks validate attribute membership against
    the relation they are applied to.
    """

    def __init__(
        self,
        determinant: Iterable[AttributeLike],
        dependent: Iterable[AttributeLike],
        name: Optional[str] = None,
    ) -> None:
        self._determinant = attribute_set(determinant)
        self._dependent = attribute_set(dependent)
        if not self._determinant:
            raise DependencyError("an fd needs a non-empty determinant")
        if not self._dependent:
            raise DependencyError("an fd needs a non-empty dependent set")
        self._name = name

    # -- accessors ------------------------------------------------------------

    @property
    def determinant(self) -> frozenset[Attribute]:
        """The left-hand side ``X``."""
        return self._determinant

    @property
    def dependent(self) -> frozenset[Attribute]:
        """The right-hand side ``Y``."""
        return self._dependent

    @property
    def name(self) -> Optional[str]:
        """Optional display label."""
        return self._name

    def attributes(self) -> frozenset[Attribute]:
        """All attributes mentioned by the fd."""
        return self._determinant | self._dependent

    def is_trivial(self) -> bool:
        """Whether ``Y <= X`` (trivially satisfied by every relation)."""
        return self._dependent <= self._determinant

    def is_typed(self) -> bool:
        """Fds are purely attribute-level statements, valid in both regimes."""
        return True

    def singletons(self) -> list["FunctionalDependency"]:
        """The equivalent fds ``X -> A`` for each ``A in Y - X``."""
        return [
            FunctionalDependency(self._determinant, [attr])
            for attr in sorted(self._dependent - self._determinant)
        ]

    # -- satisfaction ----------------------------------------------------------

    def satisfied_by(self, relation: Relation) -> bool:
        """Decide ``J |= X -> Y`` by grouping rows on their X-projection."""
        universe = relation.universe
        for attr in self.attributes():
            if attr not in universe:
                raise DependencyError(
                    f"attribute {attr} of the fd is not in the relation's universe"
                )
        determinant = sorted(self._determinant, key=universe.index_of)
        dependent = sorted(self._dependent, key=universe.index_of)
        groups: dict[tuple, tuple] = {}
        for row in relation:
            key = tuple(row[a] for a in determinant)
            image = tuple(row[a] for a in dependent)
            previous = groups.get(key)
            if previous is None:
                groups[key] = image
            elif previous != image:
                return False
        return True

    # -- display ---------------------------------------------------------------

    def describe(self) -> str:
        left = "".join(sorted(a.name for a in self._determinant))
        right = "".join(sorted(a.name for a in self._dependent))
        return f"{left} -> {right}"

    def __repr__(self) -> str:
        return f"FunctionalDependency({self.describe()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionalDependency):
            return NotImplemented
        return (
            self._determinant == other._determinant
            and self._dependent == other._dependent
        )

    def __hash__(self) -> int:
        return hash((self._determinant, self._dependent))


def key_dependency(
    universe: Universe, key: Iterable[AttributeLike]
) -> FunctionalDependency:
    """The fd ``key -> U`` stating that ``key`` is a key of the universe.

    Lemma 1's dependencies ``AD -> U``, ``BD -> U``, ``CD -> U`` and
    ``ABCE -> U`` are all of this shape.
    """
    return FunctionalDependency(key, universe.attributes)


def attribute_closure(
    attributes: Iterable[AttributeLike],
    fds: Sequence[FunctionalDependency],
) -> frozenset[Attribute]:
    """The closure ``X+`` of an attribute set under a set of fds.

    Classical fixed-point computation: repeatedly add the right-hand side of
    every fd whose left-hand side is already contained in the closure.
    """
    closure = {as_attribute(a) for a in attributes}
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.determinant <= closure and not fd.dependent <= closure:
                closure |= fd.dependent
                changed = True
    return frozenset(closure)


def fd_implies(
    premises: Sequence[FunctionalDependency], conclusion: FunctionalDependency
) -> bool:
    """Decide fd implication via attribute closure (sound and complete).

    ``premises |= X -> Y`` iff ``Y`` is contained in the closure of ``X``
    under the premises.  This also decides *finite* implication, since the
    two notions coincide for fds.
    """
    return conclusion.dependent <= attribute_closure(conclusion.determinant, premises)
