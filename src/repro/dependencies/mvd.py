"""Multivalued dependencies (Section 6 / Fagin 1977).

A total mvd ``X ->> Y`` over a universe ``U`` is the join dependency
``*[XY, X(U - Y)]``.  The paper also recalls the direct tuple-level
characterisation: ``I |= X ->> Y`` exactly when for all rows ``u, v`` that
agree on ``X`` there is a row ``w`` with ``w[XY] = u[XY]`` and
``w[X(U-Y)] = v[X(U-Y)]``.  Both views are implemented and tested against
each other.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dependencies.base import Dependency
from repro.dependencies.pjd import JoinDependency
from repro.model.attributes import Attribute, AttributeLike, Universe, attribute_set
from repro.model.relations import Relation
from repro.util.errors import DependencyError


class MultivaluedDependency(Dependency):
    """A total multivalued dependency ``X ->> Y``.

    The complement is taken with respect to the relation the dependency is
    evaluated against (or the universe passed to :meth:`to_join_dependency`),
    matching the paper's convention that an mvd is a statement about a fixed
    universe.
    """

    def __init__(
        self,
        determinant: Iterable[AttributeLike],
        dependent: Iterable[AttributeLike],
        name: Optional[str] = None,
    ) -> None:
        self._determinant = attribute_set(determinant)
        self._dependent = attribute_set(dependent)
        if not self._determinant and not self._dependent:
            raise DependencyError("an mvd needs at least one attribute")
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
        """All attributes mentioned by the mvd."""
        return self._determinant | self._dependent

    def is_typed(self) -> bool:
        """Mvds are attribute-level statements, valid in both regimes."""
        return True

    def is_trivial_over(self, universe: Universe) -> bool:
        """Whether the mvd holds in every relation over ``universe``.

        ``X ->> Y`` is trivial when ``Y <= X`` or ``XY = U``.
        """
        if self._dependent <= self._determinant:
            return True
        return self.attributes() == frozenset(universe.attributes)

    def to_join_dependency(self, universe: Universe) -> JoinDependency:
        """The equivalent join dependency ``*[XY, X(U - Y)]`` over ``universe``."""
        for attr in self.attributes():
            if attr not in universe:
                raise DependencyError(
                    f"attribute {attr} of the mvd is not in the given universe"
                )
        left = self._determinant | self._dependent
        right = self._determinant | frozenset(universe.complement(self._dependent))
        if right <= left:
            # Degenerate case XY = U: the second component is subsumed by the
            # first (a subset component never constrains the project-join), so
            # the jd collapses to the trivially satisfied *[U].
            return JoinDependency([sorted(left, key=universe.index_of)])
        if left <= right:
            return JoinDependency([sorted(right, key=universe.index_of)])
        return JoinDependency(
            [sorted(left, key=universe.index_of), sorted(right, key=universe.index_of)]
        )

    # -- satisfaction ----------------------------------------------------------

    def satisfied_by(self, relation: Relation) -> bool:
        """Decide ``I |= X ->> Y`` with the tuple-level characterisation."""
        universe = relation.universe
        for attr in self.attributes():
            if attr not in universe:
                raise DependencyError(
                    f"attribute {attr} of the mvd is not in the relation's universe"
                )
        x_attrs = sorted(self._determinant, key=universe.index_of)
        y_attrs = sorted(self._dependent - self._determinant, key=universe.index_of)
        rest = [
            a
            for a in universe.attributes
            if a not in self._determinant and a not in self._dependent
        ]
        rows = list(relation)
        groups: dict[tuple, list] = {}
        for row in rows:
            key = tuple(row[a] for a in x_attrs)
            groups.setdefault(key, []).append(row)
        existing = {
            (
                tuple(row[a] for a in x_attrs),
                tuple(row[a] for a in y_attrs),
                tuple(row[a] for a in rest),
            )
            for row in rows
        }
        for key, members in groups.items():
            y_parts = {tuple(row[a] for a in y_attrs) for row in members}
            rest_parts = {tuple(row[a] for a in rest) for row in members}
            for y_part in y_parts:
                for rest_part in rest_parts:
                    if (key, y_part, rest_part) not in existing:
                        return False
        return True

    # -- display ---------------------------------------------------------------

    def describe(self) -> str:
        left = "".join(sorted(a.name for a in self._determinant)) or "{}"
        right = "".join(sorted(a.name for a in self._dependent)) or "{}"
        body = f"{left} ->> {right}"
        if self._name:
            return f"{self._name} = {body}"
        return body

    def __repr__(self) -> str:
        return f"MultivaluedDependency({self.describe()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultivaluedDependency):
            return NotImplemented
        return (
            self._determinant == other._determinant
            and self._dependent == other._dependent
        )

    def __hash__(self) -> int:
        return hash((self._determinant, self._dependent, "mvd"))
