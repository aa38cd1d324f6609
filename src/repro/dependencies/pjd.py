"""Projected join dependencies, join dependencies and the project-join mapping.

Section 6 of the paper: let ``R = (R_1, ..., R_k)`` be a repetition-free
sequence of attribute sets with union ``R``.  The project-join mapping
``m_R`` sends a U-relation ``I`` to the R-relation of all R-values whose
R_i-projections all occur in the corresponding projections of ``I``.  The
projected join dependency ``*[R]_X`` holds when ``m_R(I)[X] = I[X]``.

A *join dependency* is the special case ``X = R``; a *total* jd additionally
has ``R = U``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional, Sequence

from repro.dependencies.base import Dependency
from repro.model.attributes import Attribute, AttributeLike, Universe, attribute_set
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.util.errors import DependencyError


def project_join(
    relation: Relation, components: Sequence[Sequence[AttributeLike]]
) -> Relation:
    """The project-join mapping ``m_R(I)`` (Section 6).

    The result is an R-relation over ``R = union of the components``; a row
    belongs to it iff each of its component projections occurs in the
    corresponding projection of ``relation``.  Implemented as the natural
    join of the projections.
    """
    universe = relation.universe
    comps = [universe.subset(c) for c in components]
    scheme: list[Attribute] = []
    for comp in comps:
        for attr in comp:
            if attr not in scheme:
                scheme.append(attr)
    scheme.sort(key=universe.index_of)
    joined_universe = Universe(scheme)

    projections = [set(relation.project(comp).rows) for comp in comps]

    # Natural join, built incrementally: keep partial rows as dicts.
    partial_rows: list[dict[Attribute, object]] = [{}]
    for comp, projection in zip(comps, projections):
        next_rows: list[dict[Attribute, object]] = []
        for partial in partial_rows:
            for proj_row in projection:
                merged = dict(partial)
                compatible = True
                for attr in comp:
                    value = proj_row[attr]
                    if attr in merged and merged[attr] != value:
                        compatible = False
                        break
                    merged[attr] = value
                if compatible:
                    next_rows.append(merged)
        partial_rows = next_rows
        if not partial_rows:
            break
    rows = {Row(p) for p in partial_rows if len(p) == len(scheme)}
    return Relation(joined_universe, rows)


class ProjectedJoinDependency(Dependency):
    """A projected join dependency ``*[R_1, ..., R_k]_X``."""

    def __init__(
        self,
        components: Sequence[Iterable[AttributeLike]],
        projection: Optional[Iterable[AttributeLike]] = None,
        name: Optional[str] = None,
    ) -> None:
        comps: list[frozenset[Attribute]] = []
        for component in components:
            attrs = attribute_set(component)
            if not attrs:
                raise DependencyError("a pjd component must be non-empty")
            if attrs in comps:
                raise DependencyError(
                    "the component sequence of a pjd must be repetition-free"
                )
            comps.append(attrs)
        if not comps:
            raise DependencyError("a pjd needs at least one component")
        self._components: tuple[frozenset[Attribute], ...] = tuple(comps)
        joined: frozenset[Attribute] = frozenset().union(*comps)
        if projection is None:
            proj = joined
        else:
            proj = attribute_set(projection)
        if not proj <= joined:
            raise DependencyError(
                "the projection set of a pjd must be covered by its components"
            )
        if not proj:
            raise DependencyError("the projection set of a pjd must be non-empty")
        self._projection = proj
        self._name = name

    # -- accessors ------------------------------------------------------------

    @property
    def components(self) -> tuple[frozenset[Attribute], ...]:
        """The component attribute sets ``R_1, ..., R_k``."""
        return self._components

    @property
    def projection(self) -> frozenset[Attribute]:
        """The projection set ``X``."""
        return self._projection

    @property
    def name(self) -> Optional[str]:
        """Optional display label."""
        return self._name

    def attr(self) -> frozenset[Attribute]:
        """``attr(theta)``: the union of the components (Section 6)."""
        return frozenset().union(*self._components)

    def is_join_dependency(self) -> bool:
        """Whether ``X = R`` (no projection), i.e. the pjd is a plain jd."""
        return self._projection == self.attr()

    def is_total_over(self, universe: Universe) -> bool:
        """Whether the jd/pjd covers the whole given universe (``R = U``)."""
        return self.attr() == frozenset(universe.attributes)

    def is_multivalued(self) -> bool:
        """Whether the dependency has exactly two components (an mvd-shaped jd)."""
        return len(self._components) == 2

    def is_typed(self) -> bool:
        """Pjds are attribute-level statements; Section 6 treats them as typed."""
        return True

    # -- satisfaction ----------------------------------------------------------

    def satisfied_by(self, relation: Relation) -> bool:
        """Decide ``I |= *[R]_X`` via the project-join mapping.

        ``I[X]`` is always contained in ``m_R(I)[X]``, so only the converse
        inclusion is checked.
        """
        universe = relation.universe
        for attr in self.attr():
            if attr not in universe:
                raise DependencyError(
                    f"attribute {attr} of the pjd is not in the relation's universe"
                )
        joined = project_join(
            relation, [sorted(c, key=universe.index_of) for c in self._components]
        )
        projection_attrs = sorted(self._projection, key=universe.index_of)
        left = joined.project(projection_attrs)
        right = relation.project(projection_attrs)
        return left.rows <= right.rows

    # -- display ---------------------------------------------------------------

    def describe(self) -> str:
        parts = ", ".join(
            "".join(sorted(a.name for a in component)) for component in self._components
        )
        body = f"*[{parts}]"
        if not self.is_join_dependency():
            body += "_" + "".join(sorted(a.name for a in self._projection))
        if self._name:
            return f"{self._name} = {body}"
        return body

    def __repr__(self) -> str:
        return f"ProjectedJoinDependency({self.describe()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectedJoinDependency):
            return NotImplemented
        return (
            self._components == other._components
            and self._projection == other._projection
        )

    def __hash__(self) -> int:
        return hash((self._components, self._projection))


class JoinDependency(ProjectedJoinDependency):
    """A join dependency ``*[R_1, ..., R_k]`` (a pjd with ``X = R``)."""

    def __init__(
        self,
        components: Sequence[Iterable[AttributeLike]],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(components, projection=None, name=name)


def all_pjds_over(
    universe: Universe, max_components: int = 2
) -> list[ProjectedJoinDependency]:
    """Enumerate U-pjds with at most ``max_components`` components.

    Theorem 7's argument hinges on the fact that for a fixed universe there
    are only finitely many U-pjds; this enumerator makes that argument
    executable for small universes (full enumeration is exponential, so the
    component count is bounded by the caller).
    """
    attrs = list(universe.attributes)
    non_empty_subsets: list[frozenset[Attribute]] = []
    for mask in range(1, 2 ** len(attrs)):
        subset = frozenset(a for i, a in enumerate(attrs) if mask & (1 << i))
        non_empty_subsets.append(subset)
    results: list[ProjectedJoinDependency] = []
    seen: set[tuple] = set()
    for count in range(1, max_components + 1):
        for combo in product(non_empty_subsets, repeat=count):
            if len(set(combo)) != len(combo):
                continue
            key_components = tuple(
                sorted(combo, key=lambda s: sorted(a.name for a in s))
            )
            joined = frozenset().union(*combo)
            for proj_mask in range(1, 2 ** len(attrs)):
                projection = frozenset(
                    a for i, a in enumerate(attrs) if proj_mask & (1 << i)
                )
                if not projection <= joined:
                    continue
                key = (key_components, projection)
                if key in seen:
                    continue
                seen.add(key)
                results.append(ProjectedJoinDependency(list(combo), projection))
    return results
