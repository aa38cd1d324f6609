"""Relations (Section 2.1).

An X-relation is a non-empty set of X-values.  The library additionally
allows the empty relation (useful as an algebraic identity) but every
operation the paper relies on is implemented exactly as defined there:
projection ``I[Y]``, the value set ``VAL(I)``, and the typed/untyped
distinction of Section 2.4.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.model.attributes import Attribute, AttributeLike, Universe, as_attribute
from repro.model.tuples import Row, rows_over
from repro.model.values import Value
from repro.util.errors import SchemaError, TypingError


class Relation:
    """An immutable relation: a universe plus a finite set of rows over it.

    The paper allows infinite relations in the semantics of dependencies; the
    library only materialises finite ones (counterexamples, tableaux, chase
    states), which is all that any construction in the paper manipulates
    explicitly.
    """

    __slots__ = ("_universe", "_rows", "_hom_index")

    def __init__(self, universe: Universe, rows: Iterable[Row] = ()) -> None:
        self._universe = universe
        frozen = frozenset(rows)
        _check_schemes(universe, frozen)
        self._rows: frozenset[Row] = frozen
        # Lazily-built (attribute, value) -> rows buckets for homomorphism
        # search (see repro.model.valuations.homomorphisms).  Never part of
        # the relation's value: relations are immutable, so the cache can
        # only ever describe exactly self._rows.
        self._hom_index = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, universe: Universe, rows: Iterable[Row]) -> "Relation":
        """Build a relation from pre-built rows."""
        return cls(universe, rows)

    @classmethod
    def _trusted(cls, universe: Universe, rows: frozenset[Row]) -> "Relation":
        """Internal constructor skipping per-row scheme validation.

        Only for rows already validated against the same universe (set
        algebra over existing relations, value substitution, a chase
        state's live rows).  The public constructor stays validating; a
        chase freezes its tableau through here and must not re-validate
        rows its steps built as images of rows it holds.
        """
        relation = cls.__new__(cls)
        relation._universe = universe
        relation._rows = rows
        relation._hom_index = None
        return relation

    @classmethod
    def typed(
        cls, universe: Universe, table: Iterable[Sequence[Union[str, int]]]
    ) -> "Relation":
        """Build a typed relation from a table of value names in universe order."""
        return cls(universe, (Row.typed_over(universe, line) for line in table))

    @classmethod
    def untyped(
        cls, universe: Universe, table: Iterable[Sequence[Union[str, int]]]
    ) -> "Relation":
        """Build an untyped relation from a table of value names in universe order."""
        return cls(universe, (Row.untyped_over(universe, line) for line in table))

    # -- basic accessors ------------------------------------------------------

    @property
    def universe(self) -> Universe:
        """The attribute set the relation is over."""
        return self._universe

    @property
    def rows(self) -> frozenset[Row]:
        """The set of rows."""
        return self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._universe == other._universe and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._universe, self._rows))

    def __repr__(self) -> str:
        return (
            f"Relation({''.join(a.name for a in self._universe)}, "
            f"{len(self._rows)} rows)"
        )

    def __reduce__(self):
        # Pickle only the universe and rows: the homomorphism-index cache is
        # per-process derived state (and can dwarf the relation itself), so
        # shipping a relation to a caller-owned spawned pool must not drag
        # it along.  Every row is over the universe, so rows travel as
        # plain value tuples and one row-class lookup rebuilds them all.
        return (_rebuild_relation, (self._universe, tuple(map(tuple, self._rows))))

    # -- paper operations -----------------------------------------------------

    def project(self, attributes: Iterable[AttributeLike]) -> "Relation":
        """The projection ``I[Y]`` onto the attribute set ``Y``."""
        attrs = self._universe.subset(attributes)
        sub_universe = Universe(attrs)
        return Relation(sub_universe, (row.restrict(attrs) for row in self._rows))

    def column(self, attribute: AttributeLike) -> frozenset[Value]:
        """``I[A]`` viewed as the set of A-values appearing in column A."""
        attr = as_attribute(attribute)
        if attr not in self._universe:
            raise SchemaError(f"{attr} is not in this relation's universe")
        return frozenset(row[attr] for row in self._rows)

    def values(self) -> frozenset[Value]:
        """``VAL(I)``: the set of all attribute values occurring in the relation."""
        collected: set[Value] = set()
        for row in self._rows:
            collected.update(row.values())
        return frozenset(collected)

    def rows_containing(
        self,
        value: Value,
        index: Optional[Mapping[Value, Iterable[Row]]] = None,
    ) -> tuple[Row, ...]:
        """The rows in which ``value`` occurs (in any column).

        Without ``index`` this is a full scan.  ``index`` is a value -> rows
        mapping maintained alongside the relation (such as
        :attr:`repro.chase.row_index.RowIndex.value_buckets`); with it the
        lookup costs O(|result|) -- each candidate is still membership-checked
        against the relation, so a slightly-stale index degrades to missing
        nothing that it lists, never to phantom rows.  The chase's egd step
        uses :meth:`repro.chase.row_index.RowIndex.rows_containing`, which
        checks against the live tableau instead of a frozen relation.
        """
        if index is not None:
            bucket = index.get(value, ())
            return tuple(row for row in bucket if row in self._rows)
        return tuple(row for row in self._rows if value in row.values())

    def is_typed(self) -> bool:
        """Whether no value appears in two different columns.

        The library accepts two equivalent certificates of typedness: every
        value is tagged with its column's attribute, or (for untagged values)
        no value name is shared between two columns.
        """
        seen: dict[Value, Attribute] = {}
        for row in self._rows:
            for attr, value in row.items():
                if value.tag is not None and value.tag != attr.name:
                    return False
                previous = seen.get(value)
                if previous is not None and previous != attr:
                    return False
                seen[value] = attr
        return True

    def require_typed(self) -> "Relation":
        """Raise :class:`TypingError` unless the relation is typed."""
        if not self.is_typed():
            raise TypingError("relation is not typed: a value occurs in two columns")
        return self

    def is_untyped(self) -> bool:
        """Whether every value in the relation is untagged."""
        return all(value.tag is None for value in self.values())

    # -- construction algebra -------------------------------------------------

    def with_rows(self, rows: Iterable[Row]) -> "Relation":
        """A relation with the given rows added (new rows are validated)."""
        added = frozenset(rows)
        _check_schemes(self._universe, added)
        return Relation._trusted(self._universe, self._rows | added)

    def without_rows(self, rows: Iterable[Row]) -> "Relation":
        """A relation with the given rows removed."""
        return Relation._trusted(self._universe, self._rows - frozenset(rows))

    def union(self, other: "Relation") -> "Relation":
        """Union of two relations over the same universe."""
        if other.universe != self._universe:
            raise SchemaError("cannot union relations over different universes")
        return Relation._trusted(self._universe, self._rows | other.rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Intersection of two relations over the same universe."""
        if other.universe != self._universe:
            raise SchemaError("cannot intersect relations over different universes")
        return Relation._trusted(self._universe, self._rows & other.rows)

    def difference(self, other: "Relation") -> "Relation":
        """Difference of two relations over the same universe."""
        if other.universe != self._universe:
            raise SchemaError("cannot subtract relations over different universes")
        return Relation._trusted(self._universe, self._rows - other.rows)

    def is_subset_of(self, other: "Relation") -> bool:
        """Whether every row of this relation occurs in ``other``."""
        return self._rows <= other.rows

    def map_values(self, mapping: Callable[[Value], Value]) -> "Relation":
        """Apply a value-level function to every cell of the relation."""
        new_rows = []
        for row in self._rows:
            new_rows.append(Row({a: mapping(v) for a, v in row.items()}))
        return Relation._trusted(self._universe, frozenset(new_rows))

    def rename_attributes(
        self, renaming: Mapping[AttributeLike, AttributeLike]
    ) -> "Relation":
        """A copy of the relation with some attributes renamed.

        Values keep their tags, so renaming a typed relation's attributes
        yields an untagged-checking mismatch unless the values are retagged;
        this operation therefore also retags typed values to the new column
        name, preserving typedness.
        """
        translation = {
            as_attribute(old): as_attribute(new) for old, new in renaming.items()
        }
        new_attrs = [translation.get(a, a) for a in self._universe]
        new_universe = Universe(new_attrs)
        new_rows = []
        for row in self._rows:
            cells = {}
            for attr, value in row.items():
                target = translation.get(attr, attr)
                if value.tag is not None:
                    value = value.retagged(target)
                cells[target] = value
            new_rows.append(Row(cells))
        return Relation(new_universe, new_rows)

    def restrict_rows(self, predicate: Callable[[Row], bool]) -> "Relation":
        """The selection of rows satisfying ``predicate``."""
        return Relation(self._universe, (r for r in self._rows if predicate(r)))

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic order (by rendered cell names)."""
        return sorted(
            self._rows,
            key=lambda row: tuple(v.name for v in row),
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the relation.

        Rows are listed deterministically (see :meth:`sorted_rows`); each cell
        is a ``{"name", "tag"}`` pair in universe column order, so typed and
        untyped relations round-trip faithfully through
        :meth:`from_dict`.
        """
        attrs = self._universe.attributes
        return {
            "universe": [a.name for a in attrs],
            "rows": [
                [{"name": row[a].name, "tag": row[a].tag} for a in attrs]
                for row in self.sorted_rows()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Relation":
        """Rebuild a relation from :meth:`to_dict` output."""
        universe = Universe(payload["universe"])
        attrs = universe.attributes
        rows = []
        for cells in payload["rows"]:
            if len(cells) != len(attrs):
                raise SchemaError(
                    f"serialized row has {len(cells)} cells, expected {len(attrs)}"
                )
            rows.append(
                Row(
                    {
                        attr: Value(cell["name"], cell.get("tag"))
                        for attr, cell in zip(attrs, cells)
                    }
                )
            )
        return cls(universe, rows)


def _check_schemes(universe: Universe, rows: Iterable[Row]) -> None:
    """Raise :class:`SchemaError` unless every row is over ``universe``.

    Schemes list attributes sorted by name, so one tuple comparison per
    row decides it.
    """
    scheme = universe.scheme
    for row in rows:
        if row.scheme != scheme:
            raise SchemaError(
                f"row {row!r} is not over universe "
                f"{''.join(a.name for a in universe)}"
            )


def _rebuild_relation(universe: Universe, cells: tuple) -> Relation:
    """Unpickling entry point: revalidation-free, cache-free reconstruction."""
    names = tuple(a.name for a in universe.scheme)
    return Relation._trusted(universe, frozenset(rows_over(names, cells)))
