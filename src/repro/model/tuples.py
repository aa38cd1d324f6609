"""X-values and tuples (Section 2.1).

An *X-value* is a mapping from an attribute set ``X`` to domain values; a
*tuple* is a U-value, i.e. an X-value whose attribute set is the whole
universe.  The library calls both :class:`Row` to avoid clashing with
Python's built-in tuple; the paper terminology is kept in the docstrings.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

from repro.model.attributes import Attribute, AttributeLike, Universe, as_attribute
from repro.model.values import Value, ValueLike, check_column_value, typed, untyped
from repro.util.errors import SchemaError
from repro.util.intern import intern

RowMapping = Mapping[AttributeLike, Union[Value, str, int]]


def _coerce_value(value: Union[Value, str, int]) -> Value:
    if isinstance(value, Value):
        return value
    return Value(str(value), None)


#: Shared scheme tuples: every row over one attribute set holds the same
#: scheme tuple, so a row costs one values tuple plus one pointer.
_SCHEMES: dict = {}


class Row:
    """An immutable X-value: a mapping from attributes to domain values.

    Rows are hashable and compare by their attribute/value pairs, so a
    relation can store them in a set.  The attribute set of a row (its
    *scheme*) is fixed at construction.

    A row stores its scheme (attributes sorted by name, shared with every
    other row over the same attributes) and one tuple of values in the
    same order.  It caches no hash: a cached hash would be pickled with
    the row and go stale in a process with another string-hash seed.
    """

    __slots__ = ("_attrs", "_values")

    def __init__(self, mapping: RowMapping) -> None:
        pairs = []
        seen: set[Attribute] = set()
        for raw_attr, raw_value in mapping.items():
            attr = as_attribute(raw_attr)
            if attr in seen:
                raise SchemaError(f"attribute {attr} given twice in row")
            seen.add(attr)
            value = _coerce_value(raw_value)
            check_column_value(attr, value)
            pairs.append((attr, value))
        if not pairs:
            raise SchemaError("a row must have at least one attribute")
        pairs.sort(key=lambda item: item[0].name)
        self._attrs: tuple[Attribute, ...] = intern(
            _SCHEMES, tuple(attr for attr, _ in pairs)
        )
        self._values: tuple[Value, ...] = tuple(value for _, value in pairs)

    @classmethod
    def _trusted(cls, scheme: tuple, values: tuple) -> "Row":
        """Internal constructor skipping validation.

        Only for ``values`` already valid for ``scheme``, the scheme of an
        existing row (a chase step's image of a row it already holds).
        """
        row = cls.__new__(cls)
        row._attrs = scheme
        row._values = values
        return row

    # -- construction helpers -------------------------------------------------

    @classmethod
    def over(cls, universe: Universe, values: Iterable[ValueLike]) -> "Row":
        """Build a row over ``universe`` from values given in universe order.

        String/int values are wrapped as untyped values; pass :class:`Value`
        objects for typed rows.
        """
        values = list(values)
        attrs = universe.attributes
        if len(values) != len(attrs):
            raise SchemaError(
                f"expected {len(attrs)} values for universe "
                f"{''.join(a.name for a in attrs)}, got {len(values)}"
            )
        return cls(dict(zip(attrs, values)))

    @classmethod
    def typed_over(cls, universe: Universe, names: Iterable[Union[str, int]]) -> "Row":
        """Build a typed row: each value is tagged with its column's attribute."""
        names = list(names)
        attrs = universe.attributes
        if len(names) != len(attrs):
            raise SchemaError(
                f"expected {len(attrs)} values for universe "
                f"{''.join(a.name for a in attrs)}, got {len(names)}"
            )
        return cls({a: typed(n, a) for a, n in zip(attrs, names)})

    @classmethod
    def untyped_over(
        cls, universe: Universe, names: Iterable[Union[str, int]]
    ) -> "Row":
        """Build an untyped row (all values untagged)."""
        names = list(names)
        attrs = universe.attributes
        if len(names) != len(attrs):
            raise SchemaError(
                f"expected {len(attrs)} values for universe "
                f"{''.join(a.name for a in attrs)}, got {len(names)}"
            )
        return cls({a: untyped(n) for a, n in zip(attrs, names)})

    # -- paper operations -----------------------------------------------------

    @property
    def scheme(self) -> tuple[Attribute, ...]:
        """The attribute set of this X-value (sorted by attribute name)."""
        return self._attrs

    def __getitem__(self, attribute: AttributeLike) -> Value:
        attr = as_attribute(attribute)
        try:
            return self._values[self._attrs.index(attr)]
        except ValueError:
            raise SchemaError(f"row has no attribute {attr}") from None

    def get(self, attribute: AttributeLike) -> Value | None:
        """Like ``__getitem__`` but returning ``None`` for missing attributes."""
        attr = as_attribute(attribute)
        try:
            return self._values[self._attrs.index(attr)]
        except ValueError:
            return None

    def restrict(self, attributes: Iterable[AttributeLike]) -> "Row":
        """The restriction ``w[Y]`` of this row to the attribute set ``Y``."""
        attrs = {as_attribute(a) for a in attributes}
        missing = attrs - set(self.scheme)
        if missing:
            raise SchemaError(
                f"row has no attributes {sorted(a.name for a in missing)}"
            )
        return Row({a: v for a, v in zip(self._attrs, self._values) if a in attrs})

    def values(self) -> frozenset[Value]:
        """``VAL(w)``: the set of all values appearing in the row."""
        return frozenset(self._values)

    def items(self) -> tuple[tuple[Attribute, Value], ...]:
        """The (attribute, value) pairs of the row, sorted by attribute name."""
        return tuple(zip(self._attrs, self._values))

    def as_dict(self) -> dict[Attribute, Value]:
        """A plain dict copy of the row's mapping."""
        return dict(zip(self._attrs, self._values))

    def replace(self, updates: RowMapping) -> "Row":
        """A copy of this row with some attributes re-assigned."""
        data = self.as_dict()
        for raw_attr, raw_value in updates.items():
            attr = as_attribute(raw_attr)
            if attr not in data:
                raise SchemaError(f"row has no attribute {attr}")
            data[attr] = _coerce_value(raw_value)
        return Row(data)

    def agrees_with(self, other: "Row", attributes: Iterable[AttributeLike]) -> bool:
        """Whether ``self[X] == other[X]`` for the attribute set ``X``."""
        return all(self[a] == other[a] for a in attributes)

    def is_typed(self) -> bool:
        """Whether every value in the row is typed and matches its column."""
        return all(v.tag == a.name for a, v in zip(self._attrs, self._values))

    def is_untyped(self) -> bool:
        """Whether every value in the row is untyped."""
        return all(v.tag is None for v in self._values)

    # -- dunder plumbing ------------------------------------------------------

    def __iter__(self) -> Iterator[Value]:
        """The row's values, in scheme order."""
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self._values == other._values and self._attrs == other._attrs

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        cells = ", ".join(
            f"{a.name}={v.name}" for a, v in zip(self._attrs, self._values)
        )
        return f"Row({cells})"

    def __str__(self) -> str:
        return "(" + ", ".join(v.name for v in self._values) + ")"
