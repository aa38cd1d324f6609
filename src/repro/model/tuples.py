"""X-values and tuples (Section 2.1).

An *X-value* is a mapping from an attribute set ``X`` to domain values; a
*tuple* is a U-value, i.e. an X-value whose attribute set is the whole
universe.  The library calls both :class:`Row` to avoid clashing with
Python's built-in tuple; the paper terminology is kept in the docstrings.
"""

from __future__ import annotations

from functools import partial
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


_tuple_eq = tuple.__eq__

#: Row classes by attribute names (sorted).  Each per-scheme subclass of
#: :class:`Row` carries its scheme, so a row is one tuple of values.
_ROW_CLASSES: dict = {}

#: Entries :data:`_ROW_CLASSES` holds before it is cleared.  A class costs
#: about a kilobyte, and a program uses a few schemes per universe.
_ROW_CLASS_LIMIT = 1024


def _make_row_class(names: tuple) -> type:
    scheme = tuple(as_attribute(name) for name in names)
    return type(
        "Row",
        (Row,),
        {
            "__slots__": (),
            "scheme": scheme,
            "_names": names,
            "_columns": {name: column for column, name in enumerate(names)},
        },
    )


def row_class(names: tuple) -> type:
    """The :class:`Row` subclass for the attributes named ``names`` (sorted).

    Shared through a bounded intern: rows compare their schemes, never
    their classes, so a cleared table only costs a new class.
    """
    return intern(_ROW_CLASSES, names, _make_row_class, limit=_ROW_CLASS_LIMIT)


class Row(tuple):
    """An immutable X-value: a mapping from attributes to domain values.

    Rows are hashable and compare by their attribute/value pairs, so a
    relation can store them in a set.  The attribute set of a row (its
    *scheme*) is fixed at construction.

    A row is a tuple of its values in scheme order (attributes sorted by
    name); its class, a per-scheme subclass shared by every row over the
    same attributes, carries the scheme.  So a row costs one tuple, and
    hashing and iterating it run in C.  Two rows are equal when their
    values and their schemes are, and a row never equals a plain tuple.
    Rows cache no hash and pickle as (attribute names, values), so a
    pickle carries nothing that depends on the process's string-hash
    seed.
    """

    __slots__ = ()

    #: Set by each per-scheme subclass (see :func:`row_class`).
    scheme: tuple = ()
    _names: tuple = ()
    _columns: dict = {}

    def __new__(cls, mapping: RowMapping) -> "Row":
        cells: dict = {}
        for raw_attr, raw_value in mapping.items():
            attr = as_attribute(raw_attr)
            name = attr.name
            if name in cells:
                raise SchemaError(f"attribute {attr} given twice in row")
            value = _coerce_value(raw_value)
            if value.tag is not None and value.tag != name:
                check_column_value(attr, value)
            cells[name] = value
        if not cells:
            raise SchemaError("a row must have at least one attribute")
        names = tuple(sorted(cells))
        return tuple.__new__(row_class(names), [cells[name] for name in names])

    @classmethod
    def _trusted(cls, scheme: tuple, values: tuple) -> "Row":
        """Internal constructor skipping validation.

        Only for ``values`` already valid for ``scheme``, the scheme of an
        existing row.  A chase step builds the image of a row it holds
        with :meth:`_image`, which skips the class lookup too.
        """
        return tuple.__new__(row_class(tuple(a.name for a in scheme)), values)

    def _image(self, values) -> "Row":
        """A row over this row's scheme holding ``values``, unvalidated.

        Only for values valid for the scheme (a chase step's image of a
        row it already holds).
        """
        return tuple.__new__(type(self), values)

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

    def __getitem__(self, attribute: AttributeLike) -> Value:
        attr = as_attribute(attribute)
        column = self._columns.get(attr.name)
        if column is None:
            raise SchemaError(f"row has no attribute {attr}")
        return tuple.__getitem__(self, column)

    def get(self, attribute: AttributeLike) -> Value | None:
        """Like ``__getitem__`` but returning ``None`` for missing attributes."""
        column = self._columns.get(as_attribute(attribute).name)
        return None if column is None else tuple.__getitem__(self, column)

    def restrict(self, attributes: Iterable[AttributeLike]) -> "Row":
        """The restriction ``w[Y]`` of this row to the attribute set ``Y``."""
        attrs = {as_attribute(a) for a in attributes}
        missing = attrs - set(self.scheme)
        if missing:
            raise SchemaError(
                f"row has no attributes {sorted(a.name for a in missing)}"
            )
        return Row({a: v for a, v in zip(self.scheme, self) if a in attrs})

    def values(self) -> frozenset[Value]:
        """``VAL(w)``: the set of all values appearing in the row."""
        return frozenset(self)

    def items(self) -> tuple[tuple[Attribute, Value], ...]:
        """The (attribute, value) pairs of the row, sorted by attribute name."""
        return tuple(zip(self.scheme, self))

    def as_dict(self) -> dict[Attribute, Value]:
        """A plain dict copy of the row's mapping."""
        return dict(zip(self.scheme, self))

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
        return all(v.tag == a.name for a, v in zip(self.scheme, self))

    def is_untyped(self) -> bool:
        """Whether every value in the row is untyped."""
        return all(v.tag is None for v in self)

    # -- dunder plumbing ------------------------------------------------------
    #
    # Iteration (the values in scheme order), ``len`` and ``hash`` are the
    # tuple's own.

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return _tuple_eq(self, other)
        if isinstance(other, Row):
            return self.scheme == other.scheme and _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return (_rebuild_row, (self._names, tuple(self)))

    def __repr__(self) -> str:
        cells = ", ".join(f"{a.name}={v.name}" for a, v in zip(self.scheme, self))
        return f"Row({cells})"

    def __str__(self) -> str:
        return "(" + ", ".join(v.name for v in self) + ")"


def _rebuild_row(names: tuple, values: tuple) -> Row:
    """Unpickling entry point: finds the row class by attribute names."""
    return tuple.__new__(row_class(names), values)


def rows_over(names: tuple, cells: Iterable[tuple]) -> Iterator[Row]:
    """Rows over the attributes named ``names`` (sorted), one per tuple of
    values in ``cells``, unvalidated: for values already valid there (a
    relation rebuilt from its pickle)."""
    return map(partial(tuple.__new__, row_class(names)), cells)
