"""Attributes and universes (Section 2.1 of the paper).

Attributes are symbols taken from a finite set called the *universe*.  The
paper writes ``XY`` for the union of attribute sets and ``X̄`` for the
complement of ``X`` in the universe; :class:`Universe` provides both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from repro.util.errors import SchemaError
from repro.util.intern import intern

AttributeLike = Union["Attribute", str]


@dataclass(frozen=True, order=True)
class Attribute:
    """A single attribute (column name).

    Attributes compare and hash by name only, so ``Attribute("A")`` obtained
    from different universes is the same attribute, exactly as in the paper
    where attributes are just symbols.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be a non-empty string")

    def __hash__(self) -> int:
        # Equal attributes share a name, so the name alone is a valid hash,
        # and it skips building a one-field tuple on every dict probe.
        return hash(self.name)

    def __str__(self) -> str:
        return self.name

    def indexed(self, index: int) -> "Attribute":
        """Return the attribute ``<name>_<index>``.

        Section 6 of the paper blows the universe ``U`` up into
        ``Û = {A_i : A in U, 0 <= i <= n}``; this helper builds those
        indexed attribute names.
        """
        return Attribute(f"{self.name}_{index}")


#: Attributes by name and attribute sets by content: dependencies keep
#: their attribute sets for life, and premises parsed again and again
#: repeat the same few names and sets.
_ATTRIBUTES: dict = {}
_ATTRIBUTE_SETS: dict = {}


def as_attribute(value: AttributeLike) -> Attribute:
    """Coerce a string or :class:`Attribute` to an :class:`Attribute`."""
    if isinstance(value, Attribute):
        return value
    if isinstance(value, str):
        return intern(_ATTRIBUTES, value, Attribute)
    raise SchemaError(f"cannot interpret {value!r} as an attribute")


def attribute_set(attributes: Iterable[AttributeLike]) -> frozenset[Attribute]:
    """The frozenset of ``attributes``, shared with every equal set built so far."""
    return intern(_ATTRIBUTE_SETS, frozenset(as_attribute(a) for a in attributes))


class Universe:
    """An ordered, duplicate-free finite set of attributes.

    The ordering is only used for display and for deterministic iteration; set
    operations (union, complement, subset tests) treat a universe as a set.
    Equality and hashing go through the frozenset of the attributes, built
    once per universe; a pickled frozenset is rebuilt element by element,
    so no hash value travels in a pickle.
    """

    __slots__ = ("_attributes", "_index", "_key", "_scheme")

    def __init__(self, attributes: Iterable[AttributeLike]) -> None:
        attrs = [as_attribute(a) for a in attributes]
        seen: set[Attribute] = set()
        unique: list[Attribute] = []
        for attr in attrs:
            if attr in seen:
                raise SchemaError(f"duplicate attribute {attr} in universe")
            seen.add(attr)
            unique.append(attr)
        if not unique:
            raise SchemaError("a universe must contain at least one attribute")
        self._attributes: tuple[Attribute, ...] = tuple(unique)
        self._index = {attr: i for i, attr in enumerate(self._attributes)}
        self._key = frozenset(self._attributes)
        self._scheme = tuple(sorted(self._attributes, key=lambda a: a.name))

    @classmethod
    def from_names(cls, names: str) -> "Universe":
        """Build a universe from a string of single-letter attribute names.

        ``Universe.from_names("ABCDEF")`` is the paper's typed universe
        ``U = ABCDEF``.
        """
        return cls(list(names))

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes of the universe, in declaration order."""
        return self._attributes

    @property
    def scheme(self) -> tuple[Attribute, ...]:
        """The attributes sorted by name: the scheme of every row over them."""
        return self._scheme

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, (Attribute, str)):
            return as_attribute(item) in self._index
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Universe):
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Universe({''.join(a.name for a in self._attributes)!r})"

    def index_of(self, attribute: AttributeLike) -> int:
        """Position of ``attribute`` in the declaration order."""
        attr = as_attribute(attribute)
        try:
            return self._index[attr]
        except KeyError as exc:
            raise SchemaError(f"{attr} is not in universe {self!r}") from exc

    def subset(self, attributes: Iterable[AttributeLike]) -> tuple[Attribute, ...]:
        """Validate that ``attributes`` all belong to the universe.

        Returns the attributes ordered by their position in the universe,
        which keeps projections and renderings deterministic.
        """
        attrs = {as_attribute(a) for a in attributes}
        for attr in attrs:
            if attr not in self._index:
                raise SchemaError(f"{attr} is not in universe {self!r}")
        return tuple(sorted(attrs, key=self.index_of))

    def complement(self, attributes: Iterable[AttributeLike]) -> tuple[Attribute, ...]:
        """The complement X̄ of an attribute set X in this universe."""
        excluded = {as_attribute(a) for a in attributes}
        for attr in excluded:
            if attr not in self._index:
                raise SchemaError(f"{attr} is not in universe {self!r}")
        return tuple(a for a in self._attributes if a not in excluded)

    def union(self, other: "Universe") -> "Universe":
        """The union of two universes, preserving this universe's order."""
        merged = list(self._attributes)
        merged.extend(a for a in other.attributes if a not in self._index)
        return Universe(merged)

    def restricted(self, attributes: Iterable[AttributeLike]) -> "Universe":
        """A universe containing only the given attributes (in this order)."""
        return Universe(self.subset(attributes))

    def is_superset_of(self, attributes: Iterable[AttributeLike]) -> bool:
        """Whether every attribute in ``attributes`` belongs to the universe."""
        return all(as_attribute(a) in self._index for a in attributes)

    def blown_up(self, levels: int) -> "Universe":
        """The Section 6 universe ``Û = {A_i : A in U, 0 <= i <= levels}``.

        Attributes are ordered ``A_0 ... A_n B_0 ... B_n ...`` following the
        base universe's order, matching Example 3's column layout.
        """
        if levels < 0:
            raise SchemaError("levels must be non-negative")
        attrs: list[Attribute] = []
        for base in self._attributes:
            attrs.extend(base.indexed(i) for i in range(levels + 1))
        return Universe(attrs)


def attribute_set_name(attributes: Sequence[Attribute]) -> str:
    """Render an attribute set in the paper's concatenated style, e.g. ``ABC``."""
    return "".join(a.name for a in attributes)
