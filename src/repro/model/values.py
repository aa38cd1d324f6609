"""Domain values for typed and untyped relations (Section 2.1 and 2.4).

The paper distinguishes two regimes:

* **untyped**: all attributes share one domain ``DOM(U')``; a value may appear
  in any column.
* **typed**: distinct attributes have disjoint domains; a value belongs to the
  domain of exactly one attribute.

We model both with a single immutable :class:`Value` carrying an optional
``tag``.  A value with ``tag="A"`` belongs to ``DOM(A)`` and may only ever
appear in column ``A`` of a typed relation; a value with ``tag=None`` is
untyped and may appear anywhere.  The library enforces the typing discipline
at relation-construction time (see :mod:`repro.model.relations`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.model.attributes import Attribute, AttributeLike, as_attribute
from repro.util.errors import TypingError

ValueLike = Union["Value", str, int]


@dataclass(frozen=True, order=True, slots=True)
class Value:
    """A single domain element.

    Parameters
    ----------
    name:
        The display name of the value (``a``, ``a1``, ``d0`` ...).
    tag:
        ``None`` for untyped values; otherwise the name of the unique
        attribute whose domain contains this value.

    Two values are equal iff both their names and tags are equal: the typed
    element ``a^1 in DOM(A)`` and the untyped element ``a`` are different
    values even though they share a display name, exactly as in the paper's
    Section 3 translation.

    Values are slotted (no per-instance ``__dict__``) and cache no hash:
    the hash of a string depends on the process's hash seed, so a cached
    one would go stale in any process that unpickles the value.
    """

    name: str
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TypingError("value name must be non-empty")

    @property
    def is_typed(self) -> bool:
        """Whether the value belongs to the domain of a specific attribute."""
        return self.tag is not None

    def belongs_to(self, attribute: AttributeLike) -> bool:
        """Whether the value may appear in the column of ``attribute``.

        Untyped values may appear anywhere; typed values only in the column
        that matches their tag.
        """
        if self.tag is None:
            return True
        return self.tag == as_attribute(attribute).name

    def retagged(self, attribute: Optional[AttributeLike]) -> "Value":
        """A copy of this value carrying the tag of ``attribute`` (or no tag)."""
        if attribute is None:
            return Value(self.name, None)
        return Value(self.name, as_attribute(attribute).name)

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        # Equal values share a name, so the name alone is a valid hash, and
        # it skips building a (name, tag) tuple on every dict probe.
        return hash(self.name)

    def __reduce__(self):
        # A frozen slotted dataclass cannot be rebuilt through setattr, so
        # pickle (and copy) rebuild it through the constructor.
        return (Value, (self.name, self.tag))

    def __setstate__(self, state) -> None:
        # Only pickles of the older dict-backed layout get here (new ones
        # rebuild through __reduce__); restore their fields by name.
        object.__setattr__(self, "name", state["name"])
        object.__setattr__(self, "tag", state.get("tag"))


def untyped(name: ValueLike) -> Value:
    """Construct an untyped value from a name (string or int) or pass one through."""
    if isinstance(name, Value):
        if name.tag is not None:
            raise TypingError(f"{name!r} is typed; expected an untyped value")
        return name
    return Value(str(name), None)


def typed(name: ValueLike, attribute: AttributeLike) -> Value:
    """Construct a typed value belonging to ``DOM(attribute)``."""
    attr = as_attribute(attribute)
    if isinstance(name, Value):
        if name.tag is not None and name.tag != attr.name:
            raise TypingError(
                f"{name!r} already belongs to DOM({name.tag}), not DOM({attr.name})"
            )
        return Value(name.name, attr.name)
    return Value(str(name), attr.name)


def untyped_values(names: Iterable[ValueLike]) -> list[Value]:
    """Construct a list of untyped values."""
    return [untyped(n) for n in names]


def typed_values(names: Iterable[ValueLike], attribute: AttributeLike) -> list[Value]:
    """Construct a list of typed values for one attribute's domain."""
    return [typed(n, attribute) for n in names]


def same_domain(left: Value, right: Value) -> bool:
    """Whether two values may legally be equated by a typed egd.

    In the typed regime an equality-generating dependency may only equate two
    values from the domain of the same attribute (Section 2.4).  Untyped
    values share a single domain and may always be equated.
    """
    return left.tag == right.tag


def check_column_value(attribute: Attribute, value: Value) -> Value:
    """Validate that ``value`` may appear in the column of ``attribute``."""
    if not value.belongs_to(attribute):
        raise TypingError(
            f"value {value!r} belongs to DOM({value.tag}) and cannot appear "
            f"in column {attribute.name}"
        )
    return value
