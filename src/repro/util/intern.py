"""Bounded interning of immutable model objects.

Rows share their per-scheme class, dependencies their attribute sets,
and chase tableaux their fresh null values and the rows their steps
add, so results that caches keep for a long time do not each hold a
copy.  Every table here is bounded: it is
cleared when it reaches its limit.  Interned objects compare by value,
never by identity, so a cleared table, or two threads racing to fill it,
only costs memory.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, TypeVar

T = TypeVar("T")

#: Entries a table holds before it is cleared.
DEFAULT_LIMIT = 4096


def intern(
    table: dict,
    key: Hashable,
    make: Optional[Callable[[Hashable], T]] = None,
    limit: int = DEFAULT_LIMIT,
) -> T:
    """The object ``table`` shares for ``key``, storing a new one if needed.

    The new object is ``make(key)``, or ``key`` itself when ``make`` is None.
    """
    shared = table.get(key)
    if shared is None:
        if len(table) >= limit:
            table.clear()
        shared = table[key] = key if make is None else make(key)
    return shared
