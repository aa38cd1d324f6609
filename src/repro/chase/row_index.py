"""A persistent value -> occupied-rows index for the chase tableau.

An egd step must rewrite every tableau row containing the replaced value.
Before this index existed, :func:`repro.chase.steps.apply_egd_step` found
those rows by scanning the whole tableau -- O(|tableau|) per merge -- which
made merge cascades (fd closures, egd-dense instances) quadratic even under
the delta-driven scheduling of
:class:`~repro.chase.strategies.IncrementalStrategy`.  :class:`RowIndex`
makes the lookup O(|touched rows|): it maintains, alongside the tableau,

* ``value_buckets`` -- for every value, the set of rows it occupies (any
  column); an egd merge finds the rows to rewrite with
  :meth:`RowIndex.rows_containing`, the replaced value's bucket checked
  against the state's live rows;
* ``attr_buckets`` -- the ``(attribute, value) -> rows`` index that
  :func:`repro.model.valuations.homomorphisms` prunes candidate rows with;
  the incremental strategy's partial-match extension shares this structure
  instead of maintaining a private copy.

Both bucket families use insertion-ordered dicts as ordered sets, so
incremental eviction is O(1) and iteration order stays deterministic.  The
index is kept in sync by :meth:`repro.chase.steps.ChaseState.apply_delta`,
which lands every :class:`~repro.chase.steps.StepDelta` on the state's live
rows and on the index together -- a td delta inserts its one new row, an
egd delta evicts the pre-rewrite rows and inserts the rewritten images.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Dict, FrozenSet, Iterable, Tuple

from repro.model.attributes import Attribute
from repro.model.tuples import Row
from repro.model.values import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (steps imports us)
    from repro.chase.steps import StepDelta


class RowIndex:
    """Value -> rows and (attribute, value) -> rows indexes over one tableau.

    Built with one scan of the rows (a relation, or the chase state's live
    row set); afterwards maintained purely from step deltas via
    :meth:`apply_delta`, so a merge's cost is proportional to the rows it
    touches, never to the tableau size.
    """

    __slots__ = ("_attr_buckets", "_value_buckets")

    def __init__(self, rows: Iterable[Row]) -> None:
        self._attr_buckets: Dict[Tuple[Attribute, Value], Dict[Row, None]] = {}
        self._value_buckets: Dict[Value, Dict[Row, None]] = {}
        for row in rows:
            self.add_row(row)

    # -- views -----------------------------------------------------------------

    @property
    def attr_buckets(self) -> Dict[Tuple[Attribute, Value], Dict[Row, None]]:
        """The (attribute, value) -> rows index ``homomorphisms(index=)`` takes."""
        return self._attr_buckets

    @property
    def value_buckets(self) -> Dict[Value, Dict[Row, None]]:
        """The value -> rows index :meth:`rows_containing` reads."""
        return self._value_buckets

    # -- lookup ----------------------------------------------------------------

    def rows_containing(self, value: Value, live: Container[Row]) -> FrozenSet[Row]:
        """The rows of ``live`` in which ``value`` occurs (in any column).

        Costs O(|bucket|): the value's bucket, each row checked against
        ``live`` (the rows the tableau holds), so a slightly stale bucket
        can miss nothing it lists and never yields a phantom row.
        """
        return frozenset(
            row for row in self._value_buckets.get(value, ()) if row in live
        )

    # -- maintenance -----------------------------------------------------------

    def add_row(self, row: Row) -> None:
        """Index one row (idempotent: re-adding an indexed row is a no-op)."""
        attr_buckets = self._attr_buckets
        value_buckets = self._value_buckets
        for cell in zip(row.scheme, row):
            attr_buckets.setdefault(cell, {})[row] = None
            value_buckets.setdefault(cell[1], {})[row] = None

    def discard_row(self, row: Row) -> None:
        """Evict one row from every bucket it occupies (O(columns))."""
        attr_buckets = self._attr_buckets
        value_buckets = self._value_buckets
        for cell in zip(row.scheme, row):
            value = cell[1]
            bucket = attr_buckets.get(cell)
            if bucket is not None:
                bucket.pop(row, None)
                if not bucket:
                    del attr_buckets[cell]
            vbucket = value_buckets.get(value)
            if vbucket is not None:
                vbucket.pop(row, None)
                if not vbucket:
                    del value_buckets[value]

    def apply_delta(self, delta: "StepDelta") -> None:
        """Account for one applied chase step.

        Evicts an egd delta's pre-rewrite rows before inserting the rewritten
        images (a rewritten image may collapse onto an untouched existing row,
        which :meth:`add_row` absorbs idempotently); a td delta only inserts.
        """
        if delta.is_noop:
            return
        for row in getattr(delta, "removed_rows", ()):
            self.discard_row(row)
        for row in delta.changed_rows:
            self.add_row(row)

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct values currently indexed."""
        return len(self._value_buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = {row for bucket in self._value_buckets.values() for row in bucket}
        return f"RowIndex({len(rows)} rows, {len(self._value_buckets)} values)"
