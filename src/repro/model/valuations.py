"""Valuations and homomorphism search (Section 2.2).

A valuation is a partial mapping ``alpha: DOM(U) -> DOM(U)`` respecting the
typing discipline (an A-value must be mapped to an A-value).  Dependency
satisfaction quantifies over *all* valuations embedding the dependency's body
into a relation, so the work-horse of this module is
:func:`homomorphisms`, a backtracking search enumerating exactly those
valuations.  This is the same sub-problem every production chase engine
solves when it looks for "triggers".
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional

from repro.model.attributes import Attribute
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import Value
from repro.util.errors import TypingError


class Valuation:
    """An immutable partial mapping on domain values.

    The paper requires ``alpha(a) in DOM(A)`` whenever ``a in DOM(A)``; for
    tagged (typed) values the constructor enforces this.  Untagged values may
    map to anything.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[Value, Value] | None = None) -> None:
        data: Dict[Value, Value] = dict(mapping or {})
        for source, target in data.items():
            _check_typed_pair(source, target)
        self._mapping = data

    @classmethod
    def _trusted(cls, mapping: Dict[Value, Value]) -> "Valuation":
        """Internal constructor taking ``mapping`` as is, unchecked.

        Only for a fresh dict whose pairs already respect typing (the
        chase kernel's matches, whose type filters guarantee it).
        """
        valuation = cls.__new__(cls)
        valuation._mapping = mapping
        return valuation

    # -- basic accessors ------------------------------------------------------

    def as_dict(self) -> dict[Value, Value]:
        """A plain dict copy of the mapping."""
        return dict(self._mapping)

    def domain(self) -> frozenset[Value]:
        """The set of values on which the valuation is defined."""
        return frozenset(self._mapping)

    def defined_on(self, value: Value) -> bool:
        """Whether the valuation is defined on ``value``."""
        return value in self._mapping

    def __call__(self, value: Value) -> Value:
        try:
            return self._mapping[value]
        except KeyError as exc:
            raise KeyError(f"valuation is not defined on {value!r}") from exc

    def get(self, value: Value, default: Optional[Value] = None) -> Optional[Value]:
        """Image of ``value`` or ``default`` when undefined."""
        return self._mapping.get(value, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._mapping == other._mapping

    def __hash__(self) -> int:
        return hash(frozenset(self._mapping.items()))

    def __len__(self) -> int:
        return len(self._mapping)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{k.name}->{v.name}" for k, v in sorted(self._mapping.items())
        )
        return f"Valuation({pairs})"

    # -- application ----------------------------------------------------------

    def apply_row(self, row: Row) -> Row:
        """``alpha(w)``: apply the valuation to every cell of a row.

        Raises ``KeyError`` if the valuation is undefined on some value of
        the row; use :meth:`extends_row_into` when partial application is
        intended.
        """
        return Row({attr: self(value) for attr, value in row.items()})

    def apply_relation(self, relation: Relation) -> Relation:
        """``alpha(I)``: apply the valuation to every row of a relation."""
        return Relation(relation.universe, (self.apply_row(r) for r in relation))

    # -- extension ------------------------------------------------------------

    def extended(self, additions: Mapping[Value, Value]) -> "Valuation":
        """A valuation agreeing with this one plus the new bindings.

        Raises :class:`TypingError` if a new binding conflicts with an
        existing one or violates typing.
        """
        data = dict(self._mapping)
        for source, target in additions.items():
            _check_typed_pair(source, target)
            existing = data.get(source)
            if existing is not None and existing != target:
                raise TypingError(
                    f"conflicting extension for {source!r}: "
                    f"{existing!r} vs {target!r}"
                )
            data[source] = target
        return Valuation(data)

    def restricted_to(self, values: Iterable[Value]) -> "Valuation":
        """The restriction of the valuation to the given source values."""
        wanted = set(values)
        return Valuation({k: v for k, v in self._mapping.items() if k in wanted})

    def is_identity(self) -> bool:
        """Whether every defined value maps to itself."""
        return all(k == v for k, v in self._mapping.items())

    @classmethod
    def identity_on(cls, values: Iterable[Value]) -> "Valuation":
        """The identity valuation on a set of values."""
        return cls({v: v for v in values})


def _check_typed_pair(source: Value, target: Value) -> None:
    if source.tag is not None and target.tag is not None and source.tag != target.tag:
        raise TypingError(
            f"valuation would map {source!r} (DOM({source.tag})) to "
            f"{target!r} (DOM({target.tag}))"
        )
    if source.tag is not None and target.tag is None:
        # A typed value may only be renamed within its own domain; mapping it
        # to an untagged value would silently drop the typing certificate.
        raise TypingError(
            f"valuation would map typed {source!r} to untyped {target!r}"
        )
    if source.tag is None and target.tag is not None:
        raise TypingError(
            f"valuation would map untyped {source!r} to typed {target!r}"
        )


def build_row_index(
    relation: Relation,
) -> Dict[tuple[Attribute, Value], tuple[Row, ...]]:
    """The (attribute, value) -> rows index :func:`homomorphisms` prunes with.

    Buckets are tuples of rows in the relation's iteration order.  The index
    describes one immutable relation (:func:`homomorphisms` caches it on
    the relation), so it never changes, and tuples keep it a fraction of
    the size of per-bucket sets.  The chase's incrementally maintained
    buckets are :class:`~repro.chase.row_index.RowIndex`'s own.
    """
    buckets: Dict[tuple[Attribute, Value], list[Row]] = {}
    for row in relation.rows:
        for cell in zip(row.scheme, row):
            bucket = buckets.get(cell)
            if bucket is None:
                buckets[cell] = [row]
            else:
                bucket.append(row)
    return {cell: tuple(rows) for cell, rows in buckets.items()}


def homomorphisms(
    source: Relation,
    target: Relation,
    seed: Optional[Valuation] = None,
    limit: Optional[int] = None,
    index: Optional[Dict] = None,
) -> Iterator[Valuation]:
    """Enumerate valuations ``alpha`` on ``source`` with ``alpha(source) <= target``.

    This is a backtracking search over the rows of ``source``: each source
    row must be mapped onto some target row consistently with the partial
    value mapping accumulated so far.  The ``seed`` valuation (if given)
    pre-binds some values -- used, e.g., when the chase re-checks whether an
    existing trigger is already satisfied.

    The returned valuations are defined exactly on ``VAL(source)`` (plus the
    seed's domain), matching the paper's "valuation on a relation".

    Parameters
    ----------
    source, target:
        Relations over the same universe.
    seed:
        Partial valuation that every enumerated homomorphism must extend.
    limit:
        Stop after yielding this many homomorphisms (``None`` = no limit).
    index:
        A prebuilt :func:`build_row_index` of ``target``.  Callers that probe
        one target many times (the incremental chase strategy) maintain the
        index across calls; without it, the index is built once per target
        relation and cached on it (relations are immutable), so repeated
        one-shot probes of the same target stop paying an O(|target|)
        indexing pass each.
    """
    if source.universe != target.universe:
        raise TypingError("homomorphism search requires a common universe")
    source_rows = _order_rows_for_search(source)
    # Every row of either relation lists its values in one order (the
    # common universe sorted by name), so cells are read by position.
    # Candidate probes still visit attributes in universe order.
    attrs = source.universe.attributes
    by_name = sorted(range(len(attrs)), key=lambda i: attrs[i].name)
    position_of = [0] * len(attrs)
    for position, i in enumerate(by_name):
        position_of[i] = position
    plan = []
    for row in source_rows:
        cells = tuple(row)
        plan.append((cells, [(a, cells[p]) for a, p in zip(attrs, position_of)]))

    # Pre-index target rows per (attribute, value) for cheap candidate pruning.
    if index is None:
        index = target._hom_index
        if index is None:
            index = build_row_index(target)
            target._hom_index = index
    all_rows: list[Row] = []

    binding: Dict[Value, Value] = dict(seed.as_dict()) if seed is not None else {}
    count = 0

    def candidates(probes):
        """Target rows compatible with the current binding for one row."""
        best = None
        for attr, value in probes:
            bound = binding.get(value)
            if bound is None:
                continue
            bucket = index.get((attr, bound), ())
            if not bucket:
                # Some bound cell has no occurrence in the target: no image
                # exists, so skip probing the remaining attributes entirely.
                return []
            if best is None or len(bucket) < len(best):
                best = bucket
                if len(best) == 1:
                    # A singleton bucket is already maximally selective.
                    break
        if best is None:
            if not all_rows:
                all_rows.extend(target.rows)
            return all_rows
        return best

    def assign(cells: tuple, image: Row) -> Optional[list[Value]]:
        """Try binding row -> image; return newly bound values or None on clash."""
        added: list[Value] = []
        for value, target_value in zip(cells, image):
            bound = binding.get(value)
            if bound is None:
                if value.tag != target_value.tag:
                    _undo(added)
                    return None
                binding[value] = target_value
                added.append(value)
            elif bound != target_value:
                _undo(added)
                return None
        return added

    def _undo(added: list[Value]) -> None:
        for value in added:
            del binding[value]

    def search(position: int) -> Iterator[Valuation]:
        nonlocal count
        if limit is not None and count >= limit:
            return
        if position == len(plan):
            count += 1
            yield Valuation(dict(binding))
            return
        cells, probes = plan[position]
        for image in candidates(probes):
            added = assign(cells, image)
            if added is None:
                continue
            yield from search(position + 1)
            _undo(added)
            if limit is not None and count >= limit:
                return

    yield from search(0)


def has_homomorphism(
    source: Relation, target: Relation, seed: Optional[Valuation] = None
) -> bool:
    """Whether at least one homomorphism from ``source`` into ``target`` exists."""
    return next(homomorphisms(source, target, seed=seed, limit=1), None) is not None


def row_embeddings(
    row: Row,
    relation: Relation,
    base: Valuation,
    body_values: frozenset[Value],
) -> Iterator[Valuation]:
    """Enumerate extensions of ``base`` to ``row`` landing inside ``relation``.

    Used for template-dependency satisfaction: ``base`` is a valuation on the
    body ``I``; the extension must send the conclusion row ``w`` onto some row
    of ``relation``.  Values of ``w`` already in ``VAL(I)`` (``body_values``)
    are fixed by ``base``; the remaining values are free, subject to typing.
    """
    scheme = row.scheme
    for candidate in relation:
        bindings: dict[Value, Value] = {}
        feasible = True
        if candidate.scheme == scheme:
            images = iter(candidate)
        else:
            images = (candidate[attr] for attr in scheme)
        for value, image in zip(row, images):
            if value in body_values or base.defined_on(value):
                if base.get(value) != image:
                    feasible = False
                    break
            else:
                if value.tag != image.tag:
                    feasible = False
                    break
                previous = bindings.get(value)
                if previous is not None and previous != image:
                    feasible = False
                    break
                bindings[value] = image
        if feasible:
            yield base.extended(bindings)


def _order_rows_for_search(source: Relation) -> list[Row]:
    """Order source rows to maximise early pruning.

    Rows sharing many values with already-placed rows are placed sooner, a
    cheap variant of the "most constrained variable" heuristic.
    """
    remaining = source.sorted_rows()
    if not remaining:
        return []
    ordered = [remaining.pop(0)]
    placed_values = set(ordered[0].values())
    while remaining:
        best_index = 0
        best_overlap = -1
        for i, row in enumerate(remaining):
            overlap = len(placed_values & set(row.values()))
            if overlap > best_overlap:
                best_overlap = overlap
                best_index = i
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        placed_values.update(chosen.values())
    return ordered
