"""Columnar trigger-matching kernel: batched partial-match extension.

The classic matching path (``extend_through`` -> ``homomorphisms``) probes
the tableau one row at a time through dict buckets, and re-validates every
candidate trigger with an O(|relation|) ``row_embeddings`` scan when the
conclusion row is non-total.  This module replaces both inner loops with a
columnar mirror of the tableau:

* every cell value is interned to a small integer id, one column array per
  attribute (attributes in ``Row.items()`` order, i.e. sorted by name, so a
  cell is read positionally instead of via ``Row.__getitem__``);
* a candidate row set is a bitset -- a plain Python ``int`` mask in the
  ``bitset`` backend, a numpy ``bool_`` array in the ``numpy`` backend --
  so "rows matching this partial valuation" is a handful of posting-list
  intersections (or vectorized column compares) instead of a per-row probe;
* the non-total td violation check becomes a single mask computation: the
  bound conclusion cells intersect their postings, the free (existential)
  cells restrict to the tag-compatible rows, and duplicated existential
  columns demand column equality.  The trigger is violated iff the mask
  is empty.

The mirror is maintained incrementally from the same ``TdDelta`` /
``EgdDelta`` stream that feeds ``RowIndex``; merged-away rows keep their
slots (dead slots simply leave every mask), so maintenance is O(touched
rows) per step, never a rebuild.

Byte-identity with the classic path is structural: the kernel emits exactly
the trigger *sets* the classic ``extend_through`` emits (the engine's fair
scheduler canonicalizes, dedupes, and sorts every round, so emission order
is free), which the randomized differential suite pins.

numpy is strictly optional: the bitset backend is the always-on
pure-Python default (``auto``), which never imports numpy; ``on`` /
``numpy`` pick the numpy backend when numpy imports, and
``REPRO_CHASE_KERNEL`` force-overrides ``auto`` resolutions for CI
matrices.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chase.steps import CompiledDependency, StepDelta
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation
from repro.model.values import Value
from repro.util.errors import ReproError

__all__ = [
    "KERNEL_ENV",
    "KERNEL_MODES",
    "KernelError",
    "TriggerKernel",
    "resolve_kernel",
]

#: Environment variable force-overriding ``auto`` kernel resolutions.  Set it
#: to ``on`` / ``off`` / ``numpy`` / ``bitset`` to pin every strategy whose
#: configuration left the kernel on ``auto`` (explicit per-strategy choices
#: always win, so differential comparisons keep their pinned baselines).
KERNEL_ENV = "REPRO_CHASE_KERNEL"

#: Modes understood by :func:`resolve_kernel` (config files restrict
#: themselves to the first three; ``numpy`` / ``bitset`` force one backend).
KERNEL_MODES = ("auto", "on", "off", "numpy", "bitset")


class KernelError(ReproError):
    """An unknown kernel mode, or a forced backend that cannot be built."""


def _numpy():
    """Import numpy right now, or return None.

    Imported freshly on every call (never cached) so test suites can prove
    the numpy-absent behaviour by patching ``sys.modules``.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def resolve_kernel(mode: Optional[str] = None) -> Optional[str]:
    """Resolve a kernel mode to a backend name, or None for the classic path.

    ``off`` -> None; ``numpy`` / ``bitset`` force that backend (``numpy``
    raises :class:`KernelError` when numpy is not importable); ``on`` means
    "use the kernel" (numpy backend when available, bitset otherwise); and
    ``auto`` -- the default -- uses the bitset backend, which is faster than
    the classic matcher on every ``bench_chase.py`` workload and than the
    numpy backend on chains, merge cascades and mvd chains (within noise of
    it on the wide rounds), and leaves numpy unimported.  Only ``auto`` (or
    ``None``) consults :data:`KERNEL_ENV`, so CI can force entire suites on
    or off without silently rewriting explicitly pinned comparisons.
    """
    resolved = "auto" if mode is None else str(mode).strip().lower()
    if resolved == "auto":
        env = os.environ.get(KERNEL_ENV, "").strip().lower()
        if env:
            resolved = env
    if resolved not in KERNEL_MODES:
        raise KernelError(
            f"unknown chase kernel mode {resolved!r}; expected one of "
            f"{', '.join(KERNEL_MODES)}"
        )
    if resolved == "off":
        return None
    if resolved in ("auto", "bitset"):
        return "bitset"
    if resolved == "numpy":
        if _numpy() is None:
            raise KernelError(
                "chase kernel forced to 'numpy' but numpy is not importable; "
                "install the [fast] extra or use the 'bitset' backend"
            )
        return "numpy"
    return "numpy" if _numpy() is not None else "bitset"


class _BitsetStore:
    """Pure-Python columnar mirror; candidate sets are ``int`` bitmasks.

    Bit *s* of a mask is row slot *s*.  Postings map ``(column, value-id)``
    to the mask of live rows carrying that value, so a conjunctive
    constraint is an ``&`` chain over at most arity-many ints.
    """

    backend = "bitset"

    def __init__(self, nattrs: int) -> None:
        self._nattrs = nattrs
        self._intern: Dict[Value, int] = {}
        self._values: List[Value] = []
        self._cols: List[List[int]] = [[] for _ in range(nattrs)]
        self._typed: List[int] = [0] * nattrs
        self._postings: Dict[Tuple[int, int], int] = {}
        self._alive = 0
        self._slot_of: Dict[Row, int] = {}
        self._size = 0

    def __contains__(self, row: Row) -> bool:
        return row in self._slot_of

    def vid(self, value: Value) -> Optional[int]:
        return self._intern.get(value)

    def _intern_value(self, value: Value) -> int:
        vid = self._intern.get(value)
        if vid is None:
            vid = len(self._values)
            self._intern[value] = vid
            self._values.append(value)
        return vid

    def add_row(self, row: Row) -> None:
        if row in self._slot_of:
            return
        slot = self._size
        self._size = slot + 1
        self._slot_of[row] = slot
        bit = 1 << slot
        self._alive |= bit
        postings = self._postings
        for ai, (_, value) in enumerate(row.items()):
            vid = self._intern_value(value)
            self._cols[ai].append(vid)
            key = (ai, vid)
            postings[key] = postings.get(key, 0) | bit
            if value.tag is not None:
                self._typed[ai] |= bit

    def discard_row(self, row: Row) -> None:
        slot = self._slot_of.pop(row, None)
        if slot is None:
            return
        bit = 1 << slot
        self._alive &= ~bit
        postings = self._postings
        for ai in range(self._nattrs):
            key = (ai, self._cols[ai][slot])
            remaining = postings.get(key, 0) & ~bit
            if remaining:
                postings[key] = remaining
            else:
                postings.pop(key, None)
            self._typed[ai] &= ~bit

    def candidates(self, constraints: Iterable[Tuple[int, int]]) -> int:
        mask = None
        postings = self._postings
        for key in constraints:
            bucket = postings.get(key, 0)
            mask = bucket if mask is None else mask & bucket
            if not mask:
                return 0
        return self._alive if mask is None else mask

    def slots(self, mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def mask_empty(self, mask: int) -> bool:
        return not mask

    def cell(self, ai: int, slot: int) -> Value:
        return self._values[self._cols[ai][slot]]

    def restrict_tag(self, mask: int, ai: int, tagged: bool) -> int:
        typed = self._typed[ai]
        return mask & typed if tagged else mask & ~typed

    def any_rows(self, mask: int, groups: Tuple[Tuple[int, ...], ...]) -> bool:
        """Whether some row in ``mask`` has equal cells within every group."""
        cols = self._cols
        for slot in self.slots(mask):
            if all(
                cols[group[0]][slot] == cols[aj][slot]
                for group in groups
                for aj in group[1:]
            ):
                return True
        return False


class _NumpyStore:
    """numpy columnar mirror; candidate sets are ``bool_`` arrays.

    Columns are capacity-doubling ``int64`` arrays of value ids plus a
    ``bool_`` typed-cell array per attribute and a shared liveness array;
    a conjunctive constraint is a chain of vectorized column compares.
    """

    backend = "numpy"

    def __init__(self, nattrs: int, np) -> None:
        self._np = np
        self._nattrs = nattrs
        self._intern: Dict[Value, int] = {}
        self._values: List[Value] = []
        self._capacity = 64
        self._cols = [np.zeros(self._capacity, dtype=np.int64) for _ in range(nattrs)]
        self._typed = [np.zeros(self._capacity, dtype=bool) for _ in range(nattrs)]
        self._alive = np.zeros(self._capacity, dtype=bool)
        self._slot_of: Dict[Row, int] = {}
        self._size = 0

    def __contains__(self, row: Row) -> bool:
        return row in self._slot_of

    def vid(self, value: Value) -> Optional[int]:
        return self._intern.get(value)

    def _intern_value(self, value: Value) -> int:
        vid = self._intern.get(value)
        if vid is None:
            vid = len(self._values)
            self._intern[value] = vid
            self._values.append(value)
        return vid

    def _grow(self) -> None:
        np = self._np
        capacity = self._capacity * 2
        size = self._size
        for ai in range(self._nattrs):
            col = np.zeros(capacity, dtype=np.int64)
            col[:size] = self._cols[ai][:size]
            self._cols[ai] = col
            typed = np.zeros(capacity, dtype=bool)
            typed[:size] = self._typed[ai][:size]
            self._typed[ai] = typed
        alive = np.zeros(capacity, dtype=bool)
        alive[:size] = self._alive[:size]
        self._alive = alive
        self._capacity = capacity

    def add_row(self, row: Row) -> None:
        if row in self._slot_of:
            return
        if self._size == self._capacity:
            self._grow()
        slot = self._size
        self._size = slot + 1
        self._slot_of[row] = slot
        self._alive[slot] = True
        for ai, (_, value) in enumerate(row.items()):
            self._cols[ai][slot] = self._intern_value(value)
            if value.tag is not None:
                self._typed[ai][slot] = True

    def discard_row(self, row: Row) -> None:
        slot = self._slot_of.pop(row, None)
        if slot is not None:
            self._alive[slot] = False

    def candidates(self, constraints: Iterable[Tuple[int, int]]):
        size = self._size
        mask = None
        for ai, vid in constraints:
            compare = self._cols[ai][:size] == vid
            mask = compare if mask is None else mask & compare
        if mask is None:
            return self._alive[:size].copy()
        mask &= self._alive[:size]
        return mask

    def slots(self, mask) -> List[int]:
        return self._np.flatnonzero(mask).tolist()

    def mask_empty(self, mask) -> bool:
        return not mask.any()

    def cell(self, ai: int, slot: int) -> Value:
        return self._values[int(self._cols[ai][slot])]

    def restrict_tag(self, mask, ai: int, tagged: bool):
        typed = self._typed[ai][: self._size]
        return mask & typed if tagged else mask & ~typed

    def any_rows(self, mask, groups: Tuple[Tuple[int, ...], ...]) -> bool:
        size = self._size
        for group in groups:
            base = self._cols[group[0]][:size]
            for aj in group[1:]:
                mask = mask & (self._cols[aj][:size] == base)
        return bool(mask.any())


class _Plan:
    """A compiled dependency lowered to column positions.

    ``rows[i]`` is body row *i* as ``(column, value)`` pairs in sorted
    attribute order; ``rest[i]`` is every body row except row *i* (the
    matching order after seeding through row *i*).  For tds the conclusion
    splits into ``concl_bound`` (cells whose value the body binds),
    ``concl_free`` (existential cells, with their typedness), and
    ``concl_groups`` (columns sharing one existential value, which a
    witness row must equate).
    """

    __slots__ = ("rows", "rest", "concl_bound", "concl_free", "concl_groups")

    def __init__(self, cd: CompiledDependency) -> None:
        self.rows: Tuple[Tuple[Tuple[int, Value], ...], ...] = tuple(
            tuple((ai, value) for ai, (_, value) in enumerate(body_row.items()))
            for body_row in cd.body_rows
        )
        self.rest = tuple(
            self.rows[:position] + self.rows[position + 1 :]
            for position in range(len(self.rows))
        )
        bound: List[Tuple[int, Value]] = []
        free: List[Tuple[int, bool]] = []
        groups: Dict[Value, List[int]] = {}
        if cd.is_td:
            for ai, (_, value) in enumerate(cd.conclusion.items()):
                if value in cd.body_values:
                    bound.append((ai, value))
                else:
                    free.append((ai, value.tag is not None))
                    groups.setdefault(value, []).append(ai)
        self.concl_bound = tuple(bound)
        self.concl_free = tuple(free)
        self.concl_groups = tuple(
            tuple(columns) for columns in groups.values() if len(columns) > 1
        )


def _seed_binding(
    items: Tuple[Tuple[int, Value], ...], row: Row
) -> Optional[Dict[Value, Value]]:
    """Bind one body row to ``row`` positionally, or None on a clash."""
    binding: Dict[Value, Value] = {}
    cells = row.items()
    for ai, value in items:
        image = cells[ai][1]
        if value.tag != image.tag:
            return None
        previous = binding.get(value)
        if previous is None:
            binding[value] = image
        elif previous != image:
            return None
    return binding


class TriggerKernel:
    """Columnar mirror of one relation plus the batched matcher over it.

    One kernel serves one evolving tableau: seed it from the initial
    relation, feed every step's delta to :meth:`apply_delta`, and ask for
    triggers with :meth:`find_triggers` (full scan, used at start-up) or
    :meth:`extend_through` (all matches through one changed row, the
    incremental hot path).  Emitted valuations are exactly those the
    classic ``extend_through`` emits for the same relation.
    """

    def __init__(self, relation: Relation, backend: str) -> None:
        nattrs = len(relation.universe.attributes)
        if backend == "numpy":
            np = _numpy()
            if np is None:
                raise KernelError(
                    "numpy kernel backend requested but numpy is not importable"
                )
            self._store = _NumpyStore(nattrs, np)
        elif backend == "bitset":
            self._store = _BitsetStore(nattrs)
        else:
            raise KernelError(f"unknown kernel backend {backend!r}")
        self.backend = backend
        self._plans: Dict[object, _Plan] = {}
        for row in relation.rows:
            self._store.add_row(row)

    def __contains__(self, row: Row) -> bool:
        return row in self._store

    def apply_delta(self, delta: StepDelta) -> None:
        """Mirror one chase step; same discipline as ``RowIndex.apply_delta``."""
        if delta.is_noop:
            return
        store = self._store
        for row in getattr(delta, "removed_rows", ()):
            store.discard_row(row)
        for row in delta.changed_rows:
            store.add_row(row)

    def _plan(self, cd: CompiledDependency) -> _Plan:
        plan = self._plans.get(cd.dependency)
        if plan is None:
            plan = _Plan(cd)
            self._plans[cd.dependency] = plan
        return plan

    def find_triggers(
        self, cd: CompiledDependency, emit: Callable[[Valuation], None]
    ) -> None:
        """Emit every active trigger of ``cd`` against the mirrored relation."""
        if not cd.is_td and cd.trivial:
            return
        plan = self._plan(cd)
        self._search(cd, plan, plan.rows, 0, {}, emit)

    def extend_through(
        self,
        cd: CompiledDependency,
        row: Row,
        emit: Callable[[Valuation], None],
    ) -> None:
        """Emit every active trigger of ``cd`` whose image includes ``row``."""
        if not cd.is_td and cd.trivial:
            return
        plan = self._plan(cd)
        for position, items in enumerate(plan.rows):
            binding = _seed_binding(items, row)
            if binding is not None:
                self._search(cd, plan, plan.rest[position], 0, binding, emit)

    def _search(
        self,
        cd: CompiledDependency,
        plan: _Plan,
        rest: Tuple[Tuple[Tuple[int, Value], ...], ...],
        depth: int,
        binding: Dict[Value, Value],
        emit: Callable[[Valuation], None],
    ) -> None:
        if depth == len(rest):
            if self._violates(cd, plan, binding):
                emit(Valuation(dict(binding)))
            return
        store = self._store
        items = rest[depth]
        constraints: List[Tuple[int, int]] = []
        for ai, value in items:
            image = binding.get(value)
            if image is not None:
                vid = store.vid(image)
                if vid is None:
                    return
                constraints.append((ai, vid))
        for slot in store.slots(store.candidates(constraints)):
            added = self._assign(items, slot, binding)
            if added is None:
                continue
            self._search(cd, plan, rest, depth + 1, binding, emit)
            for value in added:
                del binding[value]

    def _assign(
        self,
        items: Tuple[Tuple[int, Value], ...],
        slot: int,
        binding: Dict[Value, Value],
    ) -> Optional[List[Value]]:
        """Extend ``binding`` with the row at ``slot``; None on a clash."""
        store = self._store
        added: List[Value] = []
        for ai, value in items:
            cell = store.cell(ai, slot)
            image = binding.get(value)
            if image is None:
                if value.tag != cell.tag:
                    break
                binding[value] = cell
                added.append(value)
            elif image != cell:
                break
        else:
            return added
        for value in added:
            del binding[value]
        return None

    def _violates(
        self, cd: CompiledDependency, plan: _Plan, binding: Dict[Value, Value]
    ) -> bool:
        """Vectorized ``violates``: no mirrored row witnesses the conclusion.

        Bound conclusion cells intersect their postings (an unknown value
        id means no row can match), free cells keep only tag-compatible
        rows (``check_column_value`` guarantees a typed cell in column A
        carries tag A, so typedness alone decides compatibility), and
        duplicated existential columns must agree cell-wise.  Covers total
        tds too: with no free cells the mask is plain membership.
        """
        if not cd.is_td:
            return binding[cd.left] != binding[cd.right]
        store = self._store
        constraints: List[Tuple[int, int]] = []
        for ai, value in plan.concl_bound:
            vid = store.vid(binding[value])
            if vid is None:
                return True
            constraints.append((ai, vid))
        mask = store.candidates(constraints)
        if store.mask_empty(mask):
            return True
        for ai, tagged in plan.concl_free:
            mask = store.restrict_tag(mask, ai, tagged)
        if plan.concl_groups:
            return not store.any_rows(mask, plan.concl_groups)
        return store.mask_empty(mask)
