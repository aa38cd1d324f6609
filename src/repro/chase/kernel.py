"""Columnar trigger-matching kernel: batched partial-match extension.

The classic matching path (``extend_through`` -> ``homomorphisms``) probes
the tableau one row at a time through dict buckets, and checks every
candidate trigger with an O(|relation|) ``row_embeddings`` scan when the
conclusion row is non-total.  This module replaces both inner loops with a
columnar mirror of the tableau:

* every cell value is interned to a small integer id, one column list per
  attribute (attributes in ``Row.items()`` order, i.e. sorted by name, so a
  cell is read positionally instead of via ``Row.__getitem__``);
* a candidate row set is a bitset -- a plain Python ``int`` whose bit *s*
  is row slot *s* -- so "rows matching this partial valuation" is a
  handful of posting-list intersections instead of a per-row probe;
* the non-total td violation check becomes a single mask computation: the
  bound conclusion cells intersect their postings, the free (existential)
  cells restrict to the tag-compatible rows, and duplicated existential
  columns demand column equality.  The trigger is violated iff the mask
  is empty.  :meth:`TriggerKernel.violates` exposes the same check for
  one canonicalized valuation, which is how the incremental strategy
  answers the engine's per-step re-validation without scanning the
  tableau.

The mirror is maintained incrementally from the same ``TdDelta`` /
``EgdDelta`` stream that feeds ``RowIndex``; merged-away rows keep their
slots (dead slots simply leave every mask), so maintenance is O(touched
rows) per step, never a rebuild.

Byte-identity with the classic path is structural: the kernel emits exactly
the trigger *sets* the classic ``extend_through`` emits (the engine's fair
scheduler canonicalizes, dedupes, and sorts every round, so emission order
is free), which the randomized differential suite pins.

The kernel is pure Python and has no dependencies.  ``chase_kernel="auto"``
(the default) runs it; ``"off"`` keeps the classic matcher.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chase.steps import CompiledDependency, StepDelta
from repro.config import CHASE_KERNELS
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation
from repro.model.values import Value
from repro.util.errors import ReproError

__all__ = [
    "KernelError",
    "TriggerKernel",
    "resolve_kernel",
]


class KernelError(ReproError):
    """An unknown kernel mode."""


def resolve_kernel(mode: Optional[str] = None) -> Optional[str]:
    """Resolve a kernel mode to the matcher a run reports.

    ``"auto"`` (or ``None``) -> ``"bitset"``, the columnar kernel;
    ``"off"`` -> None, the classic matcher.  Any other mode, retired ones
    included, raises :class:`KernelError`.
    """
    resolved = "auto" if mode is None else str(mode).strip().lower()
    if resolved not in CHASE_KERNELS:
        raise KernelError(
            f"unknown chase kernel mode {resolved!r}; expected one of "
            f"{', '.join(CHASE_KERNELS)}"
        )
    return "bitset" if resolved == "auto" else None


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


def _slots(mask: int) -> Iterator[int]:
    """The row slots whose bits are set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TriggerKernel:
    """Columnar mirror of one relation plus the batched matcher over it.

    One kernel serves one evolving tableau: seed it from the initial
    relation, feed every step's delta to :meth:`apply_delta`, and ask for
    triggers with :meth:`find_triggers` (full scan, used at start-up) or
    :meth:`extend_through` (all matches through one changed row, the
    incremental hot path), and re-check one trigger with :meth:`violates`.
    Emitted valuations are exactly those the classic ``extend_through``
    emits for the same relation.

    Postings map ``(column, value id)`` to the mask of live rows carrying
    that value, so a conjunctive constraint is an ``&`` chain over at most
    arity-many ints; ``_typed[column]`` masks the rows whose cell in that
    column is typed.
    """

    def __init__(self, relation: Relation) -> None:
        nattrs = len(relation.universe.attributes)
        self._nattrs = nattrs
        self._intern: Dict[Value, int] = {}
        self._values: List[Value] = []
        self._cols: List[List[int]] = [[] for _ in range(nattrs)]
        self._typed: List[int] = [0] * nattrs
        self._postings: Dict[Tuple[int, int], int] = {}
        self._alive = 0
        self._slot_of: Dict[Row, int] = {}
        self._size = 0
        self._plans: Dict[object, _Plan] = {}
        for row in relation.rows:
            self._add_row(row)

    def apply_delta(self, delta: StepDelta) -> None:
        """Mirror one chase step; same discipline as ``RowIndex.apply_delta``."""
        if delta.is_noop:
            return
        for row in getattr(delta, "removed_rows", ()):
            self._discard_row(row)
        for row in delta.changed_rows:
            self._add_row(row)

    def _add_row(self, row: Row) -> None:
        if row in self._slot_of:
            return
        slot = self._size
        self._size = slot + 1
        self._slot_of[row] = slot
        bit = 1 << slot
        self._alive |= bit
        postings = self._postings
        intern = self._intern
        for ai, (_, value) in enumerate(row.items()):
            vid = intern.get(value)
            if vid is None:
                vid = intern[value] = len(self._values)
                self._values.append(value)
            self._cols[ai].append(vid)
            key = (ai, vid)
            postings[key] = postings.get(key, 0) | bit
            if value.tag is not None:
                self._typed[ai] |= bit

    def _discard_row(self, row: Row) -> None:
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

    def _candidates(self, constraints: Iterable[Tuple[int, int]]) -> int:
        """The mask of live rows meeting every ``(column, value id)`` pair."""
        mask = None
        postings = self._postings
        for key in constraints:
            bucket = postings.get(key, 0)
            mask = bucket if mask is None else mask & bucket
            if not mask:
                return 0
        return self._alive if mask is None else mask

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
        intern = self._intern
        items = rest[depth]
        constraints: List[Tuple[int, int]] = []
        for ai, value in items:
            image = binding.get(value)
            if image is not None:
                vid = intern.get(image)
                if vid is None:
                    return
                constraints.append((ai, vid))
        for slot in _slots(self._candidates(constraints)):
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
        cols = self._cols
        values = self._values
        added: List[Value] = []
        for ai, value in items:
            cell = values[cols[ai][slot]]
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

    def violates(self, cd: CompiledDependency, alpha: Valuation) -> bool:
        """Whether ``alpha`` is an active trigger of ``cd`` on the mirror.

        ``alpha`` must already be canonicalized against the tableau the
        mirror holds.  Answers exactly what ``steps.violates`` answers for
        that tableau, with one mask computation instead of a
        ``row_embeddings`` scan.  A trivial egd is never violated.
        """
        if not cd.is_td:
            return not cd.trivial and alpha(cd.left) != alpha(cd.right)
        return self._violates(cd, self._plan(cd), alpha.as_dict())

    def _violates(
        self, cd: CompiledDependency, plan: _Plan, binding: Dict[Value, Value]
    ) -> bool:
        """Mask ``violates``: no mirrored row witnesses the conclusion.

        Bound conclusion cells intersect their postings (an unknown value
        id means no row can match), free cells keep only tag-compatible
        rows (``check_column_value`` guarantees a typed cell in column A
        carries tag A, so typedness alone decides compatibility), and
        duplicated existential columns must agree cell-wise.  Covers total
        tds too: with no free cells the mask is plain membership.
        """
        if not cd.is_td:
            return binding[cd.left] != binding[cd.right]
        intern = self._intern
        constraints: List[Tuple[int, int]] = []
        for ai, value in plan.concl_bound:
            vid = intern.get(binding[value])
            if vid is None:
                return True
            constraints.append((ai, vid))
        mask = self._candidates(constraints)
        if not mask:
            return True
        typed = self._typed
        for ai, tagged in plan.concl_free:
            mask = mask & typed[ai] if tagged else mask & ~typed[ai]
        if not plan.concl_groups:
            return not mask
        cols = self._cols
        for slot in _slots(mask):
            if all(
                cols[group[0]][slot] == cols[aj][slot]
                for group in plan.concl_groups
                for aj in group[1:]
            ):
                return False
        return True
