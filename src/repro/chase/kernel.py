"""Columnar trigger-matching kernel on integer value ids.

The classic matching path (``extend_through`` -> ``homomorphisms``) probes
the tableau one row at a time through dict buckets keyed by
:class:`~repro.model.values.Value`, and checks every candidate trigger
with an O(|relation|) ``row_embeddings`` scan when the conclusion row is
non-total.  This module replaces both inner loops with a columnar mirror
of the tableau that never hashes a ``Value`` in its hot loop:

* every cell value is interned to a small integer id, and every row is
  mirrored as one tuple of ids in ``Row`` order (attributes sorted by
  name), so a cell is read positionally;
* a compiled dependency numbers its body values as integer variables, and
  a partial match is a flat ``list[int]`` of value ids, one per variable;
  the matching order is compiled too, so each step already knows which of
  its cells probe bound variables, which bind fresh ones, and which must
  repeat a cell of the same row;
* a candidate row set is a bitset -- a plain Python ``int`` whose bit *s*
  is row slot *s* -- and each column maps a value id to the mask of live
  rows carrying it, so "rows matching this partial valuation" is a handful
  of ``&`` operations;
* the violation check of a *total* td (every conclusion cell bound, which
  covers every mvd/jd td) is one lookup of the conclusion's id tuple in
  the set of live row-id tuples; a non-total td intersects the postings of
  its bound conclusion cells, keeps the type-compatible rows for its
  existential cells, and demands column equality where one existential
  value fills several cells -- violated iff the mask is empty.
  :meth:`TriggerKernel.violates` exposes the same check for one
  canonicalized valuation, which is how the incremental strategy answers
  the engine's per-step re-validation without scanning the tableau.

A :class:`~repro.model.valuations.Valuation` is built only when a trigger
is emitted.  The mirror is maintained incrementally from the same
``TdDelta`` / ``EgdDelta`` stream that feeds ``RowIndex``; merged-away rows
keep their slots (dead slots simply leave every mask), so maintenance is
O(touched rows) per step, never a rebuild.

Byte-identity with the classic path is structural: the kernel emits exactly
the trigger *sets* the classic ``extend_through`` emits (the engine's fair
scheduler canonicalizes, dedupes, and sorts every round, so emission order
is free), which the randomized differential suite pins.

The kernel is pure Python and has no dependencies.  ``chase_kernel="auto"``
(the default) runs it; ``"off"`` keeps the classic matcher.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

#: One compiled matching step: ``(probe, fresh, typing, repeat)``.  ``probe``
#: holds ``(column, variable)`` for cells whose variable an earlier step
#: bound, ``fresh`` holds ``(column, variable)`` for the first cell of each
#: variable this step binds, ``typing`` holds ``(column, typed)`` for those
#: same cells, and ``repeat`` holds ``(column, first column)`` for further
#: cells of a variable this step binds.
_Step = Tuple[
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, bool], ...],
    Tuple[Tuple[int, int], ...],
]

#: Leaf checks a plan can need (see :class:`_Plan`).
_EGD, _TOTAL, _MASK = 0, 1, 2


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


def _compile_steps(rows: Sequence, bound: Sequence[int]) -> Tuple[_Step, ...]:
    """Compile body rows, matched in order, into :data:`_Step` tuples.

    ``rows`` are ``(column, variable, typed)`` triples per body row and
    ``bound`` the variables bound before the first of them.
    """
    known = set(bound)
    steps = []
    for cells in rows:
        probe, fresh, typing, repeat = [], [], [], []
        first: Dict[int, int] = {}
        for column, var, typed in cells:
            if var in known:
                probe.append((column, var))
            elif var in first:
                repeat.append((column, first[var]))
            else:
                first[var] = column
                fresh.append((column, var))
                typing.append((column, typed))
        known.update(first)
        steps.append((tuple(probe), tuple(fresh), tuple(typing), tuple(repeat)))
    return tuple(steps)


class _Plan:
    """A compiled dependency lowered to integer variables and columns.

    ``values[i]`` is the body value of variable *i*; a binding is a list of
    value ids indexed by variable.  ``scan`` is the matching order of a
    full scan (body rows in sorted order); ``seeds[p]`` is ``(seed step,
    remaining steps)`` for matches that route body row *p* through a given
    row.

    ``check`` names the leaf test.  ``_EGD``: ``left`` / ``right`` are
    the equated variables.  ``_TOTAL``: ``conclusion`` maps a binding to
    the conclusion's id tuple.  ``_MASK`` (a td with existential cells):
    ``concl_bound`` holds ``(column, variable)`` for bound cells,
    ``concl_free`` holds ``(column, typed)`` for existential ones, and
    ``concl_groups`` the columns that share one existential value, which a
    witness row must equate.
    """

    __slots__ = (
        "values",
        "scan",
        "seeds",
        "check",
        "left",
        "right",
        "conclusion",
        "concl_bound",
        "concl_free",
        "concl_groups",
    )

    def __init__(self, cd: CompiledDependency) -> None:
        var_of: Dict[Value, int] = {}
        rows = []
        for body_row in cd.body_rows:
            cells = []
            for column, value in enumerate(body_row):
                var = var_of.setdefault(value, len(var_of))
                cells.append((column, var, value.tag is not None))
            rows.append(tuple(cells))
        self.values: Tuple[Value, ...] = tuple(var_of)
        self.scan = _compile_steps(rows, ())
        self.seeds = tuple(
            (
                _compile_steps((cells,), ())[0],
                _compile_steps(rows[:p] + rows[p + 1 :], [v for _, v, _ in cells]),
            )
            for p, cells in enumerate(rows)
        )
        self.left = self.right = -1
        self.conclusion = None
        bound: List[Tuple[int, int]] = []
        free: List[Tuple[int, bool]] = []
        groups: Dict[Value, List[int]] = {}
        if not cd.is_td:
            self.check = _EGD
            self.left, self.right = var_of[cd.left], var_of[cd.right]
        else:
            for column, value in enumerate(cd.conclusion):
                var = var_of.get(value)
                if var is not None:
                    bound.append((column, var))
                else:
                    free.append((column, value.tag is not None))
                    groups.setdefault(value, []).append(column)
            if free:
                self.check = _MASK
            else:
                self.check = _TOTAL
                getter = itemgetter(*(var for _, var in bound))
                self.conclusion = (
                    getter if len(bound) > 1 else lambda binding: (getter(binding),)
                )
        self.concl_bound = tuple(bound)
        self.concl_free = tuple(free)
        self.concl_groups = tuple(
            tuple(columns) for columns in groups.values() if len(columns) > 1
        )


class TriggerKernel:
    """Columnar mirror of one relation plus the batched matcher over it.

    One kernel serves one evolving tableau: seed it from the initial
    relation, feed every step's delta to :meth:`apply_delta`, and ask for
    triggers with :meth:`find_triggers` (full scan, used at start-up) or
    :meth:`extend_through` (all matches through one changed row, the
    incremental hot path), and re-check one trigger with :meth:`violates`.
    Emitted valuations are exactly those the classic ``extend_through``
    emits for the same relation.

    ``_rows[slot]`` is the id tuple of the row at ``slot``; ``_live`` maps
    the id tuple of every live row to its slot, so it doubles as the row
    set a total td's conclusion is looked up in.  ``_postings[column]``
    maps a value id to the mask of live rows carrying it in that column,
    so a conjunctive constraint is an ``&`` chain over at most arity-many
    ints.  ``_typed[column]`` masks the live rows whose cell there is
    typed, and ``_typed_count[column]`` counts them, so type filters are
    skipped on columns where every live cell agrees.
    """

    def __init__(self, relation: Relation) -> None:
        nattrs = len(relation.universe.attributes)
        self._intern: Dict[Value, int] = {}
        self._values: List[Value] = []
        self._value_typed: List[bool] = []
        self._rows: List[Tuple[int, ...]] = []
        self._live: Dict[Tuple[int, ...], int] = {}
        self._postings: List[Dict[int, int]] = [{} for _ in range(nattrs)]
        self._typed: List[int] = [0] * nattrs
        self._typed_count: List[int] = [0] * nattrs
        self._alive = 0
        self._plans: Dict[int, Tuple[CompiledDependency, _Plan]] = {}
        for row in relation.rows:
            self._add_row(row)

    # -- mirror maintenance ----------------------------------------------------

    def apply_delta(self, delta: StepDelta) -> None:
        """Mirror one chase step; same discipline as ``RowIndex.apply_delta``."""
        if delta.is_noop:
            return
        for row in getattr(delta, "removed_rows", ()):
            self._discard_row(row)
        for row in delta.changed_rows:
            self._add_row(row)

    def _ids(self, row: Row) -> Tuple[int, ...]:
        """The id tuple of ``row``, interning values never seen before."""
        intern = self._intern
        ids = []
        for value in row:
            vid = intern.get(value)
            if vid is None:
                vid = intern[value] = len(self._values)
                self._values.append(value)
                self._value_typed.append(value.tag is not None)
            ids.append(vid)
        return tuple(ids)

    def _add_row(self, row: Row) -> None:
        ids = self._ids(row)
        if ids in self._live:
            return
        slot = len(self._rows)
        self._rows.append(ids)
        self._live[ids] = slot
        bit = 1 << slot
        self._alive |= bit
        postings = self._postings
        value_typed = self._value_typed
        for column, vid in enumerate(ids):
            bucket = postings[column]
            bucket[vid] = bucket.get(vid, 0) | bit
            if value_typed[vid]:
                self._typed[column] |= bit
                self._typed_count[column] += 1

    def _discard_row(self, row: Row) -> None:
        slot = self._live.pop(self._ids(row), None)
        if slot is None:
            return
        bit = 1 << slot
        self._alive &= ~bit
        postings = self._postings
        value_typed = self._value_typed
        for column, vid in enumerate(self._rows[slot]):
            bucket = postings[column]
            remaining = bucket[vid] & ~bit
            if remaining:
                bucket[vid] = remaining
            else:
                del bucket[vid]
            if value_typed[vid]:
                self._typed[column] &= ~bit
                self._typed_count[column] -= 1

    # -- matching --------------------------------------------------------------

    def _plan(self, cd: CompiledDependency) -> _Plan:
        # Keyed by identity: hashing a dependency hashes its whole body.
        # The entry holds ``cd`` itself, so the id stays its own.
        entry = self._plans.get(id(cd))
        if entry is None:
            entry = self._plans[id(cd)] = (cd, _Plan(cd))
        return entry[1]

    def find_triggers(
        self, cd: CompiledDependency, emit: Callable[[Valuation], None]
    ) -> None:
        """Emit every active trigger of ``cd`` against the mirrored relation."""
        if not cd.is_td and cd.trivial:
            return
        plan = self._plan(cd)
        binding = [-1] * len(plan.values)
        if plan.scan:
            self._search(plan, plan.scan, 0, binding, emit)
        elif self._violates(plan, binding):
            emit(self._valuation(plan, binding))

    def extend_through(
        self,
        cd: CompiledDependency,
        row: Row,
        emit: Callable[[Valuation], None],
    ) -> None:
        """Emit every active trigger of ``cd`` whose image includes ``row``."""
        self.extend_ids(self._ids(row), ((cd, emit),))

    def live_ids(self, row: Row) -> Optional[Tuple[int, ...]]:
        """The id tuple of ``row`` if the mirror holds it, else None."""
        intern = self._intern
        ids = []
        for value in row:
            vid = intern.get(value)
            if vid is None:
                return None
            ids.append(vid)
        ids = tuple(ids)
        return ids if ids in self._live else None

    def extend_ids(
        self,
        ids: Tuple[int, ...],
        emitters: Sequence[Tuple[CompiledDependency, Callable[[Valuation], None]]],
    ) -> None:
        """:meth:`extend_through` for the row with id tuple ``ids``, for
        every ``(dependency, emit)`` pair at once."""
        value_typed = self._value_typed
        for cd, emit in emitters:
            if not cd.is_td and cd.trivial:
                continue
            plan = self._plan(cd)
            for (_, fresh, typing, repeat), rest in plan.seeds:
                if any(value_typed[ids[column]] != typed for column, typed in typing):
                    continue
                if any(ids[column] != ids[first] for column, first in repeat):
                    continue
                binding = [-1] * len(plan.values)
                for column, var in fresh:
                    binding[var] = ids[column]
                if rest:
                    self._search(plan, rest, 0, binding, emit)
                elif self._violates(plan, binding):
                    emit(self._valuation(plan, binding))

    def _search(
        self,
        plan: _Plan,
        steps: Tuple[_Step, ...],
        depth: int,
        binding: List[int],
        emit: Callable[[Valuation], None],
    ) -> None:
        """Extend ``binding`` through ``steps[depth:]``; emit violations.

        A step's variables are bound by earlier steps or by the step
        itself, so a candidate row only writes its fresh variables into
        ``binding``: the next candidate overwrites them, and no later step
        reads a variable before binding it.
        """
        probe, fresh, typing, repeat = steps[depth]
        postings = self._postings
        mask = self._alive
        for column, var in probe:
            mask &= postings[column].get(binding[var], 0)
            if not mask:
                return
        if typing:
            mask = self._type_filter(mask, typing)
            if not mask:
                return
        rows = self._rows
        last = depth + 1 == len(steps)
        check = plan.check
        while mask:
            low = mask & -mask
            mask ^= low
            cells = rows[low.bit_length() - 1]
            if repeat and any(cells[c] != cells[first] for c, first in repeat):
                continue
            for column, var in fresh:
                binding[var] = cells[column]
            if not last:
                self._search(plan, steps, depth + 1, binding, emit)
            elif check == _TOTAL:
                if plan.conclusion(binding) not in self._live:
                    emit(self._valuation(plan, binding))
            elif self._violates(plan, binding):
                emit(self._valuation(plan, binding))

    def _type_filter(self, mask: int, typing: Sequence[Tuple[int, bool]]) -> int:
        """``mask`` narrowed to rows whose cell in each ``(column, typed)``
        pair is typed (or untyped) accordingly."""
        live = len(self._live)
        for column, typed in typing:
            count = self._typed_count[column]
            if typed and count != live:
                mask &= self._typed[column]
            elif not typed and count:
                mask &= ~self._typed[column]
        return mask

    def _valuation(self, plan: _Plan, binding: List[int]) -> Valuation:
        values = self._values
        return Valuation(
            {value: values[vid] for value, vid in zip(plan.values, binding)}
        )

    # -- violation checks ------------------------------------------------------

    def violates(self, cd: CompiledDependency, alpha: Valuation) -> bool:
        """Whether ``alpha`` is an active trigger of ``cd`` on the mirror.

        ``alpha`` must already be canonicalized against the tableau the
        mirror holds.  Answers exactly what ``steps.violates`` answers for
        that tableau, with one lookup (total td) or one mask computation
        instead of a ``row_embeddings`` scan.  A trivial egd is never
        violated.
        """
        if not cd.is_td:
            return not cd.trivial and alpha(cd.left) != alpha(cd.right)
        plan = self._plan(cd)
        binding = [-1] * len(plan.values)
        intern = self._intern
        for _, var in plan.concl_bound:
            vid = intern.get(alpha(plan.values[var]))
            if vid is None:
                # No mirrored row carries the value, so none witnesses.
                return True
            binding[var] = vid
        return self._violates(plan, binding)

    def _violates(self, plan: _Plan, binding: List[int]) -> bool:
        """No mirrored row witnesses the conclusion under ``binding``.

        Total tds look their conclusion's id tuple up in the live rows.
        Otherwise bound conclusion cells intersect their postings, free
        cells keep only type-compatible rows (``check_column_value``
        guarantees a typed cell in column A carries tag A, so typedness
        alone decides compatibility), and duplicated existential columns
        must agree cell-wise.
        """
        if plan.check == _EGD:
            return binding[plan.left] != binding[plan.right]
        if plan.check == _TOTAL:
            return plan.conclusion(binding) not in self._live
        postings = self._postings
        mask = self._alive
        for column, var in plan.concl_bound:
            mask &= postings[column].get(binding[var], 0)
            if not mask:
                return True
        mask = self._type_filter(mask, plan.concl_free)
        if not plan.concl_groups or not mask:
            return not mask
        rows = self._rows
        while mask:
            low = mask & -mask
            mask ^= low
            cells = rows[low.bit_length() - 1]
            if all(
                cells[group[0]] == cells[column]
                for group in plan.concl_groups
                for column in group[1:]
            ):
                return False
        return True
