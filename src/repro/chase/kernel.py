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
  :meth:`KernelTrigger.applies` runs the same check on a trigger's
  canonicalized ids, which is how the incremental strategy answers the
  engine's per-step re-validation without scanning the tableau.

A match leaves the kernel as its id tuple (one value id per variable).
The incremental strategy keeps it that way as a :class:`KernelTrigger`
until a step applies it: the round is canonicalized through the kernel's
id-level merge map, grouped and ordered on ids, and re-validated on ids,
and a :class:`~repro.model.valuations.Valuation` is built only for a
trigger that applies (or when something reads ``trigger.valuation``).  The
mirror is maintained incrementally from the same ``TdDelta`` / ``EgdDelta``
stream that feeds ``RowIndex``; merged-away rows keep their slots (dead
slots simply leave every mask), so maintenance is O(touched rows) per step,
never a rebuild.

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
    "KernelTrigger",
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

#: The id tuple of a match: ``ids[i]`` is the image of plan variable *i*.
Ids = Tuple[int, ...]


def _picker(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``seq -> tuple(seq[i] for i in indices)``, through ``itemgetter``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (index,) = indices
        return lambda seq: (seq[index],)
    return lambda seq: ()


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

    Two pickers key a match's id tuple for the engine's round order.
    ``group`` takes the images that decide the step -- a td's conclusion
    cells bound by the body, an egd's two sides -- so two matches with one
    group add the same row or merge the same pair.  ``order`` takes every
    image in the order of the variables' ``(name, tag or "")``; the body
    values are distinct values, so these keys are distinct and comparing
    two matches' images in that order is comparing their valuations'
    ``_valuation_key``.
    """

    __slots__ = (
        "cd",
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
        "group",
        "order",
    )

    def __init__(self, cd: CompiledDependency) -> None:
        self.cd = cd
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
        if self.check == _EGD:
            self.group = _picker((self.left, self.right))
        else:
            self.group = _picker(sorted({var for _, var in bound}))
        source_keys = [(value.name, value.tag or "") for value in self.values]
        assert len(set(source_keys)) == len(source_keys), "duplicate body value key"
        self.order = _picker(
            sorted(range(len(self.values)), key=source_keys.__getitem__)
        )


class TriggerKernel:
    """Columnar mirror of one relation plus the batched matcher over it.

    One kernel serves one evolving tableau: seed it from the initial
    relation, feed every step's delta to :meth:`apply_delta`, and ask for
    matches with :meth:`find_ids` (full scan, used at start-up) or
    :meth:`extend_ids` (all matches through one changed row, the
    incremental hot path).  Both hand each active match to ``emit`` as its
    id tuple; :meth:`find_triggers` and :meth:`extend_through` are the same
    searches emitting valuations, exactly those the classic
    ``extend_through`` emits for the same relation.

    ``_rows[slot]`` is the id tuple of the row at ``slot``; ``_live`` maps
    the id tuple of every live row to its slot, so it doubles as the row
    set a total td's conclusion is looked up in.  ``_postings[column]``
    maps a value id to the mask of live rows carrying it in that column,
    so a conjunctive constraint is an ``&`` chain over at most arity-many
    ints.  ``_typed[column]`` masks the live rows whose cell there is
    typed, and ``_typed_count[column]`` counts them, so type filters are
    skipped on columns where every live cell agrees.

    ``_canon[vid]`` is the id of the value's current representative: each
    merge the deltas report relabels the ids merged into the replaced
    value (``_merged`` lists them per representative), so canonicalizing
    an id tuple is one lookup per id, and none before the first merge.
    """

    def __init__(self, relation: Relation) -> None:
        nattrs = len(relation.universe.attributes)
        self._intern: Dict[Value, int] = {}
        self._values: List[Value] = []
        self._value_typed: List[bool] = []
        self._keys: List[Tuple[str, str]] = []
        self._canon: List[int] = []
        self._merged: Dict[int, List[int]] = {}
        self._rows: List[Ids] = []
        self._live: Dict[Ids, int] = {}
        self._postings: List[Dict[int, int]] = [{} for _ in range(nattrs)]
        self._typed: List[int] = [0] * nattrs
        self._typed_count: List[int] = [0] * nattrs
        self._alive = 0
        self._plans: Dict[int, _Plan] = {}
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
        if hasattr(delta, "kept"):
            self._merge(delta.replaced, delta.kept)

    def _new_id(self, value: Value) -> int:
        vid = self._intern[value] = len(self._values)
        self._values.append(value)
        self._value_typed.append(value.tag is not None)
        self._keys.append((value.name, value.tag or ""))
        self._canon.append(vid)
        return vid

    def _ids(self, row: Row) -> Ids:
        """The id tuple of ``row``, interning values never seen before."""
        intern = self._intern
        ids = []
        for value in row:
            vid = intern.get(value)
            if vid is None:
                vid = self._new_id(value)
            ids.append(vid)
        return tuple(ids)

    def _merge(self, replaced: Value, kept: Value) -> None:
        """Record that ``replaced`` now reads ``kept`` (both representatives)."""
        gone = self._intern.get(replaced)
        if gone is None:
            return  # never in a row, so in no match either
        into = self._intern.get(kept)
        if into is None:
            into = self._new_id(kept)
        moved = self._merged.pop(gone, None) or [gone]
        canon = self._canon
        for vid in moved:
            canon[vid] = into
        self._merged.setdefault(into, [into]).extend(moved)

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

    def plan(self, cd: CompiledDependency) -> _Plan:
        """The compiled plan of ``cd`` on this kernel (built once)."""
        # Keyed by identity: hashing a dependency hashes its whole body.
        # The plan holds ``cd`` itself, so the id stays its own.
        plan = self._plans.get(id(cd))
        if plan is None:
            plan = self._plans[id(cd)] = _Plan(cd)
        return plan

    def find_ids(self, cd: CompiledDependency, emit: Callable[[Ids], None]) -> None:
        """Emit the id tuple of every active trigger of ``cd``."""
        if not cd.is_td and cd.trivial:
            return
        plan = self.plan(cd)
        binding = [-1] * len(plan.values)
        if plan.scan:
            self._search(plan, plan.scan, 0, binding, emit)
        elif self._violates(plan, binding):
            emit(tuple(binding))

    def find_triggers(
        self, cd: CompiledDependency, emit: Callable[[Valuation], None]
    ) -> None:
        """Emit every active trigger of ``cd`` against the mirrored relation."""
        plan = self.plan(cd)
        self.find_ids(cd, lambda ids: emit(self.valuation(plan, ids)))

    def extend_through(
        self,
        cd: CompiledDependency,
        row: Row,
        emit: Callable[[Valuation], None],
    ) -> None:
        """Emit every active trigger of ``cd`` whose image includes ``row``."""
        plan = self.plan(cd)
        self.extend_ids(
            self._ids(row), ((cd, lambda ids: emit(self.valuation(plan, ids))),)
        )

    def live_ids(self, row: Row) -> Optional[Ids]:
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
        ids: Ids,
        emitters: Sequence[Tuple[CompiledDependency, Callable[[Ids], None]]],
    ) -> None:
        """Emit the id tuple of every active trigger whose image includes the
        row with id tuple ``ids``, for every ``(dependency, emit)`` pair."""
        value_typed = self._value_typed
        for cd, emit in emitters:
            if not cd.is_td and cd.trivial:
                continue
            plan = self.plan(cd)
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
                    emit(tuple(binding))

    def _search(
        self,
        plan: _Plan,
        steps: Tuple[_Step, ...],
        depth: int,
        binding: List[int],
        emit: Callable[[Ids], None],
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
                    emit(tuple(binding))
            elif self._violates(plan, binding):
                emit(tuple(binding))

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

    # -- triggers as ids ---------------------------------------------------------

    def canonical(self, ids: Ids) -> Ids:
        """``ids`` with every value replaced by its current representative.

        Returns ``ids`` itself when nothing in it was merged away.
        """
        if not self._merged:
            return ids
        canon = tuple(map(self._canon.__getitem__, ids))
        return ids if canon == ids else canon

    def valuation(self, plan: _Plan, ids: Ids) -> Valuation:
        """The valuation of the match ``ids`` of ``plan``.

        The kernel's type filters bind typed body values to typed cells of
        their own column and untyped ones to untyped cells, so the pairs
        are valid without re-checking them.
        """
        values = self._values
        return Valuation._trusted(
            {value: values[vid] for value, vid in zip(plan.values, ids)}
        )

    # -- violation checks ------------------------------------------------------

    def _violates(self, plan: _Plan, binding: Sequence[int]) -> bool:
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


class KernelTrigger:
    """A trigger held as one kernel's value ids until a step applies it.

    ``ids[i]`` is the image of the plan's variable *i*.  ``dependency``,
    :meth:`kind` and ``valuation`` answer as on
    :class:`~repro.chase.steps.Trigger`; the valuation is built on first
    access, so checkpoint round records and callers that inspect a round
    read it unchanged, while the engine orders the round
    (:meth:`round_key`) and re-validates each trigger (:meth:`applies`) on
    the ids alone.
    """

    __slots__ = ("_kernel", "_plan", "ids", "_valuation")

    def __init__(self, kernel: TriggerKernel, plan: _Plan, ids: Ids) -> None:
        self._kernel = kernel
        self._plan = plan
        self.ids = ids
        self._valuation: Optional[Valuation] = None

    @property
    def dependency(self):
        """The td or egd this trigger fires."""
        return self._plan.cd.dependency

    def kind(self) -> str:
        """``"td"`` or ``"egd"``."""
        return "td" if self._plan.cd.is_td else "egd"

    @property
    def valuation(self) -> Valuation:
        """The trigger's valuation (built once, on first access)."""
        if self._valuation is None:
            self._valuation = self._kernel.valuation(self._plan, self.ids)
        return self._valuation

    def round_key(self, position: int) -> Tuple["KernelTrigger", tuple, tuple]:
        """``(canonical trigger, group, order)`` for the engine's round.

        The canonical trigger holds the ids' current representatives;
        ``group`` is ``position`` plus the images that decide the step, and
        ``order`` is ``position`` plus every image's ``(name, tag or "")``
        in the plan's source order -- the order ``_valuation_key`` gives.
        """
        kernel, plan = self._kernel, self._plan
        ids = kernel.canonical(self.ids)
        canonical = self if ids is self.ids else KernelTrigger(kernel, plan, ids)
        order = tuple(map(kernel._keys.__getitem__, plan.order(ids)))
        return canonical, (position, plan.group(ids)), (position, order)

    def applies(self) -> Optional[Valuation]:
        """The canonical valuation if the trigger is still active, else None.

        Re-canonicalizes the ids and asks the mirror, so only a trigger
        that applies builds a valuation.
        """
        kernel, plan = self._kernel, self._plan
        ids = kernel.canonical(self.ids)
        if not kernel._violates(plan, ids):
            return None
        if ids is self.ids:
            return self.valuation
        return kernel.valuation(plan, ids)

    def __repr__(self) -> str:
        return f"KernelTrigger({self.dependency!r}, {self.valuation!r})"
