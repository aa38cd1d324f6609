"""Single chase steps: trigger discovery and application.

The chase (Maier-Mendelzon-Sagiv; Beeri-Vardi; used by the paper in the
remark after Lemma 10) operates on a relation viewed as a tableau:

* a **td step** for ``(w, I)`` fires on a valuation ``alpha`` embedding the
  body ``I`` that cannot be extended to ``w``; it adds the image of ``w``
  with fresh values for the existential components;
* an **egd step** for ``(a = b, I)`` fires on an embedding with
  ``alpha(a) != alpha(b)``; it identifies the two values throughout the
  tableau.

This module implements the two step kinds as pure functions on an explicit
:class:`ChaseState`, so the engine's scheduling policy stays separate from
the step semantics (and so the steps can be unit-tested in isolation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.chase.row_index import RowIndex
from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.td import TemplateDependency
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation, homomorphisms, row_embeddings
from repro.model.values import Value
from repro.util.errors import SchemaError
from repro.util.fresh import FreshSupply
from repro.util.intern import intern

ChaseDependency = Union[TemplateDependency, EqualityGeneratingDependency]

#: Fresh values by ``(name, tag)``.  Every chase counts through the same
#: fresh names, so the tableaux that outcome caches keep share one value
#: per name instead of holding a copy each.
_FRESH_VALUES: Dict[Tuple[str, Optional[str]], Value] = {}

#: Rows that td steps added, by content.  Chases run over the same value
#: names (dependency tableaux, the shared fresh values), so most rows a
#: chase adds equal a row an earlier chase added -- 84% of them across 200
#: distinct mvd-tree problems over six attributes -- and the tableaux that
#: outcome caches keep share one row each instead of holding a copy.
_STEP_ROWS: Dict[Row, Row] = {}


@dataclass(frozen=True)
class TdDelta:
    """What a td step changed: the one row it added to the tableau."""

    row: Row

    @property
    def changed_rows(self) -> Tuple[Row, ...]:
        """The tableau rows whose content is new after this step."""
        return (self.row,)

    @property
    def is_noop(self) -> bool:
        return False


@dataclass(frozen=True)
class EgdDelta:
    """What an egd step changed: the merged value pair and the rewritten rows.

    ``changed_rows`` holds the *post-rewrite* images of every tableau row that
    contained the replaced value -- exactly the rows through which new
    homomorphisms can appear, which is what the incremental strategy extends
    partial matches through.  ``removed_rows`` holds the pre-rewrite
    originals, so an incrementally-maintained row index can evict them in
    O(1) instead of rescanning the tableau.  A step that found the two sides
    already merged is a no-op (``kept == replaced`` and no changed rows).
    """

    kept: Value
    replaced: Value
    changed_rows: frozenset[Row] = frozenset()
    removed_rows: frozenset[Row] = frozenset()

    @property
    def is_noop(self) -> bool:
        return self.kept == self.replaced


StepDelta = Union[TdDelta, EgdDelta]


@dataclass(frozen=True)
class CompiledDependency:
    """Per-dependency precomputation shared by every scheduling strategy.

    ``find_triggers`` used to rebuild ``dependency.body.values()`` (a full
    scan of the body) on every call, in the hottest loop of the engine; this
    cache hoists the body values, the deterministic body-row order, the
    body-minus-one-row relations used for delta matching, and the egd
    triviality / td totality flags out of the loop.
    """

    dependency: ChaseDependency
    is_td: bool
    body: Relation
    body_rows: Tuple[Row, ...]
    body_rest: Tuple[Relation, ...]
    body_values: frozenset[Value]
    conclusion: Optional[Row]
    #: The conclusion's values that occur in the body, in column order
    #: without repeats: their images decide which row a td step adds.
    conclusion_bound: Tuple[Value, ...]
    is_total: bool
    left: Optional[Value]
    right: Optional[Value]
    trivial: bool

    def kind(self) -> str:
        return "td" if self.is_td else "egd"


@lru_cache(maxsize=1024)
def compile_dependency(dependency: ChaseDependency) -> CompiledDependency:
    """Build (and memoize) the :class:`CompiledDependency` for a td/egd."""
    body = dependency.body
    body_rows = tuple(body.sorted_rows())
    body_rest = tuple(
        Relation(body.universe, [r for r in body_rows if r is not row])
        for row in body_rows
    )
    body_values = body.values()
    if isinstance(dependency, TemplateDependency):
        conclusion = dependency.conclusion
        return CompiledDependency(
            dependency=dependency,
            is_td=True,
            body=body,
            body_rows=body_rows,
            body_rest=body_rest,
            body_values=body_values,
            conclusion=conclusion,
            conclusion_bound=tuple(
                dict.fromkeys(value for value in conclusion if value in body_values)
            ),
            is_total=conclusion.values() <= body_values,
            left=None,
            right=None,
            trivial=False,
        )
    return CompiledDependency(
        dependency=dependency,
        is_td=False,
        body=body,
        body_rows=body_rows,
        body_rest=body_rest,
        body_values=body_values,
        conclusion=None,
        conclusion_bound=(),
        is_total=True,
        left=dependency.left,
        right=dependency.right,
        trivial=dependency.is_trivial(),
    )


class ChaseState:
    """Mutable chase state: the live tableau plus the merge bookkeeping.

    The state owns one mutable set of the tableau's rows.  Each step lands
    its delta on that set through :meth:`apply_delta`, at a cost
    proportional to the rows the step changed, and on the lazily-built
    :class:`~repro.chase.row_index.RowIndex` too.  :attr:`relation`
    freezes the live rows into an immutable
    :class:`~repro.model.relations.Relation` only when one is read (and
    keeps it until the next step), so a relation read from the state never
    changes under later steps.  Assigning :attr:`relation` replaces the
    live rows and drops the index, which is rebuilt, with one full scan,
    on the next :attr:`row_index` access.
    """

    __slots__ = ("fresh", "parent", "_universe", "_rows", "_frozen", "_index")

    def __init__(
        self,
        relation: Relation,
        fresh: FreshSupply,
        parent: Optional[Dict[Value, Value]] = None,
    ) -> None:
        self.fresh = fresh
        self.parent: Dict[Value, Value] = {} if parent is None else parent
        self.relation = relation

    @property
    def relation(self) -> Relation:
        """The tableau as an immutable relation, frozen from the live rows."""
        if self._frozen is None:
            self._frozen = self._freeze()
        return self._frozen

    @relation.setter
    def relation(self, relation: Relation) -> None:
        self._universe = relation.universe
        self._rows = set(relation.rows)
        self._frozen = relation
        self._index = None

    @property
    def universe(self) -> Universe:
        """The universe the tableau is over."""
        return self._universe

    def __len__(self) -> int:
        """The number of rows in the live tableau."""
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    @property
    def row_index(self) -> RowIndex:
        """The value/attribute -> rows index over the *current* tableau.

        Built from the live rows on first access (the one unavoidable full
        scan) and maintained delta-by-delta through :meth:`apply_delta`
        afterwards.
        """
        if self._index is None:
            self._index = RowIndex(self._rows)
        return self._index

    def apply_delta(self, delta: StepDelta) -> None:
        """Land one step's delta on the live rows and the row index.

        An egd delta's pre-rewrite rows leave before the rewritten images
        enter, the discipline of ``RowIndex.apply_delta``.
        """
        if delta.is_noop:
            return
        rows = self._rows
        rows.difference_update(getattr(delta, "removed_rows", ()))
        rows.update(delta.changed_rows)
        if self._index is not None:
            self._index.apply_delta(delta)
        self._frozen = None

    def _freeze(self) -> Relation:
        """A relation holding a copy of the live rows."""
        return Relation._trusted(self._universe, _frozen_rows(self._rows))

    def find(self, value: Value) -> Value:
        """Current representative of ``value`` (union-find with path compression)."""
        root = value
        seen = []
        while root in self.parent:
            seen.append(root)
            root = self.parent[root]
        for node in seen:
            self.parent[node] = root
        return root

    def canonicalize(self, valuation: Valuation) -> Valuation:
        """Re-map a valuation's targets through the current representatives."""
        return Valuation({k: self.find(v) for k, v in valuation.as_dict().items()})

    def roots(self) -> Dict[Value, Value]:
        """A snapshot mapping every merged value to its current representative.

        :meth:`find` path-compresses, i.e. it *mutates* ``parent`` -- so code
        that re-checks triggers while walking merge bookkeeping (the engine's
        ``trigger_is_active`` re-checks do) must not iterate ``parent``
        directly while calling ``find``.  This helper materialises the whole
        value -> root mapping first (iterating over a frozen copy of the
        keys), so callers get a stable snapshot regardless of compression.
        """
        return {value: self.find(value) for value in tuple(self.parent)}


@dataclass(frozen=True)
class Trigger:
    """An active trigger: a dependency together with a violating valuation."""

    dependency: ChaseDependency
    valuation: Valuation

    def kind(self) -> str:
        """``"td"`` or ``"egd"``."""
        if isinstance(self.dependency, TemplateDependency):
            return "td"
        return "egd"


def td_is_violated(
    compiled: CompiledDependency, alpha: Valuation, relation: Relation
) -> bool:
    """Whether the td's conclusion fails to embed under ``alpha``.

    Total tds (no existential values) have a fully determined witness row, so
    the check is one set membership instead of a scan of the tableau.
    """
    if compiled.is_total:
        return alpha.apply_row(compiled.conclusion) not in relation
    witness = next(
        row_embeddings(compiled.conclusion, relation, alpha, compiled.body_values),
        None,
    )
    return witness is None


def violates(
    compiled: CompiledDependency, alpha: Valuation, relation: Relation
) -> bool:
    """Whether ``alpha`` is an *active* trigger binding for the dependency."""
    if compiled.is_td:
        return td_is_violated(compiled, alpha, relation)
    if compiled.trivial:
        return False
    return alpha(compiled.left) != alpha(compiled.right)


def find_triggers(
    state: ChaseState,
    dependency: Union[ChaseDependency, CompiledDependency],
    limit: Optional[int] = None,
    index: Optional[Dict] = None,
) -> Iterator[Trigger]:
    """Enumerate active triggers of ``dependency`` against the current tableau.

    Accepts either a raw td/egd or a pre-built :class:`CompiledDependency`
    (the engine compiles once per run and passes the compiled form here).
    ``index`` is an optional prebuilt (attribute, value) -> rows index of the
    tableau (see :func:`repro.model.valuations.homomorphisms`); callers that
    maintain one persistently -- the incremental strategy shares the
    state-owned :attr:`ChaseState.row_index` buckets -- skip the per-call
    indexing pass.
    """
    compiled = (
        dependency
        if isinstance(dependency, CompiledDependency)
        else compile_dependency(dependency)
    )
    relation = state.relation
    if not compiled.is_td and compiled.trivial:
        return
    count = 0
    for alpha in homomorphisms(compiled.body, relation, index=index):
        if violates(compiled, alpha, relation):
            yield Trigger(compiled.dependency, alpha)
            count += 1
            if limit is not None and count >= limit:
                return


def trigger_is_active(
    state: ChaseState,
    trigger: Trigger,
    compiled: Optional[CompiledDependency] = None,
) -> Optional[Valuation]:
    """Re-check a (possibly stale) trigger against the current tableau.

    Earlier steps in the same round may have satisfied the trigger (a td's
    conclusion may now embed, or an egd's values may already have been
    merged) or renamed its target values.  Returns the canonicalized
    valuation if the trigger still fires, ``None`` otherwise.
    """
    # The canonicalized valuation is still a homomorphism: merges replace
    # values uniformly in both the valuation targets and the tableau.
    alpha = state.canonicalize(trigger.valuation)
    if compiled is None:
        compiled = compile_dependency(trigger.dependency)
    if violates(compiled, alpha, state.relation):
        return alpha
    return None


def apply_td_step(
    state: ChaseState,
    dependency: TemplateDependency,
    alpha: Valuation,
    body_values: Optional[frozenset[Value]] = None,
) -> TdDelta:
    """Apply a td step: add the image of the conclusion row with fresh nulls.

    Values of the conclusion that occur in the body are mapped through
    ``alpha``; the existential values each get one fresh value (shared across
    columns if the same existential value occurs more than once), tagged with
    the same attribute domain as the original so typedness is preserved.

    ``body_values`` lets the engine pass its precomputed
    ``CompiledDependency.body_values`` instead of rescanning the body per
    step.  Returns the :class:`TdDelta` recording the added row.
    """
    if body_values is None:
        body_values = dependency.body.values()
    universe = state.universe
    conclusion = dependency.conclusion
    if conclusion.scheme != universe.scheme:
        raise SchemaError(
            f"td conclusion {conclusion!r} is not over universe "
            f"{''.join(a.name for a in universe)}"
        )
    fresh_for: Dict[Value, Value] = {}
    cells = []
    for value in conclusion:
        if value in body_values:
            cells.append(alpha(value))
        else:
            if value not in fresh_for:
                fresh_for[value] = intern(
                    _FRESH_VALUES,
                    (state.fresh.next(), value.tag),
                    lambda key: Value(*key),
                    limit=1 << 14,
                )
            cells.append(fresh_for[value])
    # alpha respects typing and fresh values copy their tag, so the image
    # is valid for the conclusion's scheme, which is the tableau's.
    new_row = intern(_STEP_ROWS, conclusion._image(cells), limit=1 << 14)
    delta = TdDelta(row=new_row)
    state.apply_delta(delta)
    return delta


def apply_egd_step(
    state: ChaseState,
    dependency: EqualityGeneratingDependency,
    alpha: Valuation,
    initial_values: frozenset[Value],
) -> EgdDelta:
    """Apply an egd step: identify ``alpha(a)`` and ``alpha(b)`` in the tableau.

    The surviving representative is chosen deterministically: values of the
    initial instance are preferred over chase-introduced nulls, and ties are
    broken by name, so repeated runs produce identical tableaux.

    The rows to rewrite are located through the state's persistent
    value -> rows index, each checked against the live rows (O(|touched
    rows|), not O(|tableau|)), so a long merge cascade costs work
    proportional to the rows it actually rewrites.

    Returns the :class:`EgdDelta` recording the (kept, replaced) pair and the
    post-rewrite images of every row the merge touched.
    """
    left = state.find(alpha(dependency.left))
    right = state.find(alpha(dependency.right))
    if left == right:
        return EgdDelta(kept=left, replaced=right)
    kept, replaced = _choose_representative(left, right, initial_values)
    state.parent[replaced] = kept

    def substitute(value: Value) -> Value:
        return kept if value == replaced else value

    removed = state.row_index.rows_containing(replaced, state)
    # kept and replaced share a domain, so each image stays valid.
    changed = frozenset(
        row._image([substitute(value) for value in row]) for row in removed
    )
    delta = EgdDelta(
        kept=kept, replaced=replaced, changed_rows=changed, removed_rows=removed
    )
    state.apply_delta(delta)
    return delta


def _frozen_rows(rows: set) -> frozenset:
    """``frozenset(rows)``, with a hash table no larger than it needs.

    ``frozenset(s)`` sizes its table at the first power of two above
    ``2 * len(s)``, so a power-of-two row count gets twice the table that
    adding the last row to a frozenset of the others gives.  Outcome
    caches keep chase results, and an mvd chain's tableau has ``2**(k-1)``
    rows, so build those the smaller way.
    """
    count = len(rows)
    if count < 8 or count & (count - 1):
        return frozenset(rows)
    rest = set(rows)
    last = rest.pop()
    return frozenset(rest).union((last,))


def _choose_representative(
    left: Value, right: Value, initial_values: frozenset[Value]
) -> tuple[Value, Value]:
    left_initial = left in initial_values
    right_initial = right in initial_values
    if left_initial and not right_initial:
        return left, right
    if right_initial and not left_initial:
        return right, left
    if (left.name, left.tag or "") <= (right.name, right.tag or ""):
        return left, right
    return right, left


def initial_state(
    instance: Relation,
    fresh_prefix: str = "n",
    extra_reserved: Iterable[str] = (),
) -> ChaseState:
    """Build the starting chase state for an instance.

    The fresh-value supply is seeded with every value name already present so
    chase nulls never collide with instance values.
    """
    reserved = {v.name for v in instance.values()}
    reserved.update(extra_reserved)
    return ChaseState(
        relation=instance,
        fresh=FreshSupply(prefix=fresh_prefix, reserved=reserved),
    )
