"""Pluggable chase scheduling: rescan and incremental.

The engine's round loop is strategy-agnostic: at the top of each round it
asks its :class:`ChaseStrategy` for the triggers to consider, applies them
one at a time (re-validating each against the live tableau), and feeds
every resulting :class:`~repro.chase.steps.StepDelta` back to the strategy.
The implementations answer "which triggers?" very differently:

* :class:`RescanStrategy` re-enumerates *all* homomorphisms of *all*
  dependency bodies against the *whole* tableau every round --
  O(deps x |tableau|^arity) per round.  It is kept as the reference oracle
  (pin it via ``ChaseBudget(chase_strategy="rescan")`` when debugging).
* :class:`IncrementalStrategy` seeds a trigger worklist from the initial
  tableau once, then maintains it from step deltas: a new row (td step) or
  the rewritten rows of a merge (egd step) are the only places a *new*
  homomorphism can appear, so only partial matches through those rows are
  extended, once per round at the barrier.  A round then costs work
  proportional to what changed.  On the columnar kernel each step also
  lands on the kernel's column mirror as it applies, and each trigger
  stays a tuple of kernel value ids (a
  :class:`~repro.chase.kernel.KernelTrigger`) until a step applies it, so
  the engine orders the round and answers the per-step re-validation on
  ids, with one lookup or mask computation instead of a row-by-row scan of
  the tableau.

Both strategies feed the same fair round loop and produce identical chase
results; see ``tests/chase/test_differential.py`` for the property test and
:mod:`repro.chase.engine` for why the per-round trigger *sets* coincide.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Set, Tuple, Union

from repro.chase.kernel import Ids, KernelTrigger, TriggerKernel, resolve_kernel
from repro.chase.steps import (
    ChaseDependency,
    ChaseState,
    CompiledDependency,
    StepDelta,
    Trigger,
    find_triggers,
    trigger_is_active,
    violates,
)
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation, homomorphisms
from repro.model.values import Value
from repro.util.errors import ReproError


class StrategyError(ReproError):
    """An unknown or misconfigured chase scheduling strategy."""


class ChaseStrategy(Protocol):
    """The scheduling seam of the chase engine.

    A strategy is (re)initialised per run via :meth:`start`, asked for one
    round's trigger candidates via :meth:`next_round` (an empty answer means
    the chase terminated), and told about every applied step via
    :meth:`observe`.  Candidates may be stale -- the engine re-validates each
    against the live tableau before applying it -- but a strategy must never
    *omit* a trigger that is active at the start of a round, or the chase
    would stop being a complete semi-decision procedure.

    A strategy may also define ``trigger_is_active(state, trigger,
    compiled)`` with the contract of
    :func:`repro.chase.steps.trigger_is_active`; the engine then
    re-validates through it instead of through the reference check.  A
    trigger may key itself for the engine's round order through
    ``round_key(position)`` (as :class:`~repro.chase.kernel.KernelTrigger`
    does); any other is keyed by its valuation.
    """

    name: str

    def start(
        self, state: ChaseState, compiled: Sequence[CompiledDependency]
    ) -> None:
        """Bind the run's mutable state and reset internal bookkeeping."""
        ...

    def next_round(self) -> List[Trigger]:
        """Trigger candidates for the next round (empty = no active triggers)."""
        ...

    def observe(self, delta: StepDelta) -> None:
        """Account for one applied step's delta."""
        ...


class RescanStrategy:
    """Fair-round scheduling by full re-enumeration (the pre-refactor engine).

    Every round enumerates every homomorphism of every dependency body into
    the whole tableau.  Simple, obviously complete, and the oracle the
    incremental strategy is differentially tested against.
    """

    name = "rescan"
    #: The oracle never accelerates: it exists to re-derive every trigger
    #: from first principles, so the columnar kernel does not apply.
    kernel = "off"

    def __init__(self) -> None:
        self._state: Optional[ChaseState] = None
        self._compiled: Tuple[CompiledDependency, ...] = ()

    def start(
        self, state: ChaseState, compiled: Sequence[CompiledDependency]
    ) -> None:
        self._state = state
        self._compiled = tuple(compiled)

    def next_round(self) -> List[Trigger]:
        triggers: List[Trigger] = []
        for compiled in self._compiled:
            triggers.extend(find_triggers(self._state, compiled))
        return triggers

    def observe(self, delta: StepDelta) -> None:  # full rescan needs no deltas
        return None


class IncrementalStrategy:
    """Delta-driven scheduling: a trigger worklist extended at round barriers.

    The worklist is seeded once from the initial tableau (that seeding *is*
    the one unavoidable full scan).  Afterwards :meth:`observe` only queues
    each applied step's :class:`~repro.chase.steps.StepDelta`; discovery
    runs once per round, at the barrier :meth:`next_round` provides, where
    partial matches are extended to full homomorphisms through each
    *distinct* changed row that is still in the tableau: for every
    (body row -> changed row) binding that is consistent, the remaining body
    rows are matched against the tableau with that binding as the seed.
    Every new homomorphism must route at least one body row through a
    changed row -- rows never disappear and satisfied dependencies stay
    satisfied as the tableau only grows/merges -- and a row rewritten away
    by a later merge of the same round routes every new match through its
    post-rewrite image instead, which is some later delta's changed row; so
    nothing is missed, and a row touched by several steps of one round is
    extended through once.

    Each (dependency position, match) pair is emitted at most once per
    run, and a dependency listed twice is matched once: its copies share a
    position and would find the same triggers.  The classic matcher reads
    the live engine state and searches the *persistently maintained*
    (attribute, value) -> rows buckets of its
    :class:`~repro.chase.row_index.RowIndex`, which the steps themselves
    keep in sync, so by the barrier they already describe the post-round
    tableau; rebuilding an index per probe would smuggle the full tableau
    scan back in.

    Triggers discovered at the barrier form the *next* round, which is
    exactly the fairness discipline of the rescan engine: every trigger
    found in round ``r`` is handled before any trigger first found in round
    ``r + 1``.

    ``kernel`` picks the matcher.  On ``"auto"`` (the default) seeding and
    barrier extension run as batched posting-list passes over a column
    mirror the strategy owns (:mod:`repro.chase.kernel`), instead of
    dict-probing ``homomorphisms`` calls, and a round is a list of
    :class:`~repro.chase.kernel.KernelTrigger` objects, deduplicated on
    their id tuples.  :meth:`observe` lands each step on the mirror as it
    applies (discovery still waits for the barrier), so the mirror always
    holds the live tableau and :meth:`trigger_is_active` answers the
    engine's per-step re-validation with one lookup or mask computation.
    ``"off"`` keeps the classic matcher and :class:`Trigger` valuations;
    the trigger sets (and therefore the chase results) are byte-identical
    either way.
    """

    name = "incremental"

    def __init__(self, kernel: Optional[str] = None) -> None:
        self._state: Optional[ChaseState] = None
        self._members: Tuple[Tuple[int, CompiledDependency], ...] = ()
        #: Per position, the matches (id tuples or valuations) emitted so far.
        self._seen: Dict[int, Set[Union[Ids, Valuation]]] = {}
        self._pending: List[StepDelta] = []
        self._queue: Optional[List[Trigger]] = None
        self._kernel_mode = kernel
        self._mirror: Optional[TriggerKernel] = None
        #: The matcher resolved for the current run: "bitset" or "off".
        self.kernel: str = "off"

    def start(
        self, state: ChaseState, compiled: Sequence[CompiledDependency]
    ) -> None:
        self._state = state
        # One position per dependency: a dependency listed twice shares its
        # position, and its first copy stands for every copy.
        positions = {cd.dependency: p for p, cd in enumerate(compiled)}
        members: Dict[int, CompiledDependency] = {}
        for cd in compiled:
            members.setdefault(positions[cd.dependency], cd)
        self._members = tuple(members.items())
        self._seen = {position: set() for position in members}
        self._pending = []
        backend = resolve_kernel(self._kernel_mode)
        self.kernel = backend or "off"
        # With the kernel the strategy owns its columnar mirror, and the
        # state's row index stays unbuilt until something else -- an egd
        # step's merge lookup -- needs it.
        self._mirror = TriggerKernel(state.relation) if backend is not None else None
        self._queue = self._seed()

    def next_round(self) -> List[Trigger]:
        if self._queue is not None:
            batch, self._queue = self._queue, None
            return batch
        deltas, self._pending = self._pending, []
        if not deltas:
            return []
        # observe() already mirrored every delta; only discovery is left.
        return self._extend(deltas)

    def observe(self, delta: StepDelta) -> None:
        if delta.is_noop:
            return
        # Each delta lands on the mirror exactly once, in step order:
        # re-applying an early merge's delta after a later merge would bring
        # back rows the later merge removed.
        if self._mirror is not None:
            self._mirror.apply_delta(delta)
        self._pending.append(delta)

    def trigger_is_active(
        self, state: ChaseState, trigger: Trigger, compiled: CompiledDependency
    ) -> Optional[Valuation]:
        """The engine's re-validation, answered from the kernel mirror.

        Same contract as :func:`repro.chase.steps.trigger_is_active`, which
        answers every trigger that is not a kernel trigger (the classic
        matcher's, ``kernel="off"``).
        """
        if isinstance(trigger, KernelTrigger):
            return trigger.applies()
        return trigger_is_active(state, trigger, compiled)

    def _seed(self) -> List[Trigger]:
        """Initial triggers of every dependency (one full scan)."""
        out: List[Trigger] = []
        mirror = self._mirror
        if mirror is not None:
            for position, cd in self._members:
                mirror.find_ids(cd, self._kernel_emitter(position, cd, out))
            return out
        index = self._state.row_index.attr_buckets
        for position, cd in self._members:
            for trigger in find_triggers(self._state, cd, index=index):
                self._emit(position, cd.dependency, trigger.valuation, out)
        return out

    def _extend(self, deltas: Sequence[StepDelta]) -> List[Trigger]:
        """Extend matches through the changed rows of already-landed deltas.

        A row is extended through once per round, and rows rewritten away
        by a later merge are skipped: every new homomorphism also routes
        through their post-rewrite images, which are some later delta's
        rows.  Only the current relation hosts witnesses, so every delta
        passed here must already have gone through :meth:`observe`.
        """
        visited: Set[object] = set()
        out: List[Trigger] = []
        mirror = self._mirror
        if mirror is not None:
            emitters = [
                (cd, self._kernel_emitter(position, cd, out))
                for position, cd in self._members
            ]
            # Rows are tracked by their id tuples, which the mirror also
            # uses to tell whether a row is still live.
            for delta in deltas:
                for row in delta.changed_rows:
                    ids = mirror.live_ids(row)
                    if ids is None or ids in visited:
                        continue
                    visited.add(ids)
                    mirror.extend_ids(ids, emitters)
            return out
        emitters = [
            (cd, partial(self._emit, position, cd.dependency, out=out))
            for position, cd in self._members
        ]
        relation = self._state.relation
        index = self._state.row_index.attr_buckets
        for delta in deltas:
            for row in delta.changed_rows:
                if row in visited or row not in relation:
                    continue
                visited.add(row)
                for cd, emit in emitters:
                    extend_through(cd, row, relation, index, emit)
        return out

    def _emit(
        self,
        position: int,
        dependency: ChaseDependency,
        alpha: Valuation,
        out: List[Trigger],
    ) -> None:
        seen = self._seen[position]
        if alpha in seen:
            return
        seen.add(alpha)
        out.append(Trigger(dependency, alpha))

    def _kernel_emitter(
        self, position: int, cd: CompiledDependency, out: List[KernelTrigger]
    ) -> Callable[[Ids], None]:
        """``emit(ids)`` queueing a kernel trigger for each new match of ``cd``."""
        kernel, plan, seen = self._mirror, self._mirror.plan(cd), self._seen[position]

        def emit(ids: Ids) -> None:
            if ids not in seen:
                seen.add(ids)
                out.append(KernelTrigger(kernel, plan, ids))

        return emit


def extend_through(
    cd: CompiledDependency,
    row: Row,
    relation: Relation,
    index: Dict,
    emit: Callable[[Valuation], None],
) -> None:
    """Extend every (body row -> ``row``) partial match to active triggers.

    The classic matcher of delta-driven scheduling: for each consistent
    binding of one body row onto the changed ``row``, the remaining body
    rows are matched against ``relation`` (through the prebuilt ``index``
    buckets) and every completion that still violates the dependency is
    handed to ``emit``.
    """
    if not cd.is_td and cd.trivial:
        return
    for position, body_row in enumerate(cd.body_rows):
        seed = _row_binding(body_row, row)
        if seed is None:
            continue
        for alpha in homomorphisms(
            cd.body_rest[position], relation, seed=seed, index=index
        ):
            if violates(cd, alpha, relation):
                emit(alpha)


def _row_binding(body_row: Row, target_row: Row) -> Optional[Valuation]:
    """The valuation mapping ``body_row`` onto ``target_row``, if consistent."""
    binding: Dict[Value, Value] = {}
    for attr, value in body_row.items():
        image = target_row[attr]
        if value.tag != image.tag:
            return None
        previous = binding.get(value)
        if previous is not None and previous != image:
            return None
        binding[value] = image
    return Valuation(binding)


#: The concrete strategies by configuration name (``"auto"`` -> incremental).
STRATEGY_REGISTRY = {
    "rescan": RescanStrategy,
    "incremental": IncrementalStrategy,
    "auto": IncrementalStrategy,
}


def make_strategy(
    choice: Union[str, ChaseStrategy, None],
    *,
    kernel: Optional[str] = None,
) -> ChaseStrategy:
    """Resolve a strategy name (or pass through a ready-made instance).

    ``None`` and ``"auto"`` resolve to :class:`IncrementalStrategy`.
    ``kernel`` configures the incremental strategy's columnar
    trigger-matching kernel (the engine forwards ``ChaseBudget.chase_kernel``
    here); the rescan oracle ignores it.  A strategy *instance* is returned
    as-is -- :meth:`ChaseStrategy.start` resets all per-run bookkeeping, so
    one instance can serve many runs.
    """
    if choice is None:
        choice = "auto"
    if isinstance(choice, str):
        factory = STRATEGY_REGISTRY.get(choice)
        if factory is None:
            raise StrategyError(
                f"unknown chase strategy {choice!r}; "
                f"expected one of {', '.join(sorted(STRATEGY_REGISTRY))}"
            )
        if factory is IncrementalStrategy:
            return factory(kernel=kernel)
        return factory()
    if hasattr(choice, "start") and hasattr(choice, "next_round"):
        return choice
    raise StrategyError(
        f"a chase strategy must be a name or a ChaseStrategy instance, "
        f"got {choice!r}"
    )
