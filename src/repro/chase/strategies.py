"""Pluggable chase scheduling: rescan, incremental, sharded, streaming.

The engine's round loop is strategy-agnostic: at the top of each round it
asks its :class:`ChaseStrategy` for the triggers to consider, applies them
one at a time (re-validating each, exactly as before), and feeds every
resulting :class:`~repro.chase.steps.StepDelta` back to the strategy.  The
implementations answer "which triggers?" very differently:

* :class:`RescanStrategy` re-enumerates *all* homomorphisms of *all*
  dependency bodies against the *whole* tableau every round --
  O(deps x |tableau|^arity) per round.  It is kept as the reference oracle
  (pin it via ``ChaseBudget(chase_strategy="rescan")`` when debugging).
* :class:`IncrementalStrategy` seeds a trigger worklist from the initial
  tableau once, then maintains it from step deltas: a new row (td step) or
  the rewritten rows of a merge (egd step) are the only places a *new*
  homomorphism can appear, so only partial matches through those rows are
  extended, once per round at the barrier.  A round then costs work
  proportional to what changed.
* :class:`ShardedStrategy` partitions the per-dependency worklist of the
  incremental strategy across ``shard_count`` workers and runs each shard's
  trigger extension in parallel, merging the per-shard results at the round
  barrier the engine already provides.  The whole round's delta list ships
  to the workers in one message at the barrier.
* :class:`StreamingStrategy` keeps the sharded partition but changes the
  *framing* of the worker feed: each applied step's delta streams to every
  shard the moment the engine reports it, so workers replay the delta and
  extend partial matches concurrently with the engine applying the tail of
  the round.  The round barrier then only drains results that are already
  (mostly) computed -- the last serial section of the sharded round
  becomes a pipeline.

All strategies feed the same fair round loop and produce identical chase
results; see ``tests/chase/test_differential.py`` for the property test and
:mod:`repro.chase.engine` for why the per-round trigger *sets* coincide.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.chase.kernel import TriggerKernel, resolve_kernel
from repro.chase.steps import (
    ChaseState,
    CompiledDependency,
    StepDelta,
    TdDelta,
    Trigger,
    find_triggers,
    violates,
)
from repro.config import DEFAULT_SHARD_COUNT
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

    This is exactly one :class:`_ShardCore` over every dependency, reading
    the live engine state: the round barrier of a one-shard
    :class:`ShardedStrategy` without the worker pool.  The classic matcher
    searches the *persistently maintained* (attribute, value) -> rows
    buckets of the state-owned :class:`~repro.chase.row_index.RowIndex`,
    which the steps themselves keep in sync, so by the barrier they already
    describe the post-round tableau; rebuilding an index per probe would
    smuggle the full tableau scan back in.

    Triggers discovered at the barrier form the *next* round, which is
    exactly the fairness discipline of the rescan engine: every trigger
    found in round ``r`` is handled before any trigger first found in round
    ``r + 1``.

    ``kernel`` opts the matching itself onto the columnar kernel
    (:mod:`repro.chase.kernel`): seeding and barrier extension then run as
    batched posting-list / vectorized passes over a column mirror that
    takes the round's deltas before any extension runs, instead of
    dict-probing ``homomorphisms`` calls.  Any
    :data:`~repro.chase.kernel.KERNEL_MODES` value is accepted; the trigger
    sets (and therefore the chase results) are byte-identical either way.
    """

    name = "incremental"

    def __init__(self, kernel: Optional[str] = None) -> None:
        self._compiled: Tuple[CompiledDependency, ...] = ()
        self._core: Optional[_ShardCore] = None
        self._pending: List[StepDelta] = []
        self._queue: Optional[List[Trigger]] = None
        self._kernel_mode = kernel
        #: The backend resolved for the current run: "numpy", "bitset", "off".
        self.kernel: str = "off"

    def start(
        self, state: ChaseState, compiled: Sequence[CompiledDependency]
    ) -> None:
        self._compiled = tuple(compiled)
        self._pending = []
        backend = resolve_kernel(self._kernel_mode)
        self.kernel = backend or "off"
        # One position per dependency: a dependency listed twice shares its
        # position, so its triggers are deduplicated across the copies.
        positions = {cd.dependency: p for p, cd in enumerate(self._compiled)}
        # With the kernel the core owns its columnar mirror, and the state's
        # row index stays unbuilt until something else -- an egd step's
        # merge lookup -- needs it.
        self._core = _ShardCore(
            ((positions[cd.dependency], cd) for cd in self._compiled),
            state,
            owns_state=False,
            kernel=backend,
        )
        self._queue = _to_triggers(self._compiled, self._core.seed())

    def next_round(self) -> List[Trigger]:
        if self._queue is not None:
            batch, self._queue = self._queue, None
            return batch
        deltas, self._pending = self._pending, []
        if not deltas:
            return []
        return _to_triggers(self._compiled, self._core.barrier(deltas))

    def observe(self, delta: StepDelta) -> None:
        if not delta.is_noop:
            self._pending.append(delta)


def extend_through(
    cd: CompiledDependency,
    row: Row,
    relation: Relation,
    index: Dict,
    emit: Callable[[Valuation], None],
) -> None:
    """Extend every (body row -> ``row``) partial match to active triggers.

    The core of delta-driven scheduling, shared by the incremental strategy
    and every shard of the sharded strategy: for each consistent binding of
    one body row onto the changed ``row``, the remaining body rows are
    matched against ``relation`` (through the prebuilt ``index`` buckets)
    and every completion that still violates the dependency is handed to
    ``emit``.
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


# ---------------------------------------------------------------------------
# Sharded scheduling
# ---------------------------------------------------------------------------

#: Initial-tableau size below which ``executor="auto"`` prefers threads: a
#: worker process costs a fork plus per-round pipe round-trips, which only
#: pays off once each round's extension work dwarfs that overhead.
PROCESS_POOL_THRESHOLD = 256


def value_components(relation: Relation) -> Dict[Value, Value]:
    """Connected components of the tableau's value graph.

    Two values are connected when they co-occur in some row; the returned
    mapping sends every value of the relation to its component's canonical
    representative (the lexicographically least member), so the result is
    deterministic regardless of row iteration order.  The sharded strategy
    uses these components to co-locate egds whose merge cascades can
    interact -- a merge only ever equates values of one component, and the
    rows it rewrites all lie in that component.
    """
    parent: Dict[Value, Value] = {}

    def find(value: Value) -> Value:
        root = value
        while parent[root] != root:
            root = parent[root]
        while parent[value] != root:
            parent[value], value = root, parent[value]
        return root

    for row in relation.sorted_rows():
        values = list(row.values())
        for value in values:
            parent.setdefault(value, value)
        anchor = find(values[0])
        for value in values[1:]:
            root = find(value)
            if root != anchor:
                parent[root] = anchor
    members: Dict[Value, List[Value]] = {}
    for value in parent:
        members.setdefault(find(value), []).append(value)
    canon: Dict[Value, Value] = {}
    for component in members.values():
        representative = min(component, key=lambda v: (v.name, v.tag or ""))
        for value in component:
            canon[value] = representative
    return canon


def _egd_fingerprint(
    cd: CompiledDependency, canon: Dict[Value, Value]
) -> Tuple[Tuple[str, str], ...]:
    """The value-graph components an egd's merges can possibly touch.

    A typed egd only ever merges values of its sides' shared domain, so the
    components hosting values of that tag bound where its cascades can run;
    an untyped egd may reach every component.  Egds with equal fingerprints
    are routed to the same shard.
    """
    tag = cd.left.tag if cd.left is not None else None
    representatives = {
        rep
        for value, rep in canon.items()
        if tag is None or value.tag == tag
    }
    return tuple(sorted((rep.name, rep.tag or "") for rep in representatives))


def partition_dependencies(
    compiled: Sequence[CompiledDependency],
    shard_count: int,
    relation: Relation,
) -> Tuple[Tuple[int, ...], ...]:
    """Deterministically assign dependency positions to ``shard_count`` shards.

    Dependencies are the unit of partitioning (a trigger belongs to exactly
    one dependency, hence to exactly one shard, so no cross-shard dedup is
    needed).  Egds are routed first, grouped by their
    :func:`_egd_fingerprint` over the initial tableau's value graph so that
    egds whose merge cascades can interact share a shard -- one cascade's
    extension work then stays on one worker instead of fanning out across
    all of them.  Tds balance the remainder onto the least-loaded shards.
    Empty shards are possible (more shards than dependencies) and are
    skipped by the strategy.
    """
    positions = list(range(len(compiled)))
    if shard_count <= 1 or len(positions) <= 1:
        return (tuple(positions),) if positions else ()
    # The value graph is only consulted to route egds; a td-only dependency
    # set (common for the big tableaux sharding targets) skips the scan.
    canon: Optional[Dict[Value, Value]] = None
    egd_groups: Dict[Tuple[Tuple[str, str], ...], List[int]] = {}
    tds: List[int] = []
    for position, cd in enumerate(compiled):
        if cd.is_td:
            tds.append(position)
        else:
            if canon is None:
                canon = value_components(relation)
            egd_groups.setdefault(_egd_fingerprint(cd, canon), []).append(position)
    shards: List[List[int]] = [[] for _ in range(shard_count)]
    for fingerprint in sorted(egd_groups):
        shard = zlib.crc32(repr(fingerprint).encode("utf-8")) % shard_count
        shards[shard].extend(egd_groups[fingerprint])
    for position in tds:
        target = min(range(shard_count), key=lambda s: (len(shards[s]), s))
        shards[target].append(position)
    return tuple(tuple(sorted(shard)) for shard in shards)


def replay_delta(state: ChaseState, delta: StepDelta) -> None:
    """Replay one applied step's delta onto a mirror :class:`ChaseState`.

    The post-step tableau is fully determined by the delta (a td delta adds
    its one row, an egd delta swaps the pre-rewrite rows for their images),
    so a shard can reconstruct the engine's state without seeing the steps
    themselves.  Routing the update through :meth:`ChaseState.advance` keeps
    the mirror's :class:`~repro.chase.row_index.RowIndex` sub-index in sync
    via the same ``apply_delta`` path the live engine state uses -- which is
    exactly what makes the merged shard state byte-identical to a
    sequential run.
    """
    if delta.is_noop:
        return
    if isinstance(delta, TdDelta):
        state.advance(state.relation.with_rows([delta.row]), delta)
    else:
        state.advance(
            state.relation.substitute_rows(delta.removed_rows, delta.changed_rows),
            delta,
        )


class _ShardCore:
    """One shard's incremental worklist over a subset of the dependencies.

    :class:`IncrementalStrategy` runs exactly one core, over every
    dependency, on the live engine state (``owns_state=False``); each
    sharded or streaming shard runs one over its own dependency subset.

    ``owns_state=True`` (process mode): the core holds a private mirror
    :class:`ChaseState` -- a relation copy plus the shard's own
    :class:`~repro.chase.row_index.RowIndex` sub-index -- reconciled at
    every round barrier by replaying the round's deltas through
    :func:`replay_delta`.  ``owns_state=False`` (thread mode): the core
    reads the live engine-owned state, whose index the applied steps
    already keep in sync, so no replay is needed.

    ``kernel`` (a resolved backend name, or ``None`` for the classic
    matcher) gives the core a *private* :class:`~repro.chase.kernel.
    TriggerKernel` mirror: each core advances its own column arrays from
    the delta stream it is fed, so two cores never double-apply a delta to
    shared kernel state.
    """

    def __init__(
        self,
        members: Iterable[Tuple[int, CompiledDependency]],
        state: ChaseState,
        owns_state: bool,
        kernel: Optional[str] = None,
    ) -> None:
        self._members = tuple(members)
        self._state = state
        self._owns_state = owns_state
        self._seen: Set[Tuple[int, Valuation]] = set()
        self._kernel = (
            TriggerKernel(state.relation, kernel) if kernel is not None else None
        )

    def seed(self) -> List[Tuple[int, Valuation]]:
        """Initial triggers of this shard's dependencies (one full scan)."""
        out: List[Tuple[int, Valuation]] = []
        kernel = self._kernel
        if kernel is not None:
            for position, cd in self._members:
                kernel.find_triggers(
                    cd, lambda alpha, p=position: self._emit(p, alpha, out)
                )
            return out
        index = self._state.row_index.attr_buckets
        for position, cd in self._members:
            for trigger in find_triggers(self._state, cd, index=index):
                self._emit(position, trigger.valuation, out)
        return out

    def barrier(self, deltas: Sequence[StepDelta]) -> List[Tuple[int, Valuation]]:
        """Merge one round's deltas, then extend matches through changed rows."""
        state = self._state
        if self._owns_state:
            for delta in deltas:
                replay_delta(state, delta)
        kernel = self._kernel
        if kernel is not None:
            # The whole round lands on the mirror before any extension runs,
            # matching the classic path (whose row index is already post-round
            # here) -- only the *final* relation hosts witnesses.
            for delta in deltas:
                kernel.apply_delta(delta)
        relation = state.relation
        index = None if kernel is not None else state.row_index.attr_buckets
        out: List[Tuple[int, Valuation]] = []
        visited: Set[Row] = set()
        for delta in deltas:
            for row in delta.changed_rows:
                # Rows rewritten away by a later merge in the same round are
                # skipped: every new homomorphism also routes through the
                # post-rewrite images, which are some later delta's rows.
                if row in visited or row not in relation:
                    continue
                visited.add(row)
                for position, cd in self._members:
                    if kernel is not None:
                        kernel.extend_through(
                            cd,
                            row,
                            lambda alpha, p=position: self._emit(p, alpha, out),
                        )
                    else:
                        extend_through(
                            cd,
                            row,
                            relation,
                            index,
                            lambda alpha, p=position: self._emit(p, alpha, out),
                        )
        return out

    def _emit(
        self, position: int, alpha: Valuation, out: List[Tuple[int, Valuation]]
    ) -> None:
        key = (position, alpha)
        if key in self._seen:
            return
        self._seen.add(key)
        out.append((position, alpha))


def _to_triggers(
    compiled: Sequence[CompiledDependency], pairs: Iterable[Tuple[int, Valuation]]
) -> List[Trigger]:
    """Turn a core's (dependency position, valuation) pairs into triggers."""
    return [Trigger(compiled[position].dependency, alpha) for position, alpha in pairs]


def _shard_worker_main(
    conn,
    relation: Relation,
    members: Tuple[Tuple[int, CompiledDependency], ...],
    kernel: Optional[str] = None,
) -> None:
    """Entry point of one shard worker process.

    Seeds immediately (so all workers scan the initial tableau in
    parallel), then serves round barriers until the parent sends ``None``.
    Replies are ``("ok", payload)`` or ``("error", text)`` so a worker
    failure surfaces as a :class:`StrategyError` in the parent instead of a
    hung pipe.  ``kernel`` ships the parent's *resolved* backend name, so
    every worker runs the same matcher the parent decided on.
    """
    mirror = ChaseState(relation=relation, fresh=None)
    core = _ShardCore(members, mirror, owns_state=True, kernel=kernel)
    try:
        try:
            conn.send(("ok", core.seed()))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            conn.send(("error", f"shard seeding failed: {exc!r}"))
            return
        while True:
            message = conn.recv()
            if message is None:
                return
            try:
                conn.send(("ok", core.barrier(message)))
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                conn.send(("error", f"shard barrier failed: {exc!r}"))
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


def _stop_worker(process, conn) -> None:
    """Shut one worker down (normal path and the weakref safety net)."""
    try:
        conn.send(None)
    except (OSError, ValueError, BrokenPipeError):
        pass
    try:
        conn.close()
    except OSError:
        pass
    process.join(timeout=2.0)
    if process.is_alive():  # pragma: no cover - only on a wedged worker
        process.terminate()
        process.join(timeout=2.0)


class _ProcessShard:
    """Parent-side handle of one worker process (request/reply over a pipe).

    Subclasses swap :attr:`worker_main` (the child entry point) and the
    request framing; the pipe lifecycle, reply handling, and the weakref
    reaping safety net are shared.
    """

    worker_main = staticmethod(_shard_worker_main)

    def __init__(self, ctx, relation, members, kernel: Optional[str] = None) -> None:
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=type(self).worker_main,
            args=(child, relation, members, kernel),
            daemon=True,
        )
        self._process.start()
        child.close()
        # Safety net: reap the worker even if close() is never reached.
        self._finalizer = weakref.finalize(
            self, _stop_worker, self._process, self._conn
        )

    def seed_async(self) -> None:
        """No-op: the worker seeds on startup, before its first reply."""

    def request(self, deltas: Sequence[StepDelta]) -> None:
        self._send(list(deltas))

    def collect(self) -> List[Tuple[int, Valuation]]:
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise StrategyError(f"a shard worker process died: {exc!r}") from exc
        if status != "ok":
            raise StrategyError(payload)
        return payload

    def close(self) -> None:
        self._finalizer()

    def _send(self, message) -> None:
        """Send one message, normalizing a dead worker like ``collect`` does."""
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise StrategyError(f"a shard worker process died: {exc!r}") from exc


class _ThreadShard:
    """Parent-side handle of one thread-mode shard (shares the live state)."""

    def __init__(self, core: _ShardCore, pool: ThreadPoolExecutor) -> None:
        self._core = core
        self._pool = pool
        self._future = None

    def seed_async(self) -> None:
        self._future = self._pool.submit(self._core.seed)

    def request(self, deltas: Sequence[StepDelta]) -> None:
        self._future = self._pool.submit(self._core.barrier, deltas)

    def collect(self) -> List[Tuple[int, Valuation]]:
        try:
            return self._future.result()
        except StrategyError:
            raise
        except Exception as exc:  # noqa: BLE001 - normalized like process mode
            raise StrategyError(f"a shard worker failed: {exc!r}") from exc

    def close(self) -> None:  # the pool is owned (and shut down) by the strategy
        self._future = None


def _mp_context():
    """The preferred multiprocessing context (fork when the platform has it)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ShardedStrategy:
    """Partitioned incremental scheduling: N workers, merged at round barriers.

    The per-dependency trigger worklist of :class:`IncrementalStrategy` is
    partitioned across ``shard_count`` shards by
    :func:`partition_dependencies` (egds grouped by the value-graph
    components their merges can touch, tds balancing the remainder).  Each
    round the engine applies triggers sequentially -- preserving the exact
    step order, fresh-value names, and merge choices of a sequential run --
    while the *discovery* of the next round's triggers fans out: at the
    round barrier every shard replays the round's
    :class:`~repro.chase.steps.TdDelta` / :class:`~repro.chase.steps.EgdDelta`
    stream into its own state (process mode) or reads the live one (thread
    mode) and extends partial matches through the changed rows for its
    dependency subset.  The shard results are merged into one candidate
    list that the engine canonicalizes, dedupes, and orders exactly as for
    the sequential strategies, which is what keeps every run byte-identical
    to ``"incremental"`` and ``"rescan"``.

    Parameters
    ----------
    shard_count:
        How many shards to partition the worklist across.
    executor:
        ``"process"`` runs every shard in a persistent worker process
        (parallel trigger enumeration; per-round pipe traffic is one delta
        stream per shard).  ``"thread"`` runs shards on a thread pool
        sharing the engine's state (no replay cost; enumeration is
        GIL-serialized, so this is the small-tableau fallback).  ``"auto"``
        (default) picks processes once the initial tableau reaches
        ``process_threshold`` rows on a multi-CPU machine, threads
        otherwise, and falls back to threads when worker processes cannot
        be spawned.
    process_threshold:
        The ``"auto"`` cut-over point, in initial-tableau rows.
    kernel:
        Columnar-kernel mode for every shard's matcher (any
        :data:`~repro.chase.kernel.KERNEL_MODES` value); the parent
        resolves it once and ships the concrete backend to the workers.
    """

    name = "sharded"

    def __init__(
        self,
        shard_count: int = DEFAULT_SHARD_COUNT,
        executor: str = "auto",
        process_threshold: int = PROCESS_POOL_THRESHOLD,
        kernel: Optional[str] = None,
    ) -> None:
        if shard_count < 1:
            raise StrategyError("a sharded strategy needs shard_count >= 1")
        if executor not in ("auto", "thread", "process"):
            raise StrategyError(
                f"unknown shard executor {executor!r}; "
                "expected auto, thread, or process"
            )
        self._shard_count = shard_count
        self._executor_choice = executor
        self._process_threshold = process_threshold
        self._kernel_mode = kernel
        self._kernel_backend: Optional[str] = None
        self._state: Optional[ChaseState] = None
        self._compiled: Tuple[CompiledDependency, ...] = ()
        self._shards: List[Union[_ProcessShard, _ThreadShard]] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pending: List[StepDelta] = []
        self._queue: Optional[List[Trigger]] = None
        #: The executor resolved for the current run (set by :meth:`start`).
        self.executor: Optional[str] = None
        #: The kernel backend resolved for the current run ("off" = classic).
        self.kernel: str = "off"

    @property
    def shard_count(self) -> int:
        """The configured worker count."""
        return self._shard_count

    def start(
        self, state: ChaseState, compiled: Sequence[CompiledDependency]
    ) -> None:
        self.close()
        self._state = state
        self._compiled = tuple(compiled)
        self._pending = []
        self._kernel_backend = resolve_kernel(self._kernel_mode)
        self.kernel = self._kernel_backend or "off"
        parts = [
            members
            for members in partition_dependencies(
                self._compiled, self._shard_count, state.relation
            )
            if members
        ]
        if not parts:
            self._queue = []
            return
        self.executor = self._resolve_executor(state)
        if self.executor == "process":
            try:
                self._spawn_process_shards(state, parts)
            except OSError as exc:
                if self._executor_choice == "process":
                    # The caller pinned processes explicitly; degrading to
                    # GIL-serialized threads would silently change what they
                    # asked to measure or isolate.
                    self.close()
                    raise StrategyError(
                        f"cannot spawn shard worker processes: {exc!r}"
                    ) from exc
                # "auto" in an environment without worker processes
                # (sandboxes, fd limits): degrade to the threaded fallback,
                # same results.
                self.close()
                self.executor = "thread"
        if self.executor == "thread":
            self._spawn_thread_shards(state, parts)
        triggers: List[Trigger] = []
        for shard in self._shards:
            triggers.extend(_to_triggers(self._compiled, shard.collect()))
        self._queue = triggers

    def next_round(self) -> List[Trigger]:
        if self._queue is not None:
            batch, self._queue = self._queue, None
            return batch
        deltas, self._pending = self._pending, []
        if not deltas or not self._shards:
            return []
        for shard in self._shards:
            shard.request(deltas)
        triggers: List[Trigger] = []
        for shard in self._shards:
            triggers.extend(_to_triggers(self._compiled, shard.collect()))
        return triggers

    def observe(self, delta: StepDelta) -> None:
        if delta.is_noop:
            return
        self._pending.append(delta)

    def close(self) -> None:
        """Tear down worker processes / the thread pool of the current run.

        Runs on every exit path (the engine calls it in a ``finally``, so a
        shard worker raising mid-round -- or a ``KeyboardInterrupt`` in the
        parent -- still reaps the executors).  Each shard's shutdown is
        isolated: one failing handle can never keep the remaining workers
        or the thread pool alive.
        """
        shards, self._shards = self._shards, []
        for shard in shards:
            try:
                shard.close()
            except Exception:  # noqa: BLE001 - best-effort: keep reaping
                # close() runs in finally blocks: raising here would mask
                # the in-flight exception, and _stop_worker already
                # escalates to terminate() on a wedged worker.
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._queue = None

    # -- internals -------------------------------------------------------------

    def _resolve_executor(self, state: ChaseState) -> str:
        if self._executor_choice != "auto":
            return self._executor_choice
        # Worker processes only pay off with real parallelism and a tableau
        # big enough that per-round extension work dwarfs the pipe traffic.
        if (
            len(state.relation) >= self._process_threshold
            and (os.cpu_count() or 1) > 1
        ):
            return "process"
        return "thread"

    def _spawn_process_shards(
        self, state: ChaseState, parts: Sequence[Tuple[int, ...]]
    ) -> None:
        ctx = _mp_context()
        for members in parts:
            self._shards.append(
                _ProcessShard(
                    ctx,
                    state.relation,
                    tuple((p, self._compiled[p]) for p in members),
                    kernel=self._kernel_backend,
                )
            )

    def _spawn_thread_shards(
        self, state: ChaseState, parts: Sequence[Tuple[int, ...]]
    ) -> None:
        if self._kernel_backend is None:
            state.row_index  # materialise once, before worker threads share it
        self._pool = ThreadPoolExecutor(
            max_workers=len(parts), thread_name_prefix="chase-shard"
        )
        for members in parts:
            core = _ShardCore(
                tuple((p, self._compiled[p]) for p in members),
                state,
                owns_state=False,
                kernel=self._kernel_backend,
            )
            self._shards.append(_ThreadShard(core, self._pool))
        for shard in self._shards:
            shard.seed_async()


# ---------------------------------------------------------------------------
# Streaming scheduling
# ---------------------------------------------------------------------------


class _StreamCore(_ShardCore):
    """One streaming shard's state: a sequenced delta feed, applied eagerly.

    Extends :class:`_ShardCore` (whose seeding, mirror/live-state modes,
    and emission dedup are reused unchanged) with the incremental framing
    of the worker protocol: deltas arrive one at a time, each tagged with
    its position in the round's step order, and :meth:`barrier` takes the
    expected count instead of the sharded protocol's whole delta list.  A
    reorder buffer replays arrivals strictly in sequence -- transports
    that preserve ordering pay nothing, transports that do not still
    converge to the sequential result -- and every replayed delta
    immediately extends partial matches through its changed rows.

    ``owns_state=True`` (process mode): extension for delta ``i`` runs
    against the mirror tableau *as of step i* -- concurrently with the
    engine applying step ``i+1``.  Triggers found this way may be stale by
    the time the round ends (a later merge can rewrite the rows they
    route through), which is fine: the engine canonicalizes and
    re-validates every candidate, and a mid-round discovery canonicalizes
    to exactly the trigger a barrier-time discovery would have produced.
    Completeness holds because every end-of-round homomorphism routes
    through the changed rows of the *last* delta that touched its rows, at
    which point all its other rows are already in the mirror relation.

    ``owns_state=False`` (thread mode): the core reads the live
    engine-owned state, whose relation and row index the applied steps
    already keep in sync, so no replay runs -- the transport then delivers
    the whole (still sequence-checked) feed at the barrier, when the
    engine is parked in ``collect`` and the shared state is quiescent.
    """

    def __init__(
        self,
        members: Iterable[Tuple[int, CompiledDependency]],
        state: ChaseState,
        owns_state: bool = True,
        kernel: Optional[str] = None,
    ) -> None:
        super().__init__(members, state, owns_state, kernel)
        self._next_seq = 0
        self._reorder: Dict[int, StepDelta] = {}
        self._visited: Set[Row] = set()
        self._out: List[Tuple[int, Valuation]] = []

    def feed(self, seq: int, delta: StepDelta) -> None:
        """Accept one step's delta; replay every contiguous prefix eagerly."""
        if seq < self._next_seq or seq in self._reorder:
            raise StrategyError(
                f"duplicate delta #{seq} in the streaming feed "
                f"(next expected: #{self._next_seq})"
            )
        self._reorder[seq] = delta
        while self._next_seq in self._reorder:
            self._apply(self._reorder.pop(self._next_seq))
            self._next_seq += 1

    def barrier(self, expected: int) -> List[Tuple[int, Valuation]]:
        """Join the round: all ``expected`` deltas must have been replayed."""
        if self._next_seq != expected or self._reorder:
            missing = sorted(
                set(range(expected)) - set(self._reorder) - set(range(self._next_seq))
            )
            raise StrategyError(
                f"streaming feed incomplete at the barrier: expected "
                f"{expected} deltas, replayed {self._next_seq}, "
                f"missing {missing}"
            )
        self._next_seq = 0
        self._visited.clear()
        out, self._out = self._out, []
        return out

    def _apply(self, delta: StepDelta) -> None:
        state = self._state
        if self._owns_state:
            replay_delta(state, delta)
        kernel = self._kernel
        if kernel is not None:
            # One delta at a time: the mirror tracks the as-of-step-i
            # tableau the streaming overlap is defined against.
            kernel.apply_delta(delta)
        relation = state.relation
        index = None if kernel is not None else state.row_index.attr_buckets
        for row in delta.changed_rows:
            # Same skip discipline as _ShardCore.barrier: a row already
            # extended this round cannot host a *new* homomorphism without
            # some later delta's rows (which get their own extension), and
            # a row rewritten away routes every new match through its
            # post-rewrite images instead.
            if row in self._visited or row not in relation:
                continue
            self._visited.add(row)
            for position, cd in self._members:
                if kernel is not None:
                    kernel.extend_through(
                        cd,
                        row,
                        lambda alpha, p=position: self._emit(p, alpha, self._out),
                    )
                else:
                    extend_through(
                        cd,
                        row,
                        relation,
                        index,
                        lambda alpha, p=position: self._emit(p, alpha, self._out),
                    )


def _stream_worker_main(
    conn,
    relation: Relation,
    members: Tuple[Tuple[int, CompiledDependency], ...],
    kernel: Optional[str] = None,
) -> None:
    """Entry point of one streaming shard worker process.

    Seeds immediately, then consumes the incremental feed: ``("delta",
    (seq, delta))`` messages are replayed as they arrive (this is where the
    overlap with the engine's round tail happens), ``("barrier", expected)``
    answers with the accumulated triggers, ``None`` shuts the worker down.
    A feed failure is remembered and reported at the next barrier, so the
    request/reply framing never desynchronizes even when a delta poisons
    the shard mid-round.
    """
    mirror = ChaseState(relation=relation, fresh=None)
    core = _StreamCore(members, mirror, kernel=kernel)
    try:
        try:
            conn.send(("ok", core.seed()))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            conn.send(("error", f"stream seeding failed: {exc!r}"))
            return
        failure: Optional[str] = None
        while True:
            message = conn.recv()
            if message is None:
                return
            kind, payload = message
            if kind == "delta":
                if failure is None:
                    try:
                        core.feed(*payload)
                    except Exception as exc:  # noqa: BLE001 - deferred
                        failure = f"stream feed failed: {exc!r}"
            else:  # barrier
                if failure is not None:
                    conn.send(("error", failure))
                    return
                try:
                    conn.send(("ok", core.barrier(payload)))
                except Exception as exc:  # noqa: BLE001 - forwarded
                    conn.send(("error", f"stream barrier failed: {exc!r}"))
                    return
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


class _StreamProcessShard(_ProcessShard):
    """Parent-side handle of one streaming worker process.

    The pipe lifecycle, reply handling, and reaping safety net come from
    :class:`_ProcessShard`; only the child entry point and the message
    framing (tagged per-delta feed + barrier marker) differ.
    """

    worker_main = staticmethod(_stream_worker_main)

    def feed(self, seq: int, delta: StepDelta) -> None:
        self._send(("delta", (seq, delta)))

    def request(self, expected: int) -> None:
        self._send(("barrier", expected))


class _StreamThreadShard(_ThreadShard):
    """Parent-side handle of one thread-mode streaming shard.

    With the GIL there is no parallelism to overlap the feed with, and the
    live engine state mutates *while* the round runs, so eager replay would
    either race on the shared row index or pay a redundant per-shard mirror.
    The thread transport therefore queues the sequenced feed locally and
    delivers it whole when the barrier is requested: the drain runs on the
    pool while the engine parks in ``collect`` (the shared state is
    quiescent), the sequence numbers are still validated, and the cost
    profile matches the sharded strategy's thread mode.  Real feed overlap
    is the process transport's job.  Seeding and result collection (with
    its :class:`StrategyError` normalization) come from :class:`_ThreadShard`.
    """

    def __init__(self, core: _StreamCore, pool: ThreadPoolExecutor) -> None:
        super().__init__(core, pool)
        self._pending: List[Tuple[int, StepDelta]] = []

    def feed(self, seq: int, delta: StepDelta) -> None:
        self._pending.append((seq, delta))

    def request(self, expected: int) -> None:
        pending, self._pending = self._pending, []
        self._future = self._pool.submit(self._drain, pending, expected)

    def _drain(
        self, pending: Sequence[Tuple[int, StepDelta]], expected: int
    ) -> List[Tuple[int, Valuation]]:
        for seq, delta in pending:
            self._core.feed(seq, delta)
        return self._core.barrier(expected)

    def close(self) -> None:
        self._pending = []
        super().close()


class StreamingStrategy(ShardedStrategy):
    """Sharded scheduling with an incremental per-step delta feed.

    The dependency partition, executor resolution (``"auto"`` /
    ``"thread"`` / ``"process"``), worker lifecycle, and the engine-side
    merge point are all inherited from :class:`ShardedStrategy`; what
    changes is the worker protocol's framing.  The sharded strategy batches
    a round's deltas and ships them in one message at the barrier, leaving
    every shard idle while the engine applies the round.  This strategy
    streams each :class:`~repro.chase.steps.StepDelta` to every shard the
    moment :meth:`observe` reports it, so shards replay the delta onto
    their mirror state and extend partial matches through its changed rows
    *while* the engine is still applying the tail of the round;
    :meth:`next_round` then only sends the barrier marker and drains
    results that are already largely computed.

    Deltas are sequence-numbered per round and workers replay them through
    a reorder buffer, so the protocol tolerates out-of-order arrival and
    fails loudly (at the barrier) on a lost or duplicated message instead
    of silently diverging.  Results remain byte-identical to every other
    strategy: mid-round discoveries canonicalize to exactly the triggers a
    barrier-time discovery would produce, and the engine's round-boundary
    canonicalize/dedupe/sort erases the difference in discovery time.

    The overlap needs real parallelism, so it is the *process* transport's
    behaviour; the thread transport (the small-tableau / single-CPU
    fallback) queues the sequenced feed locally and drains it when the
    barrier is requested, sharing the live state exactly like the sharded
    strategy's thread mode -- same answers, same cost profile, no mirror
    replay taxed onto a GIL-serialized pipeline.
    """

    name = "streaming"

    def __init__(
        self,
        shard_count: int = DEFAULT_SHARD_COUNT,
        executor: str = "auto",
        process_threshold: int = PROCESS_POOL_THRESHOLD,
        kernel: Optional[str] = None,
    ) -> None:
        super().__init__(
            shard_count=shard_count,
            executor=executor,
            process_threshold=process_threshold,
            kernel=kernel,
        )
        self._streamed = 0

    def start(
        self, state: ChaseState, compiled: Sequence[CompiledDependency]
    ) -> None:
        self._streamed = 0
        super().start(state, compiled)

    def observe(self, delta: StepDelta) -> None:
        if delta.is_noop:
            return
        seq = self._streamed
        self._streamed += 1
        for shard in self._shards:
            shard.feed(seq, delta)

    def next_round(self) -> List[Trigger]:
        if self._queue is not None:
            batch, self._queue = self._queue, None
            return batch
        expected, self._streamed = self._streamed, 0
        if not expected or not self._shards:
            return []
        for shard in self._shards:
            shard.request(expected)
        triggers: List[Trigger] = []
        for shard in self._shards:
            triggers.extend(_to_triggers(self._compiled, shard.collect()))
        return triggers

    # -- internals -------------------------------------------------------------

    def _spawn_process_shards(
        self, state: ChaseState, parts: Sequence[Tuple[int, ...]]
    ) -> None:
        ctx = _mp_context()
        for members in parts:
            self._shards.append(
                _StreamProcessShard(
                    ctx,
                    state.relation,
                    tuple((p, self._compiled[p]) for p in members),
                    kernel=self._kernel_backend,
                )
            )

    def _spawn_thread_shards(
        self, state: ChaseState, parts: Sequence[Tuple[int, ...]]
    ) -> None:
        if self._kernel_backend is None:
            state.row_index  # materialise once, before worker threads share it
        self._pool = ThreadPoolExecutor(
            max_workers=len(parts), thread_name_prefix="chase-stream"
        )
        for members in parts:
            core = _StreamCore(
                tuple((p, self._compiled[p]) for p in members),
                state,
                owns_state=False,
                kernel=self._kernel_backend,
            )
            self._shards.append(_StreamThreadShard(core, self._pool))
        for shard in self._shards:
            shard.seed_async()


#: The concrete strategies by configuration name (``"auto"`` -> incremental).
STRATEGY_REGISTRY = {
    "rescan": RescanStrategy,
    "incremental": IncrementalStrategy,
    "sharded": ShardedStrategy,
    "streaming": StreamingStrategy,
    "auto": IncrementalStrategy,
}


def make_strategy(
    choice: Union[str, ChaseStrategy, None],
    *,
    shard_count: Optional[int] = None,
    kernel: Optional[str] = None,
) -> ChaseStrategy:
    """Resolve a strategy name (or pass through a ready-made instance).

    ``None`` and ``"auto"`` resolve to :class:`IncrementalStrategy`.
    ``shard_count`` configures the ``"sharded"`` / ``"streaming"``
    strategies' worker count and ``kernel`` the columnar trigger-matching
    kernel of every delta-driven strategy (the engine forwards
    ``ChaseBudget.shard_count`` / ``ChaseBudget.chase_kernel`` here);
    either is ignored by strategies it does not apply to.  A strategy
    *instance* is returned as-is -- :meth:`ChaseStrategy.start` resets all
    per-run bookkeeping, so one instance can serve many runs.
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
        if factory in (ShardedStrategy, StreamingStrategy):
            return factory(
                shard_count=(
                    DEFAULT_SHARD_COUNT if shard_count is None else shard_count
                ),
                kernel=kernel,
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
