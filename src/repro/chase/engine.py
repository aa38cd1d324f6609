"""The chase engine: fair round-based scheduling behind a strategy seam.

The engine repeatedly asks its :class:`~repro.chase.strategies.ChaseStrategy`
for one *round* of trigger candidates, then applies them one at a time,
re-validating each trigger just before application because earlier steps in
the same round may already have satisfied it.  Every applied step reports a
:class:`~repro.chase.steps.StepDelta` back to the strategy.  The chase stops
when a round offers no trigger (``TERMINATED``) or when the step/row budget
is exhausted (``BUDGET_EXHAUSTED``).

Re-validation goes through the strategy when it offers a
``trigger_is_active`` hook.  The incremental strategy on the columnar kernel
does: it answers from its column mirror of the live tableau with one
lookup or mask computation.  Everything else -- rescan, ``chase_kernel="off"``, custom
strategies, and the restored tail of a resumed round -- uses
:func:`~repro.chase.steps.trigger_is_active`, which scans the tableau for a
witness row when the td's conclusion has existential values.

**The strategy seam.**  Two strategies are provided:

* ``"rescan"`` re-enumerates all homomorphisms of all dependency bodies
  against the whole tableau every round (the historical engine, kept as the
  reference oracle);
* ``"incremental"`` (the default, via ``"auto"``) maintains a per-dependency
  trigger worklist updated from step deltas, so a round costs work
  proportional to what changed instead of to the tableau size, and a step's
  re-validation costs one kernel lookup or mask computation.

Pick one with ``ChaseBudget(chase_strategy="rescan")`` (or the ``strategy``
keyword of :class:`ChaseEngine` / :func:`chase`, which overrides the budget
field).  Pin ``"rescan"`` when debugging: it is the simplest possible
scheduler and the oracle the incremental index is differentially tested
against.

**The fairness invariant.**  Round-based scheduling is *fair*: every active
trigger found in round ``r`` is applied (or discovered to be satisfied)
before any trigger first found in round ``r + 1``.  Fairness is what makes
the chase a sound and complete semi-decision procedure for unrestricted
implication; the explicit budget is what keeps the engine total despite the
undecidability the paper proves.  To keep the strategies byte-identical,
the engine canonicalizes, deduplicates, and deterministically orders each
round's candidates before applying them -- the per-round *sets* of active
triggers provably coincide (a new homomorphism must route through a changed
row, and satisfied dependencies stay satisfied as the tableau only
grows/merges), so ordering them identically makes the applied step sequences
-- and hence fresh-value names, merges, and final tableaux -- identical.

**One trigger per conclusion.**  A round keeps only the first trigger, in
that order, of each *group*: a td's position plus the images of its
conclusion's body values, or an egd's position plus the images of its two
sides.  Every trigger of a group adds the same row (fresh values aside) or
merges the same pair, and whether it is active depends on its group alone.
So once the group's first trigger has been applied, or found inactive,
every later one is inactive too, and dropping them changes no step: the
result is byte-identical, only the round's trigger list is shorter.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.chase.checkpoint import CheckpointWriter, ResumePoint, load_checkpoint
from repro.chase.result import ChaseResult, ChaseStatus, ChaseStep
from repro.chase.strategies import ChaseStrategy, make_strategy
from repro.config import ChaseBudget, ConfigError
from repro.chase.steps import (
    ChaseDependency,
    ChaseState,
    CompiledDependency,
    Trigger,
    apply_egd_step,
    apply_td_step,
    compile_dependency,
    initial_state,
    trigger_is_active,
)
from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.td import TemplateDependency
from repro.model.relations import Relation
from repro.model.valuations import Valuation
from repro.util.errors import (
    ChaseBudgetExceeded,
    ChaseDeadlineExceeded,
    DependencyError,
)

StrategyChoice = Union[str, ChaseStrategy, None]

#: Run observers: callables invoked with every finished :class:`ChaseResult`.
#: The solver service installs one to feed its chase-rounds/steps metrics;
#: anything else watching chase behaviour process-wide can hook in the same
#: way.  Observers run on whatever thread ran the chase and must not raise.
_run_observers: list = []


def add_run_observer(observer) -> None:
    """Register a callable invoked with each finished :class:`ChaseResult`."""
    _run_observers.append(observer)


def remove_run_observer(observer) -> None:
    """Unregister a previously added run observer (missing ones are ignored)."""
    try:
        _run_observers.remove(observer)
    except ValueError:
        pass


class ChaseEngine:
    """A reusable chase runner for a fixed set of dependencies.

    Parameters
    ----------
    dependencies:
        Template and equality-generating dependencies to chase with.  Other
        dependency classes (fds, mvds, jds, pjds) must first be converted via
        :mod:`repro.dependencies.conversion` / :mod:`repro.implication.engine`,
        which keeps this engine's semantics exactly those of the paper's two
        primitive classes.
    budget:
        The :class:`~repro.config.ChaseBudget` limiting steps and tableau
        size and carrying the default scheduling strategy (defaults to
        ``ChaseBudget()``).
    strategy:
        Scheduling override: ``"rescan"``, ``"incremental"``, ``"auto"``,
        or a :class:`~repro.chase.strategies.ChaseStrategy` instance.
        ``None`` (the default) defers to ``budget.chase_strategy``.
    trace:
        Record every applied step in the result's trace.
    raise_on_budget:
        Raise :class:`ChaseBudgetExceeded` instead of returning a
        ``BUDGET_EXHAUSTED`` result.

    Every parameter after ``dependencies`` is keyword-only.
    """

    def __init__(
        self,
        dependencies: Sequence[ChaseDependency],
        *,
        trace: bool = False,
        raise_on_budget: bool = False,
        fresh_prefix: str = "n",
        budget: Optional[ChaseBudget] = None,
        strategy: StrategyChoice = None,
    ) -> None:
        for dependency in dependencies:
            if not isinstance(
                dependency, (TemplateDependency, EqualityGeneratingDependency)
            ):
                raise DependencyError(
                    "the chase engine accepts only template and "
                    "equality-generating dependencies; convert other classes first"
                )
        self._dependencies = tuple(dependencies)
        self._budget = budget if budget is not None else ChaseBudget()
        self._max_steps = self._budget.max_steps
        self._max_rows = self._budget.max_rows
        self._trace = trace
        self._raise_on_budget = raise_on_budget
        self._fresh_prefix = fresh_prefix
        self._strategy_choice: StrategyChoice = strategy
        self._compiled: Tuple[CompiledDependency, ...] = tuple(
            compile_dependency(dependency) for dependency in self._dependencies
        )
        # Keyed by dependency *value* (tds/egds hash by content), so triggers
        # carrying an equal-but-not-identical dependency object -- possible
        # through the compile cache or a custom strategy -- still resolve.
        self._positions: Dict[ChaseDependency, Tuple[int, CompiledDependency]] = {
            cd.dependency: (position, cd)
            for position, cd in enumerate(self._compiled)
        }
        # The same entries keyed by object identity, tried first: strategies
        # emit triggers carrying ``cd.dependency`` itself, and hashing a
        # dependency hashes its whole body.  ``_compiled`` keeps the objects
        # alive, so their ids cannot be reused.
        self._positions_by_id = {
            id(cd.dependency): self._positions[cd.dependency]
            for cd in self._compiled
        }

    @property
    def dependencies(self) -> tuple[ChaseDependency, ...]:
        """The dependencies this engine chases with."""
        return self._dependencies

    @property
    def budget(self) -> ChaseBudget:
        """The budget limiting this engine's runs."""
        return self._budget

    @property
    def strategy_name(self) -> str:
        """The scheduling strategy a :meth:`run` will use."""
        return self._make_strategy().name

    def _make_strategy(self) -> ChaseStrategy:
        return make_strategy(
            self._strategy_choice
            if self._strategy_choice is not None
            else self._budget.chase_strategy,
            kernel=self._budget.chase_kernel,
        )

    def run(self, instance: Relation) -> ChaseResult:
        """Chase ``instance`` and return the result."""
        state = initial_state(instance, fresh_prefix=self._fresh_prefix)
        strategy = self._make_strategy()
        writer = self._make_writer(instance)
        try:
            return self._run(instance, state, strategy, writer=writer)
        finally:
            if writer is not None:
                # After a footer this is a no-op; on an exception path it
                # leaves a footer-less (orphaned, resumable) log behind --
                # exactly the crash semantics recovery scans for.
                writer.close()

    def resume(self, point: ResumePoint) -> ChaseResult:
        """Continue a chase from a loaded :class:`ResumePoint`.

        The engine must have been built with the point's dependencies (the
        module-level :func:`resume_chase` does exactly that).  The point is
        single-use: its state is mutated in place.
        """
        if tuple(point.dependencies) != self._dependencies:
            raise ConfigError(
                "this engine was built with different dependencies than the "
                "checkpoint log; use resume_chase() to rebuild from the log"
            )
        strategy = self._make_strategy()
        writer = self._make_writer(point.instance)
        try:
            return self._run(
                point.instance, point.state, strategy, writer=writer, resume=point
            )
        finally:
            if writer is not None:
                writer.close()

    def _make_writer(self, instance: Relation) -> Optional[CheckpointWriter]:
        config = self._budget.checkpoint
        if config.resolved_mode() != "on":
            return None
        return CheckpointWriter(
            config.resolved_directory(),
            dependencies=self._dependencies,
            budget=self._budget,
            instance=instance,
            fresh_prefix=self._fresh_prefix,
            trace=self._trace,
            interval=config.interval,
            retention=config.retention,
        )

    def _run(
        self,
        instance: Relation,
        state: ChaseState,
        strategy: ChaseStrategy,
        writer: Optional[CheckpointWriter] = None,
        resume: Optional[ResumePoint] = None,
    ) -> ChaseResult:
        initial_values = instance.values()
        steps = 0
        rounds = 0
        trace: list[ChaseStep] = []

        if resume is not None:
            steps = resume.steps
            rounds = resume.rounds
            if self._trace:
                trace = list(resume.trace)
            if writer is not None:
                # A resumed run's log is self-contained: header (original
                # instance) + an immediate snapshot of the resume state +
                # the pending tail as its own round record, then normal
                # appends -- so chains of resumes replay standalone.
                writer.snapshot(state, steps, rounds, trace)
            if resume.pending:
                # The in-progress round's remaining triggers are applied
                # *before* the strategy starts: each is re-validated against
                # the live state exactly like the original run did, and the
                # strategy then seeds its worklist from the post-tail
                # tableau -- which provably reproduces the uninterrupted
                # run's next round for every strategy.
                if writer is not None:
                    writer.round(rounds, resume.pending)
                steps, exhausted = self._apply_round(
                    state,
                    resume.pending,
                    None,
                    steps,
                    rounds,
                    trace,
                    initial_values,
                    writer,
                )
                if exhausted:
                    # Resolve the strategy's kernel label so the result is
                    # byte-identical to a straight run cut at this step
                    # (start() is cheap relative to a resume).
                    strategy.start(state, self._compiled)
                    return self._budget_exhausted(
                        state, steps, rounds, trace, initial_values, strategy, writer
                    )

        strategy.start(state, self._compiled)

        deadline = self._budget.deadline
        while True:
            # The deadline is checked at the round boundary (never mid-round)
            # so a cut run still ends on a state every strategy agrees on --
            # the same barrier at which checkpoint snapshots are coherent.
            if deadline is not None and time.monotonic() >= deadline:
                self._deadline_exceeded(state, steps, rounds, trace, writer)
            rounds += 1
            round_triggers = self._fair_order(state, strategy.next_round())
            if not round_triggers:
                return self._result(
                    state,
                    ChaseStatus.TERMINATED,
                    steps,
                    rounds,
                    trace,
                    initial_values,
                    strategy,
                    writer,
                )
            if writer is not None:
                writer.round(rounds, round_triggers)
            steps, exhausted = self._apply_round(
                state,
                round_triggers,
                strategy,
                steps,
                rounds,
                trace,
                initial_values,
                writer,
            )
            if exhausted:
                return self._budget_exhausted(
                    state, steps, rounds, trace, initial_values, strategy, writer
                )

    def _apply_round(
        self,
        state: ChaseState,
        round_triggers: Sequence[Trigger],
        strategy: Optional[ChaseStrategy],
        steps: int,
        rounds: int,
        trace: list,
        initial_values,
        writer: Optional[CheckpointWriter],
    ) -> Tuple[int, bool]:
        """Apply one fair-ordered round; returns (steps, budget_exhausted).

        ``strategy=None`` skips delta publication -- the resume path uses
        this for the restored pending tail, before the strategy starts.

        Each trigger is re-validated through the strategy's own
        ``trigger_is_active`` when it has one (the incremental strategy
        answers from its kernel mirror without scanning the tableau), and
        through the reference :func:`~repro.chase.steps.trigger_is_active`
        otherwise.
        """
        is_active = getattr(strategy, "trigger_is_active", None) or trigger_is_active
        for position, trigger in enumerate(round_triggers):
            _, compiled = self._position(trigger.dependency)
            alpha = is_active(state, trigger, compiled)
            if alpha is None:
                continue
            if steps >= self._max_steps or len(state) >= self._max_rows:
                return steps, True
            if compiled.is_td:
                delta = apply_td_step(
                    state, trigger.dependency, alpha, compiled.body_values
                )
            else:
                delta = apply_egd_step(
                    state, trigger.dependency, alpha, initial_values
                )
            # Publish the step's delta before the next trigger is
            # re-validated: the incremental strategy lands it on the kernel
            # mirror that answers that re-validation.
            if strategy is not None:
                strategy.observe(delta)
            steps += 1
            if writer is not None:
                writer.step(steps, rounds, position, trigger, alpha, delta)
            if self._trace:
                if compiled.is_td:
                    detail = f"added row {delta.row}"
                else:
                    detail = (
                        f"merged {delta.replaced.name} into {delta.kept.name}"
                    )
                trace.append(
                    ChaseStep(
                        index=steps,
                        kind=trigger.kind(),
                        dependency=_label(trigger.dependency),
                        detail=detail,
                    )
                )
            if writer is not None:
                writer.maybe_snapshot(state, steps, rounds, trace)
        return steps, False

    # -- helpers ---------------------------------------------------------------

    def _position(
        self, dependency: ChaseDependency
    ) -> Tuple[int, CompiledDependency]:
        """The position and compiled form of one of this engine's dependencies."""
        found = self._positions_by_id.get(id(dependency))
        return found if found is not None else self._positions[dependency]

    def _fair_order(
        self, state: ChaseState, triggers: Iterable[Trigger]
    ) -> List[Trigger]:
        """Canonicalize, keep one trigger per conclusion, and order one round.

        Strategy-discovered triggers may predate merges applied since
        discovery; canonicalizing at the round boundary (and grouping on
        the canonical form) makes every strategy present the *same* ordered
        trigger sequence to the application loop, which is what keeps their
        results byte-identical and every run deterministic.

        Each trigger canonicalizes and keys itself: one with a
        ``round_key(position)`` method (the kernel's id triggers) answers
        ``(canonical trigger, group, order)`` on its own, any other is keyed
        by its valuation (:func:`_valuation_round_key`).  Both orders are
        the position, then ``_valuation_key``.  Each group keeps its first
        trigger in that order (see the module docstring for why the rest
        cannot fire).
        """
        chosen: Dict[tuple, Tuple[tuple, Trigger]] = {}
        for trigger in triggers:
            position, compiled = self._position(trigger.dependency)
            round_key = getattr(trigger, "round_key", None)
            if round_key is not None:
                canonical, group, order = round_key(position)
            else:
                canonical, group, order = _valuation_round_key(
                    state, trigger, position, compiled
                )
            held = chosen.get(group)
            if held is None or order < held[0]:
                chosen[group] = (order, canonical)
        return [trigger for _, trigger in sorted(chosen.values(), key=itemgetter(0))]

    def _deadline_exceeded(self, state, steps, rounds, trace, writer=None):
        """Raise :class:`ChaseDeadlineExceeded`, sealing a resumable log first.

        Unlike step/row exhaustion this *always* raises -- a deadline cut is
        a property of one request, not of the problem, so it must never be
        folded into an ``UNKNOWN`` outcome that a cache could serve to a
        later, unhurried caller.  The sealed log uses the
        ``BUDGET_EXHAUSTED`` footer status, so the ordinary resume machinery
        picks the run up exactly like a budget-cut one.
        """
        token = None
        if writer is not None:
            writer.snapshot(state, steps, rounds, trace)
            token = writer.footer(ChaseStatus.BUDGET_EXHAUSTED.value, steps, rounds)
        error = ChaseDeadlineExceeded(
            f"chase deadline exceeded after {steps} steps "
            f"({len(state)} rows)"
        )
        error.checkpoint = token
        raise error

    def _budget_exhausted(
        self, state, steps, rounds, trace, initial_values, strategy, writer=None
    ):
        if self._raise_on_budget:
            # Seal the log first so even the raising path leaves a
            # resumable checkpoint; the token rides on the exception.
            token = None
            if writer is not None:
                writer.snapshot(state, steps, rounds, trace)
                token = writer.footer(
                    ChaseStatus.BUDGET_EXHAUSTED.value, steps, rounds
                )
            error = ChaseBudgetExceeded(
                f"chase budget exhausted after {steps} steps "
                f"({len(state)} rows)"
            )
            error.checkpoint = token
            raise error
        return self._result(
            state,
            ChaseStatus.BUDGET_EXHAUSTED,
            steps,
            rounds,
            trace,
            initial_values,
            strategy,
            writer,
        )

    def _result(
        self, state, status, steps, rounds, trace, initial_values, strategy,
        writer=None,
    ):
        token = None
        if writer is not None:
            if status is ChaseStatus.BUDGET_EXHAUSTED:
                # Always snapshot at exhaustion: resume then replays zero
                # steps instead of up to ``interval`` of them.
                writer.snapshot(state, steps, rounds, trace)
                token = writer.footer(status.value, steps, rounds)
            else:
                writer.footer(status.value, steps, rounds)
        canon = {value: state.find(value) for value in initial_values}
        result = ChaseResult(
            relation=state.relation,
            status=status,
            steps=steps,
            rounds=rounds,
            canon=canon,
            trace=tuple(trace),
            strategy=strategy.name,
            # Strategies resolve their trigger matcher in start(); anything
            # without the attribute (custom strategies) ran the classic path.
            kernel=getattr(strategy, "kernel", None) or "off",
            checkpoint=token,
        )
        for observer in tuple(_run_observers):
            observer(result)
        return result


def chase(
    instance: Optional[Relation] = None,
    dependencies: Optional[Iterable[ChaseDependency]] = None,
    *,
    trace: bool = False,
    budget: Optional[ChaseBudget] = None,
    strategy: StrategyChoice = None,
    resume_from: Union[str, ResumePoint, None] = None,
    checkpoint_directory: Optional[str] = None,
) -> ChaseResult:
    """Chase ``instance`` with ``dependencies`` (convenience wrapper).

    ``budget`` is the :class:`~repro.config.ChaseBudget` of the run
    (``None`` means ``ChaseBudget()``); ``strategy`` overrides its
    ``chase_strategy`` field.  Every parameter after ``dependencies`` is
    keyword-only.

    ``resume_from`` continues an interrupted run instead of starting a new
    one: pass a checkpoint token (resolved against ``checkpoint_directory``),
    a log path, or a loaded :class:`ResumePoint`.  The instance and the
    dependencies then come from the log and must not be passed; ``budget``
    (when given) overrides the log's budget -- raise it to escape the
    exhaustion that cut the original run short.
    """
    if resume_from is not None:
        if instance is not None or dependencies is not None:
            raise ConfigError(
                "chase(resume_from=...) reads the instance and dependencies "
                "from the checkpoint log; do not pass them"
            )
        return resume_chase(
            resume_from,
            budget=budget,
            strategy=strategy,
            trace=trace if trace else None,
            directory=checkpoint_directory,
        )
    if instance is None or dependencies is None:
        raise ConfigError("chase() needs an instance and dependencies")
    engine = ChaseEngine(
        list(dependencies),
        trace=trace,
        budget=budget,
        strategy=strategy,
    )
    return engine.run(instance)


def resume_chase(
    checkpoint: Union[str, ResumePoint],
    *,
    budget: Optional[ChaseBudget] = None,
    strategy: StrategyChoice = None,
    trace: Optional[bool] = None,
    directory: Optional[str] = None,
) -> ChaseResult:
    """Resume an interrupted chase from its durable checkpoint log.

    ``checkpoint`` is a token (resolved against ``directory`` or the default
    checkpoint directory), a log path, or an already-loaded
    :class:`ResumePoint` (single-use).  ``budget=None`` keeps the log's own
    budget -- right for crash recovery, which finishes the originally
    budgeted work; a run that ended ``BUDGET_EXHAUSTED`` needs a raised
    budget to make progress.  ``strategy`` / ``trace`` default to the log's
    settings; a log whose header names a retired strategy resumes under its
    replacement (see :meth:`~repro.config.ChaseBudget.from_dict`).

    The resumed run is byte-identical to an uninterrupted run under the
    final budget in every state-bearing field -- status, relation (fresh
    names included), canon, steps, trace, kernel: the restored state replays
    through the real step functions, the in-progress round's tail is applied
    first, and the strategy re-seeds from the post-tail tableau.  ``rounds``
    is scheduling bookkeeping and may undercount by one on termination (the
    uninterrupted run can end with an extra round listing only
    already-satisfied triggers) -- the same caveat under which the two
    strategies are mutually byte-identical.  When checkpointing is on for
    the resumed run too, it writes a fresh self-contained log (resumes
    chain).
    """
    point = load_checkpoint(checkpoint, directory=directory)
    engine = ChaseEngine(
        list(point.dependencies),
        trace=point.trace_enabled if trace is None else trace,
        budget=budget if budget is not None else point.budget,
        strategy=strategy,
        fresh_prefix=point.fresh_prefix,
    )
    return engine.resume(point)


def _valuation_key(alpha: Valuation) -> tuple:
    """A deterministic, content-based sort key for a canonical valuation."""
    return tuple(
        sorted(
            (source.name, source.tag or "", target.name, target.tag or "")
            for source, target in alpha.as_dict().items()
        )
    )


def _valuation_round_key(
    state: ChaseState, trigger: Trigger, position: int, compiled: CompiledDependency
) -> Tuple[Trigger, tuple, tuple]:
    """``(canonical trigger, group, order)`` of a trigger held as a valuation.

    The reference keying, used by rescan and the classic matcher: ``group``
    is the position plus the images that decide the step (a td's
    conclusion values bound by the body, an egd's two sides), ``order`` the
    position plus :func:`_valuation_key`.
    """
    alpha = state.canonicalize(trigger.valuation)
    if compiled.is_td:
        group = (position, tuple(map(alpha, compiled.conclusion_bound)))
    else:
        group = (position, alpha(compiled.left), alpha(compiled.right))
    return Trigger(trigger.dependency, alpha), group, (position, _valuation_key(alpha))


def _label(dependency: ChaseDependency) -> str:
    name = getattr(dependency, "name", None)
    if name:
        return name
    return dependency.describe().splitlines()[0]
