"""Unit tests for the sharded chase strategy and its partitioner.

Byte-identity of whole sharded runs against the rescan/incremental oracles
lives in ``tests/chase/test_differential.py``; this module covers the
pieces: the deterministic dependency partitioner and its value-graph
component refinement, the round-barrier delta replay, the thread/process
executors (including the fallback), worker lifecycle and teardown when a
dependency poisons a worker or an interrupt lands mid-round, and the
``shard_count`` plumbing through budgets, configs, engines, and solvers.
"""

import multiprocessing

import pytest

from repro.chase import (
    ChaseEngine,
    ShardedStrategy,
    StrategyError,
    chase,
    compile_dependency,
    initial_state,
    make_strategy,
    partition_dependencies,
    value_components,
)
from repro.chase.strategies import IncrementalStrategy, RescanStrategy
from repro.config import ChaseBudget, ConfigError, SolverConfig
from repro.dependencies import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    TemplateDependency,
    fd_to_egds,
)
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import untyped

AB = Universe.from_names("AB")
ABC = Universe.from_names("ABC")


def successor_td(name="succ"):
    body = Relation.untyped(AB, [["x", "y"]])
    return TemplateDependency(Row.untyped_over(AB, ["y", "z"]), body, name=name)


def untyped_fd_egd():
    body = Relation.untyped(AB, [["u", "p"], ["u", "q"]])
    values = {v.name: v for v in body.values()}
    return EqualityGeneratingDependency(values["p"], values["q"], body)


def chain_instance(length=8, primed=True):
    rows = [[f"v{i}", f"v{i + 1}"] for i in range(length)]
    if primed:
        rows += [
            ["v0" if i == 0 else f"w{i}", f"w{i + 1}"] for i in range(length)
        ]
    return Relation.untyped(AB, rows)


class TestValueComponents:
    def test_rows_connect_their_values(self):
        relation = Relation.untyped(AB, [["a", "b"], ["b", "c"], ["x", "y"]])
        canon = value_components(relation)
        a, b, c = untyped("a"), untyped("b"), untyped("c")
        x, y = untyped("x"), untyped("y")
        assert canon[a] == canon[b] == canon[c]
        assert canon[x] == canon[y]
        assert canon[a] != canon[x]

    def test_representative_is_lexicographically_least(self):
        relation = Relation.untyped(AB, [["m", "z"], ["z", "b"]])
        canon = value_components(relation)
        assert canon[untyped("z")] == untyped("b")

    def test_deterministic_across_equal_relations(self):
        rows = [["a", "b"], ["c", "d"], ["b", "c"]]
        first = value_components(Relation.untyped(AB, rows))
        second = value_components(Relation.untyped(AB, list(reversed(rows))))
        assert first == second


class TestPartitioner:
    def _compiled(self, dependencies):
        return tuple(compile_dependency(d) for d in dependencies)

    def test_partition_is_deterministic_and_covers_every_position(self):
        deps = [successor_td(), *fd_to_egds(FunctionalDependency(["A"], ["B"]), ABC)]
        compiled = self._compiled(deps)
        relation = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        first = partition_dependencies(compiled, 3, relation)
        second = partition_dependencies(compiled, 3, relation)
        assert first == second
        positions = sorted(p for shard in first for p in shard)
        assert positions == list(range(len(compiled)))

    def test_single_shard_and_empty_inputs(self):
        deps = [successor_td(), untyped_fd_egd()]
        compiled = self._compiled(deps)
        relation = chain_instance(3)
        assert partition_dependencies(compiled, 1, relation) == ((0, 1),)
        assert partition_dependencies((), 4, relation) == ()

    def test_same_fingerprint_egds_share_a_shard(self):
        """Egds whose merges touch the same value-graph components co-locate."""
        body_ab = Relation.untyped(AB, [["u", "p"], ["u", "q"]])
        values = {v.name: v for v in body_ab.values()}
        forward = EqualityGeneratingDependency(values["p"], values["q"], body_ab)
        body_ba = Relation.untyped(AB, [["p", "u"], ["q", "u"]])
        values = {v.name: v for v in body_ba.values()}
        backward = EqualityGeneratingDependency(values["p"], values["q"], body_ba)
        compiled = self._compiled([forward, backward])
        parts = partition_dependencies(compiled, 4, chain_instance(4))
        owner = {p: i for i, shard in enumerate(parts) for p in shard}
        assert owner[0] == owner[1]

    def test_tds_balance_across_shards(self):
        # Distinct bodies so the compiled dependencies are actually different.
        deps = []
        for i in range(4):
            body = Relation.untyped(AB, [[f"x{i}", f"y{i}"]])
            deps.append(
                TemplateDependency(
                    Row.untyped_over(AB, [f"y{i}", f"z{i}"]), body, name=f"t{i}"
                )
            )
        parts = partition_dependencies(self._compiled(deps), 2, chain_instance(3))
        sizes = sorted(len(shard) for shard in parts)
        assert sizes == [2, 2]


class TestShardedRounds:
    def test_seeding_matches_rescan_round_one(self):
        instance = chain_instance(6)
        state = initial_state(instance)
        compiled = (
            compile_dependency(successor_td()),
            compile_dependency(untyped_fd_egd()),
        )
        rescan = RescanStrategy()
        rescan.start(state, compiled)
        expected = {
            (id(t.dependency), t.valuation) for t in rescan.next_round()
        }
        sharded = ShardedStrategy(shard_count=2, executor="thread")
        try:
            sharded.start(state, compiled)
            seeded = {
                (id(t.dependency), t.valuation) for t in sharded.next_round()
            }
        finally:
            sharded.close()
        assert seeded == expected

    def test_delta_discoveries_wait_for_the_next_barrier(self):
        """Fairness: triggers found from a round's deltas join the next round."""
        from repro.chase.steps import apply_td_step

        td = successor_td()
        state = initial_state(chain_instance(3, primed=False))
        compiled = (compile_dependency(td),)
        strategy = ShardedStrategy(shard_count=2, executor="thread")
        try:
            strategy.start(state, compiled)
            first = strategy.next_round()
            assert first
            delta = apply_td_step(state, td, first[0].valuation)
            strategy.observe(delta)
            second = strategy.next_round()
            assert second
            assert {t.valuation for t in first}.isdisjoint(
                {t.valuation for t in second}
            )
            # Nothing applied since the last barrier -> no candidates left.
            assert strategy.next_round() == []
        finally:
            strategy.close()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executors_agree_with_incremental(self, executor):
        instance = chain_instance(10)
        deps = [successor_td(), untyped_fd_egd()]
        budget = ChaseBudget(max_steps=24)
        reference = chase(instance, deps, budget=budget, strategy="incremental")
        strategy = ShardedStrategy(shard_count=3, executor=executor)
        result = chase(instance, deps, budget=budget, strategy=strategy)
        assert strategy.executor == executor
        assert result.strategy == "sharded"
        assert result.relation == reference.relation
        assert result.steps == reference.steps
        assert dict(result.canon) == dict(reference.canon)

    def test_auto_executor_prefers_threads_on_small_tableaux(self):
        strategy = ShardedStrategy(shard_count=2, executor="auto")
        result = chase(
            chain_instance(4),
            [successor_td(), untyped_fd_egd()],
            budget=ChaseBudget(max_steps=6),
            strategy=strategy,
        )
        assert result.strategy == "sharded"
        assert strategy.executor == "thread"

    def test_auto_executor_cuts_over_to_processes_at_the_threshold(
        self, monkeypatch
    ):
        import repro.chase.strategies as strategies_module

        monkeypatch.setattr(strategies_module.os, "cpu_count", lambda: 4)
        strategy = ShardedStrategy(
            shard_count=2, executor="auto", process_threshold=8
        )
        result = chase(
            chain_instance(8),
            [successor_td(), untyped_fd_egd()],
            budget=ChaseBudget(max_steps=6),
            strategy=strategy,
        )
        assert result.strategy == "sharded"
        assert strategy.executor == "process"

    def test_engine_reaps_worker_processes(self):
        """After a run the engine has closed the strategy's worker pool."""
        strategy = ShardedStrategy(shard_count=2, executor="process")
        engine = ChaseEngine(
            [successor_td(), untyped_fd_egd()],
            budget=ChaseBudget(max_steps=12),
            strategy=strategy,
        )
        engine.run(chain_instance(6))
        for child in multiprocessing.active_children():
            child.join(timeout=5)
        assert not multiprocessing.active_children()

    def test_strategy_instance_is_reusable_across_runs(self):
        strategy = ShardedStrategy(shard_count=2, executor="thread")
        engine = ChaseEngine(
            [untyped_fd_egd()], budget=ChaseBudget(), strategy=strategy
        )
        first = engine.run(chain_instance(5))
        second = engine.run(chain_instance(5))
        assert first.relation == second.relation
        assert first.steps == second.steps

    def test_spawn_failure_falls_back_only_under_auto(self, monkeypatch):
        """auto degrades to threads when workers cannot spawn; an explicit
        ``executor="process"`` request fails loudly instead of silently
        measuring the GIL-serialized thread pool."""
        import repro.chase.strategies as strategies_module

        def refuse_spawn(self, state, parts):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(
            strategies_module.ShardedStrategy, "_spawn_process_shards", refuse_spawn
        )
        monkeypatch.setattr(strategies_module.os, "cpu_count", lambda: 4)
        auto = ShardedStrategy(shard_count=2, executor="auto", process_threshold=1)
        result = chase(
            chain_instance(4),
            [successor_td(), untyped_fd_egd()],
            budget=ChaseBudget(max_steps=4),
            strategy=auto,
        )
        assert auto.executor == "thread"
        assert result.strategy == "sharded"
        pinned = ShardedStrategy(shard_count=2, executor="process")
        with pytest.raises(StrategyError):
            chase(
                chain_instance(4),
                [successor_td(), untyped_fd_egd()],
                budget=ChaseBudget(max_steps=4),
                strategy=pinned,
            )

    def test_worker_count_never_exceeds_dependency_count(self):
        """More shards than dependencies: empty shards are skipped, results hold."""
        strategy = ShardedStrategy(shard_count=8, executor="thread")
        result = chase(
            chain_instance(5),
            [untyped_fd_egd()],
            budget=ChaseBudget(),
            strategy=strategy,
        )
        reference = chase(
            chain_instance(5), [untyped_fd_egd()], budget=ChaseBudget()
        )
        assert result.relation == reference.relation


class TestExecutorShutdown:
    """The executor-teardown regression suite: a shard worker raising
    mid-round (or an interrupt in the parent) must never leak worker
    processes or thread pools -- the engine's ``finally`` closes the
    strategy on every exit path."""

    @staticmethod
    def _poison(monkeypatch):
        """Make trigger extension explode for the dependency named 'poison'.

        Both matchers are poisoned -- the classic ``extend_through`` and the
        columnar kernel's method -- so the teardown property holds however
        the strategy's kernel mode resolves in this environment.
        """
        import repro.chase.kernel as kernel_module
        import repro.chase.strategies as strategies_module

        real = strategies_module.extend_through

        def exploding(cd, row, relation, index, emit):
            if getattr(cd.dependency, "name", None) == "poison":
                raise RuntimeError("injected dependency failure")
            return real(cd, row, relation, index, emit)

        real_kernel = kernel_module.TriggerKernel.extend_through

        def exploding_kernel(self, cd, row, emit):
            if getattr(cd.dependency, "name", None) == "poison":
                raise RuntimeError("injected dependency failure")
            return real_kernel(self, cd, row, emit)

        monkeypatch.setattr(strategies_module, "extend_through", exploding)
        monkeypatch.setattr(
            kernel_module.TriggerKernel, "extend_through", exploding_kernel
        )

    def _assert_no_leaked_children(self):
        for child in multiprocessing.active_children():
            child.join(timeout=5)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_failing_dependency_reaps_executors(self, monkeypatch, executor):
        self._poison(monkeypatch)
        # Structurally distinct from successor_td(): content-equal tds would
        # collapse in the compile cache and the poison name would vanish.
        body = Relation.untyped(AB, [["px", "py"]])
        poison = TemplateDependency(
            Row.untyped_over(AB, ["py", "pz"]), body, name="poison"
        )
        strategy = ShardedStrategy(shard_count=2, executor=executor)
        engine = ChaseEngine(
            [successor_td(), poison],
            budget=ChaseBudget(max_steps=12),
            strategy=strategy,
        )
        with pytest.raises(StrategyError, match="injected dependency failure"):
            engine.run(chain_instance(4, primed=False))
        assert strategy._shards == []
        assert strategy._pool is None
        self._assert_no_leaked_children()
        # The strategy stays usable: start() respawns a healthy pool.
        healthy = ChaseEngine(
            [successor_td()], budget=ChaseBudget(max_steps=4), strategy=strategy
        )
        monkeypatch.undo()
        result = healthy.run(chain_instance(3, primed=False))
        assert result.steps == 4
        self._assert_no_leaked_children()

    def test_keyboard_interrupt_mid_round_reaps_worker_processes(
        self, monkeypatch
    ):
        import repro.chase.strategies as strategies_module

        real_collect = strategies_module._ProcessShard.collect
        replies = []

        def interrupt_after_seeding(self):
            # Both shards answer their seed; the first barrier reply of
            # round two is interrupted while every worker holds a request.
            replies.append(self)
            if len(replies) > 2:
                raise KeyboardInterrupt
            return real_collect(self)

        monkeypatch.setattr(
            strategies_module._ProcessShard, "collect", interrupt_after_seeding
        )
        strategy = ShardedStrategy(shard_count=2, executor="process")
        engine = ChaseEngine(
            [successor_td(), untyped_fd_egd()],
            budget=ChaseBudget(max_steps=8),
            strategy=strategy,
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(chain_instance(6))
        assert len(replies) == 3
        assert strategy._shards == []
        self._assert_no_leaked_children()


class TestShardedConfigPlumbing:
    def test_make_strategy_builds_sharded_with_count(self):
        strategy = make_strategy("sharded", shard_count=4)
        assert isinstance(strategy, ShardedStrategy)
        assert strategy.name == "sharded"
        assert strategy.shard_count == 4
        assert make_strategy("sharded").shard_count == ChaseBudget().shard_count
        # shard_count is ignored by the sequential strategies
        assert isinstance(
            make_strategy("incremental", shard_count=4), IncrementalStrategy
        )

    def test_invalid_shard_configuration_raises(self):
        with pytest.raises(StrategyError):
            ShardedStrategy(shard_count=0)
        with pytest.raises(StrategyError):
            ShardedStrategy(executor="quantum")
        with pytest.raises(ConfigError):
            ChaseBudget(shard_count=0)

    def test_budget_round_trips_shard_count(self):
        budget = ChaseBudget(chase_strategy="sharded", shard_count=4)
        assert ChaseBudget.from_dict(budget.to_dict()) == budget
        assert ChaseBudget.from_dict({}).shard_count == 2
        assert budget.raised_to(10**6, 10**6).shard_count == 4

    def test_solver_config_with_strategy_sets_shard_count(self):
        config = SolverConfig().with_strategy("sharded", shard_count=4)
        assert config.chase_strategy == "sharded"
        assert config.chase.shard_count == 4
        kept = SolverConfig(chase=ChaseBudget(shard_count=3)).with_strategy("sharded")
        assert kept.chase.shard_count == 3
        assert SolverConfig.from_dict(config.to_dict()) == config

    def test_engine_reads_shard_count_from_budget(self):
        engine = ChaseEngine(
            [untyped_fd_egd()],
            budget=ChaseBudget(chase_strategy="sharded", shard_count=4),
        )
        assert engine.strategy_name == "sharded"
        result = engine.run(chain_instance(5))
        assert result.strategy == "sharded"

    def test_solver_runs_sharded_chase(self):
        from repro.api import Solver

        solver = Solver(
            universe="AB",
            config=SolverConfig().with_strategy("sharded", shard_count=2),
        )
        sharded = solver.chase(chain_instance(5), [FunctionalDependency(["A"], ["B"])])
        reference = solver.chase(
            chain_instance(5),
            [FunctionalDependency(["A"], ["B"])],
            strategy="incremental",
        )
        assert sharded.strategy == "sharded"
        assert sharded.relation == reference.relation
        assert dict(sharded.canon) == dict(reference.canon)

    def test_implication_engine_accepts_sharded_config(self):
        from repro.implication import ImplicationEngine

        config = SolverConfig().with_strategy("sharded", shard_count=2)
        egd_premise = fd_to_egds(FunctionalDependency(["A"], ["B"]), ABC)
        conclusion = fd_to_egds(FunctionalDependency(["A", "C"], ["B"]), ABC)[0]
        sharded = ImplicationEngine(universe=ABC, config=config).implies(
            egd_premise, conclusion
        )
        baseline = ImplicationEngine(universe=ABC).implies(egd_premise, conclusion)
        assert sharded.verdict is baseline.verdict
