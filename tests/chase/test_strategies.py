"""Unit tests for the strategy seam: compiled deps, worklists, roots(), plumbing."""

import pytest

from repro.chase import (
    ChaseState,
    IncrementalStrategy,
    RescanStrategy,
    StrategyError,
    Trigger,
    apply_egd_step,
    apply_td_step,
    chase,
    compile_dependency,
    find_triggers,
    initial_state,
    make_strategy,
    trigger_is_active,
)
from repro.chase.engine import ChaseEngine
from repro.config import ChaseBudget, ConfigError, SolverConfig
from repro.dependencies import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    JoinDependency,
    TemplateDependency,
    fd_to_egds,
    jd_to_td,
)
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation
from repro.model.values import typed

ABC = Universe.from_names("ABC")
AB = Universe.from_names("AB")


@pytest.fixture
def mvd_td():
    body = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
    conclusion = Row.typed_over(ABC, ["a", "b1", "c2"])
    return TemplateDependency(conclusion, body, name="swap")


@pytest.fixture
def counterexample():
    return Relation.typed(ABC, [["a0", "u1", "v1"], ["a0", "u2", "v2"]])


class TestCompiledDependency:
    def test_compilation_is_memoized(self, mvd_td):
        body = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        equal_td = TemplateDependency(Row.typed_over(ABC, ["a", "b1", "c2"]), body)
        assert compile_dependency(mvd_td) is compile_dependency(equal_td)

    def test_td_fields(self, mvd_td):
        compiled = compile_dependency(mvd_td)
        assert compiled.is_td and compiled.is_total
        assert compiled.body_values == mvd_td.body.values()
        assert len(compiled.body_rows) == 2
        # each body_rest drops exactly the row at its position
        for position, row in enumerate(compiled.body_rows):
            assert row not in compiled.body_rest[position]
            assert len(compiled.body_rest[position]) == 1

    def test_non_total_td(self):
        body = Relation.typed(ABC, [["a", "b", "c"]])
        td = TemplateDependency(Row.typed_over(ABC, ["a2", "b", "c"]), body)
        assert not compile_dependency(td).is_total

    def test_egd_fields(self):
        body = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        egd = EqualityGeneratingDependency(typed("b1", "B"), typed("b2", "B"), body)
        compiled = compile_dependency(egd)
        assert not compiled.is_td and not compiled.trivial
        trivial = EqualityGeneratingDependency(typed("b1", "B"), typed("b1", "B"), body)
        assert compile_dependency(trivial).trivial

    def test_find_triggers_accepts_compiled(self, mvd_td, counterexample):
        state = initial_state(counterexample)
        raw = {t.valuation for t in find_triggers(state, mvd_td)}
        compiled = {
            t.valuation for t in find_triggers(state, compile_dependency(mvd_td))
        }
        assert raw == compiled and raw


class TestRootsSnapshot:
    def test_three_deep_chain_recanonicalized_mid_round(self):
        """Regression: a -> b -> c merge chain resolved while re-checking triggers.

        ``ChaseState.find`` path-compresses (mutates ``parent``); ``roots()``
        must deliver a stable snapshot of the whole mapping, and a stale
        trigger written against the deepest value must canonicalize through
        the full chain.
        """
        body = Relation.typed(AB, [["a", "b1"], ["a", "b2"]])
        egd = EqualityGeneratingDependency(typed("b1", "B"), typed("b2", "B"), body)
        instance = Relation.typed(AB, [["x", "u1"], ["x", "u2"], ["x", "u3"]])
        state = initial_state(instance)
        initial_values = instance.values()
        a, b1, b2 = typed("a", "A"), typed("b1", "B"), typed("b2", "B")
        x, u1, u2, u3 = (
            typed("x", "A"),
            typed("u1", "B"),
            typed("u2", "B"),
            typed("u3", "B"),
        )
        # Merge u3 into u2, then u2 into u1: parent chain u3 -> u2 -> u1.
        apply_egd_step(state, egd, Valuation({a: x, b1: u2, b2: u3}), initial_values)
        apply_egd_step(state, egd, Valuation({a: x, b1: u1, b2: u2}), initial_values)
        snapshot = state.roots()
        assert snapshot == {u2: u1, u3: u1}
        # A stale trigger still naming u3 must canonicalize through the chain
        # and discover it is already satisfied (both sides now u1).
        stale = Trigger(egd, Valuation({a: x, b1: u3, b2: u1}))
        assert trigger_is_active(state, stale) is None
        assert state.find(u3) == u1

    def test_roots_is_safe_under_path_compression(self):
        v = [typed(f"m{i}", "A") for i in range(5)]
        state = ChaseState(
            relation=Relation(AB, []),
            fresh=None,
            parent={v[0]: v[1], v[1]: v[2], v[2]: v[3], v[3]: v[4]},
        )
        assert state.roots() == {v[0]: v[4], v[1]: v[4], v[2]: v[4], v[3]: v[4]}
        # find() compressed the chain; a second snapshot is identical.
        assert state.roots() == {v[0]: v[4], v[1]: v[4], v[2]: v[4], v[3]: v[4]}


class TestIncrementalWorklist:
    def test_seeding_matches_rescan_round_one(self, mvd_td, counterexample):
        state = initial_state(counterexample)
        compiled = (compile_dependency(mvd_td),)
        rescan, incremental = RescanStrategy(), IncrementalStrategy()
        rescan.start(state, compiled)
        incremental.start(state, compiled)
        assert (
            {t.valuation for t in rescan.next_round()}
            == {t.valuation for t in incremental.next_round()}
        )

    def test_new_triggers_queue_for_next_round(self, mvd_td):
        """Fairness: a delta-discovered trigger is not injected mid-round."""
        instance = Relation.typed(
            ABC, [["a0", "u1", "v1"], ["a0", "u2", "v2"], ["a0", "u3", "v3"]]
        )
        state = initial_state(instance)
        compiled = (compile_dependency(mvd_td),)
        strategy = IncrementalStrategy()
        strategy.start(state, compiled)
        first = strategy.next_round()
        assert first
        # Applying one trigger adds a row; new triggers through that row must
        # land in the *next* round's batch, leaving the current batch alone.
        delta = apply_td_step(state, mvd_td, first[0].valuation)
        strategy.observe(delta)
        second = strategy.next_round()
        assert second
        assert {t.valuation for t in first}.isdisjoint(
            {t.valuation for t in second}
        )
        # Nothing applied since the last barrier -> no candidates left.
        assert strategy.next_round() == []

    def test_observe_ignores_noop_deltas(self, mvd_td, counterexample):
        from repro.chase import EgdDelta

        state = initial_state(counterexample)
        strategy = IncrementalStrategy()
        strategy.start(state, (compile_dependency(mvd_td),))
        strategy.next_round()
        strategy.observe(EgdDelta(kept=typed("u1", "B"), replaced=typed("u1", "B")))
        assert strategy.next_round() == []

    def test_duplicate_discoveries_are_enqueued_once(self, counterexample):
        fd_egds = fd_to_egds(FunctionalDependency(["A"], ["B"]), ABC)
        state = initial_state(counterexample)
        compiled = tuple(compile_dependency(d) for d in fd_egds)
        strategy = IncrementalStrategy()
        strategy.start(state, compiled)
        batch = strategy.next_round()
        keys = [(id(t.dependency), t.valuation) for t in batch]
        assert len(keys) == len(set(keys))

    def test_strategy_instance_is_reusable_across_runs(self):
        """start() resets every per-run structure, so one instance serves
        many runs: each engine run repeats a fresh run exactly, on the
        kernel and on the classic matcher."""
        successor = TemplateDependency(
            Row.untyped_over(AB, ["y", "z"]),
            Relation.untyped(AB, [["x", "y"]]),
            name="succ",
        )
        body = Relation.untyped(AB, [["u", "p"], ["u", "q"]])
        values = {v.name: v for v in body.values()}
        fd = EqualityGeneratingDependency(values["p"], values["q"], body)
        instance = Relation.untyped(
            AB, [["v0", "v1"], ["v1", "v2"], ["v0", "w1"], ["w1", "w2"]]
        )
        deps, budget = [successor, fd], ChaseBudget(max_steps=12)
        fresh = chase(instance, deps, budget=budget)
        assert fresh.steps == 12
        for kernel, reported in (("auto", "bitset"), ("off", "off")):
            strategy = IncrementalStrategy(kernel=kernel)
            engine = ChaseEngine(deps, budget=budget, strategy=strategy)
            for run in (1, 2):
                result = engine.run(instance)
                label = f"kernel={kernel} run {run}"
                assert result.kernel == reported, label
                assert result.status == fresh.status, label
                assert result.steps == fresh.steps, label
                assert result.relation == fresh.relation, label
                assert dict(result.canon) == dict(fresh.canon), label


class TestStrategySelection:
    def test_make_strategy_names(self):
        assert make_strategy("rescan").name == "rescan"
        assert make_strategy("incremental").name == "incremental"
        assert make_strategy("auto").name == "incremental"
        assert make_strategy(None).name == "incremental"
        instance = RescanStrategy()
        assert make_strategy(instance) is instance
        with pytest.raises(StrategyError):
            make_strategy("quantum")

    def test_registry_and_config_names_agree(self):
        """The config validator and the strategy registry must not drift."""
        from repro.chase.strategies import STRATEGY_REGISTRY
        from repro.config import CHASE_STRATEGIES

        assert set(STRATEGY_REGISTRY) == set(CHASE_STRATEGIES)
        assert make_strategy("auto").name == ChaseBudget().resolved_strategy()

    def test_budget_carries_strategy(self):
        assert ChaseBudget().chase_strategy == "auto"
        assert ChaseBudget().resolved_strategy() == "incremental"
        assert ChaseBudget(chase_strategy="rescan").resolved_strategy() == "rescan"
        with pytest.raises(ConfigError):
            ChaseBudget(chase_strategy="bogus")

    def test_raised_to_preserves_strategy(self):
        budget = ChaseBudget(max_steps=5, chase_strategy="rescan")
        assert budget.raised_to(100, 100).chase_strategy == "rescan"

    def test_solver_config_with_strategy(self):
        config = SolverConfig().with_strategy("rescan")
        assert config.chase_strategy == "rescan"
        assert SolverConfig().chase_strategy == "auto"
        with pytest.raises(ConfigError):
            SolverConfig().with_strategy("bogus")

    def test_config_round_trips_through_dicts(self):
        config = SolverConfig(chase=ChaseBudget(max_steps=7, chase_strategy="rescan"))
        assert SolverConfig.from_dict(config.to_dict()) == config
        budget = ChaseBudget(chase_strategy="incremental")
        assert ChaseBudget.from_dict(budget.to_dict()) == budget
        # missing keys default (forward/backward compatibility)
        assert ChaseBudget.from_dict({}).chase_strategy == "auto"

    def test_engine_reads_budget_and_kwarg_overrides(self, mvd_td, counterexample):
        engine = ChaseEngine([mvd_td], budget=ChaseBudget(chase_strategy="rescan"))
        assert engine.strategy_name == "rescan"
        assert engine.run(counterexample).strategy == "rescan"
        override = ChaseEngine(
            [mvd_td],
            budget=ChaseBudget(chase_strategy="rescan"),
            strategy="incremental",
        )
        assert override.strategy_name == "incremental"
        assert override.run(counterexample).strategy == "incremental"

    def test_chase_defaults_to_incremental(self, mvd_td, counterexample):
        assert chase(counterexample, [mvd_td]).strategy == "incremental"
        assert (
            chase(counterexample, [mvd_td], strategy="rescan").strategy == "rescan"
        )

    def test_solver_chase_strategy_override(self, counterexample):
        from repro.api import Solver

        solver = Solver(universe="ABC", config=SolverConfig().with_strategy("rescan"))
        result = solver.chase(
            counterexample, [JoinDependency([["A", "B"], ["A", "C"]])]
        )
        assert result.strategy == "rescan"
        overridden = solver.chase(
            counterexample,
            [JoinDependency([["A", "B"], ["A", "C"]])],
            strategy="incremental",
        )
        assert overridden.strategy == "incremental"
        assert overridden.relation == result.relation

    def test_implication_engine_threads_strategy(self):
        from repro.implication import ImplicationEngine

        outcome = ImplicationEngine(
            universe=ABC, config=SolverConfig().with_strategy("rescan")
        ).implies([MVD_AB], JD)
        baseline = ImplicationEngine(universe=ABC).implies([MVD_AB], JD)
        assert outcome.verdict is baseline.verdict


MVD_AB = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
JD = JoinDependency([["A", "B"], ["A", "C"]])
