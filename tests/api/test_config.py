"""Config objects and the kwarg-soup deprecation shims."""

import pytest

from repro.api import ChaseBudget, ConfigError, FiniteSearchBudget, SolverConfig
from repro.chase import ChaseEngine, chase
from repro.dependencies import (
    FunctionalDependency,
    JoinDependency,
    fd_to_egds,
    jd_to_td,
)
from repro.implication import ImplicationEngine, prove
from repro.model.attributes import Universe
from repro.model.relations import Relation

ABC = Universe.from_names("ABC")


class TestBudgetObjects:
    def test_frozen_and_hashable(self):
        budget = ChaseBudget(max_steps=10, max_rows=20)
        assert hash(budget) == hash(ChaseBudget(max_steps=10, max_rows=20))
        with pytest.raises(Exception):
            budget.max_steps = 5

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChaseBudget(max_steps=0)
        with pytest.raises(ConfigError):
            FiniteSearchBudget(domain_size=0)
        with pytest.raises(ConfigError):
            FiniteSearchBudget(max_candidates=0)

    def test_raised_to_never_shrinks(self):
        generous = ChaseBudget(max_steps=50000, max_rows=100)
        raised = generous.raised_to(20000, 20000)
        assert raised == ChaseBudget(max_steps=50000, max_rows=20000)

    def test_solver_config_with_helpers(self):
        config = SolverConfig().with_chase(max_steps=7).with_finite_search(max_rows=5)
        assert config.chase == ChaseBudget(max_steps=7)
        assert config.finite_search == FiniteSearchBudget(max_rows=5)
        # the original default object is untouched (frozen semantics)
        assert SolverConfig().chase == ChaseBudget()


class TestRetiredStreamingStrategy:
    """``"streaming"`` is retired: old payloads load as incremental, and
    naming it in code is an unknown strategy."""

    def test_payloads_naming_streaming_load_as_incremental(self):
        from repro.config import ServiceConfig

        budget = ChaseBudget.from_dict(
            {**ChaseBudget().to_dict(), "chase_strategy": "streaming"}
        )
        assert budget == ChaseBudget(chase_strategy="incremental")
        payload = ServiceConfig(port=0).to_dict()
        payload["solver"]["chase"]["chase_strategy"] = "streaming"
        config = ServiceConfig.from_dict(payload)
        assert config.solver.chase_strategy == "incremental"
        assert config == ServiceConfig(
            port=0, solver=SolverConfig().with_strategy("incremental")
        )

    def test_naming_streaming_in_code_raises(self):
        from repro.chase import StrategyError, make_strategy

        with pytest.raises(ConfigError, match="unknown chase strategy"):
            ChaseBudget(chase_strategy="streaming")
        with pytest.raises(ConfigError, match="unknown chase strategy"):
            SolverConfig().with_strategy("streaming")
        with pytest.raises(StrategyError, match="unknown chase strategy"):
            make_strategy("streaming")


class TestChaseEngineBudgets:
    def test_budget_object(self):
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        engine = ChaseEngine([td], budget=ChaseBudget(max_steps=100, max_rows=100))
        assert engine.budget == ChaseBudget(max_steps=100, max_rows=100)
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        assert engine.run(instance).terminated()

    def test_legacy_kwargs_warn_and_override(self):
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        with pytest.warns(DeprecationWarning):
            engine = ChaseEngine([td], max_steps=123)
        assert engine.budget.max_steps == 123
        assert engine.budget.max_rows == ChaseBudget().max_rows

    def test_chase_function_accepts_budget(self):
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        result = chase(instance, [td], budget=ChaseBudget(max_steps=100, max_rows=100))
        assert result.terminated()

    def test_chase_function_legacy_positional(self):
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        with pytest.warns(DeprecationWarning):
            result = chase(instance, [td], 100, 100)
        assert result.terminated()


class TestImplicationEngineConfig:
    def test_config_object(self):
        config = SolverConfig(chase=ChaseBudget(max_steps=10, max_rows=10))
        engine = ImplicationEngine(universe=ABC, config=config)
        assert engine.config is config

    def test_legacy_kwargs_warn_and_map(self):
        with pytest.warns(DeprecationWarning):
            engine = ImplicationEngine(
                universe=ABC,
                max_steps=11,
                finite_search_rows=2,
                finite_search_domain=3,
            )
        assert engine.config.chase.max_steps == 11
        assert engine.config.finite_search.max_rows == 2
        assert engine.config.finite_search.domain_size == 3

    def test_legacy_kwargs_override_config(self):
        with pytest.warns(DeprecationWarning):
            engine = ImplicationEngine(
                universe=ABC,
                max_rows=77,
                config=SolverConfig(chase=ChaseBudget(max_steps=5, max_rows=5)),
            )
        assert engine.config.chase == ChaseBudget(max_steps=5, max_rows=77)

    def test_results_identical_to_legacy_style(self):
        fd = FunctionalDependency(["A"], ["B"])
        jd = JoinDependency([["A", "B"], ["A", "C"]])
        with pytest.warns(DeprecationWarning):
            legacy = ImplicationEngine(universe=ABC, max_steps=300, max_rows=600)
        modern = ImplicationEngine(
            universe=ABC,
            config=SolverConfig(chase=ChaseBudget(max_steps=300, max_rows=600)),
        )
        assert (
            legacy.implies([fd], jd).verdict is modern.implies([fd], jd).verdict
        )


class TestProverBudgets:
    def test_prove_accepts_budget(self):
        egds = fd_to_egds(FunctionalDependency(["A"], ["B"]), ABC)
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        outcome = prove(egds, td, budget=ChaseBudget(max_steps=500, max_rows=500))
        assert outcome.verdict is not None


class TestServiceConfig:
    def test_defaults_validate_and_round_trip(self):
        from repro.config import ServiceConfig

        config = ServiceConfig()
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_round_trips_through_json_with_nested_solver(self):
        import json

        from repro.config import ServiceConfig

        config = ServiceConfig(
            port=0,
            universe="ABCD",
            batch_window=0.02,
            solver=SolverConfig(chase=ChaseBudget(max_steps=10, max_rows=50)),
        )
        rebuilt = ServiceConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.solver.chase.max_steps == 10

    def test_from_dict_ignores_the_retired_processes_key(self):
        from repro.config import ServiceConfig

        # Every older to_dict wrote a processes key; those files still load.
        payload = {**ServiceConfig(port=0).to_dict(), "processes": 4}
        assert ServiceConfig.from_dict(payload) == ServiceConfig(port=0)

    def test_is_frozen_and_hashable(self):
        from repro.config import ServiceConfig

        config = ServiceConfig()
        with pytest.raises(Exception):
            config.port = 1
        assert hash(config) == hash(ServiceConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 70000},
            {"batch_window": -0.1},
            {"max_batch_size": 0},
            {"max_concurrent_batches": 0},
            {"per_client_in_flight": 0},
            {"workers": 0},
            {"drain_timeout": 0},
        ],
    )
    def test_invalid_knobs_raise_config_errors(self, kwargs):
        from repro.config import ServiceConfig

        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)


class TestCheckpointConfig:
    def test_validation(self):
        from repro.config import CheckpointConfig

        with pytest.raises(ConfigError):
            CheckpointConfig(mode="sometimes")
        with pytest.raises(ConfigError):
            CheckpointConfig(interval=0)
        with pytest.raises(ConfigError):
            CheckpointConfig(retention=0)

    def test_env_override_rewrites_auto_only(self, monkeypatch):
        from repro.config import CHECKPOINT_ENV, CheckpointConfig

        monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
        assert CheckpointConfig().resolved_mode() == "off"
        monkeypatch.setenv(CHECKPOINT_ENV, "on")
        assert CheckpointConfig().resolved_mode() == "on"
        # explicit settings always win over the environment
        assert CheckpointConfig(mode="off").resolved_mode() == "off"
        monkeypatch.setenv(CHECKPOINT_ENV, "off")
        assert CheckpointConfig(mode="on").resolved_mode() == "on"

    def test_to_dict_round_trip(self):
        from repro.config import CheckpointConfig

        config = CheckpointConfig(
            mode="on", interval=50, directory="/tmp/ckpt", retention=4
        )
        assert CheckpointConfig.from_dict(config.to_dict()) == config

    def test_chase_budget_round_trip_includes_checkpoint(self):
        from repro.config import CheckpointConfig

        budget = ChaseBudget(
            max_steps=10, checkpoint=CheckpointConfig(mode="on", interval=5)
        )
        rebuilt = ChaseBudget.from_dict(budget.to_dict())
        assert rebuilt == budget
        assert rebuilt.checkpoint.interval == 5
