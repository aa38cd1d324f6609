"""Config objects, the one way every budgeted entry point takes its limits."""

import pytest

from repro.api import ChaseBudget, ConfigError, FiniteSearchBudget, SolverConfig
from repro.chase import ChaseEngine, chase
from repro.core.formal_system import ChaseProofSystem
from repro.dependencies import (
    FunctionalDependency,
    JoinDependency,
    MultivaluedDependency,
    fd_to_egds,
    jd_to_td,
)
from repro.implication import ImplicationEngine, prove
from repro.implication.chase_prover import chase_for_conclusion, prove_egd, prove_td
from repro.implication.decidable import full_fragment_implies
from repro.implication.finite_search import find_finite_counterexample, refute_finitely
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


class TestRetiredSharded:
    """``"sharded"`` and its ``shard_count`` knob are retired: old payloads
    load as incremental with the key ignored, and naming either in code
    fails."""

    def test_payloads_naming_sharded_load_as_incremental(self):
        from repro.config import ServiceConfig

        assert "shard_count" not in ChaseBudget().to_dict()
        budget = ChaseBudget.from_dict(
            {**ChaseBudget().to_dict(), "chase_strategy": "sharded", "shard_count": 4}
        )
        assert budget == ChaseBudget(chase_strategy="incremental")
        assert "shard_count" not in budget.to_dict()
        payload = ServiceConfig(port=0).to_dict()
        payload["solver"]["chase"]["chase_strategy"] = "sharded"
        payload["solver"]["chase"]["shard_count"] = 4
        config = ServiceConfig.from_dict(payload)
        assert config == ServiceConfig(
            port=0, solver=SolverConfig().with_strategy("incremental")
        )
        assert "shard_count" not in config.to_dict()["solver"]["chase"]

    def test_naming_sharded_in_code_raises(self):
        from repro.chase import StrategyError, make_strategy

        with pytest.raises(ConfigError, match="unknown chase strategy"):
            ChaseBudget(chase_strategy="sharded")
        with pytest.raises(ConfigError, match="unknown chase strategy"):
            SolverConfig().with_strategy("sharded")
        with pytest.raises(StrategyError, match="unknown chase strategy"):
            make_strategy("sharded")
        with pytest.raises(TypeError):
            ChaseBudget(shard_count=2)
        with pytest.raises(TypeError):
            SolverConfig().with_strategy("incremental", shard_count=2)
        with pytest.raises(TypeError):
            make_strategy("incremental", shard_count=2)


class TestRetiredKernelModes:
    """The numpy kernel and its modes are retired: ``"on"`` in old payloads
    loads as ``"auto"``, and naming ``"on"``, ``"numpy"`` or ``"bitset"`` in
    code fails."""

    def test_payloads_naming_on_load_as_auto(self):
        from repro.config import ServiceConfig

        budget = ChaseBudget.from_dict(
            {**ChaseBudget().to_dict(), "chase_kernel": "on"}
        )
        assert budget == ChaseBudget(chase_kernel="auto")
        payload = ServiceConfig(port=0).to_dict()
        payload["solver"]["chase"]["chase_kernel"] = "on"
        config = ServiceConfig.from_dict(payload)
        assert config.solver.chase.chase_kernel == "auto"
        assert config == ServiceConfig(port=0)

    def test_naming_retired_modes_in_code_raises(self):
        from repro.chase import IncrementalStrategy, KernelError, make_strategy

        with pytest.raises(ConfigError, match="unknown chase kernel mode"):
            ChaseBudget(chase_kernel="on")
        with pytest.raises(ConfigError, match="unknown chase kernel mode"):
            SolverConfig().with_strategy("incremental", kernel="on")
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        for strategy in (
            make_strategy("incremental", kernel="numpy"),
            IncrementalStrategy(kernel="bitset"),
        ):
            with pytest.raises(KernelError, match="unknown chase kernel mode"):
                chase(instance, [td], strategy=strategy)


class TestIntegerFields:
    """Integer config fields reject strings, floats and booleans.

    Config documents are JSON, so ``{"max_steps": "500"}`` must fail with
    a :class:`ConfigError`, not a raw ``TypeError``, and ``true`` or
    ``2.5`` must not load as a number.
    """

    @pytest.mark.parametrize(
        "document",
        [
            {"solver": {"chase": {"max_steps": "500"}}},
            {"solver": {"chase": {"max_steps": True}}},
            {"solver": {"chase": {"max_rows": 2.5}}},
            {"solver": {"chase": {"checkpoint": {"interval": True}}}},
            {"solver": {"chase": {"checkpoint": {"retention": "3"}}}},
            {"solver": {"finite_search": {"domain_size": True}}},
            {"solver": {"finite_search": {"max_candidates": 1.0}}},
            {"solver": {"cache": {"max_entries": "64"}}},
            {"port": "0"},
            {"workers": 2.5},
            {"burst": True},
            {"default_deadline_ms": "100"},
        ],
    )
    def test_mistyped_values_raise_config_errors(self, document):
        from repro.config import ServiceConfig

        with pytest.raises(ConfigError, match="must be"):
            ServiceConfig.from_dict(document)


class TestNumberAndFlagFields:
    """Float and boolean config fields reject mistyped JSON values."""

    @pytest.mark.parametrize(
        "document",
        [
            {"drain_timeout": True},
            {"requests_per_second": float("nan")},
            {"solver": {"cache": {"ttl": True}}},
            {"drain_timeout": "30"},
            {"drain_timeout": 0},
            {"drain_timeout": float("nan")},
            {"requests_per_second": "5"},
            {"requests_per_second": False},
            {"solver": {"cache": {"ttl": "60"}}},
            {"solver": {"cache": {"ttl": 0}}},
            {"solver": {"trace": "no"}},
            {"solver": {"trace": 1}},
        ],
    )
    def test_mistyped_values_raise_config_errors(self, document):
        from repro.config import ServiceConfig

        with pytest.raises(ConfigError, match="must be"):
            ServiceConfig.from_dict(document)

    def test_trace_string_is_rejected(self):
        with pytest.raises(ConfigError, match="trace must be true or false"):
            SolverConfig.from_dict({"trace": "no"})

    def test_numbers_and_flags_still_load(self):
        from repro.config import ServiceConfig

        config = ServiceConfig.from_dict(
            {
                "drain_timeout": 2.5,
                "requests_per_second": 10,
                "solver": {"trace": True, "cache": {"ttl": 0.5}},
            }
        )
        assert config.drain_timeout == 2.5
        assert config.requests_per_second == 10
        assert config.solver.trace is True
        assert config.solver.cache.ttl == 0.5


class TestChaseEngineBudgets:
    def test_budget_object(self):
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        engine = ChaseEngine([td], budget=ChaseBudget(max_steps=100, max_rows=100))
        assert engine.budget == ChaseBudget(max_steps=100, max_rows=100)
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        assert engine.run(instance).terminated()

    def test_chase_function_accepts_budget(self):
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        result = chase(instance, [td], budget=ChaseBudget(max_steps=100, max_rows=100))
        assert result.terminated()


class TestImplicationEngineConfig:
    def test_config_object(self):
        config = SolverConfig(chase=ChaseBudget(max_steps=10, max_rows=10))
        engine = ImplicationEngine(universe=ABC, config=config)
        assert engine.config is config


class TestProverBudgets:
    def test_prove_accepts_budget(self):
        egds = fd_to_egds(FunctionalDependency(["A"], ["B"]), ABC)
        td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
        outcome = prove(egds, td, budget=ChaseBudget(max_steps=500, max_rows=500))
        assert outcome.verdict is not None


def _budgeted_entry_points():
    """``name -> (callable, required positionals, retired budget keywords)``."""
    td = jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC)
    egd = fd_to_egds(FunctionalDependency(["A"], ["B"]), ABC)[0]
    instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
    fd = FunctionalDependency(["A"], ["B"])
    mvd = MultivaluedDependency(["A"], ["B"])
    chase_keywords = ("max_steps", "max_rows")
    search_keywords = ("max_rows", "domain_size", "max_candidates")
    return {
        "chase": (chase, (instance, [td]), chase_keywords),
        "ChaseEngine": (ChaseEngine, ([td],), chase_keywords),
        "chase_for_conclusion": (
            chase_for_conclusion,
            ([td], td.body),
            chase_keywords,
        ),
        "prove_td": (prove_td, ([td], td), chase_keywords),
        "prove_egd": (prove_egd, ([egd], egd), chase_keywords),
        "prove": (prove, ([td], td), chase_keywords),
        "full_fragment_implies": (
            full_fragment_implies,
            ([fd], mvd, ABC),
            chase_keywords,
        ),
        "ChaseProofSystem": (ChaseProofSystem, (ABC,), chase_keywords),
        "find_finite_counterexample": (
            find_finite_counterexample,
            ([mvd], fd, ABC),
            search_keywords,
        ),
        # ``seeds`` came before the retired positionals, so the old call
        # passed it positionally too.
        "refute_finitely": (refute_finitely, ([mvd], fd, ABC, ()), search_keywords),
        "ImplicationEngine": (
            ImplicationEngine,
            (ABC,),
            ("max_steps", "max_rows", "finite_search_rows", "finite_search_domain"),
        ),
    }


class TestRetiredCallStyles:
    """Limits travel only in budget objects: the old call styles fail loudly."""

    @pytest.mark.parametrize("style", ["keyword", "positional"])
    @pytest.mark.parametrize("entry", sorted(_budgeted_entry_points()))
    def test_old_budget_arguments_raise_type_error(self, entry, style):
        function, positionals, retired = _budgeted_entry_points()[entry]
        if style == "keyword":
            for name in retired:
                with pytest.raises(TypeError, match=name):
                    function(*positionals, **{name: 4})
        else:
            # A number in the old budget slot must not bind to whatever
            # parameter follows it now (``trace``, ``typed_universe``, ...).
            with pytest.raises(TypeError, match="positional"):
                function(*positionals, 4)


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
            max_batch_size=8,
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

    def test_from_dict_ignores_the_retired_window_key(self):
        from repro.config import ServiceConfig

        # Older to_dict output carried the coalescing window; it loads, and
        # the service dispatches each batch on the next event-loop turn.
        assert ServiceConfig.from_dict({"batch_window": 0.005}) == ServiceConfig()
        payload = {**ServiceConfig(port=0).to_dict(), "batch_window": 0.25}
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
            {"access_log_max_bytes": 512},
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


def _config_samples():
    """Each config class beside an instance with no serialized field at default."""
    from repro.config import CacheConfig, CheckpointConfig, ServiceConfig

    checkpoint = CheckpointConfig(
        mode="on", interval=7, directory="/srv/ckpt", retention=3
    )
    chase_budget = ChaseBudget(
        max_steps=11,
        max_rows=13,
        chase_strategy="rescan",
        chase_kernel="off",
        checkpoint=checkpoint,
    )
    finite = FiniteSearchBudget(max_rows=2, domain_size=3, max_candidates=50)
    cache = CacheConfig(
        mode="canonical",
        store="shared",
        max_entries=9,
        ttl=1.5,
        shared_path="/srv/store",
    )
    solver = SolverConfig(
        chase=chase_budget, finite_search=finite, trace=True, cache=cache
    )
    service = ServiceConfig(
        host="0.0.0.0",
        port=0,
        max_batch_size=5,
        max_concurrent_batches=2,
        per_client_in_flight=3,
        drain_timeout=1.5,
        universe="ABCD",
        solver=solver,
        workers=2,
        worker_id=1,
        requests_per_second=4.0,
        burst=6,
        default_deadline_ms=250,
        access_log_path="/srv/access.jsonl",
        access_log_max_bytes=4096,
        access_log_backups=2,
        metrics_dir="/srv/metrics",
    )
    return [
        (CheckpointConfig, checkpoint),
        (ChaseBudget, chase_budget),
        (FiniteSearchBudget, finite),
        (CacheConfig, cache),
        (SolverConfig, solver),
        (ServiceConfig, service),
    ]


CONFIG_SAMPLES = _config_samples()


class TestFromDictDefaults:
    """Each default lives on its dataclass field alone.

    ``from_dict`` passes only the keys a payload sets, so an empty payload
    is the default object and a full one round-trips, for all six classes.
    """

    @pytest.mark.parametrize(
        "cls, sample",
        CONFIG_SAMPLES,
        ids=[cls.__name__ for cls, _ in CONFIG_SAMPLES],
    )
    def test_empty_payload_is_the_default_and_to_dict_round_trips(self, cls, sample):
        import json

        assert cls.from_dict({}) == cls()
        assert cls.from_dict(cls().to_dict()) == cls()
        assert sample != cls()  # every serialized field is off its default
        assert cls.from_dict(sample.to_dict()) == sample
        assert cls.from_dict(json.loads(json.dumps(sample.to_dict()))) == sample

    def test_nested_payloads_keep_their_own_defaults(self):
        from repro.config import CheckpointConfig, ServiceConfig

        config = ServiceConfig.from_dict(
            {"solver": {"chase": {"checkpoint": {"interval": 9}}}}
        )
        assert config.solver.chase.checkpoint == CheckpointConfig(interval=9)
        assert config.solver.chase.max_steps == ChaseBudget().max_steps
        assert config.solver.cache == SolverConfig().cache
        assert config.max_batch_size == ServiceConfig().max_batch_size

    def test_runtime_deadline_never_loads(self):
        assert ChaseBudget.from_dict({"deadline": 12.5}) == ChaseBudget()


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
