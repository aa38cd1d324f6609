"""Property tests for the columnar trigger-matching kernel.

The kernel (:mod:`repro.chase.kernel`) is only trustworthy if it is
*indistinguishable* from the classic dict-probing matcher.  These tests pin
that equivalence at two levels:

* **trigger level** -- on randomized instances, ``TriggerKernel.find_triggers``
  and ``TriggerKernel.extend_through`` must emit exactly the trigger multiset
  the classic ``find_triggers`` / ``extend_through`` emit (compared after
  round-boundary canonicalization, the same normalization the engine's fair
  scheduler applies -- emission *order* is free, the trigger *set* is not),
  and the classic ``extend_through`` must in turn find exactly the active
  triggers whose body image contains the row (a reference built from the
  plain homomorphism enumeration of ``find_triggers``);
* **chase level** -- full chase runs with the kernel forced on must be
  byte-identical to kernel-off runs: same relation (fresh nulls included),
  same status, canon map, and step count -- with numpy present AND absent
  (the latter via ``sys.modules`` patching, which the kernel's fresh-import
  discipline is designed for);
* **step level** -- every per-step re-validation the incremental strategy
  answers from its kernel mirror must equal the reference
  ``steps.trigger_is_active`` on the live state, and the default path must
  never scan the tableau for a witness row.

Cases come from the shared ``random_case`` generator
(``tests/chase/conftest.py``), so every instance holds at least one active
trigger and the trigger-level comparisons are never vacuous.
"""

import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

import repro.chase.steps as steps_module
from repro.chase import chase
from repro.chase.engine import _valuation_key
from repro.chase.kernel import (
    KERNEL_ENV,
    KernelError,
    TriggerKernel,
    resolve_kernel,
)
from repro.chase.steps import compile_dependency, initial_state
from repro.chase.steps import find_triggers as classic_find_triggers
from repro.chase.strategies import (
    IncrementalStrategy,
    RescanStrategy,
    ShardedStrategy,
    make_strategy,
)
from repro.chase.strategies import extend_through as classic_extend_through
from repro.config import ChaseBudget, ConfigError, SolverConfig
from repro.dependencies import EqualityGeneratingDependency, TemplateDependency
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import untyped

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: Backends the trigger-level comparisons run against (numpy only when it
#: imports; the bitset backend is the always-available reference).
BACKENDS = ("bitset",) + (("numpy",) if HAVE_NUMPY else ())


@pytest.fixture(autouse=True)
def _no_kernel_env(monkeypatch):
    """Keep the CI matrix's force-override out of these pinned comparisons."""
    monkeypatch.delenv(KERNEL_ENV, raising=False)


def _assert_same_result(actual, expected, label):
    assert actual.status == expected.status, label
    assert actual.relation == expected.relation, label
    assert dict(actual.canon) == dict(expected.canon), label
    assert actual.steps == expected.steps, label


# -- trigger-level equivalence -------------------------------------------------


def _keys(state, valuations):
    """Canonicalized multiset of valuation keys (engine-order normalization)."""
    return sorted(_valuation_key(state.canonicalize(alpha)) for alpha in valuations)


def _reference_extend_through(state, cd, row):
    """The active triggers of ``cd`` whose body image contains ``row``."""
    return [
        trigger.valuation
        for trigger in classic_find_triggers(state, cd)
        if row in trigger.valuation.apply_relation(cd.body)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3000, 3040))
def test_find_triggers_matches_classic(seed, backend, random_case):
    instance, deps, _ = random_case(seed)
    state = initial_state(instance)
    kernel = TriggerKernel(state.relation, backend)
    found = 0
    for dep in deps:
        cd = compile_dependency(dep)
        classic = [t.valuation for t in classic_find_triggers(state, cd)]
        emitted = []
        kernel.find_triggers(cd, emitted.append)
        assert _keys(state, emitted) == _keys(state, classic), (
            f"seed {seed} backend {backend} dependency {dep!r}"
        )
        found += len(classic)
    assert found, f"seed {seed}: no active trigger to compare"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3100, 3140))
def test_extend_through_matches_classic(seed, backend, random_case):
    instance, deps, _ = random_case(seed)
    state = initial_state(instance)
    kernel = TriggerKernel(state.relation, backend)
    index = state.row_index.attr_buckets
    found = 0
    for dep in deps:
        cd = compile_dependency(dep)
        for row in state.relation.sorted_rows():
            classic = []
            classic_extend_through(cd, row, state.relation, index, classic.append)
            emitted = []
            kernel.extend_through(cd, row, emitted.append)
            label = f"seed {seed} backend {backend} dependency {dep!r} row {row!r}"
            assert _keys(state, emitted) == _keys(state, classic), label
            reference = _reference_extend_through(state, cd, row)
            assert set(_keys(state, classic)) == set(_keys(state, reference)), label
            found += len(reference)
    assert found, f"seed {seed}: no active trigger to compare"


# -- chase-level byte-identity -------------------------------------------------


@pytest.mark.parametrize("seed", range(4000, 4100))
def test_kernel_chase_is_byte_identical(seed, random_case):
    """Kernel forced on vs off: identical tableaux, statuses, canon, steps."""
    instance, deps, budget = random_case(seed)
    off = chase(instance, deps, budget=replace(budget, chase_kernel="off"))
    on = chase(instance, deps, budget=replace(budget, chase_kernel="on"))
    assert off.kernel == "off"
    assert on.kernel in ("numpy", "bitset")
    _assert_same_result(on, off, f"seed {seed}")


@pytest.mark.parametrize("seed", range(4200, 4220))
def test_bitset_backend_chase_is_byte_identical(seed, random_case):
    """The pure-Python backend explicitly, even when numpy is installed."""
    instance, deps, budget = random_case(seed)
    off = chase(instance, deps, budget=replace(budget, chase_kernel="off"))
    strategy = IncrementalStrategy(kernel="bitset")
    on = chase(instance, deps, budget=budget, strategy=strategy)
    assert strategy.kernel == "bitset"
    assert on.kernel == "bitset"
    _assert_same_result(on, off, f"seed {seed}")


@pytest.mark.parametrize("seed", range(4300, 4312))
def test_kernel_without_numpy_falls_back_to_bitset(monkeypatch, seed, random_case):
    """``sys.modules`` patching: kernel="on" must run (and match) without numpy."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    instance, deps, budget = random_case(seed)
    off = chase(instance, deps, budget=replace(budget, chase_kernel="off"))
    strategy = IncrementalStrategy(kernel="on")
    on = chase(instance, deps, budget=budget, strategy=strategy)
    assert strategy.kernel == "bitset"
    assert on.kernel == "bitset"
    _assert_same_result(on, off, f"seed {seed}")


def test_auto_without_numpy_is_bitset(monkeypatch, random_case):
    monkeypatch.setitem(sys.modules, "numpy", None)
    instance, deps, budget = random_case(4400)
    result = chase(instance, deps, budget=replace(budget, chase_kernel="auto"))
    assert result.kernel == "bitset"


@pytest.mark.parametrize("seed", range(5000, 5008))
def test_kernel_sharded_and_streaming_identical(seed, random_case):
    """Thread-mode shard cores with private kernels match the classic path."""
    instance, deps, budget = random_case(seed)
    off = chase(instance, deps, budget=replace(budget, chase_kernel="off"))
    strategy = ShardedStrategy(shard_count=2, executor="thread", kernel="on")
    result = chase(instance, deps, budget=budget, strategy=strategy)
    assert strategy.kernel in ("numpy", "bitset")
    assert result.kernel == strategy.kernel
    _assert_same_result(result, off, f"seed {seed} sharded")


@pytest.mark.parametrize("factory", [ShardedStrategy])
def test_kernel_process_executor_identical(factory, random_case):
    """Worker processes rebuild their kernels from the shipped backend name."""
    instance, deps, budget = random_case(6001)
    off = chase(instance, deps, budget=replace(budget, chase_kernel="off"))
    strategy = factory(shard_count=2, executor="process", kernel="on")
    result = chase(instance, deps, budget=budget, strategy=strategy)
    assert strategy.kernel in ("numpy", "bitset")
    _assert_same_result(result, off, factory.__name__)


# -- per-step re-validation ----------------------------------------------------

AB = Universe.from_names("AB")
ABC = Universe.from_names("ABC")


def _non_total_case(seed: int):
    """Untyped successor tds mixed with the fd ``A -> B`` in egd form.

    The shared generator's tds rarely reach re-validation with an
    existential conclusion value, so this family supplies the non-total
    checks: the ``pair`` td's existential fills two columns (a witness must
    repeat one value, the kernel's ``concl_groups`` path), rows sharing a
    B-value make one step satisfy a later trigger of the same round, and
    the egd's merges make triggers stale.
    """
    rng = random.Random(seed)
    body = Relation.untyped(ABC, [["x", "y", "z"]])
    tds = [
        TemplateDependency(Row.untyped_over(ABC, ["y", "w", "w"]), body, name="pair"),
        TemplateDependency(Row.untyped_over(ABC, ["z", "y", "w"]), body, name="next"),
    ]
    fd_body = Relation.untyped(ABC, [["u", "p", "s"], ["u", "q", "t"]])
    egd = EqualityGeneratingDependency(untyped("p"), untyped("q"), fd_body, name="fd")
    deps = rng.sample(tds, rng.randint(1, 2)) + [egd]
    domain = rng.randint(2, 4)
    instance = Relation.untyped(
        ABC,
        [
            [f"v{rng.randrange(domain)}" for _ in range(3)]
            for _ in range(rng.randint(2, 5))
        ],
    )
    budget = ChaseBudget(max_steps=rng.choice([10, 30, 60]), max_rows=500)
    return instance, deps, budget


class _CheckedStrategy(IncrementalStrategy):
    """Runs the reference re-validation beside every kernel answer.

    Both see the same live state, so any divergence between the mirror and
    the tableau, or between the mask check and ``row_embeddings``, fails
    on the step where it first appears.
    """

    def __init__(self, kernel: str, cells: Counter) -> None:
        super().__init__(kernel=kernel)
        self._cells = cells

    def trigger_is_active(self, state, trigger, compiled):
        fast = super().trigger_is_active(state, trigger, compiled)
        reference = steps_module.trigger_is_active(state, trigger, compiled)
        assert fast == reference, f"{trigger!r}: kernel {fast!r}, scan {reference!r}"
        if not compiled.is_td:
            kind = "egd"
        else:
            kind = "total td" if compiled.is_total else "non-total td"
        self._cells[kind, fast is not None] += 1
        return fast


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_revalidation_matches_reference_at_every_step(backend, random_case):
    """The mirror's answer equals ``steps.trigger_is_active`` on every step."""
    cases = [random_case(seed) for seed in range(8000, 8100)]
    cases += [_non_total_case(seed) for seed in range(8100, 8160)]
    cells: Counter = Counter()
    for instance, deps, budget in cases:
        strategy = _CheckedStrategy(backend, cells)
        chase(instance, deps, budget=budget, strategy=strategy)
        assert strategy.kernel == backend
    for kind in ("egd", "total td", "non-total td"):
        for active in (True, False):
            assert cells[kind, active] >= 10, (
                f"{kind} {'active' if active else 'inactive'}: "
                f"{cells[kind, active]} checks ({dict(cells)})"
            )


@pytest.mark.parametrize(
    "strategy, scans",
    [
        (lambda: IncrementalStrategy(kernel="bitset"), False),
        (lambda: IncrementalStrategy(kernel="off"), True),
        (lambda: "rescan", True),
    ],
    ids=["bitset", "classic", "rescan"],
)
def test_default_path_never_scans_for_a_witness(monkeypatch, strategy, scans):
    """The kernel path re-validates without ``row_embeddings``; the rest scan.

    Counts witness scans over a 200-step successor chase: zero on the bitset
    incremental path, at least one per applied step on the classic matcher
    and on the rescan oracle, which keep the reference check.
    """
    calls = 0
    real = steps_module.row_embeddings

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(steps_module, "row_embeddings", counting)
    successor = TemplateDependency(
        Row.untyped_over(AB, ["y", "z"]), Relation.untyped(AB, [["x", "y"]])
    )
    instance = Relation.untyped(AB, [[f"v{i}", f"v{i + 1}"] for i in range(8)])
    result = chase(
        instance,
        [successor],
        budget=ChaseBudget(max_steps=200, max_rows=1000),
        strategy=strategy(),
    )
    assert result.steps == 200
    if scans:
        assert calls >= result.steps
    else:
        assert calls == 0


# -- resolution and plumbing ---------------------------------------------------


class TestResolveKernel:
    def test_off_is_classic(self):
        assert resolve_kernel("off") is None

    def test_bitset_always_available(self):
        assert resolve_kernel("bitset") == "bitset"

    def test_auto_and_on_resolution(self):
        assert resolve_kernel("auto") == "bitset"
        assert resolve_kernel(None) == "bitset"
        assert resolve_kernel("on") == ("numpy" if HAVE_NUMPY else "bitset")

    def test_auto_never_imports_numpy(self, monkeypatch):
        import repro.chase.kernel as kernel_module

        def refuse():
            raise AssertionError("auto resolution imported numpy")

        monkeypatch.setattr(kernel_module, "_numpy", refuse)
        assert resolve_kernel("auto") == "bitset"

    def test_on_without_numpy_is_bitset(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert resolve_kernel("on") == "bitset"

    def test_auto_without_numpy_is_bitset(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert resolve_kernel("auto") == "bitset"
        assert resolve_kernel(None) == "bitset"

    def test_numpy_forced_without_numpy_raises(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(KernelError):
            resolve_kernel("numpy")

    def test_unknown_mode_raises(self):
        with pytest.raises(KernelError):
            resolve_kernel("turbo")

    def test_env_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "bitset")
        assert resolve_kernel("auto") == "bitset"
        assert resolve_kernel(None) == "bitset"
        monkeypatch.setenv(KERNEL_ENV, "on")
        assert resolve_kernel("auto") == ("numpy" if HAVE_NUMPY else "bitset")
        monkeypatch.setenv(KERNEL_ENV, "off")
        assert resolve_kernel("auto") is None

    def test_env_never_overrides_explicit_pins(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "bitset")
        assert resolve_kernel("off") is None
        monkeypatch.setenv(KERNEL_ENV, "off")
        assert resolve_kernel("bitset") == "bitset"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "turbo")
        with pytest.raises(KernelError):
            resolve_kernel("auto")


class TestConfigPlumbing:
    def test_budget_validates_kernel_mode(self):
        with pytest.raises(ConfigError):
            ChaseBudget(chase_kernel="numpy")

    def test_budget_round_trips_kernel(self):
        budget = ChaseBudget(chase_kernel="on")
        assert ChaseBudget.from_dict(budget.to_dict()) == budget
        assert ChaseBudget.from_dict({}).chase_kernel == "auto"

    def test_with_strategy_pins_kernel(self):
        config = SolverConfig().with_strategy("incremental", kernel="off")
        assert config.chase.chase_kernel == "off"
        assert config.chase.chase_strategy == "incremental"
        kept = config.with_strategy("sharded", shard_count=2)
        assert kept.chase.chase_kernel == "off"
        with pytest.raises(ConfigError):
            SolverConfig().with_strategy("incremental", kernel="bitset")

    def test_make_strategy_routes_kernel(self, random_case):
        instance, deps, budget = random_case(7001)
        strategy = make_strategy("incremental", kernel="off")
        assert isinstance(strategy, IncrementalStrategy)
        result = chase(instance, deps, budget=budget, strategy=strategy)
        assert result.kernel == "off"
        assert strategy.kernel == "off"

    def test_rescan_never_uses_the_kernel(self, random_case):
        instance, deps, budget = random_case(7002)
        result = chase(
            instance, deps, budget=replace(budget, chase_strategy="rescan")
        )
        assert result.strategy == "rescan"
        assert result.kernel == "off"
        assert RescanStrategy.kernel == "off"
