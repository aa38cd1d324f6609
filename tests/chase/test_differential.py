"""Differential tests: rescan vs incremental vs sharded.

The incremental trigger index and the sharded worklist partition are only
trustworthy if they are *indistinguishable* from the reference rescan
scheduler.  These tests chase hundreds of randomized instances -- td/egd
mixes, existential tds, untyped runaways, tight budgets -- under all three
strategies (sharded at every shard_count in ``SHARD_COUNTS``) and require
identical results: same final relation (fresh-value names included), same
status, same canon map, same step count.  The engine makes this exact
equality achievable by canonicalizing and deterministically ordering each
round's triggers for *every* strategy; any divergence here means a
worklist dropped or invented a trigger, or a shard merge lost a delta.

Each randomized family also asserts the share of its cases that applied at
least one step, so a generator drifting into already-satisfied instances
fails loudly instead of passing vacuously.
"""

import random
from dataclasses import replace

import pytest

from repro.chase import chase
from repro.chase.strategies import ShardedStrategy
from repro.config import ChaseBudget
from repro.dependencies import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    JoinDependency,
    TemplateDependency,
    fd_to_egds,
    jd_to_td,
)
from repro.model.attributes import Universe
from repro.model.instances import random_typed_relation
from repro.model.relations import Relation
from repro.model.tuples import Row

ABC = Universe.from_names("ABC")
N_CASES = 225

#: Worker counts every differential case is additionally chased with.
SHARD_COUNTS = (1, 2, 4)


def _assert_equivalent(instance, deps, budget, label, shard_counts=SHARD_COUNTS):
    rescan = chase(instance, deps, budget=budget, strategy="rescan")
    incremental = chase(instance, deps, budget=budget, strategy="incremental")
    assert rescan.strategy == "rescan"
    assert incremental.strategy == "incremental"
    assert incremental.status == rescan.status, label
    assert incremental.relation == rescan.relation, label
    assert dict(incremental.canon) == dict(rescan.canon), label
    assert incremental.steps == rescan.steps, label
    for shard_count in shard_counts:
        sharded = chase(
            instance,
            deps,
            budget=replace(budget, chase_strategy="sharded", shard_count=shard_count),
        )
        sharded_label = f"{label} [shard_count={shard_count}]"
        assert sharded.strategy == "sharded", sharded_label
        assert sharded.status == rescan.status, sharded_label
        assert sharded.relation == rescan.relation, sharded_label
        assert dict(sharded.canon) == dict(rescan.canon), sharded_label
        assert sharded.steps == rescan.steps, sharded_label
    return rescan


def test_randomized_typed_mixes_are_equivalent(random_case):
    """>= 200 randomized td/egd mixes produce byte-identical chase results."""
    statuses = set()
    fired = saw_growth = saw_merge = 0
    for seed in range(N_CASES):
        instance, deps, budget = random_case(seed)
        result = _assert_equivalent(instance, deps, budget, f"seed={seed}")
        statuses.add(result.status)
        if result.steps:
            fired += 1
        if len(result.relation) > len(instance):
            saw_growth += 1
        if any(k != v for k, v in result.canon.items()):
            saw_merge += 1
    # The generator must actually exercise the interesting regimes.
    assert fired == N_CASES, f"only {fired}/{N_CASES} cases applied a step"
    assert len(statuses) == 2, "expected both TERMINATED and BUDGET_EXHAUSTED runs"
    assert saw_growth >= 100, "td steps were barely exercised"
    assert saw_merge >= 60, "egd merges were barely exercised"


@pytest.mark.parametrize("max_steps", [1, 7, 23])
def test_untyped_runaway_is_equivalent_under_budget(max_steps):
    """The non-terminating untyped successor td is cut off identically."""
    universe = ABC
    body = Relation.untyped(universe, [["x", "y", "z"]])
    runaway = TemplateDependency(
        Row.untyped_over(universe, ["y", "w", "v"]), body, name="runaway"
    )
    instance = Relation.untyped(universe, [["1", "2", "3"]])
    budget = ChaseBudget(max_steps=max_steps, max_rows=1000)
    _assert_equivalent(instance, [runaway], budget, f"max_steps={max_steps}")


def test_merge_cascade_is_equivalent():
    """An fd chain whose merges cascade across rounds (egd-heavy regime)."""
    universe = Universe.from_names("AB")
    rows = [[f"a{i}", f"b{i}"] for i in range(8)]
    # Overlapping pairs force a chain of merges: b_i = b_{i+1} transitively.
    instance = Relation.typed(
        universe, rows + [[f"a{i}", f"b{i + 1}"] for i in range(7)]
    )
    deps = fd_to_egds(FunctionalDependency(["A"], ["B"]), universe)
    _assert_equivalent(instance, deps, ChaseBudget(), "fd merge cascade")


# -- egd-cascade-heavy randomized mixes ---------------------------------------
#
# The merge-touched-row index makes egd cascades delta-proportional; these
# cases differentially validate it against the rescan oracle in exactly the
# regime it optimises: long chains of merges where each merge's rewrite
# unlocks the next, optionally entangled with overlapping fd pairs and a td
# that keeps injecting fresh rows mid-cascade.

AB = Universe.from_names("AB")
N_CASCADE_CASES = 60


def _untyped_fd_egd(determines_b: bool) -> EqualityGeneratingDependency:
    """The untyped fd A -> B (or B -> A) in egd form over AB."""
    if determines_b:
        body = Relation.untyped(AB, [["u", "p"], ["u", "q"]])
    else:
        body = Relation.untyped(AB, [["p", "u"], ["q", "u"]])
    values = {v.name: v for v in body.values()}
    return EqualityGeneratingDependency(values["p"], values["q"], body)


def _cascade_case(seed: int):
    """A randomized chain-collapse instance: two untyped chains sharing roots.

    The base chain ``v0 -> v1 -> ...`` and a primed chain re-anchored to the
    base at random points force merge cascades whose depth (and branching)
    varies per seed; the fd direction, an optional second fd, an optional
    successor td, and tight/loose budgets vary too.
    """
    rng = random.Random(10_000 + seed)
    length = rng.randint(4, 12)
    rows = [[f"v{i}", f"v{i + 1}"] for i in range(length)]
    anchor = 0
    for i in range(length):
        # Re-anchor the primed chain to the base chain occasionally, so some
        # seeds hold several independent cascades instead of one long one.
        left = f"v{anchor}" if i == anchor else f"w{i}"
        rows.append([left, f"w{i + 1}"])
        if rng.random() < 0.25:
            anchor = i + 1
    deps: list = [_untyped_fd_egd(determines_b=True)]
    if rng.random() < 0.3:
        deps.append(_untyped_fd_egd(determines_b=False))
    if rng.random() < 0.3:
        body = Relation.untyped(AB, [["x", "y"]])
        deps.append(
            TemplateDependency(Row.untyped_over(AB, ["y", "z"]), body)
        )
    budget = ChaseBudget(
        max_steps=rng.choice([4, 15, 120]),
        max_rows=rng.choice([30, 400]),
    )
    return Relation.untyped(AB, rows), deps, budget


def test_randomized_egd_cascades_are_equivalent():
    """>= 50 randomized merge-cascade instances, byte-identical per strategy."""
    fired = saw_merge = deep_cascades = 0
    for seed in range(N_CASCADE_CASES):
        instance, deps, budget = _cascade_case(seed)
        result = _assert_equivalent(instance, deps, budget, f"cascade seed={seed}")
        if result.steps:
            fired += 1
        merged = sum(1 for k, v in result.canon.items() if k != v)
        if merged:
            saw_merge += 1
        if merged >= 4:
            deep_cascades += 1
    # The generator must actually exercise the cascade regime.
    assert fired == N_CASCADE_CASES, (
        f"only {fired}/{N_CASCADE_CASES} cascades applied a step"
    )
    assert saw_merge >= 40, "egd merges were barely exercised"
    assert deep_cascades >= 15, "long merge chains were barely exercised"


def test_mvd_chain_is_equivalent():
    """The mvd-chain workload used by the benchmark, at a small size."""
    universe = Universe.from_names("ABCD")
    mvd_tds = [
        jd_to_td(JoinDependency([list(prefix), [prefix[0], *rest]]), universe)
        for prefix, rest in [("AB", "CD"), ("BC", "AD")]
    ]
    instance = random_typed_relation(universe, rows=4, domain_size=2, seed=11)
    _assert_equivalent(instance, mvd_tds, ChaseBudget(), "mvd chain")


@pytest.mark.parametrize("factory", [ShardedStrategy])
@pytest.mark.parametrize("seed", range(8))
def test_process_executor_is_equivalent(seed, factory):
    """The process-pool executor is byte-identical to rescan too.

    The bulk of the suite exercises the threaded executor (worker spawn per
    case would dominate the runtime); these cases pin ``executor="process"``
    so the round-barrier delta replay into the per-shard mirror states is
    differentially validated through real worker processes.
    """
    instance, deps, budget = _cascade_case(seed)
    rescan = chase(instance, deps, budget=budget, strategy="rescan")
    strategy = factory(shard_count=2, executor="process")
    result = chase(instance, deps, budget=budget, strategy=strategy)
    label = f"{strategy.name} process seed={seed}"
    assert strategy.executor == "process"
    assert result.status == rescan.status, label
    assert result.relation == rescan.relation, label
    assert dict(result.canon) == dict(rescan.canon), label
    assert result.steps == rescan.steps, label
