"""Tests for the value -> rows index behind delta-proportional egd merges.

The index is validated three ways: directly (bucket maintenance under
add/discard), through :meth:`Relation.rows_containing` (indexed vs. scan
answers coincide), and through the chase steps (after any sequence of
td/egd steps the state-owned index answers exactly like a fresh full-scan
rebuild, and an indexed egd merge rewrites exactly what a whole-tableau
``map_values`` rewrite would).

The chase state's live row set, which the steps update in place, is
checked the same way: against :func:`_reference_step`, the immutable set
algebra it replaced, and by counting how often a budget-bound chase
freezes it into a relation.
"""

import random
import sys

import pytest

from repro.chase import ChaseStatus, RowIndex, chase
from repro.chase.steps import (
    ChaseState,
    TdDelta,
    _frozen_rows,
    apply_egd_step,
    apply_td_step,
    compile_dependency,
    find_triggers,
    initial_state,
)
from repro.config import ChaseBudget, CheckpointConfig
from repro.dependencies import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    TemplateDependency,
    fd_to_egds,
)
from repro.model.attributes import Universe
from repro.model.instances import random_typed_relation
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import typed

ABC = Universe.from_names("ABC")


def _index_snapshot(index: RowIndex) -> tuple[dict, dict]:
    """Bucket contents as plain sets (order-insensitive comparison)."""
    return (
        {key: set(bucket) for key, bucket in index.attr_buckets.items()},
        {value: set(bucket) for value, bucket in index.value_buckets.items()},
    )


class TestRowIndexMaintenance:
    def test_build_covers_every_cell(self):
        relation = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        index = RowIndex(relation)
        for row in relation:
            for attr in ABC.attributes:
                assert row in index.attr_buckets[(attr, row[attr])]
            for value in row.values():
                assert row in index.value_buckets[value]

    def test_value_buckets_match_scan(self):
        relation = random_typed_relation(ABC, rows=6, domain_size=2, seed=3)
        index = RowIndex(relation)
        for value in relation.values():
            assert set(index.value_buckets[value]) == set(
                relation.rows_containing(value)
            )

    def test_add_is_idempotent_and_discard_prunes_empty_buckets(self):
        relation = Relation.typed(ABC, [["a", "b1", "c1"]])
        index = RowIndex(relation)
        (row,) = relation.rows
        before = _index_snapshot(index)
        index.add_row(row)
        assert _index_snapshot(index) == before
        index.discard_row(row)
        assert index.attr_buckets == {}
        assert index.value_buckets == {}

    def test_discard_of_unindexed_row_is_a_noop(self):
        relation = Relation.typed(ABC, [["a", "b1", "c1"]])
        index = RowIndex(relation)
        stranger = Row.typed_over(ABC, ["z", "z1", "z2"])
        before = _index_snapshot(index)
        index.discard_row(stranger)
        assert _index_snapshot(index) == before


class TestRowsContaining:
    def test_scan_and_indexed_answers_agree(self):
        relation = random_typed_relation(ABC, rows=8, domain_size=3, seed=7)
        index = RowIndex(relation)
        for value in relation.values():
            scanned = set(relation.rows_containing(value))
            indexed = set(relation.rows_containing(value, index=index.value_buckets))
            assert scanned == indexed

    def test_stale_index_entries_are_filtered_by_membership(self):
        relation = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        index = RowIndex(relation)
        smaller = relation.without_rows([next(iter(relation))])
        # The index still lists the dropped row; the fast path must not.
        for value in smaller.values():
            assert set(
                smaller.rows_containing(value, index=index.value_buckets)
            ) == set(smaller.rows_containing(value))

    def test_missing_value_yields_empty(self):
        relation = Relation.typed(ABC, [["a", "b1", "c1"]])
        index = RowIndex(relation)
        ghost = typed("ghost", "A")
        assert relation.rows_containing(ghost) == ()
        assert relation.rows_containing(ghost, index=index.value_buckets) == ()

    def test_row_index_lookup_keeps_only_the_rows_held(self):
        relation = random_typed_relation(ABC, rows=8, domain_size=3, seed=7)
        index = RowIndex(relation)
        smaller = relation.without_rows([next(iter(relation))])
        for value in relation.values():
            scanned = set(relation.rows_containing(value))
            assert index.rows_containing(value, relation) == scanned
            # The index still lists the dropped row; the lookup must not.
            scanned = set(smaller.rows_containing(value))
            assert index.rows_containing(value, smaller) == scanned
        ghost = typed("ghost", "A")
        assert index.rows_containing(ghost, relation) == frozenset()


class TestChaseStateIndex:
    def test_lazy_build_and_identity_check(self):
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        state = initial_state(instance)
        first = state.row_index
        assert first is state.row_index  # cached while the relation is unchanged
        state.relation = instance.with_rows(
            [Row.typed_over(ABC, ["z", "z1", "z2"])]
        )
        rebuilt = state.row_index  # direct assignment invalidates -> rebuild
        assert rebuilt is not first
        assert _index_snapshot(rebuilt) == _index_snapshot(RowIndex(state.relation))

    def test_td_and_egd_steps_keep_the_index_in_sync(self):
        instance = Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        bridge = TemplateDependency(
            Row.typed_over(ABC, ["a_new", "b1", "c2"]),
            Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]]),
        )
        fd_egd = EqualityGeneratingDependency(
            typed("b1", "B"),
            typed("b2", "B"),
            Relation.typed(ABC, [["a", "b1", "c1"], ["a", "b2", "c2"]]),
        )
        state = initial_state(instance)
        assert state.row_index is not None  # materialise before stepping
        trigger = next(find_triggers(state, bridge))
        apply_td_step(state, bridge, trigger.valuation)
        assert _index_snapshot(state.row_index) == _index_snapshot(
            RowIndex(state.relation)
        )
        trigger = next(find_triggers(state, fd_egd))
        apply_egd_step(state, fd_egd, trigger.valuation, instance.values())
        assert _index_snapshot(state.row_index) == _index_snapshot(
            RowIndex(state.relation)
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_indexed_merge_equals_whole_tableau_rewrite(self, seed):
        """An indexed egd step rewrites exactly what ``map_values`` would."""
        rng = random.Random(seed)
        instance = random_typed_relation(
            ABC, rows=rng.randint(3, 7), domain_size=2, seed=seed
        )
        egds = fd_to_egds(FunctionalDependency(["A"], [rng.choice("BC")]), ABC)
        state = initial_state(instance)
        initial_values = instance.values()
        for _ in range(10):
            trigger = next(
                (t for egd in egds for t in find_triggers(state, egd)), None
            )
            if trigger is None:
                break
            before = state.relation
            delta = apply_egd_step(
                state,
                trigger.dependency,
                state.canonicalize(trigger.valuation),
                initial_values,
            )
            reference = before.map_values(
                lambda v: delta.kept if v == delta.replaced else v
            )
            assert state.relation == reference
            assert _index_snapshot(state.row_index) == _index_snapshot(
                RowIndex(state.relation)
            )


class TestShardOrderReplay:
    """RowIndex replay of one delta stream by several index copies.

    Any copy of the index can be brought up to date by replaying the
    engine's delta stream through ``apply_delta``; checkpoint resume relies
    on the same path.  Three properties keep a replayed copy equal to a
    fresh rebuild: every interleaving of *commuting* delta groups (touching
    disjoint rows) converges to the same buckets, an egd merge whose
    rewrite spans rows held by several copies evicts the pre-rewrite rows
    from all of them, and dependent deltas replayed in engine order land on
    the rebuilt index.  The test names keep the vocabulary of the retired
    sharded strategy, whose per-shard sub-indexes they were written for.
    """

    AB = Universe.from_names("AB")

    def _fd_egd(self):
        body = Relation.untyped(self.AB, [["u", "p"], ["u", "q"]])
        values = {v.name: v for v in body.values()}
        return EqualityGeneratingDependency(values["p"], values["q"], body)

    @staticmethod
    def _replayed(base: Relation, deltas) -> RowIndex:
        index = RowIndex(base)
        for delta in deltas:
            index.apply_delta(delta)
        return index

    @staticmethod
    def _assert_no_trace_of(index: RowIndex, rows) -> None:
        for bucket in index.attr_buckets.values():
            assert not (set(bucket) & set(rows))
        for bucket in index.value_buckets.values():
            assert not (set(bucket) & set(rows))

    def test_commuting_shard_groups_converge_in_any_order(self):
        """Two shards' delta groups over disjoint components commute."""
        instance = Relation.untyped(
            self.AB,
            [["v0", "v1"], ["v0", "w1"], ["x0", "x1"], ["x0", "y1"]],
        )
        egd = self._fd_egd()
        state = initial_state(instance)
        initial_values = instance.values()
        triggers = sorted(
            find_triggers(state, egd),
            key=lambda t: sorted(v.name for v in t.valuation.as_dict().values()),
        )
        deltas = []
        for trigger in triggers:
            delta = apply_egd_step(
                state, egd, state.canonicalize(trigger.valuation), initial_values
            )
            if not delta.is_noop:
                deltas.append(delta)
        # One merge per component: w1 -> v1 and y1 -> x1.
        assert len(deltas) == 2
        shard_a, shard_b = [deltas[0]], [deltas[1]]
        forward = self._replayed(instance, shard_a + shard_b)
        backward = self._replayed(instance, shard_b + shard_a)
        assert _index_snapshot(forward) == _index_snapshot(backward)
        assert _index_snapshot(forward) == _index_snapshot(RowIndex(state.relation))

    def test_cross_shard_merge_leaves_no_stale_buckets(self):
        """An egd rewrite spanning a base row and a td-added row evicts both.

        The td row comes from one shard's trigger, the merge from another's;
        every shard sub-index replays the full ordered stream, so the merge
        must scrub the replaced value's rows wherever they came from.
        """
        td = TemplateDependency(
            Row.untyped_over(self.AB, ["y", "z"]),
            Relation.untyped(self.AB, [["x", "y"]]),
            name="succ",
        )
        instance = Relation.untyped(self.AB, [["v0", "v1"], ["v0", "w1"]])
        egd = self._fd_egd()
        state = initial_state(instance)
        initial_values = instance.values()
        # Shard 1's td extends the primed chain: adds (w1, n0).
        trigger = next(
            t
            for t in find_triggers(state, td)
            if any(v.name == "w1" for v in t.valuation.as_dict().values())
        )
        td_delta = apply_td_step(state, td, trigger.valuation)
        # Shard 2's egd merges w1 into v1, rewriting rows of both origins.
        trigger = next(find_triggers(state, egd))
        egd_delta = apply_egd_step(
            state, egd, state.canonicalize(trigger.valuation), initial_values
        )
        assert td_delta.row in egd_delta.removed_rows
        assert len(egd_delta.removed_rows) >= 2
        # Two shard sub-indexes synced from different points: one replays the
        # whole ordered stream from the round-start tableau, the other was
        # (re)built mid-round -- it already holds the td row -- and replays
        # only the merge.  Both must converge on the rebuilt index with no
        # trace of the pre-rewrite rows.
        mid_round = instance.with_rows([td_delta.row])
        for sub_index in (
            self._replayed(instance, [td_delta, egd_delta]),
            self._replayed(mid_round, [egd_delta]),
        ):
            self._assert_no_trace_of(sub_index, egd_delta.removed_rows)
            assert _index_snapshot(sub_index) == _index_snapshot(
                RowIndex(state.relation)
            )

    def test_engine_order_replay_matches_rebuild_on_dependent_deltas(self):
        """Non-commuting deltas (td row later rewritten) replay exactly in
        engine order -- the discipline the sharded barrier ships to every
        shard -- and land on the rebuilt index."""
        td = TemplateDependency(
            Row.untyped_over(self.AB, ["y", "z"]),
            Relation.untyped(self.AB, [["x", "y"]]),
            name="succ",
        )
        egd = self._fd_egd()
        instance = Relation.untyped(self.AB, [["v0", "v1"], ["v0", "w1"]])
        state = initial_state(instance)
        initial_values = instance.values()
        deltas = []
        for _ in range(6):
            trigger = next(
                (
                    t
                    for dep in (egd, td)
                    for t in find_triggers(state, dep)
                ),
                None,
            )
            if trigger is None:
                break
            alpha = state.canonicalize(trigger.valuation)
            if trigger.kind() == "td":
                deltas.append(apply_td_step(state, td, alpha))
            else:
                delta = apply_egd_step(state, egd, alpha, initial_values)
                if not delta.is_noop:
                    deltas.append(delta)
        assert any(
            getattr(d, "removed_rows", None) for d in deltas
        ), "expected at least one merge in the stream"
        replayed = self._replayed(instance, deltas)
        assert _index_snapshot(replayed) == _index_snapshot(RowIndex(state.relation))


class TestStrategySharing:
    def test_full_chase_leaves_index_consistent(self):
        """After a full engine run the state index equals a fresh rebuild."""
        instance = Relation.typed(
            ABC,
            [["a", "b1", "c1"], ["a", "b2", "c2"], ["a2", "b1", "c2"]],
        )
        fd_egds = fd_to_egds(FunctionalDependency(["A"], ["B"]), ABC)
        result = chase(instance, fd_egds, budget=ChaseBudget())
        assert result.terminated()
        rebuilt = RowIndex(result.relation)
        assert set(rebuilt.value_buckets) == result.relation.values()


def _reference_step(before: Relation, delta) -> Relation:
    """The post-step tableau by immutable set algebra.

    A td step is the old rows plus the one it adds; an egd step rewrites
    the replaced value everywhere.
    """
    if isinstance(delta, TdDelta):
        return Relation(before.universe, before.rows | {delta.row})
    return before.map_values(lambda v: delta.kept if v == delta.replaced else v)


class TestLiveRowSet:
    """The state's live row set against the set algebra it replaced."""

    N_SEEDS = 150

    def test_steps_match_the_reference_and_never_share_the_live_set(
        self, random_case
    ):
        td_steps = egd_steps = 0
        for seed in range(self.N_SEEDS):
            instance, deps, _ = random_case(seed)
            rng = random.Random(seed)
            pristine = Relation(instance.universe, list(instance.rows))
            state = initial_state(instance)
            initial_values = instance.values()
            compiled = [compile_dependency(dep) for dep in deps]
            for _ in range(25):
                before = state.relation
                held = set(before.rows)
                trigger = next(
                    (
                        t
                        for cd in rng.sample(compiled, len(compiled))
                        for t in find_triggers(state, cd)
                    ),
                    None,
                )
                if trigger is None:
                    break
                alpha = state.canonicalize(trigger.valuation)
                if trigger.kind() == "td":
                    delta = apply_td_step(state, trigger.dependency, alpha)
                    td_steps += 1
                else:
                    delta = apply_egd_step(
                        state, trigger.dependency, alpha, initial_values
                    )
                    egd_steps += 1
                label = f"seed={seed} step={td_steps + egd_steps}"
                assert state.relation == _reference_step(before, delta), label
                assert len(state) == len(state.relation), label
                assert before.rows == held, label
                assert instance == pristine, label
                # Sometimes only later, so the index is also built from
                # live rows mid-run, not just maintained from the start.
                if rng.random() < 0.5:
                    assert _index_snapshot(state.row_index) == _index_snapshot(
                        RowIndex(state.relation)
                    ), label
        assert td_steps >= 250, "td steps were barely exercised"
        assert egd_steps >= 100, "egd steps were barely exercised"

    @pytest.mark.parametrize("count", [5, 8, 12, 16, 64])
    def test_frozen_rows_table_is_no_larger_than_a_copy(self, count):
        ab = Universe.from_names("AB")
        live = set(
            Relation.untyped(ab, [[f"a{i}", f"b{i}"] for i in range(count)]).rows
        )
        order = list(live)
        frozen = _frozen_rows(live)
        assert frozen == frozenset(order)
        assert list(live) == order, "freezing must only read the live set"
        copied = sys.getsizeof(frozenset(live))
        if count & (count - 1):
            assert sys.getsizeof(frozen) == copied
        else:
            # frozenset(s) sizes a power-of-two count at twice the table.
            assert sys.getsizeof(frozen) < copied


class TestNoCopyGate:
    """A budget-bound chase on the default path freezes its tableau a fixed
    number of times, not once per step.  Counted, never timed."""

    AB = Universe.from_names("AB")

    def test_successor_chase_freezes_a_fixed_number_of_times(self, monkeypatch):
        freezes = []
        freeze = ChaseState._freeze

        def counting(state):
            freezes.append(len(state))
            return freeze(state)

        monkeypatch.setattr(ChaseState, "_freeze", counting)
        successor = TemplateDependency(
            Row.untyped_over(self.AB, ["y", "z"]),
            Relation.untyped(self.AB, [["x", "y"]]),
        )
        chain = Relation.untyped(
            self.AB, [[f"v{i}", f"v{i + 1}"] for i in range(5)]
        )
        # Checkpoint snapshots freeze the tableau too (one per interval),
        # so the gate pins logging off rather than inherit it from the
        # environment.
        budget = ChaseBudget(max_steps=2000, checkpoint=CheckpointConfig(mode="off"))
        result = chase(chain, [successor], budget=budget)
        assert result.status is ChaseStatus.BUDGET_EXHAUSTED
        assert result.steps == 2000
        assert result.kernel == "bitset"
        # One freeze builds the result; a per-step copy would be 2,000.
        assert len(freezes) <= 2, freezes
