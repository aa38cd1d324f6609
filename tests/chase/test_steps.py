"""Tests for individual chase steps and trigger discovery."""

import pytest

from repro.chase import chase
from repro.chase.steps import (
    _choose_representative,
    apply_egd_step,
    apply_td_step,
    find_triggers,
    initial_state,
    trigger_is_active,
)
from repro.dependencies import EqualityGeneratingDependency, TemplateDependency
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation
from repro.model.values import typed, untyped
from repro.util.errors import SchemaError


@pytest.fixture
def abc():
    return Universe.from_names("ABC")


@pytest.fixture
def mvd_td(abc):
    body = Relation.typed(abc, [["a", "b1", "c1"], ["a", "b2", "c2"]])
    conclusion = Row.typed_over(abc, ["a", "b1", "c2"])
    return TemplateDependency(conclusion, body, name="swap")


@pytest.fixture
def fd_egd(abc):
    body = Relation.typed(abc, [["a", "b1", "c1"], ["a", "b2", "c2"]])
    return EqualityGeneratingDependency(typed("b1", "B"), typed("b2", "B"), body)


class TestTriggers:
    def test_td_trigger_found_on_violation(self, abc, mvd_td, mvd_counterexample):
        state = initial_state(mvd_counterexample)
        triggers = list(find_triggers(state, mvd_td))
        assert len(triggers) >= 1
        assert triggers[0].kind() == "td"

    def test_no_trigger_on_model(self, abc, mvd_td, mvd_model):
        state = initial_state(mvd_model)
        assert list(find_triggers(state, mvd_td)) == []

    def test_egd_trigger(self, abc, fd_egd, mvd_counterexample):
        state = initial_state(mvd_counterexample)
        triggers = list(find_triggers(state, fd_egd))
        assert len(triggers) >= 1
        assert triggers[0].kind() == "egd"

    def test_trigger_limit(self, abc, mvd_td, mvd_counterexample):
        state = initial_state(mvd_counterexample)
        assert len(list(find_triggers(state, mvd_td, limit=1))) == 1


class TestTdStep:
    def test_adds_conclusion_row(self, abc, mvd_td, mvd_counterexample):
        state = initial_state(mvd_counterexample)
        trigger = next(find_triggers(state, mvd_td))
        before = len(state.relation)
        delta = apply_td_step(state, mvd_td, trigger.valuation)
        assert len(state.relation) == before + 1
        assert delta.row in state.relation
        assert delta.changed_rows == (delta.row,)
        assert not delta.is_noop

    def test_equal_rows_of_two_chases_are_one_object(self, mvd_td, mvd_counterexample):
        """Tableaux that outcomes keep share the rows their steps added."""
        deltas = []
        for _ in range(2):
            state = initial_state(mvd_counterexample)
            trigger = next(find_triggers(state, mvd_td))
            deltas.append(apply_td_step(state, mvd_td, trigger.valuation))
        assert deltas[0].row is deltas[1].row

    def test_fresh_values_for_existential_components(
        self, abc, simple_td, mvd_counterexample
    ):
        state = initial_state(mvd_counterexample)
        trigger = next(find_triggers(state, simple_td))
        new_row = apply_td_step(state, simple_td, trigger.valuation).row
        # The A-component is existential, so it must be a fresh value with the
        # right tag, not one of the instance's values.
        assert new_row["A"].tag == "A"
        assert new_row["A"] not in mvd_counterexample.values()

    @pytest.mark.parametrize("names", ["ABD", "AB"])
    def test_td_over_another_universe_is_a_schema_error(self, abc, names):
        """The step checks the conclusion's scheme against the tableau's."""
        other = Universe.from_names(names)
        body = Relation.untyped(other, [["x", "y", "z"][: len(names)]])
        conclusion = Row.untyped_over(other, ["y", "x", "w"][: len(names)])
        td = TemplateDependency(conclusion, body)
        state = initial_state(Relation.untyped(abc, [["a", "b", "c"]]))
        alpha = Valuation({value: untyped(value.name[0]) for value in body.values()})
        with pytest.raises(SchemaError):
            apply_td_step(state, td, alpha)
        assert len(state.relation) == 1
        with pytest.raises(SchemaError):
            chase(state.relation, [td])

    def test_trigger_becomes_inactive_after_step(self, abc, mvd_td, mvd_counterexample):
        state = initial_state(mvd_counterexample)
        trigger = next(find_triggers(state, mvd_td))
        apply_td_step(state, mvd_td, trigger.valuation)
        assert trigger_is_active(state, trigger) is None


class TestEgdStep:
    def test_merges_values_everywhere(self, abc, fd_egd, mvd_counterexample):
        state = initial_state(mvd_counterexample)
        trigger = next(find_triggers(state, fd_egd))
        delta = apply_egd_step(
            state, fd_egd, trigger.valuation, mvd_counterexample.values()
        )
        kept, replaced = delta.kept, delta.replaced
        assert kept != replaced
        assert not delta.is_noop
        assert replaced not in state.relation.values()
        assert state.find(replaced) == kept

    def test_delta_records_rewritten_rows(self, abc, fd_egd, mvd_counterexample):
        state = initial_state(mvd_counterexample)
        trigger = next(find_triggers(state, fd_egd))
        delta = apply_egd_step(
            state, fd_egd, trigger.valuation, mvd_counterexample.values()
        )
        assert delta.changed_rows
        for row in delta.changed_rows:
            assert row in state.relation
            assert delta.kept in row.values()
            assert delta.replaced not in row.values()

    def test_prefers_initial_values_as_representatives(self, abc, fd_egd):
        instance = Relation.typed(abc, [["a", "b1", "c1"], ["a", "b2", "c2"]])
        state = initial_state(instance)
        trigger = next(find_triggers(state, fd_egd))
        delta = apply_egd_step(state, fd_egd, trigger.valuation, instance.values())
        assert delta.kept in instance.values()

    def test_idempotent_when_already_merged(self, abc, fd_egd):
        instance = Relation.typed(abc, [["a", "b1", "c1"], ["a", "b1", "c2"]])
        state = initial_state(instance)
        # No trigger exists because the B-values already agree.
        assert list(find_triggers(state, fd_egd)) == []


class TestRepresentativeChoice:
    """Deterministic merge representatives: initial values always survive.

    The audit behind these pins: a chase-introduced null can never shadow an
    initial value, because ``initial_state`` reserves every initial value's
    *name* in the fresh supply regardless of tag -- so the ``(name, tag)``
    tie-break in ``_choose_representative`` is only ever reached between two
    initials or between two nulls, never across the divide.
    """

    def test_initial_beats_null_regardless_of_name_order(self):
        # The null's name ("n0") sorts before the initial's ("zz"): the
        # initial-value preference must override the lexicographic tie-break.
        initial = typed("zz", "B")
        null = typed("n0", "B")
        assert _choose_representative(null, initial, frozenset({initial})) == (
            initial,
            null,
        )
        assert _choose_representative(initial, null, frozenset({initial})) == (
            initial,
            null,
        )

    def test_tie_break_is_symmetric_and_lexicographic(self):
        a, b = typed("m1", "B"), typed("m2", "B")
        both = frozenset({a, b})
        assert _choose_representative(a, b, both) == (a, b)
        assert _choose_representative(b, a, both) == (a, b)
        # Two nulls (neither initial) break ties the same way.
        assert _choose_representative(a, b, frozenset()) == (a, b)
        assert _choose_representative(b, a, frozenset()) == (a, b)

    def test_null_cannot_shadow_initial_sharing_a_name_across_tags(self, abc):
        """An instance value named like a null blocks that name for every tag.

        ``initial_state`` reserves value *names* (not (name, tag) pairs), so
        a chase null can never be spelled like any initial value, even one
        living in a different column -- the scenario where the name-based
        tie-break could otherwise pick a null over an initial value.
        """
        instance = Relation.typed(abc, [["n0", "b1", "c1"], ["n0", "b2", "c2"]])
        state = initial_state(instance)
        fresh_names = {state.fresh.next() for _ in range(5)}
        assert "n0" not in fresh_names

    def test_merge_with_null_keeps_initial_under_adversarial_names(
        self, abc, simple_td
    ):
        """End-to-end: a td null merged against a late-sorting initial value."""
        # The bridge td adds (n0, b1, c2); the C-determines-A egd then merges
        # the null n0 with the initial zz.  "n0" < "zz", so only the
        # initial-value preference keeps zz as the representative.
        instance = Relation.typed(abc, [["zz", "b1", "c1"], ["zz", "b2", "c2"]])
        state = initial_state(instance)
        trigger = next(find_triggers(state, simple_td))
        null = apply_td_step(state, simple_td, trigger.valuation).row["A"]
        assert null not in instance.values()
        assert null.name < "zz"  # the adversarial order: the null sorts first
        c_determines_a = EqualityGeneratingDependency(
            typed("p", "A"),
            typed("q", "A"),
            Relation.typed(abc, [["p", "s", "u"], ["q", "t", "u"]]),
        )
        merge_trigger = next(find_triggers(state, c_determines_a), None)
        assert merge_trigger is not None
        delta = apply_egd_step(
            state, c_determines_a, merge_trigger.valuation, instance.values()
        )
        assert delta.kept == typed("zz", "A")
        assert delta.replaced == null
        assert null not in state.relation.values()
