"""Tests for rows (the paper's X-values and tuples)."""

import sys

import pytest

import repro.model.tuples as tuples_module
from repro.model.attributes import Universe
from repro.model.tuples import Row
from repro.model.values import typed, untyped
from repro.util.errors import SchemaError, TypingError


@pytest.fixture
def abc():
    return Universe.from_names("ABC")


class TestConstruction:
    def test_typed_over(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        assert row["A"] == typed("a", "A")
        assert row["C"] == typed("c", "C")

    def test_untyped_over(self, abc):
        row = Row.untyped_over(abc, ["a", "b", "c"])
        assert row["A"] == untyped("a")

    def test_over_wraps_plain_names_as_untyped(self, abc):
        row = Row.over(abc, ["a", "b", "c"])
        assert row["B"] == untyped("b")

    def test_wrong_arity_rejected(self, abc):
        with pytest.raises(SchemaError):
            Row.typed_over(abc, ["a", "b"])

    def test_empty_row_rejected(self):
        with pytest.raises(SchemaError):
            Row({})

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Row({"A": "a", Universe.from_names("A").attributes[0]: "b"})

    def test_typed_value_in_wrong_column_rejected(self, abc):
        with pytest.raises(TypingError):
            Row({"A": typed("b", "B"), "B": typed("b2", "B"), "C": typed("c", "C")})


class TestAccess:
    def test_getitem_missing_attribute(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        with pytest.raises(SchemaError):
            row["Z"]

    def test_get_returns_none_for_missing(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        assert row.get("Z") is None
        assert row.get("A") == typed("a", "A")

    def test_scheme_sorted_by_name(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        assert [a.name for a in row.scheme] == ["A", "B", "C"]

    def test_values(self, abc):
        row = Row.untyped_over(abc, ["a", "a", "c"])
        assert row.values() == frozenset({untyped("a"), untyped("c")})

    def test_len_and_iter(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        assert len(row) == 3
        assert set(row) == {typed("a", "A"), typed("b", "B"), typed("c", "C")}


class TestOperations:
    def test_restrict(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        restricted = row.restrict(["A", "C"])
        assert [a.name for a in restricted.scheme] == ["A", "C"]
        assert restricted["A"] == typed("a", "A")

    def test_restrict_missing_attribute(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        with pytest.raises(SchemaError):
            row.restrict(["Z"])

    def test_replace(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        updated = row.replace({"B": typed("b2", "B")})
        assert updated["B"] == typed("b2", "B")
        assert updated["A"] == row["A"]

    def test_replace_unknown_attribute(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        with pytest.raises(SchemaError):
            row.replace({"Z": "z"})

    def test_agrees_with(self, abc):
        first = Row.typed_over(abc, ["a", "b", "c1"])
        second = Row.typed_over(abc, ["a", "b", "c2"])
        assert first.agrees_with(second, ["A", "B"])
        assert not first.agrees_with(second, ["A", "C"])

    def test_typedness_predicates(self, abc):
        assert Row.typed_over(abc, ["a", "b", "c"]).is_typed()
        assert Row.untyped_over(abc, ["a", "b", "c"]).is_untyped()
        assert not Row.untyped_over(abc, ["a", "b", "c"]).is_typed()

    def test_equality_and_hash(self, abc):
        first = Row.typed_over(abc, ["a", "b", "c"])
        second = Row.typed_over(abc, ["a", "b", "c"])
        third = Row.typed_over(abc, ["a", "b", "d"])
        assert first == second
        assert hash(first) == hash(second)
        assert first != third
        assert len({first, second, third}) == 2

    def test_as_dict_is_copy(self, abc):
        row = Row.typed_over(abc, ["a", "b", "c"])
        data = row.as_dict()
        data.clear()
        assert len(row.as_dict()) == 3


class TestOneObjectLayout:
    """A row is one tuple of its values; its class carries the scheme."""

    def test_row_never_equals_a_plain_tuple(self, abc):
        row = Row.untyped_over(abc, ["a", "b", "c"])
        plain = tuple(row)
        assert plain == (untyped("a"), untyped("b"), untyped("c"))
        assert not row == plain and not plain == row
        assert row != plain and plain != row
        assert plain not in {row} and row not in {plain}

    def test_scheme_takes_part_in_equality(self):
        ab = Row({"A": "x", "B": "y"})
        ac = Row({"A": "x", "C": "y"})
        assert tuple(ab) == tuple(ac)
        assert not ab == ac and ab != ac
        assert len({ab, ac}) == 2

    def test_rows_over_one_scheme_share_a_class(self, abc):
        first = Row.typed_over(abc, ["a", "b", "c"])
        second = Row({"C": typed("c", "C"), "A": typed("a", "A"), "B": typed("b", "B")})
        assert type(first) is type(second)
        assert first.scheme is second.scheme
        assert first == second
        assert sys.getsizeof(first) == sys.getsizeof(tuple(first))

    def test_rows_compare_schemes_not_classes(self, abc, monkeypatch):
        row = Row.untyped_over(abc, ["a", "b", "c"])
        monkeypatch.setattr(tuples_module, "_ROW_CLASSES", {})
        rebuilt = Row.untyped_over(abc, ["a", "b", "c"])
        assert type(rebuilt) is not type(row)
        assert rebuilt == row and not rebuilt != row
        assert hash(rebuilt) == hash(row)
