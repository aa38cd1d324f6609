"""Tests for attributes and universes."""

import pytest

from repro.model.attributes import (
    Attribute,
    Universe,
    as_attribute,
    attribute_set,
    attribute_set_name,
)
from repro.util.errors import SchemaError
from repro.util.intern import intern


class TestAttribute:
    def test_equality_is_by_name(self):
        assert Attribute("A") == Attribute("A")
        assert Attribute("A") != Attribute("B")

    def test_hashable_and_usable_in_sets(self):
        assert len({Attribute("A"), Attribute("A"), Attribute("B")}) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_str_is_name(self):
        assert str(Attribute("A")) == "A"

    def test_indexed_builds_blown_up_names(self):
        assert Attribute("A").indexed(3) == Attribute("A_3")

    def test_as_attribute_coerces_strings(self):
        assert as_attribute("A") == Attribute("A")
        assert as_attribute(Attribute("A")) == Attribute("A")

    def test_as_attribute_rejects_other_types(self):
        with pytest.raises(SchemaError):
            as_attribute(42)


class TestUniverse:
    def test_from_names(self):
        universe = Universe.from_names("ABC")
        assert [a.name for a in universe] == ["A", "B", "C"]

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Universe(["A", "A"])

    def test_empty_universe_rejected(self):
        with pytest.raises(SchemaError):
            Universe([])

    def test_membership(self):
        universe = Universe.from_names("ABC")
        assert "A" in universe
        assert Attribute("B") in universe
        assert "Z" not in universe

    def test_equality_is_set_based(self):
        assert Universe(["A", "B"]) == Universe(["B", "A"])
        assert Universe(["A", "B"]) != Universe(["A", "C"])

    def test_index_of(self):
        universe = Universe.from_names("ABC")
        assert universe.index_of("B") == 1
        with pytest.raises(SchemaError):
            universe.index_of("Z")

    def test_subset_orders_by_universe_position(self):
        universe = Universe.from_names("ABCD")
        assert [a.name for a in universe.subset(["C", "A"])] == ["A", "C"]

    def test_subset_rejects_foreign_attributes(self):
        with pytest.raises(SchemaError):
            Universe.from_names("ABC").subset(["Z"])

    def test_complement(self):
        universe = Universe.from_names("ABCD")
        assert [a.name for a in universe.complement(["B", "D"])] == ["A", "C"]

    def test_complement_rejects_foreign_attributes(self):
        with pytest.raises(SchemaError):
            Universe.from_names("ABC").complement(["Z"])

    def test_union_preserves_left_order(self):
        left = Universe.from_names("AB")
        right = Universe.from_names("BC")
        assert [a.name for a in left.union(right)] == ["A", "B", "C"]

    def test_restricted(self):
        universe = Universe.from_names("ABCD")
        assert [a.name for a in universe.restricted(["D", "A"])] == ["A", "D"]

    def test_is_superset_of(self):
        universe = Universe.from_names("ABC")
        assert universe.is_superset_of(["A", "C"])
        assert not universe.is_superset_of(["A", "Z"])

    def test_blown_up_layout_matches_example3(self):
        """The Section 6 universe lists A_0..A_n before B_0..B_n, as in Example 3."""
        hat = Universe.from_names("AB").blown_up(2)
        assert [a.name for a in hat] == ["A_0", "A_1", "A_2", "B_0", "B_1", "B_2"]

    def test_blown_up_rejects_negative_levels(self):
        with pytest.raises(SchemaError):
            Universe.from_names("AB").blown_up(-1)

    def test_attribute_set_name(self):
        universe = Universe.from_names("ABC")
        assert attribute_set_name(universe.attributes) == "ABC"


class TestSharing:
    """Attributes and attribute sets are shared, but only by value."""

    def test_names_and_sets_share_one_object(self):
        assert as_attribute("A") is as_attribute("A")
        assert attribute_set("AB") is attribute_set(["B", Attribute("A")])
        assert attribute_set("AB") == frozenset({Attribute("A"), Attribute("B")})

    def test_a_full_table_is_cleared_and_still_answers(self):
        table = {}
        first = intern(table, ("x", 1), lambda key: list(key), limit=2)
        assert intern(table, ("x", 1), lambda key: [], limit=2) is first
        intern(table, ("y", 2), limit=2)
        intern(table, ("z", 3), limit=2)
        assert len(table) == 1
        again = intern(table, ("x", 1), lambda key: list(key), limit=2)
        assert again == first and again is not first
