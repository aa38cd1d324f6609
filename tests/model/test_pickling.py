"""Pickles load correctly in a process with another string-hash seed.

``FileOutcomeStore`` entries, spawned pool workers, a second fleet worker
and a restarted service all unpickle objects that another interpreter
pickled.  String hashes depend on ``PYTHONHASHSEED``, so any hash cached
inside a pickled object goes stale there: a relation would hold its rows
at the wrong hash positions, and ``row in relation`` would miss.  These
tests pickle in one subprocess and check in another, under two fixed
seeds, so the seeds always differ whatever seed the suite runs under.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import Value, typed, untyped

SRC = str(Path(__file__).parents[2] / "src")

#: Builds the same objects in every process: a typed relation, an untyped
#: value, an outcome carrying a counterexample and one carrying a chase.
BUILD = textwrap.dedent(
    """
    from repro.api import Solver
    from repro.model.attributes import Universe
    from repro.model.relations import Relation
    from repro.model.values import Value

    def build():
        relation = Relation.typed(
            Universe.from_names("ABC"),
            [[f"a{i}", f"b{i % 3}", f"c{i % 5}"] for i in range(16)],
        )
        solver = Solver(universe="ABC")
        refuted = solver.implies(["A ->> B"], "A -> B")
        implied = solver.implies(["A ->> B", "B ->> C"], "A ->> C")
        return {
            "relation": relation,
            "value": Value("v", None),
            "refuted": refuted,
            "implied": implied,
        }
    """
)

DUMP = BUILD + textwrap.dedent(
    """
    import pickle, sys

    with open(sys.argv[1], "wb") as handle:
        pickle.dump(build(), handle)
    """
)

CHECK = BUILD + textwrap.dedent(
    """
    import pickle, sys

    with open(sys.argv[1], "rb") as handle:
        loaded = pickle.load(handle)
    fresh = build()
    relation = loaded["relation"]
    assert relation == fresh["relation"], "relation unequal"
    missed = [row for row in fresh["relation"] if row not in relation]
    assert not missed, f"row in relation missed {len(missed)} of {len(relation)} rows"
    assert loaded["value"] == fresh["value"]
    assert loaded["value"] in {fresh["value"]}, "value missed in a set"
    assert {loaded["value"]: 1}.get(fresh["value"]) == 1, "value missed as a key"
    for name in ("refuted", "implied"):
        assert loaded[name] == fresh[name], f"{name} outcome unequal"
    counterexample = loaded["refuted"].counterexample
    assert all(row in counterexample for row in fresh["refuted"].counterexample)
    chased = loaded["implied"].chase.relation
    assert all(row in chased for row in fresh["implied"].chase.relation)
    print("ok")
    """
)


def _run(script: str, path: Path, seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_pickles_survive_a_different_hash_seed(tmp_path):
    path = tmp_path / "objects.pkl"
    dumped = _run(DUMP, path, "1")
    assert dumped.returncode == 0, dumped.stderr
    checked = _run(CHECK, path, "2")
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout.strip() == "ok"


class TestInProcessRoundTrip:
    def test_value_round_trips(self):
        for value in (untyped("a"), typed("a", "A")):
            clone = pickle.loads(pickle.dumps(value))
            assert clone == value
            assert hash(clone) == hash(value)
            assert clone.tag == value.tag

    def test_value_has_no_instance_dict(self):
        assert not hasattr(untyped("a"), "__dict__")

    def test_value_of_the_older_dict_layout_loads_by_field_name(self):
        class OlderValue:
            def __reduce_ex__(self, protocol):
                state = {"name": "a", "tag": "A"}
                return (object.__new__, (Value,), state)

        assert pickle.loads(pickle.dumps(OlderValue())) == typed("a", "A")

    def test_row_round_trips_and_shares_its_scheme(self):
        universe = Universe.from_names("CAB")
        rows = [Row.untyped_over(universe, [f"x{i}", "y", "z"]) for i in range(3)]
        clones = pickle.loads(pickle.dumps(rows))
        assert clones == rows
        assert [hash(row) for row in clones] == [hash(row) for row in rows]
        assert [a.name for a in clones[0].scheme] == ["A", "B", "C"]
        assert clones[0].scheme is clones[1].scheme

    def test_rows_compare_by_content_not_scheme_identity(self):
        universe = Universe.from_names("AB")
        row = Row.untyped_over(universe, ["x", "y"])
        clone = pickle.loads(pickle.dumps(row))
        rebuilt = Row._trusted(tuple(row.scheme), (untyped("x"), untyped("y")))
        assert rebuilt == row == clone
        assert rebuilt in Relation(universe, [row])
        assert row != Row({"A": "x", "C": "y"})

    def test_row_items_keep_their_contract(self):
        row = Row({"B": Value("y"), "A": Value("x")})
        assert row.items() == (
            (row.scheme[0], Value("x")),
            (row.scheme[1], Value("y")),
        )
        assert row["B"] == Value("y")
        assert list(row) == [Value("x"), Value("y")]
