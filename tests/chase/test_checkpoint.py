"""Durable chase checkpointing: the kill-and-resume differential suite.

The checkpoint log is only trustworthy if a run killed at an *arbitrary*
step boundary resumes into exactly the run it would have been: these tests
chase randomized td/egd mixes (the shared ``random_case`` generator, every
case of which applies at least one step), cut each run at several step
budgets, resume from the durable log, and require the resumed result to
match the uninterrupted run in every state-bearing field -- status,
relation (fresh names included), canon, steps, trace, kernel -- under all
three strategies.  ``rounds`` is scheduling bookkeeping excluded here for the
same reason the cross-strategy differential suite excludes it.

The loud-failure half: truncated, corrupted, wrong-schema and completed
logs must raise :class:`CheckpointError` with their stable ``code`` instead
of silently replaying a prefix.  Those tests run on the deterministic
non-terminating chain ``utd[AB]{x y} => y x1``, which exhausts any step
budget on demand.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.api.dsl import parse_dependency
from repro.chase import (
    ChaseEngine,
    ChaseStatus,
    chase,
    checkpoint_counters,
    load_checkpoint,
    log_status,
    register_migration,
    resume_chase,
    scan_resumable,
    validate_token,
)
from repro.chase.checkpoint import (
    ERR_COMPLETE,
    ERR_CORRUPT,
    ERR_NOT_FOUND,
    ERR_SCHEMA,
    ERR_TRUNCATED,
    LOG_SUFFIX,
    SCHEMA_VERSION,
    _MIGRATIONS,
    CheckpointError,
)
from repro.config import ChaseBudget, CheckpointConfig
from repro.model.attributes import Universe
from repro.util.errors import ChaseBudgetExceeded, ReproError

AB = Universe.from_names("AB")

#: strategy x seed pairs: 210 genuine kill-and-resume mixes.
STRATEGIES = ("rescan", "incremental", "sharded")
SEEDS = range(70)


def _chain_case():
    """The non-terminating untyped chain: every budget exhausts on demand."""
    td = parse_dependency("utd[AB]{x y} => y x1", universe=AB)
    return td.body, [td]


def _checkpointed(budget: ChaseBudget, directory, **overrides) -> ChaseBudget:
    config = CheckpointConfig(mode="on", directory=str(directory), **overrides)
    return replace(budget, checkpoint=config)


def _assert_resumed_matches(resumed, straight, label):
    """The resume contract: every state-bearing field byte-identical."""
    assert resumed.status == straight.status, label
    assert resumed.relation == straight.relation, label
    assert dict(resumed.canon) == dict(straight.canon), label
    assert resumed.steps == straight.steps, label
    assert tuple(resumed.trace) == tuple(straight.trace), label
    assert resumed.kernel == straight.kernel, label
    assert resumed.strategy == straight.strategy, label


def _strategy_budget(budget: ChaseBudget, strategy: str) -> ChaseBudget:
    if strategy == "sharded":
        return replace(budget, chase_strategy=strategy, shard_count=2)
    return replace(budget, chase_strategy=strategy)


# -- the kill-and-resume property suite ---------------------------------------


class TestKillAndResume:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_resume_matches_straight_run(self, tmp_path, seed, strategy, random_case):
        instance, deps, budget = random_case(seed)
        budget = _strategy_budget(budget, strategy)
        straight = chase(instance, deps, budget=budget, trace=True)
        total = straight.steps
        assert total >= 1, f"seed={seed}: the case applies no steps"
        kills = 0
        for k in sorted({1, max(1, total // 2), total}):
            cut = _checkpointed(replace(budget, max_steps=k), tmp_path, interval=3)
            partial = chase(instance, deps, budget=cut, trace=True)
            if partial.status is not ChaseStatus.BUDGET_EXHAUSTED:
                continue  # k == total and the run finished within the cut
            label = f"seed={seed} strategy={strategy} k={k}"
            assert partial.checkpoint, label
            resumed = resume_chase(
                partial.checkpoint,
                budget=_checkpointed(budget, tmp_path, interval=3),
                directory=str(tmp_path),
            )
            _assert_resumed_matches(resumed, straight, label)
            kills += 1
        # Only a chase that terminates after its one step has no cut to resume.
        assert kills or (total == 1 and straight.terminated()), f"seed={seed}"

    def test_resume_of_resume_chains(self, tmp_path):
        instance, deps = _chain_case()
        straight = chase(
            instance, deps, budget=ChaseBudget(max_steps=5), trace=True
        )
        assert straight.status is ChaseStatus.BUDGET_EXHAUSTED
        # Kill at 1, resume to 3, resume again to 5.
        first = chase(
            instance,
            deps,
            budget=_checkpointed(ChaseBudget(max_steps=1), tmp_path),
            trace=True,
        )
        assert first.status is ChaseStatus.BUDGET_EXHAUSTED
        second = resume_chase(
            first.checkpoint,
            budget=_checkpointed(ChaseBudget(max_steps=3), tmp_path),
            directory=str(tmp_path),
        )
        assert second.status is ChaseStatus.BUDGET_EXHAUSTED
        assert second.checkpoint and second.checkpoint != first.checkpoint
        final = resume_chase(
            second.checkpoint,
            budget=_checkpointed(ChaseBudget(max_steps=5), tmp_path),
            directory=str(tmp_path),
        )
        _assert_resumed_matches(final, straight, "resume-of-resume")

    def test_terminated_run_carries_no_token(self, tmp_path, simple_td):
        result = chase(
            simple_td.body,
            [simple_td],
            budget=_checkpointed(ChaseBudget(max_steps=100), tmp_path),
        )
        assert result.status is ChaseStatus.TERMINATED
        assert result.checkpoint is None
        # ... but the sealed log is on disk for the retention window.
        logs = [n for n in os.listdir(tmp_path) if n.endswith(LOG_SUFFIX)]
        assert len(logs) == 1
        assert log_status(os.path.join(tmp_path, logs[0])) == "terminated"

    def test_raise_on_budget_attaches_token(self, tmp_path):
        instance, deps = _chain_case()
        straight = chase(instance, deps, budget=ChaseBudget(max_steps=4))
        engine = ChaseEngine(
            deps,
            budget=_checkpointed(ChaseBudget(max_steps=1), tmp_path),
            raise_on_budget=True,
        )
        with pytest.raises(ChaseBudgetExceeded) as excinfo:
            engine.run(instance)
        token = getattr(excinfo.value, "checkpoint", None)
        assert token and validate_token(token)
        resumed = resume_chase(
            token, budget=ChaseBudget(max_steps=4), directory=str(tmp_path)
        )
        assert resumed.steps == straight.steps
        assert resumed.relation == straight.relation

    def test_chase_resume_from_kwarg(self, tmp_path):
        instance, deps = _chain_case()
        straight = chase(instance, deps, budget=ChaseBudget(max_steps=6))
        partial = chase(
            instance,
            deps,
            budget=_checkpointed(ChaseBudget(max_steps=1), tmp_path),
        )
        assert partial.status is ChaseStatus.BUDGET_EXHAUSTED
        resumed = chase(
            resume_from=partial.checkpoint,
            budget=ChaseBudget(max_steps=6),
            checkpoint_directory=str(tmp_path),
        )
        assert resumed.relation == straight.relation
        assert resumed.steps == straight.steps
        with pytest.raises(ReproError):
            chase(instance, deps, resume_from=partial.checkpoint)

    def test_env_override_enables_checkpointing(self, tmp_path, monkeypatch):
        instance, deps = _chain_case()
        monkeypatch.setenv("REPRO_CHECKPOINT", "on")
        config = CheckpointConfig(directory=str(tmp_path))  # mode stays "auto"
        assert config.resolved_mode() == "on"
        partial = chase(
            instance,
            deps,
            budget=ChaseBudget(max_steps=1, checkpoint=config),
        )
        assert partial.status is ChaseStatus.BUDGET_EXHAUSTED
        assert partial.checkpoint is not None
        monkeypatch.setenv("REPRO_CHECKPOINT", "off")
        assert config.resolved_mode() == "off"


# -- log hygiene: snapshots, retention, counters ------------------------------


class TestLogLifecycle:
    def test_snapshot_interval_bounds_replay(self, tmp_path):
        instance, deps = _chain_case()
        partial = chase(
            instance,
            deps,
            budget=_checkpointed(ChaseBudget(max_steps=8), tmp_path, interval=2),
        )
        assert partial.status is ChaseStatus.BUDGET_EXHAUSTED
        before = checkpoint_counters().to_dict()
        point = load_checkpoint(partial.checkpoint, directory=str(tmp_path))
        after = checkpoint_counters().to_dict()
        assert after["logs_replayed"] == before["logs_replayed"] + 1
        # Snapshots every 2 steps: replay re-applies at most interval steps.
        assert after["steps_replayed"] - before["steps_replayed"] <= 2
        assert point.steps == 8

    def test_retention_prunes_only_completed_logs(self, tmp_path):
        instance, deps = _chain_case()
        budget = _checkpointed(ChaseBudget(max_steps=1), tmp_path, retention=2)
        for _ in range(4):
            chase(instance, deps, budget=budget)
        logs = [n for n in os.listdir(tmp_path) if n.endswith(LOG_SUFFIX)]
        assert len(logs) == 2
        # An orphan (no footer) is never pruned, no matter how old.
        orphan_token = f"chase-orphan{LOG_SUFFIX}"
        orphan = os.path.join(tmp_path, orphan_token)
        with open(os.path.join(tmp_path, logs[0]), encoding="utf-8") as handle:
            header = handle.readline()
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write(header)
        os.utime(orphan, (0, 0))
        chase(instance, deps, budget=budget)
        assert os.path.exists(orphan)
        assert orphan_token in scan_resumable(str(tmp_path))

    def test_token_validation_rejects_traversal(self):
        assert validate_token(f"chase-abc123{LOG_SUFFIX}")
        assert not validate_token("../../etc/passwd")
        assert not validate_token(f"../evil{LOG_SUFFIX}")
        assert not validate_token("chase-abc123")  # missing suffix
        assert not validate_token("")
        assert not validate_token(f".hidden{LOG_SUFFIX}")


# -- loud failures: stable error codes ----------------------------------------


@pytest.fixture
def exhausted_log(tmp_path):
    """One budget-exhausted checkpoint log and its directory."""
    instance, deps = _chain_case()
    partial = chase(
        instance,
        deps,
        budget=_checkpointed(ChaseBudget(max_steps=5), tmp_path, interval=2),
    )
    assert partial.status is ChaseStatus.BUDGET_EXHAUSTED
    return partial.checkpoint, tmp_path


class TestLoudFailures:
    def test_missing_token(self, tmp_path):
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(f"chase-missing{LOG_SUFFIX}", directory=str(tmp_path))
        assert excinfo.value.code == ERR_NOT_FOUND

    def test_invalid_token(self, tmp_path):
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint("../sneaky", directory=str(tmp_path))
        assert excinfo.value.code == ERR_NOT_FOUND

    def test_truncated_log_fails_loudly(self, exhausted_log):
        token, directory = exhausted_log
        path = os.path.join(directory, token)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        # Cut the log mid-record: a half-written line WITH a trailing
        # newline is real truncation, never silently replayed as a prefix.
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-2])
            handle.write(lines[-2][: len(lines[-2]) // 2] + "\n")
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(token, directory=str(directory))
        assert excinfo.value.code == ERR_TRUNCATED

    def test_torn_tail_is_crash_residue(self, exhausted_log):
        token, directory = exhausted_log
        path = os.path.join(directory, token)
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        lines = content.splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(torn)  # no trailing newline: a torn final write
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(token, directory=str(directory))
        assert excinfo.value.code == ERR_TRUNCATED
        point = load_checkpoint(
            token, directory=str(directory), allow_torn_tail=True
        )
        assert point.steps >= 1

    def test_corrupt_record_fails_loudly(self, exhausted_log):
        token, directory = exhausted_log
        path = os.path.join(directory, token)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        # Drop the snapshots (forcing a full replay from the header
        # instance) and tamper with the first step's recorded delta: the
        # replay must notice it diverging from what the real step function
        # produces.
        kept = []
        tampered = False
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "snapshot":
                continue
            if record.get("type") == "step" and not tampered:
                record["delta"] = {"kind": "td", "row": []}
                tampered = True
            kept.append(json.dumps(record) + "\n")
        assert tampered
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(token, directory=str(directory))
        assert excinfo.value.code == ERR_CORRUPT

    def test_garbage_header_fails_loudly(self, tmp_path):
        token = f"chase-garbage{LOG_SUFFIX}"
        with open(tmp_path / token, "w", encoding="utf-8") as handle:
            handle.write('{"type": "step", "seq": 1}\n')
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(token, directory=str(tmp_path))
        assert excinfo.value.code == ERR_CORRUPT

    def test_completed_log_refuses_resume(self, tmp_path, simple_td):
        chase(
            simple_td.body,
            [simple_td],
            budget=_checkpointed(ChaseBudget(max_steps=100), tmp_path),
        )
        (token,) = [n for n in os.listdir(tmp_path) if n.endswith(LOG_SUFFIX)]
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(token, directory=str(tmp_path))
        assert excinfo.value.code == ERR_COMPLETE

    def test_future_schema_fails_loudly(self, exhausted_log):
        token, directory = exhausted_log
        path = os.path.join(directory, token)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["schema"] = SCHEMA_VERSION + 1
        lines[0] = json.dumps(header) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(token, directory=str(directory))
        assert excinfo.value.code == ERR_SCHEMA

    def test_old_schema_without_migration_fails(self, exhausted_log):
        token, directory = exhausted_log
        path = os.path.join(directory, token)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["schema"] = 0
        lines[0] = json.dumps(header) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        assert 0 not in _MIGRATIONS
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(token, directory=str(directory))
        assert excinfo.value.code == ERR_SCHEMA


# -- schema migration hook ----------------------------------------------------


class TestMigration:
    def test_registered_migration_upgrades_old_logs(self, exhausted_log):
        token, directory = exhausted_log
        straight_point = load_checkpoint(token, directory=str(directory))
        path = os.path.join(directory, token)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["schema"] = 0
        lines[0] = json.dumps(header) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

        def upgrade(record: dict) -> dict:
            if record.get("type") == "header":
                record["schema"] = 1
            return record

        register_migration(0, upgrade)
        try:
            migrated = load_checkpoint(token, directory=str(directory))
        finally:
            _MIGRATIONS.pop(0, None)
        assert migrated.steps == straight_point.steps
        assert migrated.state.relation == straight_point.state.relation


# -- the committed schema-1 fixture -------------------------------------------


FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "checkpoint_v1.jsonl"
)
STREAMING_FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "checkpoint_streaming.jsonl"
)


class TestCommittedFixture:
    """The schema-migration smoke: logs written today must load tomorrow.

    ``tests/fixtures/checkpoint_v1.jsonl`` is a budget-exhausted (3-step)
    chain log committed at schema 1.  If a schema bump breaks this test,
    either register a migration from version 1 or regenerate the fixture
    alongside one -- never silently drop loadability of sealed logs.
    ``checkpoint_streaming.jsonl`` is the same chain log, written by a
    release that still had the streaming strategy, and its header says so.
    """

    def test_fixture_loads_and_reports_its_state(self):
        point = load_checkpoint(FIXTURE)
        assert point.schema == 1
        assert point.steps == 3
        assert point.status is ChaseStatus.BUDGET_EXHAUSTED
        assert len(point.dependencies) == 1

    def test_fixture_resumes_into_a_longer_run(self):
        instance, deps = _chain_case()
        straight = chase(instance, deps, budget=ChaseBudget(max_steps=6), trace=True)
        point = load_checkpoint(FIXTURE)
        resumed = resume_chase(point, budget=ChaseBudget(max_steps=6))
        _assert_resumed_matches(resumed, straight, "committed v1 fixture")

    def test_retired_streaming_log_resumes_as_incremental(self, tmp_path):
        """The header's ``"streaming"`` budget loads as ``"incremental"``,
        and raising it resumes into exactly the straight 6-step run."""
        instance, deps = _chain_case()
        straight = chase(instance, deps, budget=ChaseBudget(max_steps=6), trace=True)
        point = load_checkpoint(STREAMING_FIXTURE)
        assert point.budget.chase_strategy == "incremental"
        raised = replace(
            point.budget,
            max_steps=6,
            checkpoint=replace(point.budget.checkpoint, directory=str(tmp_path)),
        )
        resumed = resume_chase(point, budget=raised)
        assert resumed.strategy == "incremental"
        _assert_resumed_matches(resumed, straight, "committed streaming log")
