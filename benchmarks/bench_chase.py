"""E16 -- chase substrate: rescan vs. incremental, classic vs. kernel.

These workloads compare the chase's scheduling strategies and matchers
head-to-head:

* **successor-chain** -- the paper's non-terminating untyped successor td
  (every B-value must appear in column A of some row) chased on a growing
  chain ``v0 -> v1 -> ... -> vm`` under a step budget.  The active frontier
  is a single row per round while the tableau keeps growing, which is
  exactly the shape the incremental trigger index exists for: rescan pays a
  full re-enumeration of every homomorphism each round, the incremental
  strategy only extends matches through the one new row.  Each row also
  times the default path, incremental on the bitset kernel.
* **merge-cascade** -- a second chain ``w1 -> w2 -> ...`` anchored at the
  base chain's ``v0`` chased with the fd ``A -> B`` in egd form.  Exactly
  one merge fires per round (``w_i`` collapses into ``v_i``), and each merge
  unlocks the next, so the primed chain collapses link by link into the base
  chain.  This is the egd-cascade regime of Vardi's implication procedure
  (fd closures, egd-dense instances): the value -> rows index makes each
  merge cost O(|touched rows|), and the delta-driven worklist makes each
  round cost O(|changed rows|), while rescan re-enumerates every
  homomorphism of the egd body per round.
* **mvd-chain** -- the Lemma 10 chain of mvds ``A1 ->> A2, ..., A(k-1) ->> Ak``
  chased on two rows agreeing on ``A1``.  The tableau *doubles* every round
  (2^(k-1) final rows), so almost every homomorphism routes through a
  recently-added row and the delta discipline can only tie rescan -- it is
  kept as the honest worst case and as the regression guard that the index
  bookkeeping never makes the chase *slower*.  Each row also times the
  default path, whose total-td violation check is one lookup of the
  conclusion's id tuple: it must beat the classic matcher by >= 6x on
  k=7 (CI gate).
* **checkpoint-overhead** -- the successor chain again, incremental, with
  and without the durable delta log (``CheckpointConfig(mode="on")``).
  The gated column: the log's buffered step appends and per-round flushes
  must cost <= 10% wall time, so checkpointing can stay on for the long
  budget-bound runs it exists for.
* **kernel-wide** -- many parallel 3-column chains chased with *six*
  dependencies at once (four untyped rotation tds plus the fds ``A -> B``
  and ``A -> C`` in egd form), so every round carries extension work for
  every dependency and the egd merges rewrite rows the tds then extend
  through.  At 256 and 512 starting rows it compares the classic
  dict-probing matcher against the columnar trigger kernel, which must
  beat it by >= 2x on the 512-row size (CI gate).
* **budget-bound-chain** -- the successor chain under a step budget, with
  the same two matchers.  Every step re-validates a non-total td: the
  classic matcher scans the tableau for a witness row, the kernel answers
  from its column mirror.  The bitset path must beat the classic matcher
  by >= 5x on the 192-link chain (CI gate), or the default path has
  started scanning again.
* **mvd-trees** -- seeded implication problems over ``ABCDEF``: a tree of
  four mvds over five of the attributes, sometimes with a two-component
  jd, asked whether an mvd from the root or a jd follows.  Each problem
  is solved cold through ``Solver.solve_many``, with and without the
  durable delta log.  The deterministic column is round triggers per
  applied step, read from the logs' round and step records: a round keeps
  one trigger per conclusion, so it must stay <= 2.0 (CI gate; it read
  8.3 when rounds listed every trigger).

Every timing is the **median of ``REPEATS`` runs after one warmup run**, so
the CI regression gates compare medians instead of single noisy
measurements.  All strategies must produce byte-identical results on every
workload (the suite asserts it).  Run the module directly to print a timing
table and emit machine-readable ``benchmarks/BENCH_chase.json`` for
cross-PR tracking::

    python benchmarks/bench_chase.py
"""

import json
import os
import random
import shutil
import statistics
import string
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.api import Solver
from repro.chase import chase
from repro.chase.strategies import IncrementalStrategy
from repro.config import ChaseBudget, CheckpointConfig, SolverConfig
from repro.dependencies import (
    EqualityGeneratingDependency,
    MultivaluedDependency,
    TemplateDependency,
)
from repro.dependencies.conversion import jd_to_td, mvd_to_jd
from repro.model.attributes import Universe
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import untyped

AB = Universe.from_names("AB")
ABC = Universe.from_names("ABC")

#: Timed runs per measurement (after one warmup); medians feed the gates.
REPEATS = 3

#: (chain length, step budget) pairs, growing; the last is the headline size.
SUCCESSOR_SIZES = [(16, 16), (32, 32), (64, 64), (96, 96)]
MVD_SIZES = [4, 6, 8]
CASCADE_SIZES = [32, 64, 96, 128]
#: (parallel chains, chain length) pairs for the kernel comparison; the last
#: (64 chains x 8 links = 512 starting rows) is the gated headline size.
KERNEL_WIDE_SIZES = [(32, 8), (64, 8)]
SMOKE_SUCCESSOR = (48, 48)
#: (chain length, step budget) for the checkpoint-overhead gate: long enough
#: that the log's fixed per-run costs (header, exhaustion snapshot) amortize
#: the way they do in the budget-bound runs checkpointing exists for.
CHECKPOINT_GATE_SIZE = (192, 192)
#: (chain length, step budget) pairs for the budget-bound successor chain;
#: the first is the gated size, the second the plain successor query of the
#: end-to-end benchmark's cold workload (the default 2,000-step budget).
BUDGET_BOUND_SIZES = [CHECKPOINT_GATE_SIZE, (96, 2000)]
SMOKE_CASCADE = 64
#: Problems in the mvd-trees family, and the seed that draws them.
MVD_TREE_PROBLEMS = 60
MVD_TREE_SEED = 1982


def successor_chain_workload(length: int):
    """The unbounded successor chase on a chain instance of ``length`` edges."""
    body = Relation.untyped(AB, [["x", "y"]])
    successor = TemplateDependency(
        Row.untyped_over(AB, ["y", "z"]), body, name="successor"
    )
    instance = Relation.untyped(
        AB, [[f"v{i}", f"v{i + 1}"] for i in range(length)]
    )
    return instance, [successor]


def merge_cascade_workload(length: int):
    """An egd chain that collapses a long primed chain into the base chain.

    The instance holds two untyped chains over AB sharing their root: the
    base chain ``(v0, v1), ..., (v(m-1), vm)`` and the primed chain
    ``(v0, w1), (w1, w2), ..., (w(m-1), wm)``.  The fd ``A -> B`` in egd
    form fires exactly once per round -- first ``w1 = v1`` (both rows with
    ``A = v0``), whose rewrite creates the rows agreeing on ``v1`` that fire
    ``w2 = v2``, and so on -- a maximal-depth merge cascade of ``m`` steps,
    each touching only the couple of rows containing the replaced value.
    """
    body = Relation.untyped(AB, [["u", "p"], ["u", "q"]])
    fd_egd = EqualityGeneratingDependency(
        untyped("p"), untyped("q"), body, name="fd A->B"
    )
    base = [[f"v{i}", f"v{i + 1}"] for i in range(length)]
    primed = [["v0" if i == 0 else f"w{i}", f"w{i + 1}"] for i in range(length)]
    instance = Relation.untyped(AB, base + primed)
    return instance, [fd_egd]


def mvd_chain_workload(k: int):
    """The Lemma 10 mvd chain over ``k`` attributes on two rows sharing A1."""
    names = string.ascii_uppercase[:k]
    universe = Universe.from_names(names)
    tds = [
        jd_to_td(
            mvd_to_jd(MultivaluedDependency([names[i]], [names[i + 1]]), universe),
            universe,
        )
        for i in range(k - 1)
    ]
    row1 = [f"{c.lower()}0" for c in names]
    row2 = [names[0].lower() + "0"] + [f"{c.lower()}1" for c in names[1:]]
    instance = Relation.typed(universe, [row1, row2])
    return instance, tds


def wide_workload(chains: int, length: int):
    """Wide multi-dependency mix: parallel chains, six dependencies at once.

    The instance holds ``chains`` disjoint 3-column chains
    ``(c v_i, c v_{i+1}, c u_i)``.  Four distinct untyped rotation tds keep
    adding rows through every chain simultaneously (wide rounds: every round
    extends matches for every dependency through many changed rows), while
    the fds ``A -> B`` and ``A -> C`` in egd form merge the values those
    freshly added rows agree on -- so the tds constantly extend through
    rows the egds just rewrote.
    """
    deps = []
    rotations = [
        (["x", "y", "z"], ["y", "z", "w1"]),
        (["x", "y", "z"], ["z", "x", "w2"]),
        (["x", "y", "z"], ["y", "x", "w3"]),
        (["x", "y", "z"], ["z", "y", "w4"]),
    ]
    for i, (body_row, conclusion) in enumerate(rotations):
        body = Relation.untyped(ABC, [body_row])
        deps.append(
            TemplateDependency(
                Row.untyped_over(ABC, conclusion), body, name=f"rotate{i}"
            )
        )
    fd_body = Relation.untyped(ABC, [["u", "p", "s"], ["u", "q", "t"]])
    values = {v.name: v for v in fd_body.values()}
    deps.append(
        EqualityGeneratingDependency(values["p"], values["q"], fd_body, name="fd A->B")
    )
    deps.append(
        EqualityGeneratingDependency(values["s"], values["t"], fd_body, name="fd A->C")
    )
    rows = []
    for c in range(chains):
        for i in range(length):
            rows.append([f"c{c}v{i}", f"c{c}v{i + 1}", f"c{c}u{i}"])
    return Relation.untyped(ABC, rows), deps


def _attributes(rng, pool, low, high):
    return "".join(sorted(rng.sample(pool, rng.randint(low, high))))


def _two_way_jd(rng, universe):
    """``join[X, Y]`` with ``X`` and ``Y`` covering ``universe``, one shared."""
    left = _attributes(rng, universe, 2, len(universe) - 1)
    right = set(universe) - set(left) | {rng.choice(left)}
    return f"join[{left}, {''.join(sorted(right))}]"


def mvd_tree_problems(count=MVD_TREE_PROBLEMS, seed=MVD_TREE_SEED, universe="ABCDEF"):
    """``count`` distinct ``(premises, conclusion)`` pairs in the DSL.

    The premises are a tree of mvds: after a random root, each of four
    more attributes hangs off an attribute (sometimes two) placed before
    it; about a third of the problems add a jd.  The conclusion is an mvd
    from the root or a jd.
    """
    rng = random.Random(seed)
    problems, seen = [], set()
    while len(problems) < count:
        order = rng.sample(universe, len(universe))
        premises = []
        for i in range(1, 5):
            lhs = {order[rng.randrange(i)]}
            if i >= 2 and rng.random() < 0.25:
                lhs.add(order[rng.randrange(i)])
            premises.append(f"{''.join(sorted(lhs))} ->> {order[i]}")
        if rng.random() < 0.3:
            premises.append(_two_way_jd(rng, universe))
        rng.shuffle(premises)
        if rng.random() < 0.5:
            rest = [a for a in universe if a != order[0]]
            conclusion = f"{order[0]} ->> {_attributes(rng, rest, 1, 3)}"
        else:
            conclusion = _two_way_jd(rng, universe)
        key = (tuple(premises), conclusion)
        if key not in seen:
            seen.add(key)
            problems.append(key)
    return problems


def solve_cold(problems, config=None, universe="ABCDEF"):
    """Solve every problem once on a fresh solver; the outcomes."""
    solver = Solver(universe=universe, config=config)
    return [
        solver.solve_many([solver.problem(list(premises), conclusion)])[0]
        for premises, conclusion in problems
    ]


def _logged(directory, runs):
    # Retention above the run count keeps every log of a pass.
    return SolverConfig().with_checkpoint("on", directory=directory, retention=runs)


def count_round_triggers(problems):
    """Solve ``problems`` once with the delta log on and read the logs.

    Returns ``(outcomes, round triggers, applied steps, log bytes)``: every
    round record lists the round's triggers, and every applied step writes
    one step record.
    """
    directory = tempfile.mkdtemp(prefix="bench-mvd-trees-")
    try:
        outcomes = solve_cold(problems, _logged(directory, 100 * len(problems)))
        triggers = steps = size = 0
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            size += os.path.getsize(path)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    if record["type"] == "round":
                        triggers += len(record["triggers"])
                    elif record["type"] == "step":
                        steps += 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return outcomes, triggers, steps, size


def compare_mvd_trees(repeats=REPEATS):
    """The mvd-trees family solved cold, plain and with the delta log.

    Returns the median wall time of ``repeats`` passes per variant (the
    counting pass and one plain pass warm both up), and from the counting
    pass the round triggers, applied steps and log bytes.  Both variants
    must return the same verdicts.
    """
    problems = mvd_tree_problems()
    logged, triggers, steps, size = count_round_triggers(problems)
    plain = solve_cold(problems)
    assert [o.verdict for o in logged] == [o.verdict for o in plain]
    directory = tempfile.mkdtemp(prefix="bench-mvd-trees-")
    timings = {}
    try:
        config = _logged(directory, len(problems))
        for label, variant in (("plain_s", None), ("checkpointed_s", config)):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                solve_cold(problems, variant)
                times.append(time.perf_counter() - start)
            timings[label] = round(statistics.median(times), 6)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "problems": len(problems),
        "steps": steps,
        "round_triggers": triggers,
        "triggers_per_step": round(triggers / steps, 3),
        "log_bytes_per_problem": size // len(problems),
        **timings,
        "checkpoint_overhead_pct": round(
            (timings["checkpointed_s"] / timings["plain_s"] - 1.0) * 100, 2
        ),
    }


def run_strategy(instance, dependencies, strategy, max_steps=200000, repeats=REPEATS):
    """Chase under one strategy; the median wall time of ``repeats`` runs.

    One untimed warmup run precedes the measurements, so code-path priming
    (imports, compile caches) never lands in a median and the
    CI gates stay robust against one-off scheduler noise.

    The budget pins ``chase_kernel="off"`` so string-named strategies measure
    the classic dict-probing matcher; kernel measurements pass explicit
    strategy *instances* (which ignore the budget's kernel field).
    """
    budget = ChaseBudget(max_steps=max_steps, max_rows=200000, chase_kernel="off")
    result = chase(instance, dependencies, budget=budget, strategy=strategy)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = chase(instance, dependencies, budget=budget, strategy=strategy)
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def _assert_same_result(actual, expected):
    assert actual.relation == expected.relation
    assert actual.status == expected.status
    assert actual.steps == expected.steps
    assert dict(actual.canon) == dict(expected.canon)


def compare(instance, dependencies, max_steps=200000, repeats=REPEATS, bitset=False):
    """Run rescan + incremental, assert identical results, return timings.

    ``incremental_s`` is the classic matcher (see :func:`run_strategy`);
    ``bitset=True`` adds the default path, incremental on the kernel, as
    ``bitset_s`` and its speedup over the classic matcher.
    """
    rescan, rescan_time = run_strategy(
        instance, dependencies, "rescan", max_steps, repeats
    )
    incremental, incremental_time = run_strategy(
        instance, dependencies, "incremental", max_steps, repeats
    )
    _assert_same_result(incremental, rescan)
    entry = {
        "final_rows": len(rescan.relation),
        "steps": rescan.steps,
        "status": rescan.status.value,
        "rescan_s": round(rescan_time, 6),
        "incremental_s": round(incremental_time, 6),
        "speedup": round(rescan_time / incremental_time, 2),
    }
    if bitset:
        result, bitset_time = run_strategy(
            instance,
            dependencies,
            IncrementalStrategy(kernel="auto"),
            max_steps,
            repeats,
        )
        _assert_same_result(result, rescan)
        entry["bitset_s"] = round(bitset_time, 6)
        entry["bitset_vs_incremental"] = round(incremental_time / bitset_time, 2)
    return entry


def compare_checkpoint(length, steps, repeats=REPEATS):
    """Plain vs durably-logged incremental chase on the successor chain.

    Both runs use the incremental strategy with the classic matcher; the
    checkpointed run additionally appends the schema-versioned delta log
    (header, per-round trigger lists, buffered steps, exhaustion snapshot,
    footer) to a scratch directory.  ``overhead_pct`` is the gated column:
    the durable log must cost <= 10% wall time on this workload, or
    checkpointing has stopped being cheap enough to leave on for long
    budget-bound runs.
    """

    def one(budget):
        start = time.perf_counter()
        result = chase(instance, deps, budget=budget)
        return result, time.perf_counter() - start

    instance, deps = successor_chain_workload(length)
    base = ChaseBudget(
        max_steps=steps,
        max_rows=200000,
        chase_strategy="incremental",
        chase_kernel="off",
    )
    directory = tempfile.mkdtemp(prefix="bench-checkpoint-")
    try:
        durable = replace(
            base, checkpoint=CheckpointConfig(mode="on", directory=directory)
        )
        # Machine speed drifts in phases longer than one sample, so any
        # aggregate computed independently per variant (median, min) can
        # pick its two numbers from different phases and report garbage.
        # Instead pair each plain run with the logged run adjacent to it in
        # time -- both see the same machine state -- and take the median of
        # the per-pair ratios.
        # ABBA ordering on top: alternating which variant goes first in a
        # pair cancels any drift that is linear across the pair.
        one(base), one(durable)  # warmup
        plain_times, logged_times = [], []
        for pair in range(repeats):
            if pair % 2 == 0:
                plain, elapsed = one(base)
                plain_times.append(elapsed)
                logged, elapsed = one(durable)
                logged_times.append(elapsed)
            else:
                logged, elapsed = one(durable)
                logged_times.append(elapsed)
                plain, elapsed = one(base)
                plain_times.append(elapsed)
        ratio = statistics.median(
            logged / plain for plain, logged in zip(plain_times, logged_times)
        )
        plain_time = min(plain_times)
        logged_time = plain_time * ratio
        assert logged.relation == plain.relation
        assert logged.steps == plain.steps
        assert logged.checkpoint is not None  # the run left a resumable log
        return {
            "final_rows": len(plain.relation),
            "steps": plain.steps,
            "status": plain.status.value,
            "plain_s": round(plain_time, 6),
            "checkpointed_s": round(logged_time, 6),
            "overhead_pct": round((logged_time / plain_time - 1.0) * 100, 2),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


#: ``(workload, size..., max_steps) -> report`` memo: the kernel gates and the
#: script-mode matrix share one measurement of each gated size.
_KERNEL_REPORTS = {}


def compare_kernel(chains, length, max_steps=120, repeats=REPEATS):
    """Classic matcher vs the kernel on the wide workload."""
    key = ("kernel_wide", chains, length, max_steps)
    if key not in _KERNEL_REPORTS:
        instance, deps = wide_workload(chains, length)
        _KERNEL_REPORTS[key] = kernel_report(instance, deps, max_steps, repeats)
    return _KERNEL_REPORTS[key]


def compare_mvd_chain(k, repeats=REPEATS):
    """Classic matcher vs the kernel on the mvd chain over ``k`` attributes."""
    key = ("mvd_chain", k)
    if key not in _KERNEL_REPORTS:
        instance, deps = mvd_chain_workload(k)
        _KERNEL_REPORTS[key] = kernel_report(instance, deps, 200000, repeats)
    return _KERNEL_REPORTS[key]


def compare_budget_bound(length, steps, repeats=REPEATS):
    """Classic matcher vs the kernel on the budget-bound chain."""
    key = ("budget_bound_chain", length, steps)
    if key not in _KERNEL_REPORTS:
        instance, deps = successor_chain_workload(length)
        _KERNEL_REPORTS[key] = kernel_report(instance, deps, steps, repeats)
    return _KERNEL_REPORTS[key]


def kernel_report(instance, deps, max_steps, repeats=REPEATS):
    """Time the classic matcher and the kernel on one workload.

    Both runs are single-threaded ``IncrementalStrategy`` instances, so the
    ratio isolates the trigger-matching substrate from everything else.
    """
    classic, classic_time = run_strategy(
        instance, deps, IncrementalStrategy(kernel="off"), max_steps, repeats
    )
    result, bitset_time = run_strategy(
        instance, deps, IncrementalStrategy(kernel="auto"), max_steps, repeats
    )
    _assert_same_result(result, classic)
    return {
        "final_rows": len(classic.relation),
        "steps": classic.steps,
        "status": classic.status.value,
        "classic_s": round(classic_time, 6),
        "bitset_s": round(bitset_time, 6),
        "bitset_vs_classic": round(classic_time / bitset_time, 2),
    }


# -- pytest entry points (the CI smoke; benchmarks/ is outside tier-1) --------


def test_strategies_agree_on_all_workloads():
    """Identical tableaux, statuses, canon maps and step counts."""
    compare(*successor_chain_workload(12), max_steps=12, repeats=1)
    compare(*merge_cascade_workload(12), repeats=1)
    compare(*mvd_chain_workload(4), repeats=1)
    compare(*wide_workload(3, 6), max_steps=40, repeats=1)


def test_incremental_beats_rescan_on_chain_smoke():
    """The pathological-regression guard: the index must win on the chain.

    The successor chain is the workload the trigger index is *for*; if the
    incremental strategy is not clearly faster here, its bookkeeping has
    regressed into a net loss and this fails loudly.
    """
    length, steps = SMOKE_SUCCESSOR
    instance, deps = successor_chain_workload(length)
    report = compare(instance, deps, max_steps=steps)
    assert report["speedup"] >= 2.0, (
        f"incremental only {report['speedup']}x vs rescan on the smoke chain "
        f"(rescan {report['rescan_s'] * 1e3:.0f} ms, "
        f"incremental {report['incremental_s'] * 1e3:.0f} ms)"
    )


def test_incremental_5x_on_largest_chain():
    """The acceptance bar: >= 5x on the largest successor-chain workload."""
    length, steps = SUCCESSOR_SIZES[-1]
    instance, deps = successor_chain_workload(length)
    report = compare(instance, deps, max_steps=steps)
    assert report["speedup"] >= 5.0, (
        f"incremental only {report['speedup']}x vs rescan on the largest chain"
    )


def test_merge_cascade_indexed_path_beats_rescan_smoke():
    """The egd-cascade regression guard (CI gate): the value -> rows index
    plus delta-driven scheduling must clearly beat rescan on the cascade.

    If the indexed egd path ever regresses below the rescan baseline here,
    merge cascades have lost their delta-proportional cost and this fails
    loudly.
    """
    instance, deps = merge_cascade_workload(SMOKE_CASCADE)
    report = compare(instance, deps)
    assert report["status"] == "terminated"
    assert report["steps"] == SMOKE_CASCADE
    assert report["speedup"] >= 2.0, (
        f"incremental only {report['speedup']}x vs rescan on the merge cascade "
        f"(rescan {report['rescan_s'] * 1e3:.0f} ms, "
        f"incremental {report['incremental_s'] * 1e3:.0f} ms)"
    )


def test_merge_cascade_5x_on_largest():
    """The acceptance bar: >= 5x on the largest merge-cascade workload."""
    instance, deps = merge_cascade_workload(CASCADE_SIZES[-1])
    report = compare(instance, deps)
    assert report["speedup"] >= 5.0, (
        f"incremental only {report['speedup']}x vs rescan on the largest cascade"
    )


def test_mvd_chain_never_pathologically_slower():
    """Dense worst case: the index may tie rescan but must not collapse."""
    report = compare(*mvd_chain_workload(6))
    assert report["speedup"] >= 0.5, (
        f"incremental collapsed to {report['speedup']}x on the dense mvd chain"
    )


def test_kernel_6x_classic_on_mvd_chain():
    """The integer-kernel gate (CI): the default path >= 6x the classic matcher.

    Every mvd td is total, so the kernel answers each violation check with
    one lookup of the conclusion's id tuple in the live rows, and matches
    on integer value ids throughout.  A ratio below 6x on the k=7 chain
    means the matcher is hashing values in its hot loop again.
    """
    report = compare_mvd_chain(7)
    assert report["bitset_vs_classic"] >= 6.0, (
        f"kernel only {report['bitset_vs_classic']}x vs the classic matcher "
        f"on the k=7 mvd chain (classic {report['classic_s'] * 1e3:.0f} ms, "
        f"kernel {report['bitset_s'] * 1e3:.0f} ms)"
    )


def test_checkpoint_overhead_within_ten_percent():
    """The durability gate (CI): the delta log must cost <= 10% wall time.

    Measured on a 192-link successor chain under the incremental strategy
    -- the long budget-bound regime checkpointing exists for, where the
    log's fixed per-run costs (header, exhaustion snapshot) amortize.  The
    per-step path is buffered appends only, so a regression here means a
    flush or re-serialization snuck into it (or a snapshot started firing
    far too often).
    """
    length, steps = CHECKPOINT_GATE_SIZE
    report = compare_checkpoint(length, steps, repeats=7)
    assert report["overhead_pct"] <= 10.0, (
        f"checkpointing costs {report['overhead_pct']}% on the {length}-link "
        f"successor chain (plain {report['plain_s'] * 1e3:.0f} ms, "
        f"checkpointed {report['checkpointed_s'] * 1e3:.0f} ms)"
    )


def test_kernel_beats_incremental_on_wide_workload():
    """The kernel acceptance gate (CI): >= 2x over the classic matcher.

    The columnar kernel exists to make wide rounds cheap; if it cannot
    double the classic incremental matcher's throughput on the 512-row
    wide workload, the posting-list candidate intersection has regressed
    into overhead and this fails loudly.
    """
    chains, length = KERNEL_WIDE_SIZES[-1]
    report = compare_kernel(chains, length)
    assert report["bitset_vs_classic"] >= 2.0, (
        f"kernel only {report['bitset_vs_classic']}x vs the classic "
        f"matcher on the {chains}x{length} wide workload "
        f"(classic {report['classic_s'] * 1e3:.0f} ms, "
        f"kernel {report['bitset_s'] * 1e3:.0f} ms)"
    )


def test_bitset_revalidation_5x_classic_on_budget_bound_chain():
    """The re-validation gate (CI): the default path >= 5x the classic matcher.

    Every step of the budget-bound successor chain re-validates a non-total
    td.  The classic matcher scans the tableau for a witness row each time,
    so its run grows quadratically with the budget; the bitset incremental
    path answers from the kernel's column mirror.  A ratio below 5x means
    the default path has gone back to scanning.
    """
    length, steps = BUDGET_BOUND_SIZES[0]
    report = compare_budget_bound(length, steps)
    assert report["bitset_vs_classic"] >= 5.0, (
        f"bitset incremental only {report['bitset_vs_classic']}x vs the classic "
        f"matcher on the {length}-link budget-bound chain "
        f"(classic {report['classic_s'] * 1e3:.0f} ms, "
        f"bitset {report['bitset_s'] * 1e3:.0f} ms)"
    )


def test_one_round_trigger_per_conclusion_on_mvd_trees():
    """The round-size gate (CI): <= 2.0 round triggers per applied step.

    Deterministic: counted from the round and step records of the delta
    logs of one cold pass over the mvd-trees family.  A round keeps one
    trigger per conclusion, so above 2.0 the engine is scheduling (and
    re-validating, and logging) triggers that cannot fire again; with every
    trigger listed the family reads 8.3.
    """
    _, triggers, steps, _ = count_round_triggers(mvd_tree_problems())
    assert triggers / steps <= 2.0, (
        f"{triggers} round triggers for {steps} applied steps "
        f"({triggers / steps:.2f} per step) on the mvd-trees family"
    )


# -- script mode: full matrix + BENCH_chase.json ------------------------------


def full_matrix():
    from machine import machine_stamp  # script mode: benchmarks/ is on sys.path

    results = {
        "benchmark": "chase_strategies",
        "machine": machine_stamp(),
        "workloads": [],
    }
    chain_rows = []
    for length, steps in SUCCESSOR_SIZES:
        instance, deps = successor_chain_workload(length)
        entry = {
            "size": length,
            **compare(instance, deps, max_steps=steps, bitset=True),
        }
        chain_rows.append(entry)
    results["workloads"].append(
        {
            "name": "successor_chain",
            "grows": "chain length / step budget",
            "sizes": chain_rows,
        }
    )
    cascade_rows = []
    for length in CASCADE_SIZES:
        instance, deps = merge_cascade_workload(length)
        cascade_rows.append({"size": length, **compare(instance, deps)})
    results["workloads"].append(
        {
            "name": "merge_cascade",
            "grows": "collapsed chain length (1 merge/round)",
            "sizes": cascade_rows,
        }
    )
    mvd_rows = []
    for k in MVD_SIZES:
        instance, deps = mvd_chain_workload(k)
        # repeats=1: rescan and the classic matcher on the largest size are
        # by far the most expensive measurements in the matrix.
        mvd_rows.append(
            {"size": k, **compare(instance, deps, repeats=1, bitset=True)}
        )
    results["workloads"].append(
        {
            "name": "mvd_chain",
            "grows": "attributes (tableau doubles per round)",
            "sizes": mvd_rows,
        }
    )
    checkpoint_rows = []
    for length, steps in SUCCESSOR_SIZES + [CHECKPOINT_GATE_SIZE]:
        checkpoint_rows.append(
            {"size": length, **compare_checkpoint(length, steps)}
        )
    results["workloads"].append(
        {
            "name": "checkpoint_overhead",
            "grows": "chain length (durable delta log vs no log)",
            "sizes": checkpoint_rows,
        }
    )
    kernel_rows = []
    for chains, length in KERNEL_WIDE_SIZES:
        kernel_rows.append(
            {"size": f"{chains}x{length}", **compare_kernel(chains, length)}
        )
    results["workloads"].append(
        {
            "name": "kernel_wide",
            "grows": "parallel chains x length (columnar kernel vs classic)",
            "sizes": kernel_rows,
        }
    )
    budget_rows = []
    for length, steps in BUDGET_BOUND_SIZES:
        # repeats=1 past the gated size: the classic matcher's 2,000-step
        # run is the most expensive measurement in the matrix.
        repeats = REPEATS if (length, steps) == BUDGET_BOUND_SIZES[0] else 1
        budget_rows.append(
            {
                "size": f"{length}/{steps}",
                **compare_budget_bound(length, steps, repeats=repeats),
            }
        )
    results["workloads"].append(
        {
            "name": "budget_bound_chain",
            "grows": "chain length / step budget (columnar kernel vs classic)",
            "sizes": budget_rows,
        }
    )
    results["workloads"].append(
        {
            "name": "mvd_trees",
            "grows": "fixed family: cold solves with and without the delta log",
            "sizes": [{"size": MVD_TREE_PROBLEMS, **compare_mvd_trees()}],
        }
    )
    return results


def main() -> None:
    results = full_matrix()
    for workload in results["workloads"]:
        print(f"\n{workload['name']} (growing {workload['grows']})")
        if workload["name"] == "checkpoint_overhead":
            print(
                f"{'size':>6} {'rows':>6} {'steps':>6} "
                f"{'plain':>10} {'checkpointed':>13} {'overhead':>9}"
            )
            for row in workload["sizes"]:
                print(
                    f"{row['size']:>6} {row['final_rows']:>6} {row['steps']:>6} "
                    f"{row['plain_s'] * 1e3:>8.1f}ms "
                    f"{row['checkpointed_s'] * 1e3:>11.1f}ms "
                    f"{row['overhead_pct']:>8.1f}%"
                )
            continue
        if workload["name"] == "mvd_trees":
            print(
                f"{'size':>6} {'steps':>6} {'trig/step':>10} "
                f"{'plain':>10} {'checkpointed':>13} {'log/problem':>12}"
            )
            for row in workload["sizes"]:
                print(
                    f"{row['size']:>6} {row['steps']:>6} "
                    f"{row['triggers_per_step']:>10.2f} "
                    f"{row['plain_s'] * 1e3:>8.1f}ms "
                    f"{row['checkpointed_s'] * 1e3:>11.1f}ms "
                    f"{row['log_bytes_per_problem']:>11}B"
                )
            continue
        if workload["name"] in ("kernel_wide", "budget_bound_chain"):
            print(
                f"{'size':>6} {'rows':>6} {'steps':>6} "
                f"{'classic':>10} {'bitset':>10} {'bitset-x':>9}"
            )
            for row in workload["sizes"]:
                print(
                    f"{row['size']:>6} {row['final_rows']:>6} {row['steps']:>6} "
                    f"{row['classic_s'] * 1e3:>8.1f}ms "
                    f"{row['bitset_s'] * 1e3:>8.1f}ms "
                    f"{row['bitset_vs_classic']:>8.2f}x"
                )
            continue
        print(
            f"{'size':>6} {'rows':>6} {'steps':>6} "
            f"{'rescan':>10} {'incremental':>12} {'speedup':>8} "
            f"{'bitset':>10} {'bitset-x':>9}"
        )
        for row in workload["sizes"]:
            bitset = (
                f"{row['bitset_s'] * 1e3:>8.1f}ms {row['bitset_vs_incremental']:>8.1f}x"
                if "bitset_s" in row
                else f"{'':>10} {'':>9}"
            )
            print(
                f"{row['size']:>6} {row['final_rows']:>6} {row['steps']:>6} "
                f"{row['rescan_s'] * 1e3:>8.1f}ms "
                f"{row['incremental_s'] * 1e3:>10.1f}ms "
                f"{row['speedup']:>7.1f}x {bitset}"
            )
    out = Path(__file__).parent / "BENCH_chase.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
