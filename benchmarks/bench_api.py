"""E17 -- the api batch paths: ``solve_many`` and the asyncio front-end.

The workload is 60 mixed fd/mvd/jd implication queries drawn from a handful
of premise blocks (the repeated-premises shape of schema-design loops and
service traffic).  Three calling styles answer it:

* the **naive loop** -- one uncached single query at a time (the pre-batch
  style);
* the **batch path** (``solve_many``) -- deduplicates problems, memoizes
  outcomes, and shares premise normalisation;
* the **asyncio front-end** (``solve_many_async`` /
  :class:`~repro.api.AsyncSolver`) -- multiplexes the same queries with
  semaphore backpressure, inline or over a two-process pool the caller
  injects (spawned inside the timed region, so its start-up is counted).

* the **service round-trip** -- the same queries POSTed one at a time over
  a keep-alive socket to a live ``repro.service`` instance, measured at
  batch sizes 1/32/256 against in-process ``solve_many`` on the identical
  workload (the column quantifies what the HTTP/JSON hop costs).

The suite asserts that all styles agree answer-for-answer and that the
batch path is at least 1.5x faster than the naive loop; the inline-vs-pool
and service timings are reported (not gated -- the winner depends on CPU
count and batch shape).  Run the module directly for a human-readable
report and machine-readable ``benchmarks/BENCH_api.json``::

    python benchmarks/bench_api.py
"""

import asyncio
import itertools
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import AsyncSolver, Solver
from repro.config import ServiceConfig, SolverConfig
from repro.model.canon import rename_problem
from repro.service import ServiceClient, protocol, serve_in_thread

UNIVERSE = "ABCD"

PREMISE_BLOCKS = [
    ["A -> B", "B -> C"],
    ["A ->> B"],
    ["AB -> C", "C -> D"],
    ["A ->> B", "B ->> C"],
]

CONCLUSIONS = [
    "A -> C",
    "A ->> B",
    "join[AB, ACD]",
    "AB -> D",
    "A -> D",
]


def workload(solver: Solver):
    """60 problems: 20 distinct queries, each asked three times."""
    problems = [
        solver.problem(premises, conclusion)
        for premises in PREMISE_BLOCKS
        for conclusion in CONCLUSIONS
    ]
    return problems * 3


def run_naive_loop(problems):
    """One uncached single query at a time: the pre-batch calling style."""
    solver = Solver(universe=UNIVERSE, use_cache=False)
    start = time.perf_counter()
    outcomes = [solver.solve(problem) for problem in problems]
    return outcomes, time.perf_counter() - start


def run_batch(problems):
    solver = Solver(universe=UNIVERSE)
    start = time.perf_counter()
    outcomes = solver.solve_many(problems)
    return outcomes, time.perf_counter() - start, solver.stats


async def _solve_over(executor, solver, problems, max_in_flight):
    async with AsyncSolver(
        solver, max_in_flight=max_in_flight, executor=executor
    ) as front:
        return await front.solve_many(problems)


def run_async(problems, pooled=False, max_in_flight=16):
    """The asyncio front-end, inline or over an injected two-process pool.

    The pool is spawned (forking is unsafe once a process has threads) and
    shut down inside the timed region: the row is what a caller pays for a
    fresh pool, start-up included.
    """
    solver = Solver(universe=UNIVERSE)
    start = time.perf_counter()
    if pooled:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(2, mp_context=context) as pool:
            outcomes = asyncio.run(
                _solve_over(pool, solver, problems, max_in_flight)
            )
    else:
        outcomes = asyncio.run(
            solver.solve_many_async(problems, max_in_flight=max_in_flight)
        )
    return outcomes, time.perf_counter() - start, solver.stats


#: Renamed variants of each distinct problem in the isomorphic workload.
RENAMED_VARIANTS = 10


def renamed_workload(solver: Solver, seed=1982):
    """Each distinct query restated under ``RENAMED_VARIANTS`` attribute bijections.

    The multi-tenant shape: tenants ask the *same* questions under their own
    attribute names.  A syntactic cache sees every restatement as new work; a
    canonical cache solves each isomorphism class once.
    """
    rng = random.Random(seed)
    base = [
        solver.problem(premises, conclusion)
        for premises in PREMISE_BLOCKS
        for conclusion in CONCLUSIONS
    ]
    permutations = list(itertools.permutations(UNIVERSE))
    problems = []
    for problem in base:
        for permuted in rng.sample(permutations, RENAMED_VARIANTS):
            problems.append(rename_problem(problem, dict(zip(UNIVERSE, permuted))))
    rng.shuffle(problems)
    return problems


def run_cache_mode(problems, mode):
    """``solve_many`` under one identity mode; returns outcomes, time, stats."""
    solver = Solver(
        universe=UNIVERSE, config=SolverConfig().with_cache(mode=mode)
    )
    start = time.perf_counter()
    outcomes = solver.solve_many(problems)
    return outcomes, time.perf_counter() - start, solver.stats


#: Batch sizes for the service-roundtrip column.
SERVICE_SIZES = (1, 32, 256)


def text_workload(size):
    """``size`` (premises, conclusion) text pairs cycling the distinct pool."""
    pairs = [
        (premises, conclusion)
        for premises in PREMISE_BLOCKS
        for conclusion in CONCLUSIONS
    ]
    return [pairs[i % len(pairs)] for i in range(size)]


def run_in_process(size):
    """The service's in-process twin: one fresh solver, one solve_many call."""
    solver = Solver(universe=UNIVERSE)
    problems = [solver.problem(p, c) for p, c in text_workload(size)]
    start = time.perf_counter()
    outcomes = solver.solve_many(problems)
    return outcomes, time.perf_counter() - start


def run_service_roundtrip(size):
    """The same workload POSTed query-by-query to a live service.

    Each batch goes out on the next event-loop turn, so the column measures
    the socket/JSON hop.
    """
    config = ServiceConfig(port=0, universe=UNIVERSE)
    with serve_in_thread(config=config) as handle:
        host, port = handle.address
        with ServiceClient(host, port, client_id="bench") as client:
            start = time.perf_counter()
            outcomes = [client.solve(p, c) for p, c in text_workload(size)]
            elapsed = time.perf_counter() - start
    return outcomes, elapsed


#: The fleet column's burst size and how many concurrent feeders drive it.
FLEET_BURST = 256
FLEET_CLIENTS = 4

#: Queries per connection before a feeder reconnects (spreads the kernel's
#: per-connection SO_REUSEPORT balancing across the whole burst).
FLEET_RECONNECT = 8

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_fleet_burst(size, workers):
    """``size`` queries flooded from ``FLEET_CLIENTS`` connections at a real
    ``--workers N`` subprocess fleet; returns elapsed seconds.

    Both worker counts go through the identical transport (a supervised
    subprocess, concurrent keep-alive clients), so the column isolates what
    the second worker buys on a burst, not thread-vs-process differences.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--universe",
            UNIVERSE,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"listening on http://([^:]+):(\d+)", line)
        assert match, f"no listen line from the fleet (last: {line!r})"
        host, port = match.group(1), int(match.group(2))

        pairs = text_workload(size)
        share = size // FLEET_CLIENTS
        failures = []

        def tenant(index):
            chunk = pairs[index * share : (index + 1) * share]
            try:
                # Reconnect every few queries: SO_REUSEPORT balances by
                # connection, and a handful of long-lived connections can
                # all hash onto one worker.  The churn costs both worker
                # counts identically.
                for offset in range(0, len(chunk), FLEET_RECONNECT):
                    with ServiceClient(
                        host, port, client_id=f"bench-{index}"
                    ) as client:
                        for premises, conclusion in chunk[
                            offset : offset + FLEET_RECONNECT
                        ]:
                            client.solve(premises, conclusion)
            except Exception as exc:  # surfaced after the join
                failures.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(i,))
            for i in range(FLEET_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not failures, failures
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
    return elapsed


def test_batch_matches_naive_loop():
    """E17a: identical verdicts and reasons, problem by problem."""
    problems = workload(Solver(universe=UNIVERSE))
    assert len(problems) >= 50
    naive, _ = run_naive_loop(problems)
    batch, _, stats = run_batch(problems)
    for fast, slow in zip(batch, naive):
        assert fast.verdict is slow.verdict
        assert fast.reason == slow.reason
    assert stats.unique_problems == len(PREMISE_BLOCKS) * len(CONCLUSIONS)


def test_async_front_end_matches_naive_loop():
    """E17c: the asyncio front-end agrees answer-for-answer, both modes."""
    problems = workload(Solver(universe=UNIVERSE))
    naive, _ = run_naive_loop(problems)
    inline, _, stats = run_async(problems)
    pooled, _, _ = run_async(problems, pooled=True)
    for fast, slow in zip(inline, naive):
        assert fast.verdict is slow.verdict
        assert fast.reason == slow.reason
    for fast, slow in zip(pooled, naive):
        assert fast.verdict is slow.verdict
    # The front-end dedups exactly like the synchronous batch path.
    assert stats.unique_problems == len(PREMISE_BLOCKS) * len(CONCLUSIONS)


def test_service_roundtrip_matches_in_process():
    """E17d: the socket hop changes latency, never answers (JSON-normalized)."""
    in_process, _ = run_in_process(32)
    over_socket, _ = run_service_roundtrip(32)
    assert len(over_socket) == len(in_process)
    for wire, direct in zip(over_socket, in_process):
        assert protocol.dumps(wire) == protocol.dumps(
            protocol.encode_outcome(direct)
        )


def test_batch_speedup_over_naive_loop():
    """E17b: the memoization win on the repeated-premises workload."""
    problems = workload(Solver(universe=UNIVERSE))
    # warm both paths once to exclude import/first-touch effects
    run_naive_loop(problems[:4])
    run_batch(problems[:4])
    _, naive_time = run_naive_loop(problems)
    _, batch_time, _ = run_batch(problems)
    speedup = naive_time / batch_time
    assert speedup >= 1.5, (
        f"batch path only {speedup:.2f}x faster "
        f"(naive {naive_time * 1e3:.1f} ms, batch {batch_time * 1e3:.1f} ms)"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="the second worker needs a second CPU to buy anything",
)
def test_two_worker_fleet_speedup_on_burst():
    """E17f: two workers beat one on a concurrent burst (>= 1.3x, 2+ CPUs).

    The gate holds the tentpole's promise: on a machine with CPUs to use,
    ``--workers 2`` must serve the 256-query four-connection burst at least
    1.3x faster than the identical single-worker deployment.
    """
    # warm both shapes once (interpreter start-up, first-solve effects)
    run_fleet_burst(32, 1)
    run_fleet_burst(32, 2)
    one_worker = run_fleet_burst(FLEET_BURST, 1)
    two_workers = run_fleet_burst(FLEET_BURST, 2)
    speedup = one_worker / two_workers
    assert speedup >= 1.3, (
        f"2-worker fleet only {speedup:.2f}x faster on the n={FLEET_BURST} "
        f"burst (1 worker {one_worker * 1e3:.1f} ms, "
        f"2 workers {two_workers * 1e3:.1f} ms)"
    )


def test_canonical_speedup_on_renamed_duplicates():
    """E17e: the isomorphism-invariant cache's win on renamed duplicates.

    Canonical identity must be at least 2x faster than syntactic identity on
    a workload whose only repetition is *up to renaming* -- each distinct
    isomorphism class is solved once instead of ``RENAMED_VARIANTS`` times.
    """
    solver = Solver(universe=UNIVERSE)
    problems = renamed_workload(solver)
    # warm both paths once to exclude import/first-touch effects
    run_cache_mode(problems[:4], "syntactic")
    run_cache_mode(problems[:4], "canonical")
    plain, syntactic_time, syn_stats = run_cache_mode(problems, "syntactic")
    merged, canonical_time, canon_stats = run_cache_mode(problems, "canonical")
    # verdicts and reasons are renaming-invariant, so the modes must agree
    for fast, slow in zip(merged, plain):
        assert fast.verdict is slow.verdict
        assert fast.reason == slow.reason
    # the canonical cache collapsed the variants into one solve per class
    # (<=: base queries that are themselves isomorphic also merge), while
    # the syntactic cache solved nearly every restatement from scratch
    # (a few bijections fix the attributes a symmetric query mentions)
    assert canon_stats.unique_problems <= len(PREMISE_BLOCKS) * len(CONCLUSIONS)
    assert syn_stats.unique_problems >= 4 * canon_stats.unique_problems
    assert canon_stats.last_run.canonical_hits > 0
    speedup = syntactic_time / canonical_time
    assert speedup >= 2.0, (
        f"canonical identity only {speedup:.2f}x faster on renamed duplicates "
        f"(syntactic {syntactic_time * 1e3:.1f} ms, "
        f"canonical {canonical_time * 1e3:.1f} ms)"
    )


def main() -> None:
    from machine import machine_stamp  # script mode: benchmarks/ is on sys.path

    problems = workload(Solver(universe=UNIVERSE))
    print(
        f"workload: {len(problems)} problems "
        f"({len(PREMISE_BLOCKS) * len(CONCLUSIONS)} distinct)"
    )
    _, naive_time = run_naive_loop(problems)
    _, batch_time, stats = run_batch(problems)
    _, async_time, _ = run_async(problems)
    _, async_pool_time, _ = run_async(problems, pooled=True)
    print(f"naive loop            : {naive_time * 1e3:8.1f} ms")
    print(
        f"solve_many            : {batch_time * 1e3:8.1f} ms "
        f"({naive_time / batch_time:.1f}x faster)"
    )
    print(
        f"solve_many_async      : {async_time * 1e3:8.1f} ms "
        f"(inline, backpressured)"
    )
    print(
        f"AsyncSolver, pool=2   : {async_pool_time * 1e3:8.1f} ms "
        f"(injected spawned pool, start-up included)"
    )
    print(f"stats                 : {stats}")

    renamed = renamed_workload(Solver(universe=UNIVERSE))
    _, syntactic_time, _ = run_cache_mode(renamed, "syntactic")
    _, canonical_time, canon_stats = run_cache_mode(renamed, "canonical")
    print(
        f"\nrenamed duplicates ({len(renamed)} problems, "
        f"{RENAMED_VARIANTS} bijections per distinct query):"
    )
    print(f"  syntactic identity  : {syntactic_time * 1e3:8.1f} ms")
    print(
        f"  canonical identity  : {canonical_time * 1e3:8.1f} ms "
        f"({syntactic_time / canonical_time:.1f}x faster, "
        f"{canon_stats.canonical_hits} canonical hits)"
    )

    print("\nservice round-trip vs in-process solve_many:")
    service_rows = []
    for size in SERVICE_SIZES:
        _, direct_time = run_in_process(size)
        _, socket_time = run_service_roundtrip(size)
        overhead_ms = (socket_time - direct_time) / size * 1e3
        service_rows.append(
            {
                "batch_size": size,
                "in_process_s": round(direct_time, 6),
                "service_s": round(socket_time, 6),
                "per_query_overhead_ms": round(overhead_ms, 3),
            }
        )
        print(
            f"  n={size:4d}  in-process {direct_time * 1e3:8.1f} ms"
            f"  service {socket_time * 1e3:8.1f} ms"
            f"  (+{overhead_ms:.2f} ms/query for the HTTP/JSON hop)"
        )

    print(
        f"\nfleet round-trip (n={FLEET_BURST} burst, "
        f"{FLEET_CLIENTS} connections, {os.cpu_count()} CPUs):"
    )
    run_fleet_burst(32, 1)  # warm the subprocess shape once
    one_worker = run_fleet_burst(FLEET_BURST, 1)
    two_workers = run_fleet_burst(FLEET_BURST, 2)
    fleet_speedup = one_worker / two_workers
    print(f"  --workers 1         : {one_worker * 1e3:8.1f} ms")
    print(
        f"  --workers 2         : {two_workers * 1e3:8.1f} ms "
        f"({fleet_speedup:.2f}x; gated >= 1.3x on 2+ CPUs)"
    )

    payload = {
        "benchmark": "api_paths",
        "machine": machine_stamp(),
        "workload": {
            "problems": len(problems),
            "distinct": len(PREMISE_BLOCKS) * len(CONCLUSIONS),
            "universe": UNIVERSE,
        },
        "calling_styles": {
            "naive_loop_s": round(naive_time, 6),
            "solve_many_s": round(batch_time, 6),
            "async_inline_s": round(async_time, 6),
            "async_pool2_s": round(async_pool_time, 6),
            "batch_speedup": round(naive_time / batch_time, 2),
        },
        "renamed_duplicates": {
            "problems": len(renamed),
            "variants_per_problem": RENAMED_VARIANTS,
            "syntactic_s": round(syntactic_time, 6),
            "canonical_s": round(canonical_time, 6),
            "canonical_speedup": round(syntactic_time / canonical_time, 2),
            "canonical_hits": canon_stats.canonical_hits,
        },
        "service_roundtrip": service_rows,
        "fleet_roundtrip": {
            "burst": FLEET_BURST,
            "connections": FLEET_CLIENTS,
            "cpus": os.cpu_count(),
            "workers1_s": round(one_worker, 6),
            "workers2_s": round(two_workers, 6),
            "speedup": round(fleet_speedup, 2),
        },
    }
    out_path = os.path.join(os.path.dirname(__file__), "BENCH_api.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
