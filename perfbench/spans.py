"""Spans for the benchmark's traced runs, recorded from outside the program.

Nothing under ``src/`` is instrumented.  :func:`install` replaces the
public function of each layer, in the namespace of the module that calls
it, with a wrapper that records one span per call: ``(id, parent, name,
query, start, end, info)``.  The parent is the innermost open span on the
same thread; ``query`` is the id the caller set in :data:`QUERY` (the
benchmark sets it per in-process query, the ``decode_request`` wrapper
sets it per service request from the envelope's ``id``).  Spans stay in
memory and are written out once: at exit in a service process, at the end
of the traced phase in-process.

Self time -- a span's duration minus its children's -- is computed
afterwards by :func:`self_times`.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: The query the current spans belong to.
QUERY: contextvars.ContextVar = contextvars.ContextVar("perfbench_query", default=None)

#: Wrapped span name -> the per-layer metric its self time is reported under.
LAYER_OF = {
    "service.protocol.decode": "service.protocol_ms",
    "service.protocol.success_response": "service.protocol_ms",
    "service.protocol.dumps": "service.protocol_ms",
    "api.dsl.parse": "api.dsl.parse_ms",
    "api.identity": "api.identity_ms",
    "model.canon": "model.canon_ms",
    "api.batch": "api.batch_ms",
    "api.store.get": "api.store.get_ms",
    "api.store.put": "api.store.put_ms",
    "implication.engine": "implication.engine_ms",
    "implication.route.fd_closure": "implication.engine_ms",
    "implication.route.full_fragment": "implication.engine_ms",
    "implication.route.chase": "implication.engine_ms",
    "implication.normalize": "implication.normalize_ms",
    "implication.finite_search": "implication.finite_search_ms",
    "chase.run": "chase.run_ms",
}

#: Route span -> the procedure it stands for.  A solve that entered several
#: was answered by the first listed: the finite search runs only when the
#: chase left the query open.
ROUTES = (
    ("implication.finite_search", "finite_search"),
    ("implication.route.full_fragment", "full_fragment"),
    ("implication.route.chase", "chase"),
    ("implication.route.fd_closure", "fd_closure"),
)


class Tracer:
    """An in-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.checkpoint_bytes = 0
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_info(self):
        """The info dict of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def wrap(self, name, function, annotate=None):
        """``function`` recording one span per call under ``name``.

        ``annotate(info, args, result)`` may add fields to the span.
        """
        stack_of = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            info: dict = {}
            stack.append((span_id, info))
            start = clock()
            try:
                result = function(*args, **kwargs)
                if annotate is not None:
                    annotate(info, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, QUERY.get(), start, end, info))

        traced.__wrapped__ = function
        return traced

    def patch(self, owner, attribute, name, annotate=None) -> None:
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), annotate))

    def dump(self, path: str, **extra) -> None:
        """Write every span (and ``extra`` fields) as one JSON document."""
        payload = {"pid": os.getpid(), "spans": self.spans, **extra}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry point where its caller looks it up."""
    from repro.api import identity as api_identity
    from repro.api import solver as api_solver
    from repro.api.store import FileOutcomeStore, InMemoryStore
    from repro.chase import checkpoint
    from repro.chase import engine as chase_engine
    from repro.implication import decidable, normalize
    from repro.implication import engine as implication_engine
    from repro.service import protocol

    def set_query(info, args, request):
        QUERY.set(getattr(request, "id", None))

    def batch_info(info, args, outcomes):
        solver, problems = args[0], args[1]
        info["problems"] = len(problems)
        run = solver.stats.last_run
        info["solved"] = run.solved if run is not None else 0

    def hit(info, args, result):
        info["hit"] = result is not None

    tracer.patch(protocol, "decode_request", "service.protocol.decode", set_query)
    tracer.patch(protocol, "success_response", "service.protocol.success_response")
    tracer.patch(protocol, "dumps", "service.protocol.dumps")
    tracer.patch(api_solver.Solver, "problem", "api.dsl.parse")
    tracer.patch(api_solver.Solver, "identity", "api.identity")
    tracer.patch(api_identity, "canonical_key", "model.canon")
    tracer.patch(api_solver.Solver, "solve_many", "api.batch", batch_info)
    for store in (InMemoryStore, FileOutcomeStore):
        tracer.patch(store, "get", "api.store.get", hit)
        tracer.patch(store, "put", "api.store.put")
    engine = implication_engine
    tracer.patch(engine.ImplicationEngine, "solve", "implication.engine")
    tracer.patch(engine, "fd_implies", "implication.route.fd_closure")
    tracer.patch(engine, "full_fragment_implies", "implication.route.full_fragment")
    tracer.patch(engine, "prove", "implication.route.chase")
    tracer.patch(engine, "refute_finitely", "implication.finite_search")
    # The engine and the decidable fragment bound normalize_all at import;
    # the finite search imports it from its module at call time.
    for module in (engine, decidable, normalize):
        tracer.patch(module, "normalize_all", "implication.normalize")
    tracer.patch(chase_engine.ChaseEngine, "run", "chase.run")

    def observe(result) -> None:
        info = tracer.current_info()
        if info is not None:
            info["steps"] = result.steps
            info["rounds"] = result.rounds
            info["rows"] = len(result.relation)
            info["exhausted"] = result.status.value == "budget_exhausted"

    chase_engine.add_run_observer(observe)

    close = checkpoint.CheckpointWriter.close

    def counted_close(writer) -> None:
        fresh = not writer._closed
        close(writer)
        if fresh:
            try:
                tracer.checkpoint_bytes += os.path.getsize(writer.path)
            except OSError:
                pass

    checkpoint.CheckpointWriter.close = counted_close


# -- analysis -------------------------------------------------------------------


def self_times(spans):
    """``{span_id: self seconds}`` and ``{span_id: [child ids]}``."""
    children = defaultdict(list)
    child_time = defaultdict(float)
    for span_id, parent, _name, _query, start, end, _info in spans:
        if parent:
            children[parent].append(span_id)
            child_time[parent] += end - start
    own = {
        span[0]: (span[5] - span[4]) - child_time.get(span[0], 0.0) for span in spans
    }
    return own, children


def subtree(root, children):
    """Every span id under ``root``, ``root`` included."""
    pending = [root]
    found = []
    while pending:
        span_id = pending.pop()
        found.append(span_id)
        pending.extend(children.get(span_id, ()))
    return found


def route_of(span_ids, by_id) -> str:
    """Which procedure answered the solve whose subtree is ``span_ids``."""
    names = {by_id[span_id][2] for span_id in span_ids}
    for name, route in ROUTES:
        if name in names:
            return route
    return "other"
