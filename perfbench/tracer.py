"""Span tracer that instruments the library from the outside.

The tracer replaces library functions *at the names their callers look
up* (``module.attr`` or ``Class.attr``) with thin wrappers, and restores
the originals on :meth:`Tracer.uninstall`. No library source is touched.

* **Spans** — each wrapped call records its wall time on a per-thread
  stack. A span's *self time* is its duration minus the durations of
  the spans nested directly inside it. A request is a *root* span:
  either the benchmark's own :meth:`Tracer.request` block or a site
  declared with ``root=True`` (the service's job entry point, which runs
  on a worker thread). Time inside a root that no named span covers is
  *unattributed*.
* **Counters** — cheap call counters on hot functions (triangular
  solves, simulator bookkeeping), kept per thread so concurrent service
  workers never lose an update.

A site whose name has disappeared raises :class:`TraceSiteMissing` at
install time, so a refactor cannot silently move time into
"unattributed".
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["SPAN_SITES", "COUNTER_SITES", "SOLVE_SPANS", "Site",
           "TraceSiteMissing", "Tracer"]


class TraceSiteMissing(RuntimeError):
    """A function the tracer must wrap is no longer reachable by name."""


@dataclass(frozen=True)
class Site:
    """One ``module:attr`` binding to wrap (``attr`` may be ``Class.name``)."""

    module: str
    attr: str


def _sites(*specs: str) -> tuple[Site, ...]:
    return tuple(Site(*s.split(":")) for s in specs)


#: span name -> (sites, is_root). Every binding a request can reach is
#: listed: a ``from x import f`` copy in each caller module, plus the
#: defining module for callers that import lazily inside a function.
SPAN_SITES: dict[str, tuple[tuple[Site, ...], bool]] = {
    "service.job": (_sites(
        "repro.service.service:FactorizationService._run_job"), True),
    "service.key": (_sites(
        "repro.service.service:cache_key"), False),
    "ordering.permute": (_sites(
        "repro.ordering.permutation:Permutation.apply_matrix"), False),
    "ordering": (_sites(
        "repro.symbolic.symbolic_factor:nested_dissection",
        "repro.ordering:nested_dissection"), False),
    "symbolic": (_sites(
        "repro.solve.driver:symbolic_factorize",
        "repro.cholesky.driver:symbolic_factorize",
        "repro.symbolic.symbolic_factor:symbolic_factorize"), False),
    "symbolic.fill": (_sites(
        "repro.symbolic.symbolic_factor:block_fill"), False),
    "symbolic.blocking": (_sites(
        "repro.symbolic.blocking:irregular_blocking"), False),
    "tree.partition": (_sites(
        "repro.solve.driver:greedy_partition",
        "repro.cholesky.driver:greedy_partition"), False),
    "lu3d.setup": (_sites(
        "repro.solve.driver:factor_3d",
        "repro.cholesky.factor:factor_3d"), False),
    "lu3d.storage": (_sites(
        "repro.lu3d.factor3d:replica_words_per_rank",
        "repro.lu3d.replication:replica_words_per_rank"), False),
    "lu3d.scatter": (_sites(
        "repro.sparse.blockmatrix:BlockMatrix.from_csr"), False),
    "plan.build": (_sites(
        "repro.lu3d.factor3d:build_3d_plan",
        "repro.plan.build:build_3d_plan"), False),
    "plan.compile": (_sites(
        "repro.lu3d.factor3d:compile_plan",
        "repro.plan.replay:compile_plan"), False),
    "interpret.grid": (_sites(
        "repro.lu3d.factor3d:execute_grid_plan"), False),
    "interpret.reduce": (_sites(
        "repro.lu3d.factor3d:execute_reduce"), False),
    "interpret.replicated": (_sites(
        "repro.lu3d.factor3d:execute_replicated"), False),
    "solve.forward": (_sites(
        "repro.solve.driver:forward_solve",
        "repro.cholesky.driver:SparseCholesky3D._forward"), False),
    "solve.backward": (_sites(
        "repro.solve.driver:backward_solve",
        "repro.cholesky.driver:SparseCholesky3D._backward"), False),
    "refine": (_sites(
        "repro.solve.driver:iterative_refinement",
        "repro.cholesky.driver:iterative_refinement"), False),
}

#: Spans inside which a triangular solve counts as a *solve* call (any
#: other caller is a factorization panel solve).
SOLVE_SPANS = frozenset({"solve.forward", "solve.backward"})

#: counter name -> site. ``scipy.linalg.solve_triangular`` is split into
#: ``lu2d.trsm_calls`` / ``solve.trsm_calls`` by the enclosing span.
COUNTER_SITES: dict[str, Site] = {
    "trsm": Site("scipy.linalg", "solve_triangular"),
    "comm.compute_calls": Site("repro.comm.simulator", "Simulator.compute"),
    "comm.compute_batch_calls": Site("repro.comm.simulator",
                                     "Simulator.compute_batch"),
    "comm.send_calls": Site("repro.comm.simulator", "Simulator.send"),
    "comm.sendrecv_batch_calls": Site("repro.comm.simulator",
                                      "Simulator.sendrecv_batch"),
    "comm.alloc_calls": Site("repro.comm.simulator", "Simulator.alloc"),
    "comm.free_calls": Site("repro.comm.simulator", "Simulator.free"),
}


def _resolve(site: Site):
    """``(owner, name, raw)``: the object holding the binding, the
    binding's name and its raw value (the descriptor, for classes)."""
    try:
        owner = importlib.import_module(site.module)
    except ImportError as exc:
        raise TraceSiteMissing(f"{site.module}: {exc}") from exc
    *path, name = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceSiteMissing(f"{site.module}:{site.attr} — no {part}")
    raw = owner.__dict__.get(name) if isinstance(owner, type) \
        else getattr(owner, name, None)
    if raw is None:
        raise TraceSiteMissing(f"{site.module}:{site.attr} has disappeared")
    return owner, name, raw


def _rebind(raw, wrap):
    """Wrap the function behind ``raw``, keeping its descriptor kind."""
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if not callable(raw):
        raise TraceSiteMissing(f"{raw!r} is not callable")
    return wrap(raw)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _ThreadState:
    tid: int
    #: open frames: [name, start, time covered by direct children, root?]
    stack: list = field(default_factory=list)
    spans: dict = field(default_factory=lambda: defaultdict(SpanStats))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    #: closed spans as (name, start, duration, request id)
    events: list = field(default_factory=list)
    roots: int = 0
    root_s: float = 0.0
    attributed_s: float = 0.0
    request_id: int | None = None


class Tracer:
    """Installable span + counter instrumentation.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a fake clock.
    """

    def __init__(self, span_sites=None, counter_sites=None,
                 clock=time.perf_counter):
        self.span_sites = SPAN_SITES if span_sites is None else span_sites
        self.counter_sites = COUNTER_SITES if counter_sites is None \
            else counter_sites
        self.clock = clock
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request_ids = itertools.count()
        self._saved: list = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(tid=threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _open(self, name: str, root: bool) -> None:
        st = self._state()
        root = root and not st.stack
        if root:
            st.request_id = next(self._request_ids)
        st.stack.append([name, self.clock(), 0.0, root])

    def _close(self) -> None:
        st = self._state()
        end = self.clock()
        name, start, child, root = st.stack.pop()
        dur = end - start
        agg = st.spans[name]
        agg.calls += 1
        agg.total_s += dur
        agg.self_s += dur - child
        st.events.append((name, start, dur, st.request_id))
        if st.stack:
            st.stack[-1][2] += dur
        elif root:
            st.roots += 1
            st.root_s += dur
            st.attributed_s += child

    @contextlib.contextmanager
    def request(self):
        """One benchmark request as a root span."""
        self._open("request", True)
        try:
            yield
        finally:
            self._close()

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, root: bool):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self._open(name, root)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close()
            return traced
        return wrap

    def _count_wrapper(self, key: str):
        def wrap(fn):
            if key == "trsm":
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    st = self._state()
                    top = st.stack[-1][0] if st.stack else None
                    st.counts["solve.trsm_calls" if top in SOLVE_SPANS
                              else "lu2d.trsm_calls"] += 1
                    return fn(*args, **kwargs)
            else:
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    self._state().counts[key] += 1
                    return fn(*args, **kwargs)
            return counted
        return wrap

    def install(self) -> None:
        """Wrap every site; raises :class:`TraceSiteMissing` (and wraps
        nothing) if any site cannot be resolved."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wraps = [(site, self._span_wrapper(name, root))
                 for name, (sites, root) in self.span_sites.items()
                 for site in sites]
        wraps += [(site, self._count_wrapper(key))
                  for key, site in self.counter_sites.items()]
        plan = []
        for site, wrap in wraps:
            owner, attr, raw = _resolve(site)
            plan.append((owner, attr, raw, _rebind(raw, wrap)))
        for owner, attr, raw, wrapped in plan:
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def spans(self) -> dict[str, SpanStats]:
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for st in self._states:
            for name, s in st.spans.items():
                agg = out[name]
                agg.calls += s.calls
                agg.total_s += s.total_s
                agg.self_s += s.self_s
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for st in self._states:
            for key, n in st.counts.items():
                out[key] += n
        return out

    def coverage(self) -> tuple[int, float, float]:
        """``(requests, request seconds, seconds covered by named spans)``."""
        roots = sum(st.roots for st in self._states)
        root_s = sum(st.root_s for st in self._states)
        attributed = sum(st.attributed_s for st in self._states)
        return roots, root_s, attributed

    def chrome_trace(self) -> dict:
        """All closed spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = []
        t0 = min((e[1] for st in self._states for e in st.events),
                 default=0.0)
        for st in self._states:
            for name, start, dur, rid in st.events:
                events.append({"name": name, "ph": "X", "pid": 0,
                               "tid": st.tid,
                               "ts": (start - t0) * 1e6, "dur": dur * 1e6,
                               "args": {"request": rid}})
        events.sort(key=lambda e: (e["tid"], e["ts"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}
