"""Structured observability — hierarchical span tracing plus metrics.

Four perf PRs made the pipeline fast but opaque: the only window into a
run was ad-hoc prints and per-benchmark JSON blobs.  This module is the
cross-cutting answer — one process-wide :class:`Tracer` that every
layer (tinylm trainer, inference engine, artifact store, SKC stages,
AKB optimiser, eval harness) reports into:

* **Spans** — hierarchical wall-clock regions opened with
  :func:`span` (a context manager) or :func:`traced` (a decorator).
  Nesting is tracked with a per-process stack, so a span's parent is
  whatever span was open when it started.
* **Metrics** — :func:`counter` (monotonic sums), :func:`gauge`
  (sampled value series, e.g. λ trajectories) and :func:`histogram`
  (order-insensitive count/total/min/max aggregates, e.g. batch
  sizes).  Metrics are keyed by name plus their keyword attributes, so
  ``counter("store.hit", kind="patch")`` rolls up per artifact kind.

Zero-overhead default
---------------------
Tracing is **off** unless :func:`configure` installs a tracer (the CLI
does, for ``--trace PATH`` / ``REPRO_TRACE``).  Disabled, every hook is
a module-global ``None`` check: :func:`span` returns a shared no-op
context manager and the metric functions return immediately, so the
perf gates run unchanged — nothing is buffered and no file is written.

Fork-aware merging
------------------
:class:`~repro.runtime.WorkerPool` workers inherit the parent's tracer
through ``fork`` but cannot write into the parent's buffers.  Each pool
task therefore runs inside a shim that calls :func:`worker_reset`
(clear the child-local buffers, refresh the pid so span ids stay
unique) and ships :func:`worker_snapshot` home with the result; the
parent's :func:`merge_worker` folds events back in, re-parenting each
child's root spans under the span that was open at the ``map`` call —
exactly where the task would have nested had it run serially.  Under
that contract serial and parallel runs aggregate to identical metrics
and isomorphic span trees.

Trace files
-----------
A trace is one JSONL file: a ``trace`` header row, one ``span`` row per
completed span (id/parent/name/start/elapsed/attrs/pid) and one
``counter``/``gauge``/``histogram`` row per metric key.  ``python -m
repro trace <run.jsonl>`` renders the span tree, the top self-time
hotspots and the metric rollups (see :func:`rollup` /
:func:`render_trace`).

The module is import-light on purpose (stdlib only): every layer of the
substrate imports it, so it must not import the substrate back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "configure",
    "active",
    "enabled",
    "finish",
    "using_tracer",
    "resolve_trace_path",
    "span",
    "traced",
    "counter",
    "gauge",
    "histogram",
    "record_span",
    "new_span_id",
    "current_span_id",
    "under",
    "worker_reset",
    "worker_snapshot",
    "merge_worker",
    "read_trace",
    "merge_trace_rows",
    "write_trace_rows",
    "rollup",
    "render_trace",
]

#: Bumped whenever the trace-row layout changes; readers check it.
TRACE_SCHEMA_VERSION = 1

#: Metric key: ``(name, ((attr, value), ...))`` with attrs sorted.
MetricKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _attr_items(attrs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalise span/metric attributes into a sorted, hashable key.

    Values are coerced to JSON primitives — anything exotic becomes its
    ``str`` so a bad attribute can never break tracing or the sink.
    """
    items = []
    for key in sorted(attrs):
        value = attrs[key]
        if not isinstance(value, (bool, int, float, str)) and value is not None:
            value = str(value)
        items.append((key, value))
    return tuple(items)


class Tracer:
    """Buffered span/metric collector bound to one process tree.

    ``path=None`` buffers without ever writing (tests and forked
    workers); with a path, :meth:`write` serialises the whole buffer as
    JSONL atomically (tmp file + rename).
    """

    def __init__(self, path: Optional[os.PathLike] = None):
        self.path = Path(path) if path is not None else None
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        self.started_at = time.time()
        self.spans: List[dict] = []
        self.counters: Dict[MetricKey, int] = {}
        self.gauges: Dict[MetricKey, List[float]] = {}
        self.histograms: Dict[MetricKey, List[float]] = {}
        self._stack: List[str] = []
        self._next_id = 0
        self._worker = False
        # Guards id allocation and span appends for the *explicit-parent*
        # recording path (record_span), which the serve daemon calls from
        # its event-loop thread while the main thread may hold spans open.
        # The stack-based span() path stays lock-free: the stack is only
        # meaningful within a single thread anyway.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def new_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{self.pid:x}-{self._next_id:x}"

    def record_span(
        self,
        name: str,
        start: float,
        elapsed: float,
        parent: Optional[str],
        ok: bool,
        attrs: Dict[str, Any],
        span_id: Optional[str] = None,
    ) -> str:
        """Append one *completed* span with an explicit parent id.

        The stack-based :class:`_Span` path infers parentage from
        whichever span is open on the per-process stack — which is
        wrong for work that interleaves on an event loop or crosses
        threads (by the time an async request finishes, the stack
        belongs to someone else).  Callers on those paths time the work
        themselves and record it retroactively here, passing the parent
        id they captured up front.  ``start`` is a raw
        ``time.perf_counter()`` reading; it lands in the trace relative
        to this tracer's epoch like every stack-recorded span.
        """
        if span_id is None:
            span_id = self.new_id()
        with self._lock:
            self.spans.append(
                {
                    "type": "span",
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "pid": self.pid,
                    "start": start - self.t0,
                    "elapsed": elapsed,
                    "ok": bool(ok),
                    "attrs": dict(_attr_items(attrs)),
                }
            )
        return span_id

    def counter(self, name: str, n: int, attrs: Dict[str, Any]) -> None:
        key = (name, _attr_items(attrs))
        self.counters[key] = self.counters.get(key, 0) + n

    def gauge(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        key = (name, _attr_items(attrs))
        self.gauges.setdefault(key, []).append(float(value))

    def histogram(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        key = (name, _attr_items(attrs))
        value = float(value)
        slot = self.histograms.get(key)
        if slot is None:
            self.histograms[key] = [1, value, value, value]
        else:
            slot[0] += 1
            slot[1] += value
            slot[2] = min(slot[2], value)
            slot[3] = max(slot[3], value)

    # ------------------------------------------------------------------
    # Fork-aware merging (see module docstring)
    # ------------------------------------------------------------------
    def worker_reset(self) -> None:
        """Start a clean child-local buffer inside a forked pool task.

        Refreshing the pid keeps span ids globally unique (the child
        inherited the parent's counter), and dropping ``path`` makes it
        impossible for a worker to write the parent's trace file.
        """
        self.pid = os.getpid()
        self.path = None
        self._worker = True
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.histograms = {}
        self._stack = []
        # A lock held by another thread at fork time would be copied in
        # its locked state and deadlock the child; start fresh.
        self._lock = threading.Lock()

    def snapshot(self) -> Dict[str, Any]:
        """A picklable copy of the buffers (shipped home by pool tasks)."""
        return {
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "gauges": {key: list(vs) for key, vs in self.gauges.items()},
            "histograms": {
                key: list(slot) for key, slot in self.histograms.items()
            },
        }

    def merge(
        self, snapshot: Dict[str, Any], parent_id: Optional[str] = None
    ) -> None:
        """Fold a worker :meth:`snapshot` into this tracer.

        Root spans of the snapshot (``parent is None`` — the task shim
        reset the child's stack) are re-parented under ``parent_id`` so
        the merged tree nests exactly like a serial run's.
        """
        for event in snapshot.get("spans", ()):
            if event.get("parent") is None and parent_id is not None:
                event = {**event, "parent": parent_id}
            self.spans.append(event)
        for (name, attrs), value in snapshot.get("counters", {}).items():
            key = (name, tuple(attrs))
            self.counters[key] = self.counters.get(key, 0) + int(value)
        for (name, attrs), values in snapshot.get("gauges", {}).items():
            self.gauges.setdefault((name, tuple(attrs)), []).extend(values)
        for (name, attrs), other in snapshot.get("histograms", {}).items():
            key = (name, tuple(attrs))
            slot = self.histograms.get(key)
            if slot is None:
                self.histograms[key] = list(other)
            else:
                slot[0] += other[0]
                slot[1] += other[1]
                slot[2] = min(slot[2], other[2])
                slot[3] = max(slot[3], other[3])

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def rows(self) -> List[dict]:
        """Every JSONL row of the trace, header first."""
        rows: List[dict] = [
            {
                "type": "trace",
                "version": TRACE_SCHEMA_VERSION,
                "pid": self.pid,
                "started_at": self.started_at,
                "argv": list(sys.argv),
            }
        ]
        rows.extend(sorted(self.spans, key=lambda e: e["start"]))
        for (name, attrs), value in sorted(self.counters.items()):
            rows.append(
                {
                    "type": "counter",
                    "name": name,
                    "attrs": dict(attrs),
                    "value": value,
                }
            )
        for (name, attrs), values in sorted(self.gauges.items()):
            rows.append(
                {
                    "type": "gauge",
                    "name": name,
                    "attrs": dict(attrs),
                    "values": values,
                }
            )
        for (name, attrs), (count, total, lo, hi) in sorted(
            self.histograms.items()
        ):
            rows.append(
                {
                    "type": "histogram",
                    "name": name,
                    "attrs": dict(attrs),
                    "count": count,
                    "total": total,
                    "min": lo,
                    "max": hi,
                }
            )
        return rows

    def write(self) -> Optional[Path]:
        """Atomically write the buffered trace; returns the path."""
        if self.path is None:
            return None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w") as handle:
            for row in self.rows():
                handle.write(json.dumps(row) + "\n")
        os.replace(tmp, self.path)
        return self.path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer(path={str(self.path) if self.path else None!r}, "
            f"spans={len(self.spans)})"
        )


# ----------------------------------------------------------------------
# The process-active tracer and the zero-overhead hooks
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None


def configure(path: Optional[os.PathLike] = None) -> Optional[Tracer]:
    """Install a process-wide tracer writing to ``path`` (None disables)."""
    global _TRACER
    _TRACER = Tracer(path) if path is not None else None
    return _TRACER


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (tracing off)."""
    return _TRACER


def enabled() -> bool:
    return _TRACER is not None


def finish() -> Optional[Path]:
    """Write the buffered trace, uninstall the tracer, return the path.

    A no-op returning ``None`` when tracing is disabled or when called
    inside a forked worker (workers never own the trace file).
    """
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is None or tracer._worker:
        return None
    return tracer.write()


@contextmanager
def using_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Temporarily install ``tracer`` (tests; ``None`` forces off)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous


def resolve_trace_path(flag: Optional[str] = None) -> Optional[str]:
    """CLI resolution: explicit ``--trace`` value > ``REPRO_TRACE`` env."""
    if flag:
        return flag
    env = os.environ.get("REPRO_TRACE", "").strip()
    return env or None


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    """A live span: records one event on exit, parented by the stack."""

    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "_start")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.id = tracer.new_id()
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] == self.id:
            tracer._stack.pop()
        tracer.spans.append(
            {
                "type": "span",
                "id": self.id,
                "parent": self.parent,
                "name": self.name,
                "pid": tracer.pid,
                "start": self._start - tracer.t0,
                "elapsed": elapsed,
                "ok": exc_type is None,
                "attrs": dict(_attr_items(self.attrs)),
            }
        )
        return False


def span(name: str, **attrs):
    """Open a traced span: ``with span("skc.extract_patch", dataset=d):``.

    Returns a shared no-op context manager when tracing is disabled, so
    hot paths pay one global read per call.
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return _Span(tracer, name, attrs)


def traced(name: Optional[str] = None, **attrs) -> Callable:
    """Decorator form of :func:`span`; resolves the tracer at call time."""

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _TRACER is None:
                return fn(*args, **kwargs)
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def counter(name: str, n: int = 1, **attrs) -> None:
    """Add ``n`` to the counter ``name`` (keyed by ``attrs``)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.counter(name, n, attrs)


def gauge(name: str, value: float, **attrs) -> None:
    """Append one sample to the gauge series ``name`` (e.g. a λ value)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.gauge(name, value, attrs)


def histogram(name: str, value: float, **attrs) -> None:
    """Record one observation into the histogram ``name``."""
    tracer = _TRACER
    if tracer is not None:
        tracer.histogram(name, value, attrs)


def record_span(
    name: str,
    start: float,
    elapsed: float,
    parent: Optional[str] = None,
    ok: bool = True,
    span_id: Optional[str] = None,
    **attrs,
) -> Optional[str]:
    """Record a completed span with an explicit parent (async/thread safe).

    The serve daemon's request path interleaves on an event loop, so it
    cannot use the stack-based :func:`span`; it measures each region
    itself and reports it here after the fact.  ``start`` is the raw
    ``time.perf_counter()`` value captured when the region began.  Pass
    ``span_id`` (from :func:`new_span_id`) to record a span whose id was
    handed out earlier as a parent for children recorded before it.
    Returns the span id, or ``None`` when tracing is off.
    """
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.record_span(name, start, elapsed, parent, ok, attrs, span_id)


def new_span_id() -> Optional[str]:
    """Allocate a span id up front (``None`` when tracing is off).

    Lets long-lived regions (a server's run loop) hand their id to
    children as a parent before the region itself completes and is
    recorded via :func:`record_span`.
    """
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.new_id()


def current_span_id() -> Optional[str]:
    """The id of the innermost open span (None when off / at root)."""
    tracer = _TRACER
    if tracer is None or not tracer._stack:
        return None
    return tracer._stack[-1]


@contextmanager
def under(span_id: Optional[str]) -> Iterator[None]:
    """Parent the stack-based spans opened inside on ``span_id``.

    Bridges the two recording styles: a region recorded after the fact
    with :func:`record_span` (its id from :func:`new_span_id`) can
    still own the :func:`span` calls of synchronous code it runs.
    """
    tracer = _TRACER
    if tracer is None or span_id is None:
        yield
        return
    tracer._stack.append(span_id)
    try:
        yield
    finally:
        if tracer._stack and tracer._stack[-1] == span_id:
            tracer._stack.pop()


# ----------------------------------------------------------------------
# Worker-side hooks (called by repro.runtime.WorkerPool)
# ----------------------------------------------------------------------
def worker_reset() -> None:
    """Reset the inherited tracer inside a forked pool task (no-op off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.worker_reset()


def worker_snapshot() -> Optional[Dict[str, Any]]:
    """The child-local buffers to ship home, or ``None`` (tracing off)."""
    tracer = _TRACER
    return tracer.snapshot() if tracer is not None else None


def merge_worker(
    snapshot: Optional[Dict[str, Any]], parent_id: Optional[str] = None
) -> None:
    """Fold a worker snapshot into the parent tracer (no-op off/None)."""
    tracer = _TRACER
    if tracer is not None and snapshot is not None:
        tracer.merge(snapshot, parent_id)


# ----------------------------------------------------------------------
# Trace reading and rendering (``python -m repro trace``)
# ----------------------------------------------------------------------
def read_trace(path: os.PathLike) -> List[dict]:
    """Parse a trace JSONL file; undecodable lines are skipped."""
    rows: List[dict] = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                rows.append(row)
    return rows


def merge_trace_rows(row_sets: Sequence[Sequence[dict]]) -> List[dict]:
    """Merge several traces' rows into one coherent row list.

    :meth:`Tracer.merge` folds *snapshots* across a fork boundary — one
    process tree, shared id counter lineage.  Shard runs are separate
    trees: their span ids (``pid-counter``) can collide outright when
    the OS recycles pids, and their metric rows are already aggregated.
    This merges at the *row* level instead: every span and parent id is
    namespaced by its shard index (``s0:<id>``), counters sum, gauge
    series concatenate in shard order, and histogram aggregates
    count/total-sum and min/max-merge — the same semantics the
    fork-aware path applies to live buffers.  Returns header-first rows
    ready for :func:`write_trace_rows`; the header records the merged
    shard count and each shard's original argv.
    """

    def _metric_key(row: dict) -> Tuple[str, str]:
        return (
            row["name"],
            json.dumps(row.get("attrs", {}), sort_keys=True),
        )

    spans: List[dict] = []
    counters: Dict[Tuple[str, str], dict] = {}
    gauges: Dict[Tuple[str, str], dict] = {}
    histograms: Dict[Tuple[str, str], dict] = {}
    headers: List[dict] = []
    for shard_index, rows in enumerate(row_sets):
        prefix = f"s{shard_index}:"
        for row in rows:
            kind = row.get("type")
            if kind == "trace":
                headers.append(row)
            elif kind == "span":
                event = dict(row)
                event["id"] = prefix + str(event["id"])
                if event.get("parent") is not None:
                    event["parent"] = prefix + str(event["parent"])
                spans.append(event)
            elif kind == "counter":
                key = _metric_key(row)
                slot = counters.get(key)
                if slot is None:
                    counters[key] = dict(row)
                else:
                    slot["value"] += row["value"]
            elif kind == "gauge":
                key = _metric_key(row)
                slot = gauges.get(key)
                if slot is None:
                    gauges[key] = dict(row, values=list(row.get("values", [])))
                else:
                    slot["values"].extend(row.get("values", []))
            elif kind == "histogram":
                key = _metric_key(row)
                slot = histograms.get(key)
                if slot is None:
                    histograms[key] = dict(row)
                else:
                    slot["count"] += row.get("count", 0)
                    slot["total"] += row.get("total", 0.0)
                    slot["min"] = min(slot["min"], row.get("min", slot["min"]))
                    slot["max"] = max(slot["max"], row.get("max", slot["max"]))
    merged: List[dict] = [
        {
            "type": "trace",
            "version": TRACE_SCHEMA_VERSION,
            "pid": os.getpid(),
            "started_at": min(
                (h.get("started_at") for h in headers if h.get("started_at")),
                default=time.time(),
            ),
            "argv": list(sys.argv),
            "merged_shards": len(list(row_sets)),
            "shard_argv": [h.get("argv") for h in headers],
        }
    ]
    merged.extend(sorted(spans, key=lambda e: e.get("start", 0.0)))
    for table in (counters, gauges, histograms):
        merged.extend(
            table[key] for key in sorted(table, key=lambda k: (k[0], k[1]))
        )
    return merged


def write_trace_rows(path: os.PathLike, rows: Sequence[dict]) -> Path:
    """Atomically write trace rows as JSONL (merged-shard traces)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    os.replace(tmp, path)
    return path


def _metric_label(name: str, attrs: Dict[str, Any]) -> str:
    if not attrs:
        return name
    inner = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"{name}{{{inner}}}"


def rollup(rows: Sequence[dict]) -> Dict[str, Any]:
    """Aggregate trace rows into a tree, hotspots and metric rollups.

    * ``tree`` — spans grouped by (parent path, name): each node carries
      ``count``/``total``/``self`` seconds and its children.
    * ``hotspots`` — span names ranked by summed self-time (elapsed
      minus direct children's elapsed, floored at zero — concurrent
      children may overlap and sum past the parent).
    * ``counters``/``gauges``/``histograms`` — label-keyed rollups;
      gauge series keep their sampled values (trajectories), histograms
      report count/mean/min/max.
    """
    spans = [r for r in rows if r.get("type") == "span"]
    by_id = {s["id"]: s for s in spans}
    children: Dict[Optional[str], List[dict]] = {}
    child_time: Dict[str, float] = {}
    for s in spans:
        parent = s.get("parent")
        if parent not in by_id:
            parent = None  # orphaned (parent never closed) → treat as root
        children.setdefault(parent, []).append(s)
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + s["elapsed"]

    self_by_name: Dict[str, float] = {}
    total_by_name: Dict[str, float] = {}
    count_by_name: Dict[str, int] = {}
    for s in spans:
        name = s["name"]
        # Clamped at zero: concurrent children (e.g. the serve
        # scheduler's overlapping per-request spans) can sum past their
        # parent's elapsed, and negative self-time is meaningless.
        own = max(0.0, s["elapsed"] - child_time.get(s["id"], 0.0))
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        total_by_name[name] = total_by_name.get(name, 0.0) + s["elapsed"]
        count_by_name[name] = count_by_name.get(name, 0) + 1

    def build(parent: Optional[str]) -> List[dict]:
        groups: Dict[str, dict] = {}
        for s in children.get(parent, ()):
            node = groups.setdefault(
                s["name"],
                {"name": s["name"], "count": 0, "total": 0.0, "self": 0.0,
                 "_ids": []},
            )
            node["count"] += 1
            node["total"] += s["elapsed"]
            node["self"] += max(
                0.0, s["elapsed"] - child_time.get(s["id"], 0.0)
            )
            node["_ids"].append(s["id"])
        nodes = []
        for node in groups.values():
            kids: List[dict] = []
            for span_id in node.pop("_ids"):
                kids.extend(build(span_id))
            merged: Dict[str, dict] = {}
            for kid in kids:
                slot = merged.get(kid["name"])
                if slot is None:
                    merged[kid["name"]] = kid
                else:
                    slot["count"] += kid["count"]
                    slot["total"] += kid["total"]
                    slot["self"] += kid["self"]
                    slot["children"].extend(kid["children"])
            node["children"] = sorted(
                merged.values(), key=lambda n: -n["total"]
            )
            nodes.append(node)
        return sorted(nodes, key=lambda n: -n["total"])

    counters = {}
    gauges = {}
    histograms = {}
    for row in rows:
        kind = row.get("type")
        if kind == "counter":
            counters[_metric_label(row["name"], row.get("attrs", {}))] = row[
                "value"
            ]
        elif kind == "gauge":
            values = row.get("values", [])
            gauges[_metric_label(row["name"], row.get("attrs", {}))] = {
                "count": len(values),
                "min": min(values) if values else None,
                "max": max(values) if values else None,
                "values": values,
            }
        elif kind == "histogram":
            count = row.get("count", 0)
            histograms[_metric_label(row["name"], row.get("attrs", {}))] = {
                "count": count,
                "mean": (row.get("total", 0.0) / count) if count else None,
                "min": row.get("min"),
                "max": row.get("max"),
            }

    header = next((r for r in rows if r.get("type") == "trace"), {})
    return {
        "version": header.get("version"),
        "argv": header.get("argv"),
        "spans": len(spans),
        "span_names": {
            name: {
                "count": count_by_name[name],
                "total": total_by_name[name],
                "self": self_by_name[name],
            }
            for name in sorted(count_by_name)
        },
        "tree": build(None),
        "hotspots": sorted(
            (
                {"name": name, "self": seconds,
                 "total": total_by_name[name], "count": count_by_name[name]}
                for name, seconds in self_by_name.items()
            ),
            key=lambda h: -h["self"],
        ),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def render_trace(summary: Dict[str, Any], top: int = 10) -> str:
    """Human-readable rendering of a :func:`rollup` summary."""
    lines = []
    argv = summary.get("argv")
    header = f"trace — {summary['spans']} spans"
    if argv:
        header += "  (" + " ".join(argv) + ")"
    lines.append(header)

    if summary["tree"]:
        lines.append("span tree (count, total, self):")

        def emit(node: dict, depth: int) -> None:
            label = "  " * (depth + 1) + node["name"]
            lines.append(
                f"{label:<44} {node['count']:>6}  "
                f"{node['total']:>9.3f}s  {node['self']:>9.3f}s"
            )
            for kid in node["children"]:
                emit(kid, depth + 1)

        for node in summary["tree"]:
            emit(node, 0)

    hotspots = summary.get("hotspots", [])[:top]
    if hotspots:
        lines.append(f"top {len(hotspots)} hotspots (self time):")
        for rank, spot in enumerate(hotspots, 1):
            lines.append(
                f"  {rank:>2}. {spot['name']:<38} {spot['self']:>9.3f}s "
                f"over {spot['count']} spans"
            )

    if summary["counters"]:
        lines.append("counters:")
        for label in sorted(summary["counters"]):
            lines.append(f"  {label:<44} {summary['counters'][label]:>12}")
    if summary["gauges"]:
        lines.append("gauges (count, min, max, last):")
        for label in sorted(summary["gauges"]):
            g = summary["gauges"][label]
            last = g["values"][-1] if g["values"] else float("nan")
            lines.append(
                f"  {label:<44} {g['count']:>6}  {g['min']:>10.4f}  "
                f"{g['max']:>10.4f}  {last:>10.4f}"
            )
    if summary["histograms"]:
        lines.append("histograms (count, mean, min, max):")
        for label in sorted(summary["histograms"]):
            h = summary["histograms"][label]
            lines.append(
                f"  {label:<44} {h['count']:>6}  {h['mean']:>10.4f}  "
                f"{h['min']:>10.4f}  {h['max']:>10.4f}"
            )
    return "\n".join(lines)
