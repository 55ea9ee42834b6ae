"""The parallel experiment runtime — an ordered worker pool.

Every fan-out point in the pipeline (SKC stage-1 patch extraction, the
cross-fit shadow fine-tunes, the per-dataset loops of the table/figure
harness) runs through one :class:`WorkerPool`
abstraction instead of rolling its own multiprocessing:

* ``jobs=1`` (the default) executes tasks serially in-process — the
  pool is then a plain ordered ``map`` with zero overhead, and results
  are bit-identical to the historical serial code by construction.
* ``jobs>1`` fans tasks out over a ``ProcessPoolExecutor``.  Requested
  jobs are clamped to the CPUs actually available (joblib-style,
  affinity-aware via ``os.sched_getaffinity``): oversubscribing cores
  with CPU-bound numpy work is always a loss, so on a single-core
  machine ``jobs=4`` degrades gracefully to the serial path.  Pass
  ``clamp=False`` to force real worker processes anyway (the
  determinism tests do, to exercise the cross-process path on any
  machine).  When the multiprocessing start method is not ``fork``
  (macOS/Windows defaults), the pool falls back to serial with a
  warning — the fork-inherited :class:`SharedRef` table assumes a
  forked address space.

Payloads
--------
Each task argument is pickled exactly once in the parent; those bytes
cross the pipe and feed the ``runtime.payload_bytes`` counter.  Large
read-only state (the frozen backbone, the upstream patches) never
rides in the payload: call sites register it with :func:`sharing` and
send the few-byte :class:`SharedRef` tokens instead, which forked
workers resolve against the table they inherited.

Determinism contract
--------------------
Tasks must be pure functions of their (picklable) arguments: every
random stream inside a task derives from seeds carried in the
arguments (``rng_for``), never from global state.  Results are returned
in submission order.  Under that contract the pool is an execution
detail — ``jobs=1`` and ``jobs=N`` produce bit-identical outputs
(arrays round-trip through pickle byte-exactly), which
``tests/test_runtime.py`` enforces.

Observability
-------------
Worker processes cannot write into the parent's process-global
:data:`repro.perf.PERF` registry, so each task runs inside a shim that
resets the child-local registry, executes the task, and ships the
resulting snapshot home with the result.  :meth:`WorkerPool.map` merges
every snapshot into the parent registry, so ``python -m repro perf``
and the benchmark JSONs report whole-run counters no matter how many
processes did the work.  :mod:`repro.obs` spans and metrics ride the
same shim: when tracing is enabled each task's child-local trace is
shipped home and re-parented under the pool's ``runtime.map`` span, so
serial and parallel runs aggregate to identical traces.

The artifact store (:mod:`repro.store`) composes with the pool with no
extra machinery: forked workers inherit the parent's active store and
read/write the shared directory directly (every write is an atomic
rename, so no locks are needed), while their ``store.*`` hit/miss/bytes
counters ride the same snapshot merging as everything else — the parent
registry ends up with whole-fleet store traffic.

Fit lanes
---------
A dense training fit splits each step along the model's two towers
(:func:`fit_lanes`): a one-worker thread runs the candidate tower's
numpy calls while the calling thread runs the prompt tower.  Lanes
open only where a second CPU is free — never inside a pool worker,
whose siblings already hold the other cores.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from . import obs
from .perf import PERF

__all__ = [
    "available_cpus",
    "INLINE",
    "Lanes",
    "fit_lanes",
    "resolve_jobs",
    "fork_available",
    "WorkerPool",
    "SharedRef",
    "share",
    "release",
    "sharing",
    "resolve_shared",
    "shared_count",
]


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a job count: explicit value > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from exc
    return max(1, int(jobs))


def _start_method() -> str:
    """The multiprocessing start method this process would fork with."""
    return multiprocessing.get_start_method(allow_none=False)


def fork_available() -> bool:
    """Whether worker processes would inherit this address space.

    The :class:`SharedRef` table assumes ``fork``; under
    ``spawn``/``forkserver`` (macOS/Windows defaults) a worker starts
    from a fresh interpreter and the table does not survive the
    crossing.
    """
    try:
        return _start_method() == "fork"
    except Exception:  # pragma: no cover - broken mp configuration
        return False


# ----------------------------------------------------------------------
# Fit lanes — fork-join phases of one dense training step
# ----------------------------------------------------------------------
# Set in pool worker processes by the executor's initializer: a worker's
# siblings already occupy the other cores, so its fits run inline.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


class _Done:
    """An already computed result with the ``Future.result`` interface."""

    __slots__ = ("_value",)

    def __init__(self, value: Any):
        self._value = value

    def result(self) -> Any:
        return self._value


class Lanes:
    """Runs a submitted function on the lane thread, or inline.

    ``submit(fn, *args)`` returns an object whose ``result()`` joins the
    lane.  Without an executor (:data:`INLINE`) the function runs at
    once in the caller.  A lane function may only make numpy calls: it
    must record no :mod:`repro.obs`/:data:`PERF` metrics, whose span
    stacks are per process, and call nothing a profiler wraps.
    """

    def __init__(self, executor: Optional[ThreadPoolExecutor] = None):
        self._executor = executor

    @property
    def count(self) -> int:
        """Threads doing the work: 2 with a lane thread, else 1."""
        return 1 if self._executor is None else 2

    def submit(self, fn: Callable[..., Any], *args: Any):
        if self._executor is None:
            return _Done(fn(*args))
        return self._executor.submit(fn, *args)


#: The runner every caller outside a dense fit uses.
INLINE = Lanes()


@contextmanager
def fit_lanes(enabled: bool = True) -> Iterator[Lanes]:
    """A :class:`Lanes` runner for the scope of one fit.

    The runner owns a one-worker thread pool when ``enabled``, at least
    two CPUs are available and this process is not a
    :class:`WorkerPool` worker; otherwise it is :data:`INLINE`.  The
    lane thread is joined before the block exits, so a fork right
    after a fit inherits no running thread.
    """
    if not enabled or _IN_WORKER or available_cpus() < 2:
        yield INLINE
        return
    executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-lane")
    try:
        yield Lanes(executor)
    finally:
        executor.shutdown(wait=True)


# ----------------------------------------------------------------------
# Fork-shared objects — trimming IPC payloads
# ----------------------------------------------------------------------
# Pool tasks used to pickle the full frozen backbone (~3 MB of float64
# weights) into every submitted task even though fork gives each worker
# the identical object for free.  share() registers an object in a
# parent-side table that fork children inherit; the returned SharedRef
# pickles as a few-byte token, and resolve_shared() looks the object
# back up in the child.  Serial paths resolve in-process, so jobs=1 and
# jobs=N still run literally the same objects.
_SHARED_OBJECTS: Dict[int, Any] = {}
_SHARED_BY_ID: Dict[int, "SharedRef"] = {}
_SHARED_TOKENS = itertools.count()


class SharedRef:
    """A picklable token standing in for a fork-inherited object."""

    __slots__ = ("token",)

    def __init__(self, token: int):
        self.token = token

    def resolve(self) -> Any:
        try:
            return _SHARED_OBJECTS[self.token]
        except KeyError:
            raise RuntimeError(
                f"SharedRef token {self.token} is not registered in this "
                "process — shared objects only cross fork boundaries "
                "(register with share() before building task arguments)"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SharedRef({self.token})"


def share(obj: Any) -> SharedRef:
    """Register ``obj`` for fork inheritance and return its light ref.

    Must be called in the parent *before* the pool's executor forks
    (``WorkerPool.map`` creates the executor after task arguments are
    built, so call sites satisfy this naturally).  The registry keeps a
    strong reference until :func:`release` — prefer the :func:`sharing`
    context manager, which scopes the registration to the fan-out and
    keeps long-lived processes (the serve daemon) from pinning every
    backbone ever shared.  Re-sharing the same object returns the same
    ref (safe to memoise by ``id``: the strong ref pins the identity).
    """
    ref = _SHARED_BY_ID.get(id(obj))
    if ref is not None and _SHARED_OBJECTS.get(ref.token) is obj:
        return ref
    token = next(_SHARED_TOKENS)
    _SHARED_OBJECTS[token] = obj
    ref = SharedRef(token)
    _SHARED_BY_ID[id(obj)] = ref
    return ref


def release(obj: Any) -> bool:
    """Unregister a :func:`share`'d object (or its ref); True if removed.

    The registry holds strong references, so in a long-lived process —
    the serve daemon, a notebook session — every ``share()`` without a
    matching release pins its object (often a multi-megabyte backbone)
    forever.  Fan-out call sites should release as soon as the pool's
    ``map`` returns; :func:`sharing` packages that pattern.  Releasing
    an object that was never shared (or was already released) is a
    harmless no-op returning ``False``.
    """
    if isinstance(obj, SharedRef):
        target = _SHARED_OBJECTS.pop(obj.token, None)
        if target is None:
            return False
        ref = _SHARED_BY_ID.get(id(target))
        if ref is not None and ref.token == obj.token:
            del _SHARED_BY_ID[id(target)]
        return True
    ref = _SHARED_BY_ID.get(id(obj))
    if ref is None or _SHARED_OBJECTS.get(ref.token) is not obj:
        return False
    del _SHARED_OBJECTS[ref.token]
    del _SHARED_BY_ID[id(obj)]
    return True


@contextmanager
def sharing(*objects: Any) -> Iterator[Tuple[SharedRef, ...]]:
    """Register objects for fork inheritance for the scope of a block.

    ``with sharing(model, patches) as (model_ref, patches_ref): ...``
    shares each object, yields the refs in order, and releases them on
    exit — the pattern every pool fan-out should use so the registry
    never grows across requests.  Objects that were already shared
    before entry are released on exit too (the refs are only meant to
    outlive the block if the caller re-shares).
    """
    refs = tuple(share(obj) for obj in objects)
    try:
        yield refs
    finally:
        for ref in refs:
            release(ref)


def resolve_shared(obj: Any) -> Any:
    """Unwrap a :class:`SharedRef`; anything else passes through."""
    return obj.resolve() if isinstance(obj, SharedRef) else obj


def shared_count() -> int:
    """Number of objects currently pinned by the share registry."""
    return len(_SHARED_OBJECTS)


# ----------------------------------------------------------------------
# Worker-side task shim
# ----------------------------------------------------------------------
def _run_pickled_task(fn: Callable[[Any], Any], blob: bytes):
    """Worker shim: run one task and ship its perf/obs snapshots home.

    The parent serialised the item exactly once; ``blob`` is those
    bytes.  The resets only touch the *child* process's copies of the
    registries (the parent's counters are untouched by fork), so each
    returned snapshot is exactly the task's own delta even when one
    worker process executes many tasks back to back.  The obs snapshot
    is ``None`` whenever tracing is disabled, keeping the shim free.
    """
    PERF.reset()
    obs.worker_reset()
    result = fn(pickle.loads(blob))
    return result, PERF.snapshot(), obs.worker_snapshot()


class WorkerPool:
    """Ordered parallel ``map`` with a deterministic serial fallback.

    Parameters
    ----------
    jobs:
        Requested worker count; ``None`` defers to ``REPRO_JOBS``.
    clamp:
        Clamp ``jobs`` to :func:`available_cpus` (default).  Disable to
        force real worker processes regardless of core count.

    A non-``fork`` start method (``spawn``/``forkserver``) forces the
    serial path with a warning: workers started from a fresh
    interpreter cannot resolve fork-inherited :class:`SharedRef`
    tokens, and a cryptic resolution error deep in a task is strictly
    worse than a loud fallback here.
    """

    def __init__(self, jobs: Optional[int] = None, clamp: bool = True):
        self.requested_jobs = resolve_jobs(jobs)
        effective = (
            min(self.requested_jobs, available_cpus())
            if clamp
            else self.requested_jobs
        )
        if effective > 1 and not fork_available():
            warnings.warn(
                "WorkerPool requires the 'fork' start method for its "
                "shared-object table; start method "
                f"is {_start_method()!r} — falling back to serial "
                "execution (results are identical, just slower)",
                RuntimeWarning,
                stacklevel=2,
            )
            effective = 1
        self.effective_jobs = effective

    @property
    def parallel(self) -> bool:
        return self.effective_jobs > 1

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        ``fn`` must be a module-level function and each item picklable
        when the pool is parallel; the serial path has no such
        constraint (it calls ``fn`` directly in-process, recording perf
        counters straight into the parent registry).
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            with obs.span("runtime.map", tasks=len(items), jobs=1):
                return [fn(item) for item in items]
        workers = min(self.effective_jobs, len(items))
        results = self._map_pickle(fn, items, workers)
        PERF.count("runtime.tasks", len(items))
        return results

    def _map_pickle(
        self, fn: Callable[[Any], Any], items: List[Any], workers: int
    ) -> List[Any]:
        # One serialisation per item: the same bytes that cross the IPC
        # boundary feed the runtime.payload_bytes counter.
        blobs = [
            pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
            for item in items
        ]
        PERF.count("runtime.payload_bytes", sum(len(b) for b in blobs))
        results: List[Any] = []
        with obs.span("runtime.map", tasks=len(items), jobs=workers):
            # Child root spans re-parent under this span, so the merged
            # tree nests exactly like the serial path's.
            map_span = obs.current_span_id()
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_mark_worker,
            ) as executor:
                futures = [
                    executor.submit(_run_pickled_task, fn, blob)
                    for blob in blobs
                ]
                for future in futures:
                    result, snapshot, trace_snapshot = future.result()
                    PERF.merge(snapshot)
                    obs.merge_worker(trace_snapshot, map_span)
                    results.append(result)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkerPool(requested={self.requested_jobs}, "
            f"effective={self.effective_jobs})"
        )
