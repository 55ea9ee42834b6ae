"""The parallel runtime: job resolution, pooled maps, determinism.

The determinism tests force real worker processes (``clamp=False``)
even on single-core machines, so the cross-process path — pickling lean
model state, reconnecting shared caches, merging perf snapshots — is
exercised everywhere, and ``jobs=1`` vs ``jobs=N`` bit-identity is
checked on actual fork/pickle round-trips rather than on the serial
fallback.
"""

from __future__ import annotations

import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.config import SKCConfig
from repro.core.knowtrans import KnowTrans
from repro.core.skc.patches import extract_knowledge_patches
from repro.perf import PERF, PerfRegistry
from repro.runtime import (
    SharedRef,
    WorkerPool,
    available_cpus,
    release,
    resolve_jobs,
    resolve_shared,
    share,
    shared_count,
    sharing,
)


def _square(x):
    PERF.count("test.square_calls")
    return x * x


# ----------------------------------------------------------------------
# Job resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "8")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_default_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def test_resolve_jobs_floors_at_one():
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1


def test_available_cpus_positive():
    assert available_cpus() >= 1


def test_pool_clamps_to_cpus():
    pool = WorkerPool(jobs=available_cpus() + 7)
    assert pool.effective_jobs <= available_cpus()
    unclamped = WorkerPool(jobs=3, clamp=False)
    assert unclamped.effective_jobs == 3


def test_pool_clamps_to_scheduler_affinity(monkeypatch):
    """The clamp honours the cgroup/affinity mask, not the host count.

    In containers ``os.cpu_count()`` reports the host's cores while the
    scheduler may only grant a subset; the clamp must follow
    ``sched_getaffinity``, so a 64-core host with a 2-core mask gets 2
    workers, not 64.
    """
    if not hasattr(os, "sched_getaffinity"):  # pragma: no cover - non-Linux
        pytest.skip("platform has no sched_getaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5})
    assert available_cpus() == 2
    assert WorkerPool(jobs=16).effective_jobs == 2


def test_non_fork_start_method_falls_back_to_serial(monkeypatch):
    """Satellite regression: spawn/forkserver must not reach the pool.

    A spawn-started worker re-imports from a fresh interpreter, so it
    cannot resolve fork-inherited SharedRef tokens.  The pool must warn
    loudly and degrade to the (identical) serial path instead.
    """
    import repro.runtime as runtime

    monkeypatch.setattr(runtime, "_start_method", lambda: "spawn")
    with pytest.warns(RuntimeWarning, match="fork"):
        pool = WorkerPool(jobs=4, clamp=False)
    assert pool.effective_jobs == 1
    assert not pool.parallel
    assert pool.map(_square, range(6)) == [0, 1, 4, 9, 16, 25]


# ----------------------------------------------------------------------
# Pool mapping
# ----------------------------------------------------------------------
def test_serial_map_preserves_order():
    assert WorkerPool(jobs=1).map(_square, range(6)) == [0, 1, 4, 9, 16, 25]


def test_process_map_preserves_order_and_merges_perf():
    pool = WorkerPool(jobs=2, clamp=False)
    assert pool.parallel
    before = PERF.counter("test.square_calls")
    assert pool.map(_square, range(6)) == [0, 1, 4, 9, 16, 25]
    # Each worker counted into its own registry; the snapshots merged
    # home, so the parent sees all six calls.
    assert PERF.counter("test.square_calls") == before + 6


def _score_task(item):
    scores = item["features"] @ item["weights"]
    order = np.argsort(-scores, kind="stable")[:4]
    return {"indices": order, "scores": scores[order]}


def _crash_task(item):
    if item.get("crash"):
        os._exit(13)
    return _score_task(item)


def _array_items(n=6, rows=64, cols=48, seed=7):
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((rows, cols))
    return [
        {"features": shared, "weights": rng.standard_normal(cols)}
        for __ in range(n)
    ]


def test_process_map_bit_identical_to_serial_on_arrays():
    items = _array_items()
    serial = WorkerPool(jobs=1).map(_score_task, items)
    parallel = WorkerPool(jobs=2, clamp=False).map(_score_task, items)
    assert len(parallel) == len(serial)
    for reference, candidate in zip(serial, parallel):
        assert np.array_equal(reference["indices"], candidate["indices"])
        assert np.array_equal(reference["scores"], candidate["scores"])
        # Results come home as private unpickled arrays the caller may
        # mutate (a fit updates the weights it gets back).
        assert candidate["indices"].flags.writeable
        assert candidate["scores"].flags.writeable


def test_pickle_map_counts_payload_from_single_serialization():
    """payload_bytes is the real IPC byte count.

    The counter must equal exactly the bytes of the one serialization
    per item that crosses the boundary.
    """
    items = [{"features": np.arange(2048, dtype=np.float64), "n": i}
             for i in range(4)]
    expected = sum(
        len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        for item in items
    )
    before = PERF.counter("runtime.payload_bytes")
    WorkerPool(jobs=2, clamp=False).map(_noop_task, items)
    assert PERF.counter("runtime.payload_bytes") - before == expected


def _noop_task(item):
    return item["n"]


def test_worker_crash_surfaces_instead_of_hanging():
    """A worker that dies mid-task makes ``map`` raise, not hang."""
    items = _array_items(n=4)
    items[2] = {**items[2], "crash": True}

    def hung(signum, frame):
        raise TimeoutError("WorkerPool.map hung on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        with pytest.raises(BrokenProcessPool):
            WorkerPool(jobs=2, clamp=False).map(_crash_task, items)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_perf_merge_accumulates():
    registry = PerfRegistry()
    registry.count("c", 2)
    registry.add_time("t", 1.5)
    registry.merge(
        {
            "counters": {"c": 3, "new": 1},
            "timers": {"t": {"seconds": 0.5, "calls": 2}},
        }
    )
    assert registry.counter("c") == 5
    assert registry.counter("new") == 1
    assert registry.seconds("t") == 2.0
    assert registry._timers["t"][1] == 3


# ----------------------------------------------------------------------
# Fork-shared objects: lean IPC payloads
# ----------------------------------------------------------------------
def test_shared_ref_resolves_to_same_object(bundle):
    ref = share(bundle.base_model)
    assert resolve_shared(ref) is bundle.base_model
    assert share(bundle.base_model) is ref  # memoised by identity
    # Non-refs pass through untouched.
    assert resolve_shared("plain") == "plain"


def test_shared_ref_pickles_tiny(bundle):
    raw = len(pickle.dumps(bundle.base_model))
    ref = len(pickle.dumps(share(bundle.base_model)))
    assert raw > 1_000_000  # the backbone really is megabytes of weights
    assert ref < 1_000  # ...and the ref that crosses IPC is bytes


def test_unregistered_token_raises():
    with pytest.raises(RuntimeError):
        SharedRef(token=10**9).resolve()


def test_release_unpins_object():
    obj = object()
    before = shared_count()
    ref = share(obj)
    assert shared_count() == before + 1
    assert release(obj) is True
    assert shared_count() == before
    with pytest.raises(RuntimeError):
        ref.resolve()
    # Releasing again (by object or by ref) is a harmless no-op.
    assert release(obj) is False
    assert release(ref) is False


def test_release_by_ref():
    obj = object()
    ref = share(obj)
    assert release(ref) is True
    with pytest.raises(RuntimeError):
        ref.resolve()


def test_sharing_context_manager_scopes_registration():
    """Regression: the registry must not grow across fan-outs.

    Before release()/sharing(), every share() pinned its object forever
    — a leak that matters for long-lived processes like the serve
    daemon, where each request cycle used to add a backbone-sized entry.
    """
    first, second = object(), object()
    before = shared_count()
    with sharing(first, second) as (ref1, ref2):
        assert ref1.resolve() is first
        assert ref2.resolve() is second
        assert shared_count() == before + 2
    assert shared_count() == before
    with pytest.raises(RuntimeError):
        ref1.resolve()


def test_sharing_releases_on_exception():
    obj = object()
    before = shared_count()
    with pytest.raises(RuntimeError):
        with sharing(obj):
            raise RuntimeError("boom")
    assert shared_count() == before


def test_share_after_release_issues_fresh_token():
    obj = object()
    ref1 = share(obj)
    release(obj)
    ref2 = share(obj)
    assert ref2.token != ref1.token
    assert ref2.resolve() is obj
    release(obj)


def test_repeated_fanouts_do_not_grow_registry():
    """cross_fit_scorer's sharing-scoped fan-out leaves no residue."""
    obj = object()
    baseline = shared_count()
    for __ in range(3):
        with sharing(obj) as (ref,):
            assert ref.resolve() is obj
    assert shared_count() == baseline


def test_sharing_releases_previously_shared_objects():
    """Documented takeover: a pre-shared object is released on exit too."""
    obj = object()
    outer = share(obj)
    with sharing(obj) as (inner,):
        assert inner is outer  # share() memoises by identity
    with pytest.raises(RuntimeError):
        outer.resolve()


def test_patch_extraction_payload_excludes_backbone(bundle):
    """The pool ships adapter deltas and task args, never the backbone."""
    config = SKCConfig(patch_epochs=1)
    datasets = bundle.upstream_datasets[:3]
    backbone_bytes = len(pickle.dumps(bundle.base_model))
    before = PERF.counter("runtime.payload_bytes")
    extract_knowledge_patches(
        bundle.base_model, datasets, config,
        pool=WorkerPool(jobs=2, clamp=False),
    )
    payload = PERF.counter("runtime.payload_bytes") - before
    assert payload > 0
    assert payload < backbone_bytes


def test_cross_fit_shadow_payload_excludes_backbone(
    bundle, fast_config, beer_splits
):
    adapter = KnowTrans(
        bundle, config=fast_config, pool=WorkerPool(jobs=2, clamp=False)
    )
    backbone_bytes = len(pickle.dumps(bundle.upstream_model))
    before = PERF.counter("runtime.payload_bytes")
    adapter.cross_fit_scorer(beer_splits)
    payload = PERF.counter("runtime.payload_bytes") - before
    assert payload > 0
    assert payload < backbone_bytes


# ----------------------------------------------------------------------
# Determinism: serial vs worker processes
# ----------------------------------------------------------------------
def _patch_state(patch):
    return {k: np.copy(v) for k, v in patch.parameters().items()}


def test_patch_extraction_parallel_identical(bundle):
    config = SKCConfig(patch_epochs=1)
    datasets = bundle.upstream_datasets[:3]
    serial = extract_knowledge_patches(bundle.base_model, datasets, config)
    parallel = extract_knowledge_patches(
        bundle.base_model, datasets, config,
        pool=WorkerPool(jobs=2, clamp=False),
    )
    assert [p.name for p in serial] == [p.name for p in parallel]
    for left, right in zip(serial, parallel):
        ls, rs = _patch_state(left), _patch_state(right)
        assert ls.keys() == rs.keys()
        for key in ls:
            assert np.array_equal(ls[key], rs[key]), key


def test_knowtrans_fit_parallel_identical(bundle, fast_config, beer_splits):
    serial = KnowTrans(bundle, config=fast_config, jobs=1).fit(beer_splits)
    parallel = KnowTrans(
        bundle, config=fast_config, pool=WorkerPool(jobs=4, clamp=False)
    ).fit(beer_splits)
    assert serial.knowledge == parallel.knowledge
    assert serial.akb_result.best_score == parallel.akb_result.best_score
    assert serial.akb_result.rounds == parallel.akb_result.rounds
    test_examples = beer_splits.test.examples
    assert list(serial.predict_batch(test_examples)) == list(
        parallel.predict_batch(test_examples)
    )


def test_pool_scoring_matches_per_candidate(bundle, fast_config, abt_splits):
    adapter = KnowTrans(bundle, config=fast_config, jobs=1)
    scorer = adapter.cross_fit_scorer(abt_splits)
    from repro.knowledge.seed import seed_knowledge
    from repro.llm.mockgpt import MockGPT
    from repro.core.akb.generation import generate_pool

    seed = seed_knowledge(abt_splits.few_shot.task)
    pool = generate_pool(
        MockGPT(seed=0),
        abt_splits.few_shot.task,
        abt_splits.validation.examples,
        seed,
        fast_config.akb,
    )
    pooled = scorer.score_pool(pool)
    singles = [scorer(candidate) for candidate in pool]
    assert len(pooled) == len(singles)
    for (pooled_score, pooled_errors), (score, errors) in zip(pooled, singles):
        assert pooled_score == score
        assert [e.example for e in pooled_errors] == [e.example for e in errors]
        assert [e.prediction for e in pooled_errors] == [
            e.prediction for e in errors
        ]


def test_search_pooled_matches_plain_function(bundle, fast_config, abt_splits):
    """A whole AKB search gives the same result pooled or per candidate.

    The cross-fit scorer scores each multi-candidate round in one pass
    through ``score_pool``; a plain-function wrapper around the same
    scorer has no ``score_pool``, so the search scores its candidates
    one call at a time.
    """
    from dataclasses import replace

    from repro.core.akb.optimizer import search_knowledge
    from repro.llm.mockgpt import MockGPT

    scorer = KnowTrans(bundle, config=fast_config, jobs=1).cross_fit_scorer(
        abt_splits
    )

    def one_at_a_time(candidate):
        return scorer(candidate)

    config = replace(fast_config.akb, iterations=2, refinements_per_iteration=2)
    results, pool_rounds = [], []
    for candidate_scorer in (scorer, one_at_a_time):
        before = PERF.counter("akb.pool_rounds")
        results.append(
            search_knowledge(
                bundle.upstream_model,
                abt_splits.few_shot,
                abt_splits.validation.examples,
                mockgpt=MockGPT(seed=0),
                config=config,
                scorer=candidate_scorer,
                use_kb=False,
            )
        )
        pool_rounds.append(PERF.counter("akb.pool_rounds") - before)
    pooled, plain = results
    assert pool_rounds[0] > 0 and pool_rounds[1] == 0
    assert len(pooled.rounds) == 2
    assert pooled == plain
