"""Performance observability and the shared perf-gate harnesses.

A process-global :class:`PerfRegistry` collects named counters and
wall-clock timers from the hot paths (featurization, batched scoring,
rank-space training) with near-zero overhead — a dict increment per
*batch*, not per example.  Nothing here affects numerics; the registry
exists so the perf trajectory of the substrate can be inspected
(``python -m repro perf``) and tracked across commits.

Derived statistics (cache hit-rates, examples/sec) are computed at
report time from the raw counters, never maintained incrementally.

:class:`Gate` is the one protocol every ``benchmarks/bench_perf_*.py``
gate uses to persist ``BENCH_<name>.json``, append a provenance-stamped
row to ``benchmarks/results/perf_trajectory.jsonl`` and assert its
floor.  The ``run_*`` / ``render_*`` pairs below are the harnesses
shared by ``python -m repro perf`` and those gates (inference, warm
cache, knowledge base, serving, large workloads).  The training gate
keeps its harness in ``benchmarks/bench_perf_train.py``, because its
dense arm is the test-side reference trainer.

The module is import-light on purpose: the tinylm substrate imports it
for instrumentation, so it must not import the substrate back at module
scope.  The benchmark helpers at the bottom lazily import the rest of
the package.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "PerfRegistry",
    "PERF",
    "Gate",
    "run_inference_benchmark",
    "render_benchmark",
    "run_cache_benchmark",
    "render_cache_benchmark",
    "run_kb_benchmark",
    "render_kb_benchmark",
    "run_serve_benchmark",
    "render_serve_benchmark",
    "run_workload_benchmark",
    "render_workload_benchmark",
]


class PerfRegistry:
    """Named monotonic counters plus accumulated wall-clock timers."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, List[float]] = {}  # name -> [seconds, calls]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self._counters[name] = self._counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under timer ``name``."""
        slot = self._timers.get(name)
        if slot is None:
            self._timers[name] = [seconds, 1]
        else:
            slot[0] += seconds
            slot[1] += 1

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager accumulating the elapsed wall-clock time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def seconds(self, name: str) -> float:
        slot = self._timers.get(name)
        return slot[0] if slot else 0.0

    def hit_rate(self, hits: str, misses: str) -> float:
        """``hits / (hits + misses)`` over two counters (0.0 when idle)."""
        h, m = self.counter(hits), self.counter(misses)
        total = h + m
        return h / total if total else 0.0

    def throughput(self, counter: str, timer: str) -> float:
        """Counter units per second of accumulated timer time."""
        elapsed = self.seconds(timer)
        return self.counter(counter) / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A JSON-friendly copy of all raw counters and timers."""
        return {
            "counters": dict(self._counters),
            "timers": {
                name: {"seconds": slot[0], "calls": slot[1]}
                for name, slot in self._timers.items()
            },
        }

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Worker processes cannot record into the parent's registry, so
        the runtime pool ships each task's snapshot home and merges it
        here — counters add, timers accumulate seconds and call counts.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, int(value))
        for name, entry in snapshot.get("timers", {}).items():
            slot = self._timers.get(name)
            if slot is None:
                self._timers[name] = [
                    float(entry["seconds"]), int(entry["calls"])
                ]
            else:
                slot[0] += float(entry["seconds"])
                slot[1] += int(entry["calls"])

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()

    def report(self) -> str:
        """Human-readable dump with the derived rates the CLI prints."""
        lines = ["perf counters:"]
        for name in sorted(self._counters):
            lines.append(f"  {name:<40} {self._counters[name]:>12}")
        if self._timers:
            lines.append("perf timers:")
            for name in sorted(self._timers):
                seconds, calls = self._timers[name]
                lines.append(
                    f"  {name:<40} {seconds:>9.4f}s over {calls} calls"
                )
        derived = []
        for label, hits, misses in (
            ("featurizer sparse cache", "featurizer.sparse_hits",
             "featurizer.sparse_misses"),
            ("prompt cache", "model.prompt_hits", "model.prompt_misses"),
            ("candidate cache", "model.candidate_hits",
             "model.candidate_misses"),
        ):
            if self.counter(hits) + self.counter(misses):
                derived.append(
                    f"  {label + ' hit-rate':<40} "
                    f"{self.hit_rate(hits, misses):>11.1%}"
                )
        if self.counter("model.examples") and self.seconds("model.forward"):
            derived.append(
                f"  {'scored examples/sec':<40} "
                f"{self.throughput('model.examples', 'model.forward'):>12.0f}"
            )
        if self.counter("train.rank_space_steps"):
            derived.append(
                f"  {'rank-space train steps/sec':<40} "
                f"{self.throughput('train.rank_space_steps', 'model.backward'):>12.0f}"
            )
            derived.append(
                f"  {'dense weight materializations':<40} "
                f"{self.counter('model.weight_materializations'):>12}"
            )
        if derived:
            lines.append("derived:")
            lines.extend(derived)
        return "\n".join(lines)


#: The process-global registry every instrumented component records into.
PERF = PerfRegistry()


# ----------------------------------------------------------------------
# The perf-gate protocol (shared by every benchmarks/bench_perf_*.py
# gate: one BENCH_*.json writer, one perf_trajectory.jsonl appender,
# one speedup/identity assertion style)
# ----------------------------------------------------------------------
class Gate:
    """One protocol for a perf gate: stamp, persist, assert.

    Each ``benchmarks/bench_perf_*.py`` file builds a Gate around its
    benchmark result, then:

    * :meth:`write` — serialise the stamped result to
      ``BENCH_<name>.json`` at the repo root and (optionally) append a
      compact trajectory row to ``benchmarks/results/
      perf_trajectory.jsonl`` so the metric's history is tracked across
      commits — each row records the commit sha, UTC time, CPU count
      and numpy version it was measured on;
    * :meth:`require` / :meth:`require_speedup` — collect failed
      invariants (identity checks, engine-engagement checks, the
      speedup floor) without aborting, so one run reports *every*
      violated gate condition;
    * :meth:`check` — raise a single ``AssertionError`` listing all
      collected failures.  Files are written before any assertion runs,
      so a failing gate still leaves its evidence on disk.

    Construction stamps ``result["preset"]`` (from
    ``REPRO_BENCH_PRESET``, defaulting to ``paper``) and
    ``result["min_speedup"]`` into the result dict — the stamps land in
    the JSON artifact alongside the measurements.
    """

    def __init__(
        self,
        name: str,
        result: dict,
        min_speedup: Optional[float] = None,
        root: Optional[object] = None,
    ):
        import os
        import pathlib

        self.name = name
        self.result = result
        self.min_speedup = min_speedup
        self.root = (
            pathlib.Path(root)
            if root is not None
            else pathlib.Path(__file__).resolve().parents[2]
        )
        self.failures: List[str] = []
        result.setdefault(
            "preset", os.environ.get("REPRO_BENCH_PRESET", "paper") or "paper"
        )
        if min_speedup is not None:
            result["min_speedup"] = min_speedup

    @property
    def preset(self) -> str:
        return self.result["preset"]

    @property
    def bench_json(self):
        return self.root / f"BENCH_{self.name}.json"

    @property
    def trajectory_path(self):
        return self.root / "benchmarks" / "results" / "perf_trajectory.jsonl"

    def write(self, **trajectory_fields) -> None:
        """Persist the result JSON, plus a trajectory row when given.

        The row carries the given fields plus where and when they were
        measured: see :func:`_provenance`.
        """
        import json

        self.bench_json.write_text(
            json.dumps(self.result, indent=2) + "\n"
        )
        if trajectory_fields:
            path = self.trajectory_path
            path.parent.mkdir(parents=True, exist_ok=True)
            row = {"bench": self.name, "preset": self.preset}
            row.update(trajectory_fields)
            row.update(_provenance(self.root))
            with path.open("a") as handle:
                handle.write(json.dumps(row) + "\n")

    def require(self, ok: bool, message: str) -> None:
        """Record a failed invariant (does not raise until :meth:`check`)."""
        if not ok:
            self.failures.append(message)

    def require_speedup(self, key: str = "speedup") -> None:
        """The shared speedup-floor assertion against ``min_speedup``."""
        if self.min_speedup is None:
            raise ValueError(f"gate {self.name!r} has no min_speedup")
        self.require(
            self.result[key] >= self.min_speedup,
            f"only {self.result[key]:.2f}x faster "
            f"(need >= {self.min_speedup}x); see {self.bench_json}",
        )

    def check(self) -> None:
        """Raise one AssertionError naming every collected failure."""
        assert not self.failures, (
            f"{self.name} gate failed: " + "; ".join(self.failures)
        )


def _provenance(root) -> Dict[str, object]:
    """The commit, UTC time, CPU count and numpy version of a measurement.

    ``commit`` is the ``HEAD`` sha of the repository at ``root``, or
    ``None`` when git is missing or ``root`` is not a checkout.
    """
    import datetime
    import os
    import subprocess

    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# Inference micro-benchmark (shared by ``python -m repro perf`` and
# ``benchmarks/bench_perf_inference.py``)
# ----------------------------------------------------------------------
def _best_of(repeats: int, fn: Callable[[], object]) -> tuple:
    """``(best_seconds, last_result)`` over ``repeats`` timed runs."""
    best = float("inf")
    result = None
    for __ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_inference_benchmark(
    dataset_id: str = "em/abt_buy",
    count: int = 200,
    seed: int = 0,
    repeats: int = 3,
    model=None,
) -> Dict:
    """Time per-example vs batched scoring on one downstream workload.

    The workload is the validation + test split of ``dataset_id`` (the
    Table II evaluation surface).  Both paths are measured twice:

    * **cold** — all featurization caches cleared, one pass; dominated
      by hashing, so it bounds the worst case.
    * **warm** — caches pre-populated, best of ``repeats``; this is the
      steady state of the AKB loop (Eq. 8 re-scores the same validation
      set for every knowledge candidate) and the number the ≥3× gate in
      ``bench_perf_inference.py`` checks.

    Returns a JSON-ready dict; predictions from both paths are compared
    and reported under ``predictions_identical``.
    """
    from .data import generators
    from .data.splits import split_dataset
    from .knowledge.seed import seed_knowledge
    from .tasks.base import get_task
    from .tinylm.model import ModelConfig, ScoringLM
    from .tinylm.tokenizer import HashedFeaturizer

    dataset = generators.build(dataset_id, count=count, seed=seed)
    splits = split_dataset(dataset, few_shot=20, seed=seed)
    examples = list(splits.validation.examples) + list(splits.test.examples)
    task = get_task(dataset.task)
    knowledge = seed_knowledge(dataset.task)
    if model is None:
        # Scoring cost is independent of the weight values, so an
        # untrained model with the 7B-analogue geometry measures the
        # same hot path without paying for pretraining.
        model = ScoringLM(ModelConfig(name="bench", seed=seed))

    prompts = [task.prompt(ex, knowledge) for ex in examples]
    pools = [task.candidates(ex, knowledge, dataset) for ex in examples]
    n = len(examples)

    def clear_caches() -> None:
        HashedFeaturizer.clear_shared_caches()
        model._candidate_cache.clear()
        model._prompt_cache.clear()

    def run_per_example() -> List[int]:
        return [model.predict(p, pool) for p, pool in zip(prompts, pools)]

    def run_batched() -> List[int]:
        return model.predict_batch(prompts, pools)

    # Cold single passes (order matters: each starts from empty caches).
    clear_caches()
    cold_per_example, __ = _best_of(1, run_per_example)
    clear_caches()
    cold_batched, __ = _best_of(1, run_batched)

    # Warm steady state: caches stay populated between repeats.
    per_example_seconds, per_example_preds = _best_of(repeats, run_per_example)
    PERF.reset()
    batched_seconds, batched_preds = _best_of(repeats, run_batched)
    counters = PERF.snapshot()

    speedup = per_example_seconds / batched_seconds if batched_seconds else 0.0
    return {
        "workload": dataset_id,
        "examples": n,
        "candidates": sum(len(pool) for pool in pools),
        "repeats": repeats,
        "per_example": {
            "seconds": per_example_seconds,
            "examples_per_sec": n / per_example_seconds,
        },
        "batched": {
            "seconds": batched_seconds,
            "examples_per_sec": n / batched_seconds,
        },
        "cold": {
            "per_example_seconds": cold_per_example,
            "batched_seconds": cold_batched,
        },
        "speedup": speedup,
        "predictions_identical": batched_preds == per_example_preds,
        "perf": counters,
    }


# ----------------------------------------------------------------------
# Warm-start cache benchmark (shared by ``python -m repro perf --cache``
# and ``benchmarks/bench_perf_cache.py``)
# ----------------------------------------------------------------------
def _pipeline_row(dataset_id: str, scale: float, seed: int, config) -> Dict:
    """One benchmark row: full KnowTrans adaptation of one dataset.

    Imports are deferred because :mod:`repro.perf` must stay
    import-light (the substrate imports it back).
    """
    from .baselines.jellyfish import get_bundle
    from .core.knowtrans import KnowTrans
    from .eval.harness import load_splits

    bundle = get_bundle(
        seed=seed, scale=scale, skc_config=config.skc
    )
    splits = load_splits(dataset_id, seed=seed, scale=scale)
    adapter = KnowTrans(bundle, config=config, jobs=1)
    adapted = adapter.fit(splits)
    akb = adapted.akb_result
    from .core.akb.evaluation import task_metric

    test = splits.test.examples
    predictions = list(adapted.predict_batch(test))
    golds = [ex.answer for ex in test]
    return {
        "dataset": dataset_id,
        "score": task_metric(adapted.task, golds, predictions, test),
        "best_score": akb.best_score,
        "rounds": [
            (r.iteration, r.best_score, r.pool_size, r.error_count)
            for r in akb.rounds
        ],
        "knowledge": [rule.render() for rule in adapted.knowledge.rules],
        "predictions": predictions,
    }


def _pipeline_config():
    """Scoring-heavy bench configuration.

    Light fine-tunes and a large AKB candidate budget keep Eq. 8
    scoring the dominant cost, mirroring the paper-preset regime where
    the search loop re-scores the validation set for every candidate.
    """
    from .core.config import AKBConfig, KnowTransConfig, SKCConfig

    return KnowTransConfig(
        skc=SKCConfig(finetune_epochs=1, patch_epochs=1, batch_size=10),
        akb=AKBConfig(
            pool_size=10,
            iterations=10,
            refinements_per_iteration=8,
            patience=12,
        ),
    )


def _forget_process_state() -> None:
    """Drop every in-memory cache, simulating a fresh CLI invocation.

    The artifact store's whole point is surviving process restarts; a
    same-process benchmark has to discard the in-memory layers (bundle
    registry, split cache, base-model registry, shared featurizer
    caches) or the warm arm would measure those instead of the store.
    """
    from .baselines.jellyfish import clear_bundles
    from .eval.harness import clear_split_cache
    from .tinylm.registry import clear_cache
    from .tinylm.tokenizer import HashedFeaturizer

    clear_bundles()
    clear_split_cache()
    clear_cache()
    HashedFeaturizer.clear_shared_caches()


def run_cache_benchmark(
    seed: int = 0,
    dataset_ids: Sequence[str] = ("ed/rayyan",),
    scale: float = 0.45,
    cache_dir: Optional[str] = None,
) -> Dict:
    """Time a cold full pipeline against a store-warm re-run.

    Both arms run the identical workload — bundle construction (base
    pretrain, upstream SFT, stage-1 patches) plus full ``KnowTrans.fit``
    and test evaluation per dataset — from a cold in-memory state.  The
    only difference is the artifact store's contents:

    * **cold** — the store starts empty; every stage computes and
      persists its artifact.
    * **warm** — the same store directory, now populated; deterministic
      stages load their bytes instead of recomputing.

    Every result field (scores, AKB round history, selected knowledge,
    test predictions) is compared across arms under
    ``results_identical`` — the store must change *when* work happens,
    never *what* is computed.
    """
    import tempfile

    from . import store as artifact_store

    config = _pipeline_config()

    def run_arm(store) -> tuple:
        _forget_process_state()
        with artifact_store.using_store(store):
            PERF.reset()
            start = time.perf_counter()
            rows = [
                _pipeline_row(dataset_id, scale, seed, config)
                for dataset_id in dataset_ids
            ]
            seconds = time.perf_counter() - start
            counters = PERF.snapshot()
        return rows, seconds, counters

    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-cache-bench-")
        cache_dir = tmp.name
    try:
        store = artifact_store.ArtifactStore(cache_dir)
        cold_rows, cold_seconds, cold_counters = run_arm(store)
        warm_rows, warm_seconds, warm_counters = run_arm(store)
        disk = store.disk_stats()
    finally:
        _forget_process_state()
        if tmp is not None:
            tmp.cleanup()

    def _store_counters(counters: Dict) -> Dict[str, int]:
        raw = counters.get("counters", {})
        return {
            name: int(raw.get("store." + name, 0))
            for name in (
                "hits", "misses", "writes",
                "bytes_read", "bytes_written", "corrupt",
            )
        }

    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    return {
        "workload": list(dataset_ids),
        "scale": scale,
        "cold": {"seconds": cold_seconds, "store": _store_counters(cold_counters)},
        "warm": {"seconds": warm_seconds, "store": _store_counters(warm_counters)},
        "speedup": speedup,
        "results_identical": cold_rows == warm_rows,
        "scores": {row["dataset"]: row["score"] for row in cold_rows},
        "disk": {
            kind: dict(slot) for kind, slot in sorted(disk.items())
        },
        "perf": warm_counters,
    }


def render_cache_benchmark(result: Dict) -> str:
    """Format :func:`run_cache_benchmark` output for the terminal."""
    cold, warm = result["cold"], result["warm"]
    lines = [
        "warm-start cache benchmark — " + ", ".join(result["workload"])
        + f" (scale {result['scale']})",
        f"  cold (empty store):       {cold['seconds']:.3f}s "
        f"({cold['store']['writes']} writes, {cold['store']['hits']} hits)",
        f"  warm (populated store):   {warm['seconds']:.3f}s "
        f"({warm['store']['hits']} hits, {warm['store']['misses']} misses)",
        f"  speedup:                  {result['speedup']:.2f}x",
        f"  results identical:        {result['results_identical']}",
    ]
    for dataset_id, score in result["scores"].items():
        lines.append(f"  {dataset_id:<24} score {score:.2f}")
    for kind, slot in result["disk"].items():
        lines.append(
            f"  stored {kind:<17} {slot['entries']:>4} entries "
            f"{slot['bytes'] / 1e6:>8.2f} MB"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Knowledge-base benchmark (shared by ``python -m repro perf --kb`` and
# ``benchmarks/bench_perf_kb.py``)
# ----------------------------------------------------------------------
def _kb_config():
    """Search-heavy bench configuration with a *live* patience stop.

    A large candidate pool and a deep refinement budget make the
    search loop (candidate scoring + feedback-driven refinement
    generation) the dominant cost; ``patience=2`` keeps the plateau
    stop live, unlike :func:`_pipeline_config` whose ``patience=12``
    deliberately disables early stopping.  The KB's speedup mechanism
    is the trusted-retrieval shortcut: a warm search whose retrieved
    candidate matches everything generated stops after round one,
    skipping the refinement rounds a cold search must grind through
    before its patience expires.
    """
    from .core.config import AKBConfig, KnowTransConfig, SKCConfig

    return KnowTransConfig(
        skc=SKCConfig(finetune_epochs=6, patch_epochs=2),
        akb=AKBConfig(
            pool_size=10,
            iterations=12,
            refinements_per_iteration=16,
            patience=4,
        ),
    )


def _kb_search_setup(dataset_id: str, scale: float, seed: int, config):
    """Untimed shared state for one search arm: model, scorer, splits."""
    from .baselines.jellyfish import get_bundle
    from .core.knowtrans import KnowTrans
    from .eval.harness import load_splits

    bundle = get_bundle(seed=0, scale=scale, skc_config=config.skc)
    splits = load_splits(dataset_id, seed=seed, scale=scale)
    adapter = KnowTrans(bundle, config=config, jobs=1, use_akb=False)
    adapted = adapter.fit(splits)
    scorer = adapter.cross_fit_scorer(splits)
    return adapted, scorer, splits


def _kb_search(adapted, scorer, splits, config, kb=None) -> Dict:
    """One arm: the AKB search itself, with/without an attached KB.

    Only the ``search_knowledge`` call is timed — the test-set quality
    evaluation afterwards is identical in both arms and would dilute
    the measured ratio.
    """
    from .core.akb.optimizer import search_knowledge
    from .knowledge.seed import seed_knowledge
    from .llm.mockgpt import MockGPT
    from .tasks.base import get_task

    start = time.perf_counter()
    result = search_knowledge(
        adapted.model,
        splits.few_shot,
        splits.validation.examples,
        mockgpt=MockGPT(
            temperature=config.akb.temperature, seed=config.seed
        ),
        config=config.akb,
        initial_knowledge=seed_knowledge(splits.task),
        scorer=scorer,
        use_kb=False if kb is None else None,
        kb=kb,
    )
    seconds = time.perf_counter() - start
    task = get_task(splits.task)
    return {
        "seconds": seconds,
        "score": task.evaluate(
            adapted.model, splits.test.examples, result.knowledge,
            splits.test,
        ),
        "best_score": result.best_score,
        "rounds": result.iterations_run,
        "rounds_to_best": result.rounds_to_best,
        "retrieved": result.retrieved,
        "promoted": result.promoted,
        "knowledge": [rule.render() for rule in result.knowledge.rules],
    }


def _kb_promote_worker(args) -> int:
    """Forked worker: promote ``count`` entries, half shared, half own.

    The shared half makes every worker race for the same entry ids
    (exercising the claim fast path); the private half interleaves
    distinct atomic appends.  Module-level so worker pools can ship it.
    """
    root, worker, count = args
    from .knowledge.kb import KnowledgeBase
    from .knowledge.rules import KeyAttribute, Knowledge

    bank = KnowledgeBase(root)
    written = 0
    for index in range(count):
        shared = index % 2 == 0
        tag = f"shared-{index}" if shared else f"w{worker}-{index}"
        knowledge = Knowledge(
            rules=(KeyAttribute(attribute=f"attr_{tag}"),),
            notes=f"bench {tag}",
        )
        entry = bank.promote(
            task="em",
            dataset=f"bench-{tag}",
            fingerprint=f"fp-{tag}",
            vector=[float(index), float(worker if not shared else 0)],
            knowledge=knowledge,
            score=0.5,
        )
        if entry is not None:
            written += 1
    return written


def _kb_concurrent_check(workers: int = 2, count: int = 24) -> Dict:
    """Fork ``workers`` concurrent promoters; verify nothing corrupts."""
    import multiprocessing
    import tempfile

    from .knowledge.kb import KnowledgeBase

    with tempfile.TemporaryDirectory(prefix="repro-kb-conc-") as tmp:
        root = tmp + "/kb"
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            written = pool.map(
                _kb_promote_worker,
                [(root, worker, count) for worker in range(workers)],
            )
        bank = KnowledgeBase(root)
        entries = bank.entries()
        healed = bank.heal()
        compacted = bank.compact()
        after = bank.entries()
        # shared entries dedupe to count/2 ids; private ones are unique
        shared = (count + 1) // 2
        expected = shared + workers * (count - shared)
        return {
            "workers": workers,
            "per_worker": count,
            "written": sum(written),
            "expected": expected,
            "entries": len(entries),
            "corrupt": healed["corrupt_removed"],
            "entries_after_compact": len(after),
            "compacted": compacted["compacted"],
            "ok": (
                len(entries) == expected
                and len(after) == expected
                and healed["corrupt_removed"] == 0
            ),
        }


def run_kb_benchmark(
    seed: int = 0,
    dataset_id: str = "ed/rayyan",
    scale: float = 0.45,
) -> Dict:
    """Time a cold AKB search against a KB-warmed retrieve-then-refine.

    Both arms run the identical search workload on the *target* split
    (``seed+1``) with the same fine-tuned model and cross-fit scorer
    (built untimed) and no artifact store active, so nothing memoises
    across arms.  The only difference is the knowledge base:

    * **cold** — no KB: the pool starts from ``generate_pool`` alone
      and the search grinds refinement rounds until patience expires.
    * **warm** — a KB populated by an untimed search over the *source*
      split (``seed``, same generator, different examples): retrieval
      seeds the pool with already-optimised knowledge and the
      trusted-retrieval shortcut ends the search after round one.

    The source and target datasets share latent generator rules but no
    examples (and therefore different fingerprints — retrieval's
    same-dataset self-exclusion does not apply).  Quality must not
    regress: the warm arm's test score and best validation score are
    gated to be no worse than cold's.  A forked concurrent-promotion
    check asserts the bank survives parallel writers without a single
    corrupt entry.
    """
    import tempfile

    from . import store as artifact_store
    from .knowledge.kb import KnowledgeBase

    config = _kb_config()
    source_seed, target_seed = seed, seed + 1

    with tempfile.TemporaryDirectory(prefix="repro-kb-bench-") as tmp:
        bank = KnowledgeBase(tmp + "/kb")
        with artifact_store.using_store(None):
            # Untimed: model + scorer per split, and a warmup search on
            # the target so featurization caches are hot for both arms.
            target_setup = _kb_search_setup(
                dataset_id, scale, target_seed, config
            )
            source_setup = _kb_search_setup(
                dataset_id, scale, source_seed, config
            )
            _kb_search(*target_setup, config)

            PERF.reset()
            cold = _kb_search(*target_setup, config)
            cold_seconds = cold["seconds"]

            # Untimed: populate the bank from the source split, then
            # warm the featurization caches for the retrieved
            # candidates' prompts too — the cold arm's candidates were
            # all warmed by the warmup search above, so the warm arm
            # must not be the only one paying fresh tokenisation.
            source = _kb_search(*source_setup, config, kb=bank)
            _kb_search(*target_setup, config, kb=bank)

            warm = _kb_search(*target_setup, config, kb=bank)
            warm_seconds = warm["seconds"]
            counters = PERF.snapshot()
        kb_stats = bank.stats()

    concurrent = _kb_concurrent_check()
    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    rounds_ratio = (
        cold["rounds"] / warm["rounds"] if warm["rounds"] else 0.0
    )
    return {
        "workload": {
            "dataset": dataset_id,
            "source_seed": source_seed,
            "target_seed": target_seed,
        },
        "scale": scale,
        "cold": {"seconds": cold_seconds, **cold},
        "warm": {"seconds": warm_seconds, **warm},
        "source": source,
        "speedup": speedup,
        "rounds_ratio": rounds_ratio,
        "retrieved": warm["retrieved"],
        "quality_no_worse": (
            warm["score"] >= cold["score"]
            and warm["best_score"] >= cold["best_score"]
        ),
        "concurrent": concurrent,
        "kb": kb_stats,
        "perf": counters,
    }


def render_kb_benchmark(result: Dict) -> str:
    """Format :func:`run_kb_benchmark` output for the terminal."""
    cold, warm = result["cold"], result["warm"]
    workload = result["workload"]
    concurrent = result["concurrent"]
    lines = [
        "knowledge-base benchmark — "
        f"{workload['dataset']} (source seed {workload['source_seed']} "
        f"-> target seed {workload['target_seed']}, "
        f"scale {result['scale']})",
        f"  cold (no KB):        {cold['seconds']:.3f}s, "
        f"{cold['rounds']} rounds, best at round "
        f"{cold['rounds_to_best']}, best score {cold['best_score']:.3f}",
        f"  warm (KB-seeded):    {warm['seconds']:.3f}s, "
        f"{warm['rounds']} rounds, best at round "
        f"{warm['rounds_to_best']}, best score {warm['best_score']:.3f}",
        f"  retrieved/promoted:  {warm['retrieved']} retrieved, "
        f"{warm['promoted']} promoted back",
        f"  speedup:             {result['speedup']:.2f}x wall-clock, "
        f"{result['rounds_ratio']:.2f}x fewer search rounds",
        f"  quality no worse:    {result['quality_no_worse']} "
        f"(test {cold['score']:.2f} -> {warm['score']:.2f})",
        f"  concurrent writers:  {concurrent['workers']} forks, "
        f"{concurrent['entries']} entries (expected "
        f"{concurrent['expected']}), {concurrent['corrupt']} corrupt",
        f"  bank:                {result['kb']['entries']} entries, "
        f"{result['kb']['bytes'] / 1e3:.1f} kB",
    ]
    return "\n".join(lines)


def render_benchmark(result: Dict) -> str:
    """Format :func:`run_inference_benchmark` output for the terminal."""
    lines = [
        f"batched inference benchmark — {result['workload']} "
        f"({result['examples']} examples, {result['candidates']} candidates)",
        f"  per-example: {result['per_example']['seconds']:.4f}s "
        f"({result['per_example']['examples_per_sec']:.0f} ex/s)",
        f"  batched:     {result['batched']['seconds']:.4f}s "
        f"({result['batched']['examples_per_sec']:.0f} ex/s)",
        f"  speedup:     {result['speedup']:.1f}x (warm caches, best of "
        f"{result['repeats']})",
        f"  cold pass:   per-example {result['cold']['per_example_seconds']:.4f}s, "
        f"batched {result['cold']['batched_seconds']:.4f}s",
        f"  predictions identical: {result['predictions_identical']}",
    ]
    return "\n".join(lines)


def _latency_percentile(latencies: List[float], q: float) -> float:
    """Nearest-rank percentile of a latency sample (seconds in, ms out)."""
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index] * 1000.0


def run_serve_benchmark(
    seed: int = 0,
    clients: int = 9,
    requests: int = 36,
    prompts_per_request: int = 4,
    tenants: int = 2,
    n_patches: int = 16,
    rank: int = 8,
    max_batch: int = 64,
    max_wait_ms: float = 25.0,
    repeats: int = 3,
) -> Dict:
    """Sequential per-request dispatch vs continuous batching, measured
    through the real server: sockets, event loop, scheduler and all.

    One multi-tenant registry (``tenants`` fused specialists sharing a
    single backbone) serves the identical tenant-alternating workload
    twice:

    * **sequential** — ``max_batch=1`` and a single closed-loop client:
      requests dispatch one at a time in workload order, so the
      tenant-alternating stream pays a full adapter swap (the fusion
      delta materialisation, the dominant cost on this CPU) on nearly
      every dispatch — the offline per-request semantics, through the
      wire;
    * **batched** — ``clients`` concurrent closed-loop clients against
      the production scheduler, which coalesces the in-flight requests,
      groups them by tenant, and pays one swap per tenant per batch
      plus a single ``predict_batch`` per group.

    Clients are closed-loop threads (request ``i`` belongs to client
    ``i % clients``).  Latency percentiles are client-observed round
    trips; queueing means the two arms' latencies are not directly
    comparable — the gate's latency bounds apply to the batched arm.
    An offline oracle (per-request attach + ``predict_batch``) is
    computed first — it doubles as the warm-up for the featurization
    caches — and both arms must reproduce it bit-for-bit: batching may
    only ever change *when* a prompt is scored, never its result.

    Each arm runs ``repeats`` times against a fresh server (best run
    kept, the usual best-of protocol); predictions must match the
    oracle on *every* repeat, not just the fastest one.
    """
    from .serve import (
        ServeClient,
        ServerThread,
        build_demo_registry,
        build_workload,
        drive_clients,
        offline_reference,
    )

    registry = build_demo_registry(
        tenants=tenants, seed=seed, n_patches=n_patches, rank=rank
    )
    workload = build_workload(
        registry,
        requests=requests,
        prompts_per_request=prompts_per_request,
        seed=seed,
    )
    offline = offline_reference(registry, workload)

    def run_arm(arm_max_batch: int, arm_max_wait_ms: float, arm_clients: int):
        with ServerThread(
            registry, max_batch=arm_max_batch, max_wait_ms=arm_max_wait_ms
        ) as server:
            start = time.perf_counter()
            responses, latencies = drive_clients(
                "127.0.0.1", server.port, workload, clients=arm_clients
            )
            seconds = time.perf_counter() - start
            with ServeClient("127.0.0.1", server.port) as probe:
                stats = probe.stats()
        predictions = [
            response.get("predictions") if response else None
            for response in responses
        ]
        arm = {
            "seconds": seconds,
            "requests_per_sec": len(workload) / seconds,
            "p50_ms": _latency_percentile(latencies, 0.50),
            "p99_ms": _latency_percentile(latencies, 0.99),
            "batches": stats["batches"],
            "mean_batch_size": stats["mean_batch_size"],
            "adapter_swaps": stats["adapter_swaps"],
            "all_ok": all(r is not None and r.get("ok") for r in responses),
        }
        return arm, predictions

    def best_arm(arm_max_batch: int, arm_max_wait_ms: float, arm_clients: int):
        best = None
        identical = True
        for __ in range(max(1, repeats)):
            arm, predictions = run_arm(
                arm_max_batch, arm_max_wait_ms, arm_clients
            )
            identical = identical and predictions == offline
            if best is None or arm["seconds"] < best["seconds"]:
                best = arm
        return best, identical

    # One untimed warm lap through the socket/event-loop path so neither
    # timed arm pays first-connection and interpreter warm-up costs.
    with ServerThread(
        registry, max_batch=max_batch, max_wait_ms=max_wait_ms
    ) as server:
        drive_clients(
            "127.0.0.1",
            server.port,
            workload[: min(len(workload), clients)],
            clients=clients,
        )

    sequential, sequential_identical = best_arm(1, 0.0, 1)
    batched, batched_identical = best_arm(max_batch, max_wait_ms, clients)
    return {
        "workload": "em/abt_buy",
        "requests": len(workload),
        "prompts_per_request": prompts_per_request,
        "clients": clients,
        "tenants": tenants,
        "patches": n_patches,
        "rank": rank,
        "max_batch": max_batch,
        "max_wait_ms": max_wait_ms,
        "repeats": repeats,
        "sequential": sequential,
        "batched": batched,
        "speedup": sequential["seconds"] / batched["seconds"],
        "predictions_identical": bool(
            sequential_identical and batched_identical
        ),
        "coalesced": batched["mean_batch_size"] > 1.5,
    }


def render_serve_benchmark(result: Dict) -> str:
    """Format :func:`run_serve_benchmark` output for the terminal."""
    lines = [
        f"serve benchmark — {result['workload']} "
        f"({result['requests']} requests x "
        f"{result['prompts_per_request']} prompts, {result['clients']} "
        f"clients, {result['tenants']} tenants, {result['patches']} fused "
        f"patches, best of {result['repeats']})",
        f"  sequential: {result['sequential']['seconds']:.3f}s "
        f"({result['sequential']['requests_per_sec']:.1f} req/s, "
        f"p50 {result['sequential']['p50_ms']:.1f} ms, "
        f"p99 {result['sequential']['p99_ms']:.1f} ms, "
        f"{result['sequential']['adapter_swaps']} swaps)",
        f"  batched:    {result['batched']['seconds']:.3f}s "
        f"({result['batched']['requests_per_sec']:.1f} req/s, "
        f"p50 {result['batched']['p50_ms']:.1f} ms, "
        f"p99 {result['batched']['p99_ms']:.1f} ms, "
        f"{result['batched']['adapter_swaps']} swaps, mean batch "
        f"{result['batched']['mean_batch_size']:.1f})",
        f"  speedup:    {result['speedup']:.2f}x",
        f"  predictions identical: {result['predictions_identical']}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Large-workload benchmark: the ~100x table-QA generator (shared by
# ``python -m repro perf --workload`` and
# ``benchmarks/bench_perf_workload.py``)
# ----------------------------------------------------------------------
def run_workload_benchmark(
    count: int = 50_000,
    eval_count: int = 400,
    seed: int = 0,
    repeats: int = 3,
) -> Dict:
    """Stress the stack with the ``qa/products`` large-scale generator.

    Three things are measured/verified on one build of the ~100x table-QA
    dataset (``count`` rows; the paper preset uses 50k — about 100x the
    discriminative generators' base sizes):

    * **generation + profiling cost** — rows/sec of the generator and of
      dataset profiling at volume, reported for trend tracking;
    * **batched engine at large pools** — per-example vs batched
      prediction over an ``eval_count``-example slice whose candidate
      pools are full column vocabularies (mean pool size is gated to be
      ≥ 100 — roughly an order of magnitude past the discriminative
      shortlist cap); the ≥3x warm speedup floor must hold here exactly
      as it does on the small-pool inference gate;
    * **KB profile retrieval** — both QA datasets are profiled and
      promoted into a throwaway :class:`~repro.knowledge.kb.
      KnowledgeBase`; retrieval with ``qa/products``'s own vector (self
      excluded by fingerprint) must surface the sibling QA entry, proving
      the 42-dim profile layout and cosine index absorb the new family.
    """
    import tempfile

    from . import store as artifact_store
    from .data import generators
    from .data.profiling import profile_dataset
    from .knowledge.kb import KnowledgeBase, profile_vector_for
    from .knowledge.seed import seed_knowledge
    from .tasks.base import get_task
    from .tinylm.model import ModelConfig, ScoringLM
    from .tinylm.tokenizer import HashedFeaturizer

    build_start = time.perf_counter()
    dataset = generators.build("qa/products", count=count, seed=seed)
    build_seconds = time.perf_counter() - build_start

    profile_start = time.perf_counter()
    profile_dataset(dataset)
    profile_seconds = time.perf_counter() - profile_start

    task = get_task(dataset.task)
    knowledge = seed_knowledge(dataset.task)
    model = ScoringLM(ModelConfig(name="bench", seed=seed))

    examples = dataset.examples[: min(eval_count, len(dataset.examples))]
    prompts = [task.prompt(ex, knowledge) for ex in examples]
    pools = [task.candidates(ex, knowledge, dataset) for ex in examples]
    n = len(examples)
    mean_pool = sum(len(pool) for pool in pools) / n if n else 0.0

    def clear_caches() -> None:
        HashedFeaturizer.clear_shared_caches()
        model._candidate_cache.clear()
        model._prompt_cache.clear()

    def run_per_example() -> List[int]:
        return [model.predict(p, pool) for p, pool in zip(prompts, pools)]

    def run_batched() -> List[int]:
        return model.predict_batch(prompts, pools)

    clear_caches()
    cold_per_example, __ = _best_of(1, run_per_example)
    clear_caches()
    cold_batched, __ = _best_of(1, run_batched)

    per_example_seconds, per_example_preds = _best_of(repeats, run_per_example)
    PERF.reset()
    batched_seconds, batched_preds = _best_of(repeats, run_batched)
    counters = PERF.snapshot()
    speedup = per_example_seconds / batched_seconds if batched_seconds else 0.0

    # KB retrieval over the new QA profiles, in a throwaway bank.
    with tempfile.TemporaryDirectory(prefix="repro-workload-bench-") as tmp:
        bank = KnowledgeBase(tmp + "/kb")
        with artifact_store.using_store(None):
            beers = generators.build("qa/beers", seed=seed)
            vectors = {}
            for qa_dataset in (dataset, beers):
                vector, fingerprint = profile_vector_for(qa_dataset)
                vectors[qa_dataset.name] = (vector, fingerprint)
                bank.promote(
                    task="qa",
                    dataset=qa_dataset.name,
                    fingerprint=fingerprint,
                    vector=vector,
                    knowledge=knowledge,
                    score=0.0,
                )
            vector, fingerprint = vectors[dataset.name]
            retrieve_start = time.perf_counter()
            hits = bank.retrieve(
                vector, task="qa", k=3, exclude_fingerprint=fingerprint
            )
            retrieve_seconds = time.perf_counter() - retrieve_start
        kb_stats = bank.stats()

    return {
        "workload": "qa/products",
        "rows": len(dataset),
        "build": {
            "seconds": build_seconds,
            "rows_per_sec": len(dataset) / build_seconds,
        },
        "profile_seconds": profile_seconds,
        "examples": n,
        "mean_pool_size": mean_pool,
        "candidates": sum(len(pool) for pool in pools),
        "repeats": repeats,
        "per_example": {
            "seconds": per_example_seconds,
            "examples_per_sec": n / per_example_seconds,
        },
        "batched": {
            "seconds": batched_seconds,
            "examples_per_sec": n / batched_seconds,
        },
        "cold": {
            "per_example_seconds": cold_per_example,
            "batched_seconds": cold_batched,
        },
        "speedup": speedup,
        "predictions_identical": batched_preds == per_example_preds,
        "kb": {
            "entries": kb_stats["entries"],
            "retrieved": len(hits),
            "retrieved_datasets": [entry.dataset for __sim, entry in hits],
            "retrieve_seconds": retrieve_seconds,
        },
        "perf": counters,
    }


def render_workload_benchmark(result: Dict) -> str:
    """Format :func:`run_workload_benchmark` output for the terminal."""
    kb = result["kb"]
    lines = [
        f"workload benchmark — {result['workload']} "
        f"({result['rows']} rows, preset {result.get('preset', 'ad-hoc')})",
        f"  generation:          {result['build']['seconds']:.3f}s "
        f"({result['build']['rows_per_sec']:.0f} rows/sec), "
        f"profiling {result['profile_seconds']:.3f}s",
        f"  eval slice:          {result['examples']} examples, "
        f"mean pool {result['mean_pool_size']:.0f} candidates",
        f"  per-example (warm):  {result['per_example']['seconds']:.3f}s "
        f"({result['per_example']['examples_per_sec']:.0f} ex/sec)",
        f"  batched (warm):      {result['batched']['seconds']:.3f}s "
        f"({result['batched']['examples_per_sec']:.0f} ex/sec)",
        f"  speedup:             {result['speedup']:.2f}x "
        f"(identical: {result['predictions_identical']})",
        f"  kb retrieval:        {kb['retrieved']} hits "
        f"{kb['retrieved_datasets']} from {kb['entries']} entries "
        f"in {kb['retrieve_seconds'] * 1e3:.1f}ms",
    ]
    return "\n".join(lines)
