"""Perf gate: a store-warm pipeline re-run must beat cold ≥ 5×.

Times the full adaptation pipeline — bundle construction (base-model
pretraining, upstream SFT, SKC stage-1 patches) plus ``KnowTrans.fit``
and test evaluation — twice against one artifact-store directory:

* cold: the store starts empty, every deterministic stage computes its
  result and persists it;
* warm: the identical workload from a fresh in-memory state, with every
  persisted stage loading its bytes instead of recomputing.

Results are written to ``BENCH_cache.json`` at the repo root and
appended to ``benchmarks/results/perf_trajectory.jsonl`` via the shared
:class:`repro.perf.Gate` protocol so warm-start health is tracked
across commits alongside the other gates'.

CI smoke target::

    REPRO_BENCH_PRESET=quick python -m pytest benchmarks/bench_perf_cache.py

The assertion fails if the warm run is less than 5× faster, or if any
score, AKB round, selected knowledge or test prediction differs between
the arms — the store must change *when* work happens, never *what* is
computed.
"""

import pathlib

from repro.perf import Gate, render_cache_benchmark, run_cache_benchmark

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

MIN_WARM_SPEEDUP = 5.0


def test_warm_start_speedup(record_result):
    gate = Gate("cache", {}, min_speedup=MIN_WARM_SPEEDUP, root=REPO_ROOT)
    scale = 0.45 if gate.preset == "quick" else 0.6
    result = run_cache_benchmark(seed=0, scale=scale)
    gate.result.update(result)
    gate.write(
        cold_seconds=result["cold"]["seconds"],
        warm_seconds=result["warm"]["seconds"],
        speedup=result["speedup"],
        warm_hits=result["warm"]["store"]["hits"],
        warm_misses=result["warm"]["store"]["misses"],
    )
    record_result("bench_perf_cache", render_cache_benchmark(gate.result))

    gate.require(
        result["results_identical"],
        "store-warm results diverged from the cold run — the store must "
        "change when work happens, never what is computed",
    )
    gate.require(
        result["warm"]["store"]["hits"] > 0,
        "warm run recorded zero store hits — the store is not being used",
    )
    gate.require_speedup()
    gate.check()
