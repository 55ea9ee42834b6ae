"""Layer timers the benchmark installs around the program's public functions.

Nothing under ``src/`` knows about these timers: :func:`install` replaces
each target function (and every module-level alias of it inside
``repro``) with a wrapper that records calls, inclusive time and self
time — a call's duration minus the part covered by wrapped calls it
made.  Self times of all wrapped calls plus an ``unattributed`` rest
add up to an op's wall time, which is the layer budget the benchmark
reports.

Forked workers reset the recorder and write one JSON file per
outermost wrapped call into ``worker_dir``, so the parent can fold
worker time in after a pool map returns.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Recorder:
    """Per-process totals: ``name -> [calls, inclusive_s, self_s]``."""

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.stack: List[List[float]] = []
        self.active: Dict[str, int] = {}
        self.worker_dir: Optional[str] = None
        self.in_worker = False
        self.installed = False
        self._files = itertools.count()

    def reset(self) -> None:
        self.totals = {}
        self.counts = {}
        self.stack = []
        self.active = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> Dict[str, Any]:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts),
        }

    def flush_worker(self) -> None:
        """Write this worker's totals since the last flush and clear them."""
        if self.worker_dir is None:
            return
        path = os.path.join(
            self.worker_dir, f"w-{os.getpid()}-{next(self._files)}.json"
        )
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)
        self.reset()

    def _after_fork(self) -> None:
        self.reset()
        self.in_worker = True


RECORDER = Recorder()


def _wrap(name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
    recorder = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [0.0]
        recorder.stack.append(frame)
        depth = recorder.active.get(name, 0)
        recorder.active[name] = depth + 1
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            recorder.stack.pop()
            recorder.active[name] = depth
            slot = recorder.totals.get(name)
            if slot is None:
                slot = recorder.totals[name] = [0, 0.0, 0.0]
            slot[0] += 1
            if depth == 0:  # recursion must not count the same time twice
                slot[1] += elapsed
            slot[2] += elapsed - frame[0]
            if recorder.stack:
                recorder.stack[-1][0] += elapsed
        if on_call is not None:
            on_call(recorder, args, result)
        if recorder.in_worker and not recorder.stack:
            recorder.flush_worker()
        return result

    return wrapper


def _counting(
    name: str, fn: Callable, hit: Optional[Callable[[Any], bool]] = None
) -> Callable:
    """Count calls (``name.calls``) and calls whose result passes ``hit``."""
    recorder = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        recorder.count(name + ".calls")
        if hit is not None and hit(result):
            recorder.count(name + ".hits")
        return result

    return wrapper


def _steps(recorder: Recorder, args, report) -> None:
    recorder.count("trainer.steps", len(getattr(report, "step_losses", ())))


def _rows(recorder: Recorder, args, result) -> None:
    recorder.count("featurize.rows")


def _examples(recorder: Recorder, args, result) -> None:
    recorder.count("predict.examples", len(args[1]))


def _tasks(recorder: Recorder, args, result) -> None:
    recorder.count("runtime.tasks", len(result))


# (module, attribute path, recorded name, per-call hook).  The names are
# the layer rows of the budget; benchmark metric names derive from them.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.tinylm.registry", "create_base_model", "pretrain", None),
    ("repro.baselines.jellyfish", "upstream_sft", "sft", None),
    ("repro.baselines.jellyfish", "UpstreamBundle.ensure_patches", "skc.patches", None),
    ("repro.data.generators.upstream", "generate_all", "data.generate_all", None),
    ("repro.eval.harness", "load_splits", "data.load_splits", None),
    ("repro.tinylm.trainer", "Trainer.fit", "trainer.fit", _steps),
    ("repro.tinylm.trainer", "Trainer.fit_incremental", "trainer.incremental", None),
    ("repro.tinylm.tokenizer", "HashedFeaturizer.encode_sparse", "featurize.sparse", _rows),
    ("repro.tinylm.tokenizer", "HashedFeaturizer.encode_batch", "featurize.batch", None),
    ("repro.tinylm.model", "ScoringLM.predict_batch", "predict", _examples),
    ("repro.core.skc.finetune", "few_shot_finetune", "skc.finetune", None),
    ("repro.core.knowtrans", "KnowTrans.fit", "knowtrans.fit", None),
    ("repro.core.knowtrans", "KnowTrans.cross_fit_scorer", "knowtrans.crossfit", None),
    ("repro.core.akb.optimizer", "search_knowledge", "akb.search", None),
    ("repro.eval.harness", "evaluate_method", "evaluate", None),
    ("repro.store", "ArtifactStore.get", "store.get", None),
    ("repro.store", "ArtifactStore.put", "store.put", None),
    ("repro.runtime", "WorkerPool.map", "runtime.map", _tasks),
    ("repro.serve", "TenantRegistry.ensure_attached", "serve.attach", None),
)

#: Recorded names whose self time forms the budget rows.
BUDGET_NAMES: Tuple[str, ...] = tuple(target[2] for target in TARGETS)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module-level alias of ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(worker_dir: Optional[str] = None) -> None:
    """Wrap every target (once per process) and arm the fork hook."""
    import importlib

    if RECORDER.installed:
        return
    RECORDER.installed = True
    RECORDER.worker_dir = worker_dir
    for module_name, path, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapped = _wrap(name, original, hook)
        setattr(owner, attr, wrapped)
        if not owner_name:
            _rebind(original, wrapped)

    # Which scoring kernel _score_flat takes: the grouped shared-pool path
    # runs exactly when _shared_pool_groups returns groups.
    from repro.tinylm import model as model_module

    model_module._shared_pool_groups = _counting(
        "kernel.grouped", model_module._shared_pool_groups,
        lambda groups: groups is not None,
    )
    model_module.ScoringLM._score_flat = _counting(
        "kernel.score_flat", model_module.ScoringLM._score_flat
    )
    _wrap_grid_rows()
    os.register_at_fork(after_in_child=RECORDER._after_fork)


def _wrap_grid_rows() -> None:
    """Time each grid row task as ``grid.row`` (the pool's unit of work).

    The wrapper replaces the module attribute too, so the pool can still
    pickle the row function by its import path.
    """
    from repro.eval import experiments

    for key, spec in list(experiments.GRIDS.items()):
        row_fn = spec.row_fn
        wrapped = _wrap("grid.row", row_fn)
        _rebind(row_fn, wrapped)
        experiments.GRIDS[key] = dataclasses.replace(spec, row_fn=wrapped)


def collect_worker_files(worker_dir: str) -> Dict[str, Any]:
    """Sum and delete the per-call files forked workers wrote."""
    merged: Dict[str, Any] = {"totals": {}, "counts": {}}
    for entry in sorted(os.listdir(worker_dir)):
        if not (entry.startswith("w-") and entry.endswith(".json")):
            continue
        path = os.path.join(worker_dir, entry)
        with open(path) as handle:
            merge_into(merged, json.load(handle))
        os.unlink(path)
    return merged


def merge_into(target: Dict[str, Any], part: Dict[str, Any]) -> None:
    for name, (calls, incl, self_s) in part.get("totals", {}).items():
        slot = target["totals"].setdefault(name, [0, 0.0, 0.0])
        slot[0] += calls
        slot[1] += incl
        slot[2] += self_s
    for name, value in part.get("counts", {}).items():
        target["counts"][name] = target["counts"].get(name, 0) + value


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for two :meth:`Recorder.snapshot` results."""
    out: Dict[str, Any] = {"totals": {}, "counts": {}}
    for name, slot in after["totals"].items():
        base = before["totals"].get(name, [0, 0.0, 0.0])
        out["totals"][name] = [a - b for a, b in zip(slot, base)]
    for name, value in after["counts"].items():
        out["counts"][name] = value - before["counts"].get(name, 0)
    return out
