"""The ``adapt_cold`` and ``grid`` workloads; ``serve_load`` holds ``serve_mixed``.

Each workload sets up ``setup_repeats`` times and reports the median
set-up time, then measures the closed-loop ops that fit in ``seconds``
and returns an :class:`Outcome`.  Both have one fixed input, so the
workload seed changes nothing here; the program itself always runs with
``program_seed``, so scores are comparable across runs and seeds.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import checks
import layers
from common import (
    LAUNCH, OP_TIMEOUT_S, ROOT, OpResult, RunDir, clean_env, median, run_cli_op,
    sweep_shm,
)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    config: Dict[str, Any]
    run: RunDir
    backbone: str


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def _fits(start: float, seconds: float, last_op_s: float) -> bool:
    """Whether another op as long as the last one still ends in the window.

    Runs measure whole ops; the first op always runs, so an op longer
    than the window (a cold adapt) is measured once.
    """
    return time.perf_counter() - start + last_op_s <= seconds


def _adapt(ctx: Context, dataset: str, store: str, trace: bool = False) -> OpResult:
    return run_cli_op(
        ["adapt", dataset, "--cache-dir", store, "--json"], ctx.run,
        trace=trace,
    )


def _op_record(op: OpResult) -> Dict[str, Any]:
    trace = op.trace or {"totals": {}, "counts": {}, "perf": {}}
    return {
        "totals": trace["totals"],
        "budget": trace["totals"],
        "counts": trace["counts"],
        "perf": trace["perf"],
        "wall_s": op.wall_s,
        "import_s": op.meta.get("import_s", 0.0),
    }


def _warm_setups(
    ctx: Context, dataset: str, repeats: int, problems: List[str]
) -> Dict[str, Any]:
    """Set-up of ``adapt_cold``, repeated for a steady median.

    One repetition copies the backbone store and adapts ``dataset`` on
    the copy in a fresh interpreter (untimed for the op metrics).  It
    warms the page cache and bytecode and yields the reference score the
    cold op must reproduce.
    """
    times, scores = [], []
    for __ in range(repeats):
        start = time.perf_counter()
        op = _adapt(ctx, dataset, ctx.run.store_copy(ctx.backbone))
        times.append(time.perf_counter() - start)
        problems += checks.exit_code(f"set-up adapt {dataset}", op.rc, op.stderr)
        scores.append((dataset, checks.adapt_score(op.stdout)))
    return {"setup_s": median(times), "scores": scores}


def _adapt_outcome(
    ctx: Context, ops: List[OpResult], scores, setup_s: float, label: str,
    problems: List[str],
) -> Outcome:
    failed = sum(1 for op in ops if op.rc != 0)
    for op, (dataset, __) in zip(ops, scores):
        problems += checks.exit_code(f"adapt {dataset}", op.rc, op.stderr)
    problems += checks.same_scores(scores)
    walls = [op.wall_s for op in ops]
    ok_walls = [op.wall_s for op in ops if op.rc == 0]
    per_dataset: Dict[str, float] = {}
    for dataset, score in scores:
        if score is not None:
            per_dataset.setdefault(dataset, score)
    test_score = sum(per_dataset.values()) / max(1, len(per_dataset))
    rss = max((op.meta.get("rss_mb", {}).get("self", 0.0) for op in ops), default=0.0)
    metrics = {
        "setup_s": setup_s,
        "p50_ms": median(walls) * 1000.0,
        "goodput_per_s": len(ok_walls) / sum(walls) if walls else 0.0,
        "test_score": test_score,
        "peak_rss_mb": rss,
    }
    report = [
        f"{label}: {len(ops)} ops, adapt_s median {median(walls):.3f} s "
        f"(n={len(ops)}), min {min(walls):.3f} s, max {max(walls):.3f} s",
        "scores: " + ", ".join(f"{d}={s:.2f}" for d, s in sorted(per_dataset.items())),
        f"failed_share: {failed / max(1, len(ops)):.3f}",
    ]
    outcome = Outcome(metrics, len(ops), failed, problems, report)
    if ctx.trace:
        outcome.layers = layers.summarize([_op_record(op) for op in ops])
        outcome.layers["trace.op_ms"] = metrics["p50_ms"]
        outcome.report += layers.budget_lines(outcome.layers, "adapt op")
    return outcome


def adapt_cold(ctx: Context) -> Outcome:
    """``repro adapt`` on an empty store: backbone pretrain, SFT, patches."""
    cfg = ctx.config["adapt_cold"]
    dataset = cfg["dataset"]
    problems: List[str] = []
    setup = _warm_setups(ctx, dataset, cfg["setup_repeats"], problems)
    ops, scores = [], []
    start = time.perf_counter()
    while not ops or _fits(start, ctx.seconds, ops[-1].wall_s):
        empty = ctx.run.fresh("cold-store")
        op = _adapt(ctx, dataset, empty, trace=ctx.trace)
        ops.append(op)
        scores.append((dataset, checks.adapt_score(op.stdout)))
    # The set-up scores come from the warm path; identity with the cold
    # op's score checks that a store round trip changes nothing.
    problems += checks.same_scores(setup["scores"] + scores)
    return _adapt_outcome(
        ctx, ops, scores, setup["setup_s"], "adapt_cold", problems
    )


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------
class GridProcess:
    """One prewarmed ``launch.py grid`` process driven over its pipes."""

    def __init__(self, ctx: Context):
        cfg = ctx.config["grid"]
        self.trace_dir: Optional[str] = None
        cmd = [
            sys.executable, LAUNCH, "grid",
            "--store", ctx.run.store_copy(ctx.backbone),
            "--experiment", cfg["experiment"], "--jobs", str(cfg["jobs"]),
        ]
        if ctx.trace:
            self.trace_dir = ctx.run.fresh("grid-trace")
            os.makedirs(self.trace_dir)
            cmd += ["--trace-dir", self.trace_dir]
        self.stderr_path = ctx.run.fresh("grid-stderr") + ".txt"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=clean_env(cfg["jobs"]), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )

    def read(self) -> Dict[str, Any]:
        # One reply line per command, so the pipe buffer is empty here and
        # select sees exactly whether the reply has started to arrive.
        ready, __, __ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("grid process exited: " + self.stderr_tail())
        return json.loads(line)

    def send(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read().decode(errors="replace")[-1500:]

    def close(self) -> Dict[str, Any]:
        """Ask the process to exit; kill it if it does not. Returns its RSS."""
        reply: Dict[str, Any] = {}
        try:
            if self.proc.poll() is None:
                reply = self.send("exit")
            self.proc.wait(timeout=30)
        except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._stderr.close()
            sweep_shm([self.proc.pid])
        return reply


def grid(ctx: Context) -> Outcome:
    """``repro experiment table5 --jobs 2`` passes in one prewarmed process."""
    cfg = ctx.config["grid"]
    problems: List[str] = []
    times: List[float] = []
    process: Optional[GridProcess] = None
    passes: List[Dict[str, Any]] = []
    reference = None
    rss: Dict[str, Any] = {}
    try:
        for __ in range(cfg["setup_repeats"]):
            if process is not None:
                process.close()
            start = time.perf_counter()
            process = GridProcess(ctx)
            ready = process.read()
            times.append(time.perf_counter() - start)
            problems += checks.exit_code("grid set-up pass", ready.get("rc", 1),
                                         process.stderr_tail())
            if reference is None:
                reference = ready.get("rows")
            problems += checks.same_rows(reference, [ready.get("rows")])
        start = time.perf_counter()
        while not passes or _fits(start, ctx.seconds, passes[-1]["wall_s"]):
            passes.append(process.send("pass"))
    finally:
        if process is not None:
            rss = process.close().get("rss_mb", {})
    return grid_outcome(ctx, times, reference, passes, rss, problems)


def grid_outcome(
    ctx: Context, times: List[float], reference: Any,
    passes: List[Dict[str, Any]], rss: Dict[str, float], problems: List[str],
) -> Outcome:
    """Check every pass against the set-up pass and compute the metrics."""
    failed = 0
    for index, reply in enumerate(passes):
        rc = reply.get("rc", 1)
        failed += rc != 0
        problems += checks.exit_code(f"grid pass {index}", rc)
    problems += checks.same_rows(reference, [reply.get("rows") for reply in passes])
    walls = [reply["wall_s"] for reply in passes]
    average = next(
        (row for row in (reference or []) if row.get("dataset") == "average"), {}
    )
    metrics = {
        "setup_s": median(times),
        "p50_ms": median(walls) * 1000.0,
        "goodput_per_s": (len(walls) - failed) / sum(walls),
        "test_score": float(average.get("knowtrans", 0.0)),
        "peak_rss_mb": max(rss.get("self", 0.0), rss.get("children", 0.0)),
    }
    report = [
        f"grid: {len(walls)} table5 passes, grid_s median {median(walls):.3f} s "
        f"(n={len(walls)}), min {min(walls):.3f} s, max {max(walls):.3f} s",
        f"peak RSS: parent {rss.get('self', 0.0):.1f} MB, largest worker "
        f"{rss.get('children', 0.0):.1f} MB",
        f"failed_share: {failed / len(walls):.3f}",
    ]
    outcome = Outcome(metrics, len(walls), failed, problems, report)
    if ctx.trace:
        outcome.layers = _grid_layers(passes, ctx.config["grid"]["jobs"])
        outcome.layers["trace.op_ms"] = metrics["p50_ms"]
        outcome.report += layers.budget_lines(outcome.layers, "table5 pass")
    return outcome


def _grid_layers(passes: List[Dict[str, Any]], jobs: int) -> Dict[str, float]:
    """Layer metrics of the traced grid passes.

    Inclusive layer times sum over the parent and its workers.  The
    budget spreads the workers' self times over the ``jobs`` workers'
    share of the pass: a row is a layer's worker self time divided by
    ``jobs`` plus its parent self time, and ``runtime.map`` keeps only the
    part of the map's wall time no worker spent inside a wrapped call
    (fan-out, result transfer, imbalance and idle workers).
    """
    import tracer

    records = []
    busy = map_wall = 0.0
    for reply in passes:
        trace = reply["trace"]
        parent, workers = trace["parent"], trace["workers"]
        merged = {"totals": {}, "counts": {}}
        tracer.merge_into(merged, parent)
        tracer.merge_into(merged, workers)
        budget = {name: list(slot) for name, slot in parent["totals"].items()}
        worker_self = 0.0
        for name, (calls, __, self_s) in workers["totals"].items():
            if name in tracer.BUDGET_NAMES:
                slot = budget.setdefault(name, [0, 0.0, 0.0])
                slot[2] += self_s / jobs
                worker_self += self_s / jobs
        pool = budget.setdefault("runtime.map", [0, 0.0, 0.0])
        pool[2] -= worker_self
        records.append({
            "totals": merged["totals"],
            "budget": budget,
            "counts": merged["counts"],
            "perf": trace["perf"],
            "wall_s": trace["wall_s"],
        })
        busy += workers["totals"].get("grid.row", [0, 0.0, 0.0])[1]
        map_wall += parent["totals"].get("runtime.map", [0, 0.0, 0.0])[1]
    metrics = layers.summarize(records)
    metrics["runtime.busy_share"] = busy / (map_wall * jobs) if map_wall else 0.0
    return metrics
