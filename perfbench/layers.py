"""Per-layer metrics and the layer budget from traced ops.

An op record (one adapt process, one grid pass, or the daemon's whole
serving window) holds:

``totals``
    recorded name -> [calls, inclusive_s, self_s], summed over every
    process that did the op's work (the grid's forked workers included);
``budget``
    the same for the one process whose wall clock is the op's wall
    time (the op process, the grid parent, the daemon);
``counts``
    the recorder's counters; ``perf``: the program's ``perf.PERF``
    counters; ``wall_s``: the op's wall time; ``import_s``: the
    ``import repro.cli`` time when the op started an interpreter.

Every metric is a mean per op, so the budget rows (``self.*_s``,
``import_s`` and ``unattributed_s``) sum to the mean op wall time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracer import BUDGET_NAMES

#: metric -> recorded names whose inclusive times it sums.
INCLUSIVE: Dict[str, Tuple[str, ...]] = {
    "pretrain_s": ("pretrain",),
    "sft_s": ("sft",),
    "trainer.fit_s": ("trainer.fit",),
    "trainer.incremental_s": ("trainer.incremental",),
    "predict_s": ("predict",),
    "data_s": ("data.generate_all", "data.load_splits"),
    "skc.patches_s": ("skc.patches",),
    "skc.finetune_s": ("skc.finetune",),
    "knowtrans.fit_s": ("knowtrans.fit",),
    "knowtrans.crossfit_s": ("knowtrans.crossfit",),
    "akb.search_s": ("akb.search",),
    "evaluate_s": ("evaluate",),
    "store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
    "runtime.map_s": ("runtime.map",),
    "serve.attach_s": ("serve.attach",),
}

#: metric -> program ``perf.PERF`` counter.
PERF_COUNTERS: Dict[str, str] = {
    "weight_materializations": "model.weight_materializations",
    "akb.candidates_scored": "akb.pool_candidates",
    "store.hits": "store.hits",
    "store.misses": "store.misses",
    "store.writes": "store.writes",
    "store.bytes_written": "store.bytes_written",
    "runtime.payload_bytes": "runtime.payload_bytes",
}

#: metric -> recorder counter.
RECORDER_COUNTS: Dict[str, str] = {
    "trainer.steps": "trainer.steps",
    "featurize.rows": "featurize.rows",
    "predict.examples": "predict.examples",
    "runtime.tasks": "runtime.tasks",
}

UNITS: Dict[str, str] = {
    **{name: "s" for name in INCLUSIVE},
    "trainer.fits": "count",
    "featurize_s": "s",
    **{name: "count" for name in RECORDER_COUNTS},
    **{
        name: "bytes" if name.endswith("_bytes") or name.endswith("bytes_written")
        else "count"
        for name in PERF_COUNTERS
    },
    "prompt_hit_share": "ratio",
    "candidate_hit_share": "ratio",
    "kernel.grouped_share": "ratio",
    "runtime.busy_share": "ratio",
    "serve.queue_ms": "ms",
    "serve.swaps_per_request": "ratio",
    "serve.batch_size": "count",
    "serve.repeat_share": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "trace.op_ms": "ms",
    "import_s": "s",
    **{f"self.{name}_s": "s" for name in BUDGET_NAMES},
    "unattributed_s": "s",
    "unattributed_share": "ratio",
}


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def summarize(
    records: Sequence[Dict[str, Any]], ops: Optional[int] = None
) -> Dict[str, float]:
    """Mean-per-op layer metrics; zero for layers the ops never entered.

    ``ops`` defaults to one op per record (the daemon's single record
    covers every request it served).
    """
    n = max(1, ops if ops is not None else len(records))
    totals: Dict[str, List[float]] = {}
    budget: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    perf: Dict[str, float] = {}
    wall = import_s = 0.0
    for record in records:
        for target, source in ((totals, record["totals"]), (budget, record["budget"])):
            for name, slot in source.items():
                acc = target.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += slot[i]
        for target, source in ((counts, record["counts"]), (perf, record["perf"])):
            for name, value in source.items():
                target[name] = target.get(name, 0) + value
        wall += record["wall_s"]
        import_s += record.get("import_s", 0.0)

    def incl(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def self_time(store: Dict[str, List[float]], name: str) -> float:
        return store.get(name, (0, 0.0, 0.0))[2]

    out: Dict[str, float] = {name: 0.0 for name in UNITS}
    for metric, names in INCLUSIVE.items():
        out[metric] = incl(*names) / n
    out["trainer.fits"] = totals.get("trainer.fit", (0, 0.0, 0.0))[0] / n
    out["featurize_s"] = (
        self_time(totals, "featurize.sparse") + self_time(totals, "featurize.batch")
    ) / n
    for metric, counter in PERF_COUNTERS.items():
        out[metric] = perf.get(counter, 0) / n
    for metric, counter in RECORDER_COUNTS.items():
        out[metric] = counts.get(counter, 0) / n
    out["prompt_hit_share"] = _ratio(
        perf.get("model.prompt_hits", 0), perf.get("model.prompt_misses", 0)
    )
    out["candidate_hit_share"] = _ratio(
        perf.get("model.candidate_hits", 0), perf.get("model.candidate_misses", 0)
    )
    flat_calls = counts.get("kernel.score_flat.calls", 0)
    out["kernel.grouped_share"] = (
        counts.get("kernel.grouped.hits", 0) / flat_calls if flat_calls else 0.0
    )
    attributed = import_s
    for name in BUDGET_NAMES:
        value = self_time(budget, name)
        out[f"self.{name}_s"] = value / n
        attributed += value
    out["import_s"] = import_s / n
    out["unattributed_s"] = (wall - attributed) / n
    out["unattributed_share"] = (wall - attributed) / wall if wall else 0.0
    return out


def budget_lines(metrics: Dict[str, float], op_label: str) -> List[str]:
    """The layer budget as report lines, largest row first."""
    rows = [(f"self.{name}", metrics[f"self.{name}_s"]) for name in BUDGET_NAMES]
    rows.append(("import", metrics["import_s"]))
    rows.append(("unattributed", metrics["unattributed_s"]))
    wall = sum(value for __, value in rows)
    lines = [f"layer budget per {op_label} (self time; rows sum to {wall:.4f} s):"]
    for name, value in sorted(rows, key=lambda row: -row[1]):
        if value > 0.0 or name == "unattributed":
            share = value / wall if wall else 0.0
            lines.append(f"  {name:<28} {value:10.4f} s  {share:6.1%}")
    return lines
