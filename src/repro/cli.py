"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available downstream datasets, model tiers and tasks.
``adapt``
    Run the full KnowTrans adaptation on one dataset and print scores,
    the searched knowledge and the learned patch weights.
``experiment``
    Run one entry of the experiment registry (``table2``, ``fig4``, …)
    and print the regenerated rows/series.
``conflict``
    Print the upstream gradient-conflict diagnostic (paper Fig. 1).
``perf``
    Inference / warm-start cache / knowledge-base / serving /
    streaming / large-workload benchmarks plus counters; ``--all`` runs
    every registered gate in quick preset with one summary table.
``stream``
    Streaming online-adaptation demo episode: prequential accuracy per
    micro-batch, drift-distance trace, KB re-seed on firing.
``serve``
    Long-lived multi-tenant adaptation server (line-delimited JSON over
    TCP, continuous batching across tenants sharing a backbone); or
    ``--smoke`` for an in-process end-to-end check.
``merge-shards``
    Combine a sharded grid run's per-shard results, perf snapshots and
    traces into the single report an unsharded run would have produced.
``cache``
    Inspect or maintain the persistent artifact store
    (``stats`` / ``clear`` / ``gc``).
``kb``
    Inspect or maintain the persistent cross-dataset knowledge base
    stored under the artifact store's ``kb/`` namespace
    (``stats`` / ``export`` / ``import`` / ``prune``).
``trace``
    Render a trace JSONL file: span tree, top-N hotspots and metric
    rollups.

Output goes through :class:`repro.reporting.Console`: every command
accepts ``--quiet`` (suppress progress chatter, keep results) and
``--json`` (emit one machine-readable JSON document instead of text).

``adapt`` and ``experiment`` accept ``--shard I/N`` plus ``--grid-dir``
to split the per-dataset grid across N coordinated invocations (see
:mod:`repro.shard` and ``docs/performance.md``); ``merge-shards``
reassembles the full report afterwards.

``adapt``, ``experiment`` and ``perf`` accept ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) to persist deterministic
artifacts — pretrained weights, SFT weights, SKC patches, fine-tune
states, AKB evaluation records — across invocations, and ``--no-cache``
to bypass the store entirely (reads *and* writes).  ``adapt``,
``experiment``, ``perf`` and ``serve`` also accept ``--kb`` /
``--no-kb`` (or ``REPRO_KB``) to opt the run into the persistent
cross-dataset knowledge base living inside the store: AKB searches
seed their candidate pool from nearest-profile knowledge of earlier
searches and promote their winners back (see
:mod:`repro.knowledge.kb` and ``docs/performance.md``).  They also accept
``--trace PATH`` (or ``REPRO_TRACE``) to record a structured span/metric
trace of the run (see :mod:`repro.obs` and ``docs/observability.md``);
render it afterwards with ``python -m repro trace PATH``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from . import obs
from . import store as artifact_store
from .baselines.jellyfish import get_bundle
from .core.config import KnowTransConfig
from .core.knowtrans import KnowTrans
from .data import generators
from .eval import experiments
from .eval.harness import evaluate_method, load_splits
from .reporting import Console
from .tinylm.registry import TIERS

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table1": experiments.table1_dataset_statistics,
    "table2": experiments.table2_open_source_comparison,
    "table3": experiments.table3_cost_analysis,
    "table4": experiments.table4_closed_source_comparison,
    "table5": experiments.table5_ablation,
    "table6": experiments.table6_weight_strategies,
    "table7": experiments.table7_upstream_statistics,
    "fig4": experiments.fig4_scalability,
    "fig5": experiments.fig5_backbones_on_datasets,
    "fig6": experiments.fig6_backbones_on_tasks,
    "fig7": experiments.fig7_refinement_rounds,
}


def _add_output_args(
    command: argparse.ArgumentParser, trace: bool = False
) -> None:
    command.add_argument(
        "--quiet", action="store_true",
        help="suppress progress chatter; print results only",
    )
    command.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )
    if trace:
        command.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a structured span/metric trace (JSONL) of the run "
            "(default: REPRO_TRACE env, else tracing off)",
        )


def _add_shard_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run shard I of an N-way grid partition (1-based); "
        "N invocations coordinate through --grid-dir",
    )
    command.add_argument(
        "--grid-dir", default=None, metavar="DIR",
        help="shared coordination directory for --shard runs "
        "(claims, per-cell results, traces); merge afterwards with "
        "'repro merge-shards --grid-dir DIR'",
    )


def _add_cache_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent artifact store directory "
        "(default: REPRO_CACHE_DIR env, else caching off)",
    )
    command.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact store entirely (reads and writes)",
    )


def _add_kb_args(command: argparse.ArgumentParser) -> None:
    group = command.add_mutually_exclusive_group()
    group.add_argument(
        "--kb", action="store_true", dest="kb",
        help="enable the persistent cross-dataset knowledge base "
        "(retrieve-then-refine AKB; needs an active artifact store)",
    )
    group.add_argument(
        "--no-kb", action="store_true", dest="no_kb",
        help="force the knowledge base off even when REPRO_KB is set",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KnowTrans reproduction (ICDE 2025) command line",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    listing = commands.add_parser(
        "list", help="list datasets, tiers and experiments"
    )
    _add_output_args(listing)

    adapt = commands.add_parser("adapt", help="adapt a DP-LLM to one dataset")
    adapt.add_argument(
        "dataset",
        help="dataset id, e.g. ed/beer; with --shard, a comma-separated "
        "list or 'all'",
    )
    adapt.add_argument("--tier", default="mistral-7b", choices=sorted(TIERS))
    adapt.add_argument("--seed", type=int, default=0)
    adapt.add_argument("--count", type=int, default=200, help="dataset size")
    adapt.add_argument("--scale", type=float, default=0.6, help="upstream scale")
    adapt.add_argument("--no-skc", action="store_true", help="ablate SKC")
    adapt.add_argument("--no-akb", action="store_true", help="ablate AKB")
    adapt.add_argument(
        "--augment", default=None, metavar="SPEC",
        help="entity-augmentation spec, e.g. 'seed=0,rate=0.5,"
        "languages=xx-el|xx-ka' (empty string for defaults); applies "
        "aliased/pseudo-translated surface forms to EM/DI/ED datasets",
    )
    adapt.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS env, then 1)",
    )
    _add_shard_args(adapt)
    _add_output_args(adapt, trace=True)
    _add_cache_args(adapt)
    _add_kb_args(adapt)

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument(
        "--preset", default="quick", choices=("quick", "paper")
    )
    experiment.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for per-dataset rows "
        "(default: REPRO_JOBS env, then 1)",
    )
    _add_shard_args(experiment)
    _add_output_args(experiment, trace=True)
    _add_cache_args(experiment)
    _add_kb_args(experiment)

    merge = commands.add_parser(
        "merge-shards",
        help="combine a sharded grid run into the full report",
    )
    merge.add_argument(
        "--grid-dir", required=True, metavar="DIR",
        help="coordination directory the shards ran against",
    )
    merge.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the merged cross-shard trace here "
        "(default: GRID_DIR/merged-trace.jsonl)",
    )
    merge.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the merged report as JSON to PATH",
    )
    _add_output_args(merge)

    conflict = commands.add_parser(
        "conflict", help="gradient tug-of-war diagnostic (paper Fig. 1)"
    )
    conflict.add_argument("--tier", default="mistral-7b", choices=sorted(TIERS))
    conflict.add_argument("--scale", type=float, default=0.4)
    conflict.add_argument("--seed", type=int, default=0)
    _add_output_args(conflict)

    perf = commands.add_parser(
        "perf",
        help="batched vs per-example inference micro-benchmark + counters",
    )
    perf.add_argument(
        "--dataset", default="em/abt_buy", help="workload dataset id"
    )
    perf.add_argument("--count", type=int, default=200, help="dataset size")
    perf.add_argument("--seed", type=int, default=0)
    perf.add_argument(
        "--repeats", type=int, default=3, help="timed repeats (best kept)"
    )
    perf.add_argument(
        "--cache", action="store_true",
        help="run the warm-start cache benchmark "
        "(cold pipeline vs store-warm re-run)",
    )
    perf.add_argument(
        "--serve", action="store_true",
        help="run the serving benchmark (sequential per-request dispatch "
        "vs multi-tenant continuous batching through the real server)",
    )
    perf.add_argument(
        "--kb", action="store_true",
        help="run the knowledge-base benchmark (cold AKB search vs "
        "retrieve-then-refine seeded from a populated KB)",
    )
    perf.add_argument(
        "--stream", action="store_true",
        help="run the streaming adaptation benchmark (incremental "
        "rank-space updates + drift-triggered KB re-retrieval vs "
        "frozen and refit-from-scratch arms)",
    )
    perf.add_argument(
        "--workload", action="store_true",
        help="run the large-workload benchmark (~100x table-QA rows: "
        "batched engine at full-column-vocabulary pools + KB profile "
        "retrieval over the QA datasets)",
    )
    perf.add_argument(
        "--all", action="store_true",
        help="run every registered perf gate (benchmarks/bench_perf_*) "
        "in quick preset and print one summary table",
    )
    perf.add_argument(
        "--smoke", action="store_true",
        help="fast CI sanity pass: tiny workload, single repeat, "
        "fails on any prediction mismatch",
    )
    _add_output_args(perf, trace=True)
    _add_cache_args(perf)

    stream = commands.add_parser(
        "stream",
        help="streaming online-adaptation demo episode "
        "(prequential accuracy, drift detection, KB re-seed)",
    )
    stream.add_argument(
        "--mode", choices=("incremental", "refit", "frozen"),
        default="incremental", help="update policy for the episode",
    )
    stream.add_argument("--batches", type=int, default=10)
    stream.add_argument("--batch-size", type=int, default=16)
    stream.add_argument(
        "--drift-at", type=int, default=None,
        help="micro-batch index where the error distribution shifts "
        "(default: halfway)",
    )
    stream.add_argument("--seed", type=int, default=0)
    _add_output_args(stream, trace=True)

    serve = commands.add_parser(
        "serve",
        help="multi-tenant continuous-batching adaptation server",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8731,
        help="bind port (0 picks an ephemeral port)",
    )
    serve.add_argument("--tier", default="mistral-7b", choices=sorted(TIERS))
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--scale", type=float, default=0.6,
        help="upstream scale for --preload registrations",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="max requests coalesced into one dispatch",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=5.0,
        help="batching window after the first queued request",
    )
    serve.add_argument(
        "--preload", action="append", default=[], metavar="TENANT:DATASET",
        help="register an adapted specialist before serving (repeatable); "
        "warm-loads from the artifact store when populated, e.g. "
        "--preload acme:em/abt_buy",
    )
    serve.add_argument(
        "--tenants", type=int, default=2,
        help="demo tenants to seed when no --preload is given",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="in-process end-to-end check: start the server, drive "
        "concurrent clients, verify responses against the offline "
        "oracle, exit (CI)",
    )
    serve.add_argument(
        "--clients", type=int, default=4, help="smoke: concurrent clients"
    )
    serve.add_argument(
        "--requests", type=int, default=12, help="smoke: total requests"
    )
    _add_output_args(serve, trace=True)
    _add_cache_args(serve)
    _add_kb_args(serve)

    cache = commands.add_parser(
        "cache", help="inspect or maintain the persistent artifact store"
    )
    cache.add_argument("action", choices=("stats", "clear", "gc"))
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store directory (default: REPRO_CACHE_DIR env)",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="gc only: evict oldest entries until the store fits",
    )
    cache.add_argument(
        "--kb", action="store_true",
        help="gc only: also maintain the kb/ namespace (heal corrupt "
        "entries, compact loose files); by default gc leaves it alone",
    )
    _add_output_args(cache)

    kb_cmd = commands.add_parser(
        "kb",
        help="inspect or maintain the persistent cross-dataset "
        "knowledge base",
    )
    kb_cmd.add_argument(
        "action", choices=("stats", "export", "import", "prune")
    )
    kb_cmd.add_argument(
        "path", nargs="?", default=None,
        help="export/import only: JSONL file to write/read",
    )
    kb_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store directory holding the kb/ namespace "
        "(default: REPRO_CACHE_DIR env)",
    )
    kb_cmd.add_argument(
        "--min-score", type=float, default=None,
        help="prune only: drop entries scoring below this",
    )
    kb_cmd.add_argument(
        "--max-entries", type=int, default=None,
        help="prune only: keep at most this many best-scoring entries",
    )
    kb_cmd.add_argument(
        "--task", default=None,
        help="prune only: restrict pruning to one task type",
    )
    _add_output_args(kb_cmd)

    trace = commands.add_parser(
        "trace", help="render a trace JSONL file (tree, hotspots, metrics)"
    )
    trace.add_argument("path", help="trace file written by --trace/REPRO_TRACE")
    trace.add_argument(
        "--top", type=int, default=10, help="hotspots to show (self time)"
    )
    trace.add_argument(
        "--min-spans", type=int, default=0,
        help="fail (exit 1) when the trace has fewer spans (CI smoke)",
    )
    _add_output_args(trace)
    return parser


def _cmd_list(args: argparse.Namespace, console: Console) -> int:
    datasets = list(generators.downstream_ids())
    tiers = sorted(TIERS)
    names = sorted(_EXPERIMENTS)
    workload = [
        name
        for name in generators.generator_names()
        if name not in set(datasets)
    ]
    console.result("downstream datasets (paper Table I):")
    for dataset_id in datasets:
        spec = generators.get_generator(dataset_id)
        console.result(
            f"  {dataset_id:<20} task={spec.task} lang={spec.language} "
            f"scale={spec.scale} base={spec.base_count}"
        )
    if workload:
        console.result("workload datasets:")
        for dataset_id in workload:
            spec = generators.get_generator(dataset_id)
            console.result(
                f"  {dataset_id:<20} task={spec.task} lang={spec.language} "
                f"scale={spec.scale} base={spec.base_count}"
            )
    console.result("model tiers:")
    for tier in tiers:
        console.result(f"  {tier}")
    console.result("experiments:")
    for name in names:
        console.result(f"  {name}")
    console.update(
        {
            "datasets": datasets,
            "generators": [
                {
                    "name": spec.name,
                    "task": spec.task,
                    "language": spec.language,
                    "scale": spec.scale,
                    "base_count": spec.base_count,
                }
                for spec in (
                    generators.get_generator(name)
                    for name in generators.generator_names()
                )
            ],
            "tiers": tiers,
            "experiments": names,
        }
    )
    return 0


def _augment_config(args: argparse.Namespace):
    """The parsed ``--augment`` spec, or ``None`` when not requested."""
    from .data.augment import AugmentConfig

    if args.augment is None:
        return None
    return AugmentConfig.parse(args.augment)


def _shard_spec(args: argparse.Namespace, console: Console):
    """Parse and validate ``--shard``/``--grid-dir``; None on error."""
    from .shard import ShardSpec

    if not args.grid_dir:
        console.error("--shard requires --grid-dir")
        return None
    try:
        return ShardSpec.parse(args.shard)
    except ValueError as err:
        console.error(str(err))
        return None


def _cmd_adapt_shard(args: argparse.Namespace, console: Console) -> int:
    from . import shard as sharding

    spec = _shard_spec(args, console)
    if spec is None:
        return 2
    if args.dataset == "all":
        dataset_ids = list(generators.downstream_ids())
    else:
        dataset_ids = [d for d in args.dataset.split(",") if d]
    bundle = None

    def compute(dataset_id: str) -> dict:
        nonlocal bundle
        if bundle is None:
            # Lazy: a fully-complete re-run never builds the backbone.
            console.info(f"building upstream bundle ({args.tier}) ...")
            bundle = get_bundle(args.tier, seed=args.seed, scale=args.scale)
        console.info(f"adapting to {dataset_id} ...")
        splits = load_splits(
            dataset_id, count=args.count, seed=args.seed,
            augment=_augment_config(args),
        )
        adapter = KnowTrans(
            bundle,
            config=KnowTransConfig.fast(),
            use_skc=not args.no_skc,
            use_akb=not args.no_akb,
            jobs=args.jobs,
        )
        adapted = adapter.fit(splits)
        score = evaluate_method(adapted, splits.test.examples, adapted.task.name)
        return {
            "dataset": dataset_id,
            "tier": args.tier,
            "seed": args.seed,
            "task": adapted.task.name,
            "score": score,
        }

    try:
        summary = sharding.run_adapt_shard(
            dataset_ids, spec, args.grid_dir, compute
        )
    except ValueError as err:
        console.error(str(err))
        return 2
    console.result(
        f"{spec.label}: computed {len(summary['computed'])} cell(s), "
        f"skipped {len(summary['skipped'])}, "
        f"reclaimed {len(summary['reclaimed'])}"
    )
    console.update(summary)
    return 0


def _cmd_adapt(args: argparse.Namespace, console: Console) -> int:
    if args.shard:
        return _cmd_adapt_shard(args, console)
    console.info(f"building upstream bundle ({args.tier}) ...")
    bundle = get_bundle(args.tier, seed=args.seed, scale=args.scale)
    splits = load_splits(
        args.dataset, count=args.count, seed=args.seed,
        augment=_augment_config(args),
    )
    adapter = KnowTrans(
        bundle,
        config=KnowTransConfig.fast(),
        use_skc=not args.no_skc,
        use_akb=not args.no_akb,
        jobs=args.jobs,
    )
    console.info(f"adapting to {args.dataset} ...")
    adapted = adapter.fit(splits)
    score = evaluate_method(adapted, splits.test.examples, adapted.task.name)
    console.result(f"test score: {score:.2f}")
    console.update(
        {
            "dataset": args.dataset,
            "tier": args.tier,
            "seed": args.seed,
            "task": adapted.task.name,
            "score": score,
        }
    )
    if adapted.knowledge:
        rules = [rule.render() for rule in adapted.knowledge.rules]
        console.result("searched knowledge:")
        for rendered in rules:
            console.result(f"  - {rendered}")
        console.set("knowledge", rules)
    if adapted.fusion_weights:
        top = sorted(adapted.fusion_weights.items(), key=lambda kv: -kv[1])[:5]
        console.result("top patch weights:")
        for name, weight in top:
            console.result(f"  {name}: {weight:.3f}")
        console.set("fusion_weights", dict(adapted.fusion_weights))
    return 0


def _cmd_experiment(args: argparse.Namespace, console: Console) -> int:
    ctx = (
        experiments.ExperimentContext.paper()
        if args.preset == "paper"
        else experiments.ExperimentContext.quick()
    )
    ctx.jobs = args.jobs
    if args.shard:
        from . import shard as sharding

        if args.name not in experiments.GRIDS:
            console.error(
                f"experiment {args.name!r} is not shardable; "
                "shardable grids: " + ", ".join(sorted(experiments.GRIDS))
            )
            return 2
        spec = _shard_spec(args, console)
        if spec is None:
            return 2
        try:
            summary = sharding.run_experiment_shard(
                args.name, ctx, spec, args.grid_dir
            )
        except ValueError as err:
            console.error(str(err))
            return 2
        console.result(
            f"{spec.label}: computed {len(summary['computed'])} cell(s), "
            f"skipped {len(summary['skipped'])}, "
            f"reclaimed {len(summary['reclaimed'])}"
        )
        console.update(summary)
        return 0
    result = _EXPERIMENTS[args.name](ctx)
    console.result(result["text"])
    console.set("name", args.name)
    console.set("preset", args.preset)
    console.set(
        "result", {key: value for key, value in result.items() if key != "text"}
    )
    return 0


def _cmd_conflict(args: argparse.Namespace, console: Console) -> int:
    from .eval.diagnostics import summarize_conflict

    bundle = get_bundle(args.tier, seed=args.seed, scale=args.scale)
    report = summarize_conflict(bundle.base_model, bundle.upstream_datasets)
    matrix = report["matrix"]
    names = report["names"]
    console.result(
        "pairwise gradient cosine (upstream datasets at shared weights):"
    )
    width = max(len(n) for n in names)
    for i, name in enumerate(names):
        row = " ".join(f"{matrix[i, j]:+.2f}" for j in range(len(names)))
        console.result(f"  {name.ljust(width)} {row}")
    console.result(
        f"conflict rate (obtuse pairs): {report['conflict_rate']:.2%}"
    )
    console.result(
        f"mean off-diagonal cosine:     {report['mean_cosine']:+.3f}"
    )
    console.result(
        f"worst tug-of-war pair:        {report['worst_pair'][0]} vs "
        f"{report['worst_pair'][1]} ({report['worst_cosine']:+.3f})"
    )
    console.update(
        {
            "names": names,
            "matrix": matrix,
            "conflict_rate": report["conflict_rate"],
            "mean_cosine": report["mean_cosine"],
            "worst_pair": report["worst_pair"],
            "worst_cosine": report["worst_cosine"],
        }
    )
    return 0


def _run_all_gates(console: Console) -> int:
    """Run every ``benchmarks/bench_perf_*.py`` gate in quick preset."""
    import pathlib
    import subprocess
    import time

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    bench_dir = repo_root / "benchmarks"
    gates = sorted(bench_dir.glob("bench_perf_*.py"))
    if not gates:
        console.error(f"no perf gates found under {bench_dir}")
        console.set("ok", False)
        return 1
    env = dict(os.environ, REPRO_BENCH_PRESET="quick")
    src_dir = str(repo_root / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    rows = []
    for path in gates:
        name = path.stem.replace("bench_perf_", "")
        console.info(f"running gate {name} (quick preset)...")
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", str(path),
                "-q", "-p", "no:cacheprovider",
            ],
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - start
        rows.append((name, proc.returncode == 0, seconds))
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-12:]
            console.error(f"gate {name} FAILED:\n" + "\n".join(tail))
    lines = [
        "perf gates (quick preset)",
        f"  {'gate':<12} {'status':>6} {'seconds':>8}",
    ]
    for name, ok, seconds in rows:
        lines.append(
            f"  {name:<12} {'PASS' if ok else 'FAIL':>6} {seconds:>8.1f}"
        )
    failed = [name for name, ok, __ in rows if not ok]
    lines.append(
        f"  {len(rows) - len(failed)}/{len(rows)} gates green"
        + (f"; FAILED: {', '.join(failed)}" if failed else "")
    )
    console.result("\n".join(lines))
    console.set(
        "gates",
        [
            {"gate": name, "ok": ok, "seconds": seconds}
            for name, ok, seconds in rows
        ],
    )
    console.set("ok", not failed)
    return 1 if failed else 0


def _cmd_perf(args: argparse.Namespace, console: Console) -> int:
    from .perf import PERF, render_benchmark, run_inference_benchmark

    if args.all:
        return _run_all_gates(console)

    if args.smoke:
        result = run_inference_benchmark(
            dataset_id=args.dataset,
            count=min(args.count, 60),
            seed=args.seed,
            repeats=1,
        )
        console.result(render_benchmark(result))
        console.set("benchmark", result)
        if not result["predictions_identical"]:
            console.error(
                "smoke FAILED: batched and per-example predictions differ"
            )
            console.set("ok", False)
            return 1
        console.result("smoke OK")
        console.set("ok", True)
        return 0

    if args.serve:
        from .perf import render_serve_benchmark, run_serve_benchmark

        result = run_serve_benchmark(seed=args.seed, repeats=args.repeats)
        console.result(render_serve_benchmark(result))
        console.set("benchmark", result)
        if not result["predictions_identical"]:
            console.error(
                "serve benchmark FAILED: served predictions diverged "
                "from the offline oracle"
            )
            console.set("ok", False)
            return 1
        console.result("serve benchmark OK")
        console.set("ok", True)
        return 0

    if args.kb:
        from .perf import render_kb_benchmark, run_kb_benchmark

        result = run_kb_benchmark(seed=args.seed)
        console.result(render_kb_benchmark(result))
        console.set("benchmark", result)
        failures = [
            label
            for label, ok in (
                ("warm search retrieved nothing", result["retrieved"] > 0),
                (
                    "warm quality regressed",
                    result["warm"]["best_score"]
                    >= result["cold"]["best_score"],
                ),
                (
                    "KB corrupt after concurrent promotion",
                    result["concurrent"]["corrupt"] == 0,
                ),
            )
            if not ok
        ]
        if failures:
            console.error("kb benchmark FAILED: " + "; ".join(failures))
            console.set("ok", False)
            return 1
        console.result("kb benchmark OK")
        console.set("ok", True)
        return 0

    if args.stream:
        from .stream import render_stream_benchmark, run_stream_benchmark

        result = run_stream_benchmark(seed=args.seed, scale=0.8)
        console.result(render_stream_benchmark(result))
        console.set("benchmark", result)
        arms = result["arms"]
        failures = [
            label
            for label, ok in (
                (
                    "incremental/refit final state diverged",
                    result["equal_final_accuracy"]
                    and result["refit_state_identical"],
                ),
                (
                    "adaptive arm did not beat frozen post-drift",
                    arms["adaptive"]["post_drift_accuracy"]
                    > arms["frozen"]["post_drift_accuracy"],
                ),
                (
                    "drift did not fire exactly once",
                    result["drift_fired_once"],
                ),
                ("no KB re-seed on drift", result["reseeded"]),
                ("replay not bit-identical", result["replay_identical"]),
            )
            if not ok
        ]
        if failures:
            console.error("stream benchmark FAILED: " + "; ".join(failures))
            console.set("ok", False)
            return 1
        console.result("stream benchmark OK")
        console.set("ok", True)
        return 0

    if args.workload:
        from .perf import (
            render_workload_benchmark,
            run_workload_benchmark,
        )

        result = run_workload_benchmark(
            count=max(args.count, 2000), seed=args.seed, repeats=args.repeats
        )
        console.result(render_workload_benchmark(result))
        console.set("benchmark", result)
        failures = [
            label
            for label, ok in (
                ("predictions diverged", result["predictions_identical"]),
                (
                    "mean pool below 100 candidates",
                    result["mean_pool_size"] >= 100,
                ),
                (
                    "KB retrieval missed the QA profiles",
                    result["kb"]["retrieved"] > 0,
                ),
            )
            if not ok
        ]
        if failures:
            console.error("workload benchmark FAILED: " + "; ".join(failures))
            console.set("ok", False)
            return 1
        console.result("workload benchmark OK")
        console.set("ok", True)
        return 0

    if args.cache:
        from .perf import render_cache_benchmark, run_cache_benchmark

        result = run_cache_benchmark(seed=args.seed, cache_dir=args.cache_dir)
        console.result(render_cache_benchmark(result))
        console.set("benchmark", result)
        return 0

    result = run_inference_benchmark(
        dataset_id=args.dataset,
        count=args.count,
        seed=args.seed,
        repeats=args.repeats,
    )
    console.result(render_benchmark(result))
    console.info(PERF.report())
    console.set("benchmark", result)
    return 0


def _cmd_stream(args: argparse.Namespace, console: Console) -> int:
    from .stream import render_stream_demo, run_stream_demo

    result = run_stream_demo(
        mode=args.mode,
        seed=args.seed,
        batches=args.batches,
        batch_size=args.batch_size,
        drift_at=args.drift_at,
    )
    console.result(render_stream_demo(result))
    console.set("episode", result)
    return 0


def _cmd_serve(args: argparse.Namespace, console: Console) -> int:
    from . import serve as serving

    if args.smoke:
        result = serving.run_smoke(
            clients=args.clients,
            requests=args.requests,
            seed=args.seed,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            tenants=args.tenants,
        )
        console.result(serving.render_smoke(result))
        console.set("smoke", result)
        console.set("ok", result["ok"])
        if not result["ok"]:
            console.error(
                "serve smoke FAILED: served responses diverged from the "
                "offline oracle (or requests were dropped)"
            )
            return 1
        return 0

    registry = serving.TenantRegistry()
    if args.preload:
        for spec in args.preload:
            tenant, sep, dataset_id = spec.partition(":")
            if not sep or not tenant or not dataset_id:
                console.error(
                    f"bad --preload {spec!r}: expected TENANT:DATASET"
                )
                return 2
            console.info(f"registering {tenant} <- {dataset_id} ...")
            entry = registry.register_adapted(
                tenant,
                dataset_id,
                tier=args.tier,
                seed=args.seed,
                scale=args.scale,
            )
            console.info(
                f"registered {entry.tenant}:{entry.dataset} "
                f"({entry.task}) on {entry.backbone}"
            )
    else:
        console.info(
            f"no --preload given; seeding {args.tenants} demo tenants"
        )
        registry = serving.build_demo_registry(
            tenants=args.tenants, seed=args.seed
        )
    return serving.serve_forever(
        registry,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        console=console,
    )


def _cmd_merge_shards(args: argparse.Namespace, console: Console) -> int:
    from . import shard as sharding

    try:
        result = sharding.merge_shards(
            args.grid_dir, trace_out=args.trace_out
        )
    except (FileNotFoundError, ValueError) as err:
        console.error(str(err))
        return 1
    console.result(result["text"])
    console.set("experiment", result["experiment"])
    console.set("shards", result["shards"])
    console.set(
        "result",
        {key: value for key, value in result.items() if key != "text"},
    )
    if result.get("merged_trace"):
        console.info(f"merged trace written to {result['merged_trace']}")
    if args.out:
        import json

        payload = {k: v for k, v in result.items() if k != "text"}
        artifact_store.atomic_write_bytes(
            args.out, (json.dumps(payload, sort_keys=True) + "\n").encode()
        )
        console.info(f"merged report written to {args.out}")
        console.set("out", args.out)
    return 0


def _cmd_cache(args: argparse.Namespace, console: Console) -> int:
    cache_dir = args.cache_dir or os.environ.get(
        "REPRO_CACHE_DIR", ""
    ).strip()
    if not cache_dir:
        console.error(
            "no store directory: pass --cache-dir or set REPRO_CACHE_DIR"
        )
        return 2
    from .knowledge import kb as kb_module

    store = artifact_store.ArtifactStore(cache_dir)
    console.set("root", str(store.root))
    console.set("action", args.action)
    if args.action == "stats":
        console.result(store.render_stats())
        console.set("disk", store.disk_stats())
        # The kb/ namespace is invisible to the store's own entry walk
        # (it is not a content-addressed kind); report it alongside.
        bank = kb_module.KnowledgeBase(store.kb_dir)
        kb_stats = bank.stats()
        console.result(bank.render_stats())
        console.set("kb", kb_stats)
    elif args.action == "clear":
        removed = store.clear()
        console.result(
            f"cleared {removed['entries']} entries "
            f"({removed['bytes'] / 1e6:.2f} MB) from {store.root}"
        )
        console.set("removed", removed)
    else:  # gc
        report = store.gc(max_bytes=args.max_bytes)
        console.result(
            f"gc {store.root}: removed {report['tmp_removed']} tmp files, "
            f"{report['corrupt_removed']} corrupt entries, evicted "
            f"{report['evicted']} entries"
        )
        console.set("report", report)
        if getattr(args, "kb", False):
            bank = kb_module.KnowledgeBase(store.kb_dir)
            healed = bank.heal()
            compacted = bank.compact()
            console.result(
                f"kb gc: removed {healed['corrupt_removed']} corrupt "
                f"entries, compacted {compacted['compacted']} entries "
                f"into {compacted['segments']} segment(s)"
            )
            console.set("kb", {"healed": healed, "compacted": compacted})
    return 0


def _cmd_kb(args: argparse.Namespace, console: Console) -> int:
    from .knowledge import kb as kb_module

    cache_dir = args.cache_dir or os.environ.get(
        "REPRO_CACHE_DIR", ""
    ).strip()
    if not cache_dir:
        console.error(
            "no store directory: pass --cache-dir or set REPRO_CACHE_DIR"
        )
        return 2
    store = artifact_store.ArtifactStore(cache_dir)
    bank = kb_module.KnowledgeBase(store.kb_dir)
    console.set("root", str(bank.root))
    console.set("action", args.action)
    if args.action == "stats":
        console.result(bank.render_stats())
        console.set("stats", bank.stats())
        return 0
    if args.action in ("export", "import"):
        if not args.path:
            console.error(f"kb {args.action} requires a PATH argument")
            return 2
        if args.action == "export":
            count = bank.export_entries(args.path)
            console.result(f"exported {count} entries to {args.path}")
            console.set("count", count)
        else:
            try:
                report = bank.import_entries(args.path)
            except FileNotFoundError as err:
                console.error(str(err))
                return 1
            console.result(
                f"imported {report['imported']} new entries from "
                f"{args.path} ({report['skipped']} already present "
                "or invalid)"
            )
            console.set("report", report)
        console.set("path", args.path)
        return 0
    # prune
    report = bank.prune(
        min_score=args.min_score,
        max_entries=args.max_entries,
        task=args.task,
    )
    console.result(
        f"pruned {report['evicted']} entries; {report['kept']} remain"
    )
    console.set("report", report)
    return 0


def _cmd_trace(args: argparse.Namespace, console: Console) -> int:
    rows = obs.read_trace(args.path)
    summary = obs.rollup(rows)
    console.result(obs.render_trace(summary, top=args.top))
    console.set("path", args.path)
    console.set("rollup", summary)
    if summary["spans"] < args.min_spans:
        console.error(
            f"trace has {summary['spans']} spans, "
            f"fewer than --min-spans {args.min_spans}"
        )
        return 1
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "adapt": _cmd_adapt,
    "experiment": _cmd_experiment,
    "merge-shards": _cmd_merge_shards,
    "conflict": _cmd_conflict,
    "perf": _cmd_perf,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    "kb": _cmd_kb,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    console = Console.from_args(args)
    np.set_printoptions(precision=3, suppress=True)
    # Explicit cache flags override the environment; without them the
    # store resolves lazily from REPRO_CACHE_DIR / REPRO_NO_CACHE.
    if getattr(args, "no_cache", False):
        artifact_store.configure(no_cache=True)
    elif getattr(args, "cache_dir", None) and args.command not in (
        "cache", "kb"
    ):
        artifact_store.configure(cache_dir=args.cache_dir)
    # Knowledge-base opt-in/out.  Only the adaptation commands carry the
    # process-wide toggle: on perf, --kb selects the KB benchmark (which
    # manages its own bank), and on cache gc it scopes maintenance.
    if args.command in ("adapt", "experiment", "serve"):
        from .knowledge import kb as kb_module

        if getattr(args, "no_kb", False):
            kb_module.configure(False)
        elif getattr(args, "kb", False):
            kb_module.configure(True)
    if hasattr(args, "trace"):
        trace_path = obs.resolve_trace_path(args.trace)
        if (
            not trace_path
            and getattr(args, "shard", None)
            and getattr(args, "grid_dir", None)
        ):
            # Sharded runs trace by default so merge-shards can stitch
            # one cross-shard trace without per-shard --trace flags.
            from .shard import ShardSpec

            try:
                spec = ShardSpec.parse(args.shard)
            except ValueError:
                spec = None  # the handler reports the bad spec
            if spec is not None:
                trace_path = os.path.join(
                    args.grid_dir, "traces", f"{spec.label}.jsonl"
                )
                os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        if trace_path:
            obs.configure(trace_path)
    try:
        handler = _COMMANDS[args.command]
        with obs.span(f"cli.{args.command}"):
            return handler(args, console)
    finally:
        # One stats line per CLI invocation, covering worker traffic too
        # (store.* counters merge home with the pool's perf snapshots).
        store = artifact_store.active()
        if store is not None:
            store.log_session()
        written = obs.finish()
        if written is not None:
            console.set("trace", str(written))
            console.info(f"trace written to {written}")
        console.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
