"""Experiment registry — one entry per table and figure of the paper.

Every experiment takes an :class:`ExperimentContext` (seeds, scale and
budget knobs shared across the suite) and returns a structured result
plus a rendered text block printing the same rows/series the paper
reports.  The benchmark harness under ``benchmarks/`` calls these
functions one-to-one; tests run them at the ``quick`` preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.closed import CLOSED_MODELS, make_closed_model
from ..baselines.jellyfish import UpstreamBundle, get_bundle
from ..baselines.meld import fit_meld
from ..baselines.non_llm import fit_non_llm
from ..core.akb.optimizer import search_knowledge
from ..core.config import AKBConfig, KnowTransConfig, SKCConfig
from ..core.knowtrans import KnowTrans
from ..data import generators
from ..data.splits import DatasetSplits, few_shot_slice
from ..knowledge.seed import seed_knowledge
from ..llm.icl import ICLModel
from ..llm.mockgpt import MockGPT
from ..llm.pricing import UsageMeter
from ..runtime import WorkerPool
from ..tasks.base import get_task
from ..tasks.prompts import full_prompt
from ..tinylm.registry import create_base_model
from . import harness, plots, reporting

__all__ = [
    "ExperimentContext",
    "GridSpec",
    "GRIDS",
    "assemble_grid",
    "table1_dataset_statistics",
    "table2_open_source_comparison",
    "table3_cost_analysis",
    "table4_closed_source_comparison",
    "table5_ablation",
    "table6_weight_strategies",
    "table7_upstream_statistics",
    "fig4_scalability",
    "fig5_backbones_on_datasets",
    "fig6_backbones_on_tasks",
    "fig7_refinement_rounds",
]

#: Table II / IV dataset order (paper Table I).
ALL_DATASETS: Tuple[str, ...] = tuple(generators.DOWNSTREAM_SPECS)
NOVEL_DATASET_IDS: Tuple[str, ...] = tuple(
    d for d in ALL_DATASETS if d.split("/")[0] in ("ed", "di", "sm", "em")
)
NOVEL_TASK_IDS: Tuple[str, ...] = tuple(
    d for d in ALL_DATASETS if d.split("/")[0] in ("cta", "ave", "dc")
)


@dataclass
class ExperimentContext:
    """Shared configuration and caches for one experiment run."""

    seed: int = 0
    data_scale: float = 0.6
    upstream_scale: float = 0.6
    few_shot: int = 20
    config: KnowTransConfig = field(default_factory=KnowTransConfig.fast)
    main_tier: str = "mistral-7b"
    #: Worker count for the per-dataset row loops (``None`` defers to
    #: ``REPRO_JOBS``).  The fan-out is at the dataset level only —
    #: adapters built inside a row stay serial so pools never nest.
    jobs: Optional[int] = None

    @staticmethod
    def quick() -> "ExperimentContext":
        """Small preset for tests: tiny datasets, short training."""
        return ExperimentContext(
            data_scale=0.35,
            upstream_scale=0.35,
            config=KnowTransConfig(
                skc=SKCConfig(finetune_epochs=5, patch_epochs=2),
                akb=AKBConfig(pool_size=3, iterations=1, refinements_per_iteration=1),
            ),
        )

    @staticmethod
    def paper() -> "ExperimentContext":
        """Benchmark preset used to regenerate the tables.

        Sized so the full harness regenerates every table and figure in
        well under an hour on one CPU core; the scales trade a little
        test-set resolution for tractable single-machine runs.
        """
        return ExperimentContext(
            data_scale=0.8,
            upstream_scale=0.6,
            config=KnowTransConfig(
                skc=SKCConfig(finetune_epochs=8, patch_epochs=2),
                akb=AKBConfig(pool_size=4, iterations=2, refinements_per_iteration=2),
            ),
        )

    # ------------------------------------------------------------------
    def bundle(self, tier: Optional[str] = None, with_upstream_sft: bool = True) -> UpstreamBundle:
        return get_bundle(
            tier or self.main_tier,
            seed=self.seed,
            scale=self.upstream_scale,
            skc_config=self.config.skc,
            with_upstream_sft=with_upstream_sft,
        )

    def splits(self, dataset_id: str, count: Optional[int] = None) -> DatasetSplits:
        return harness.load_splits(
            dataset_id,
            count=count,
            seed=self.seed,
            few_shot=self.few_shot,
            scale=self.data_scale,
        )

    def knowtrans(self, **kwargs) -> KnowTrans:
        # Inner adapters run serial (jobs=1): the harness parallelism
        # lives at the per-dataset row level, and nesting process pools
        # would only oversubscribe the cores the outer pool already owns.
        kwargs.setdefault("jobs", 1)
        return KnowTrans(self.bundle(), config=self.config, **kwargs)

    def pool(self) -> WorkerPool:
        """The per-dataset row pool (serial unless ``jobs``/``REPRO_JOBS``)."""
        return WorkerPool(self.jobs)

    def prewarm(self, tiers: Sequence[Tuple[str, bool]] = (("mistral-7b", True),)) -> None:
        """Build the expensive shared state before fanning rows out.

        Bundles, base models and SKC patches are memoised at module
        level; building them in the parent means forked workers inherit
        them instead of each row re-running pretraining + upstream SFT
        + patch extraction.
        """
        for tier, with_sft in tiers:
            bundle = self.bundle(tier, with_upstream_sft=with_sft)
            bundle.ensure_patches(jobs=self.jobs)


# ---------------------------------------------------------------------------
# The shardable experiment grid
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GridSpec:
    """One row-per-dataset experiment, described as a shardable grid.

    The table/figure harness and the shard coordinator share this one
    description: ``row_fn`` computes a single ``(ctx, dataset_id)`` cell
    (it is the exact worker-pool task the unsharded run maps over), and
    :func:`assemble_grid` turns any complete set of cell rows — however
    they were computed — into the final report.  Because both paths run
    the identical row function and the identical assembly, a merged
    N-shard run is bit-identical to a single-process run by
    construction.
    """

    name: str
    title: str
    columns: Tuple[str, ...]
    dataset_ids: Tuple[str, ...]
    row_fn: Callable[[Tuple["ExperimentContext", str]], Dict]
    prewarm: Callable[["ExperimentContext"], None]


def _finish_rows(spec: GridSpec, rows: Sequence[Dict]) -> Dict:
    """Append the averages row and render — the single assembly path."""
    rows = list(rows)
    columns = list(spec.columns)
    rows.append(reporting.averages_row(rows, columns))
    text = reporting.render_table(spec.title, columns, rows)
    return {"rows": rows, "text": text}


def assemble_grid(name: str, rows_by_dataset: Dict[str, Dict]) -> Dict:
    """Build an experiment's full report from per-cell rows.

    ``rows_by_dataset`` maps dataset id → the row dict its grid cell
    produced (typically read back from per-shard result files).  Rows
    are reassembled in the grid's canonical dataset order regardless of
    which shard computed them or when, so the output is identical to an
    unsharded run.  Raises ``ValueError`` when cells are missing — a
    merge over an incomplete grid must fail loudly, not average fewer
    datasets.
    """
    spec = GRIDS[name]
    missing = [d for d in spec.dataset_ids if d not in rows_by_dataset]
    if missing:
        raise ValueError(
            f"grid {name!r} is missing {len(missing)} cell(s): "
            + ", ".join(missing)
        )
    return _finish_rows(spec, [rows_by_dataset[d] for d in spec.dataset_ids])


def _run_grid(
    name: str, ctx: "ExperimentContext", dataset_ids: Sequence[str]
) -> Dict:
    """Unsharded grid execution: prewarm, map the row fn, assemble."""
    spec = GRIDS[name]
    spec.prewarm(ctx)
    rows = ctx.pool().map(
        spec.row_fn, [(ctx, dataset_id) for dataset_id in dataset_ids]
    )
    return _finish_rows(spec, rows)


def _default_prewarm(ctx: "ExperimentContext") -> None:
    ctx.prewarm()


# ---------------------------------------------------------------------------
# Table I / Table VII — dataset statistics
# ---------------------------------------------------------------------------
def table1_dataset_statistics(ctx: ExperimentContext) -> Dict:
    """Paper Table I: per-dataset split sizes."""
    rows = []
    for dataset_id in ALL_DATASETS:
        splits = ctx.splits(dataset_id)
        rows.append(
            {
                "dataset": dataset_id,
                "task": splits.task,
                "train": len(splits.train.examples),
                "few_shot": len(splits.few_shot.examples),
                "test": len(splits.test.examples),
            }
        )
    text = reporting.render_table(
        "Table I: downstream dataset statistics",
        ["task", "train", "few_shot", "test"],
        rows,
    )
    return {"rows": rows, "text": text}


def table7_upstream_statistics(ctx: ExperimentContext) -> Dict:
    """Paper Table VII: upstream dataset statistics."""
    rows = []
    for dataset in ctx.bundle().upstream_datasets:
        positives = dataset.positive_count()
        rows.append(
            {
                "dataset": dataset.name,
                "task": dataset.task,
                "samples": len(dataset.examples),
                "positives": positives if dataset.label_set else "n/a",
            }
        )
    text = reporting.render_table(
        "Table VII: upstream dataset statistics",
        ["task", "samples", "positives"],
        rows,
    )
    return {"rows": rows, "text": text}


# ---------------------------------------------------------------------------
# Table II — 7B open-source DP-LLMs and non-LLM methods
# ---------------------------------------------------------------------------
def _table2_row(args) -> Dict:
    """One Table II dataset row (worker-pool task)."""
    ctx, dataset_id = args
    bundle = ctx.bundle()
    mistral_base = create_base_model("mistral-7b", seed=ctx.seed)
    tablellama_base = create_base_model("tablellama", seed=ctx.seed)
    splits = ctx.splits(dataset_id)
    task = splits.task
    test = splits.test.examples
    few = splits.few_shot
    scores = {"dataset": dataset_id}
    scores["non_llm"] = fit_non_llm(task, few.examples).evaluate(test)
    scores["mistral"] = harness.evaluate_method(
        harness.adapt_single(mistral_base, few, ctx.config.skc), test, task
    )
    scores["tablellama"] = harness.evaluate_method(
        harness.adapt_single(tablellama_base, few, ctx.config.skc), test, task
    )
    scores["meld"] = fit_meld(bundle, splits, ctx.config.skc).evaluate(test)
    scores["jellyfish"] = harness.evaluate_method(
        harness.adapt_single(bundle.upstream_model, few, ctx.config.skc),
        test,
        task,
    )
    icl = ICLModel(
        bundle.upstream_model,
        get_task(task),
        few.examples[:10],
        seed_knowledge(task),
        dataset=few,
    )
    scores["jellyfish_icl"] = harness.evaluate_method(icl, test, task)
    scores["knowtrans"] = harness.evaluate_method(
        ctx.knowtrans().fit(splits), test, task
    )
    return scores


def _table2_prewarm(ctx: ExperimentContext) -> None:
    ctx.prewarm()
    create_base_model("mistral-7b", seed=ctx.seed)
    create_base_model("tablellama", seed=ctx.seed)


def table2_open_source_comparison(
    ctx: ExperimentContext, dataset_ids: Sequence[str] = ALL_DATASETS
) -> Dict:
    """Paper Table II: KnowTrans vs open-source DP-LLMs and non-LLMs."""
    return _run_grid("table2", ctx, dataset_ids)


# ---------------------------------------------------------------------------
# Table III — token and cost accounting
# ---------------------------------------------------------------------------
def table3_cost_analysis(
    ctx: ExperimentContext, dataset_id: str = "em/walmart_amazon",
    sample: int = 24,
) -> Dict:
    """Paper Table III: per-instance tokens and USD cost."""
    splits = ctx.splits(dataset_id)
    examples = splits.test.examples[:sample]
    rows = []
    for name in ("gpt-3.5", "gpt-4o", "gpt-4"):
        model = make_closed_model(
            name, splits.task, splits.few_shot.examples, splits.few_shot,
            seed=ctx.seed,
        )
        for example in examples:
            model.predict(example)
        summary = model.meter.summary()
        summary["dataset"] = name
        rows.append(summary)
    adapted = ctx.knowtrans().fit(splits)
    meter = UsageMeter("knowtrans")
    for example in examples:
        prompt = adapted.task.prompt(example, adapted.knowledge)
        meter.log_call(full_prompt(prompt, None), adapted.predict(example))
    summary = meter.summary()
    summary["dataset"] = "knowtrans"
    rows.append(summary)
    display_rows = [
        dict(row, cost_per_instance=f"${row['cost_per_instance']:.6f}")
        for row in rows
    ]
    text = reporting.render_table(
        "Table III: per-instance tokens and cost",
        ["input_tokens", "output_tokens", "cost_per_instance"],
        display_rows,
        key_column="dataset",
    )
    return {"rows": rows, "text": text}


# ---------------------------------------------------------------------------
# Table IV — closed-source LLMs vs KnowTrans tiers
# ---------------------------------------------------------------------------
_TIER_MAP = {
    "knowtrans_7b": "mistral-7b",
    "knowtrans_8b": "llama-8b",
    "knowtrans_13b": "llama-13b",
}


def _table4_row(args) -> Dict:
    """One Table IV dataset row (worker-pool task)."""
    ctx, dataset_id = args
    splits = ctx.splits(dataset_id)
    test = splits.test.examples
    scores = {"dataset": dataset_id}
    for name in CLOSED_MODELS:
        closed = make_closed_model(
            name, splits.task, splits.few_shot.examples, splits.few_shot,
            seed=ctx.seed,
        )
        scores[name.replace("-", "_").replace(".", "_")] = closed.evaluate(test)
    for label, tier in _TIER_MAP.items():
        adapter = KnowTrans(ctx.bundle(tier), config=ctx.config, jobs=1)
        scores[label] = harness.evaluate_method(
            adapter.fit(splits), test, splits.task
        )
    return scores


def _table4_prewarm(ctx: ExperimentContext) -> None:
    ctx.prewarm([(tier, True) for tier in _TIER_MAP.values()])


def table4_closed_source_comparison(
    ctx: ExperimentContext, dataset_ids: Sequence[str] = ALL_DATASETS
) -> Dict:
    """Paper Table IV: GPT baselines vs KnowTrans-7B/8B/13B."""
    return _run_grid("table4", ctx, dataset_ids)


# ---------------------------------------------------------------------------
# Table V — ablation
# ---------------------------------------------------------------------------
ABLATION_DATASETS: Tuple[str, ...] = (
    "di/flipkart", "di/phone", "cta/sotab", "ave/ae110k",
    "ave/oa_mine", "dc/rayyan", "dc/beer",
)


def _score_without_and_with_akb(adapted, splits) -> Tuple[float, float]:
    """Test scores of an AKB fit with seed knowledge, then with its own.

    Taking the fit as an argument lets a row drop it before fitting the
    next adapter, so a worker never holds two fits at once.
    """
    test = splits.test.examples
    return (
        harness.evaluate_method(adapted.without_akb(), test, splits.task),
        harness.evaluate_method(adapted, test, splits.task),
    )


def _table5_row(args) -> Dict:
    """One Table V dataset row (worker-pool task).

    AKB never touches the weights, so each no-AKB column is the matching
    AKB fit's adapter scored with seed knowledge: two fits fill the row.
    """
    ctx, dataset_id = args
    splits = ctx.splits(dataset_id)
    scores = {"dataset": dataset_id}
    scores["wo_skc_akb"], scores["wo_skc"] = _score_without_and_with_akb(
        ctx.knowtrans(use_skc=False).fit(splits), splits
    )
    scores["wo_akb"], scores["knowtrans"] = _score_without_and_with_akb(
        ctx.knowtrans().fit(splits), splits
    )
    return scores


def table5_ablation(
    ctx: ExperimentContext, dataset_ids: Sequence[str] = ABLATION_DATASETS
) -> Dict:
    """Paper Table V: removing SKC / AKB / both."""
    return _run_grid("table5", ctx, dataset_ids)


# ---------------------------------------------------------------------------
# Table VI — weight strategies
# ---------------------------------------------------------------------------
STRATEGY_DATASETS: Tuple[str, ...] = (
    "ed/flights", "ed/rayyan", "em/abt_buy", "ave/ae110k",
)


def _table6_row(args) -> Dict:
    """One Table VI dataset row (worker-pool task).

    The ``adaptive`` column is the full KnowTrans fit without its AKB
    knowledge — the same adaptive-fusion adapter, fine-tuned once.
    """
    ctx, dataset_id = args
    splits = ctx.splits(dataset_id)
    test = splits.test.examples
    scores = {"dataset": dataset_id}
    for strategy in ("single", "uniform"):
        adapter = ctx.knowtrans(strategy=strategy, use_akb=False)
        scores[strategy] = harness.evaluate_method(
            adapter.fit(splits), test, splits.task
        )
    scores["adaptive"], scores["knowtrans"] = _score_without_and_with_akb(
        ctx.knowtrans().fit(splits), splits
    )
    return scores


def table6_weight_strategies(
    ctx: ExperimentContext, dataset_ids: Sequence[str] = STRATEGY_DATASETS
) -> Dict:
    """Paper Table VI: single vs uniform vs adaptive vs full KnowTrans."""
    return _run_grid("table6", ctx, dataset_ids)


# ---------------------------------------------------------------------------
# Fig. 4 — scalability with labeled instance count
# ---------------------------------------------------------------------------
FIG4_DATASETS: Tuple[str, ...] = (
    "dc/rayyan", "sm/cms", "em/walmart_amazon", "ave/ae110k",
)


def fig4_scalability(
    ctx: ExperimentContext,
    dataset_ids: Sequence[str] = FIG4_DATASETS,
    instance_counts: Sequence[int] = (20, 50, 100, 200),
) -> Dict:
    """Paper Fig. 4: Jellyfish vs KnowTrans as labels grow."""
    bundle = ctx.bundle()
    needed = int(max(instance_counts) * 2.5)
    results = {}
    for dataset_id in dataset_ids:
        splits = ctx.splits(dataset_id, count=needed)
        test = splits.test.examples
        jellyfish_scores: List[float] = []
        knowtrans_scores: List[float] = []
        for count in instance_counts:
            slice_dataset = few_shot_slice(splits, count)
            slice_splits = DatasetSplits(
                train=splits.train, few_shot=slice_dataset, test=splits.test
            )
            jellyfish_scores.append(
                harness.evaluate_method(
                    harness.adapt_single(
                        bundle.upstream_model, slice_dataset, ctx.config.skc
                    ),
                    test,
                    splits.task,
                )
            )
            knowtrans_scores.append(
                harness.evaluate_method(
                    ctx.knowtrans().fit(slice_splits), test, splits.task
                )
            )
        results[dataset_id] = {
            "counts": list(instance_counts),
            "jellyfish": jellyfish_scores,
            "knowtrans": knowtrans_scores,
        }
    blocks = []
    for dataset_id, series in results.items():
        curves = {
            "jellyfish-7b": series["jellyfish"],
            "knowtrans-7b": series["knowtrans"],
        }
        blocks.append(
            reporting.render_series(
                f"Fig. 4 ({dataset_id}): score vs labeled instances",
                "instances",
                series["counts"],
                curves,
            )
            + "\n"
            + plots.line_plot(
                f"Fig. 4 ({dataset_id})", series["counts"], curves, height=10
            )
        )
    return {"series": results, "text": "\n\n".join(blocks)}


# ---------------------------------------------------------------------------
# Fig. 5 / Fig. 6 — backbone comparison
# ---------------------------------------------------------------------------
_BACKBONES = {
    "mistral_7b": ("mistral-7b", False),
    "jellyfish_7b": ("mistral-7b", True),
    "jellyfish_8b": ("llama-8b", True),
    "jellyfish_13b": ("llama-13b", True),
}


def _backbone_row(args) -> Dict:
    """One Fig. 5/6 dataset row (worker-pool task)."""
    ctx, dataset_id = args
    splits = ctx.splits(dataset_id)
    test = splits.test.examples
    scores = {"dataset": dataset_id}
    for label, (tier, sft) in _BACKBONES.items():
        bundle = ctx.bundle(tier, with_upstream_sft=sft)
        scores[label] = harness.evaluate_method(
            harness.adapt_single(
                bundle.upstream_model, splits.few_shot, ctx.config.skc
            ),
            test,
            splits.task,
        )
        adapter = KnowTrans(bundle, config=ctx.config, jobs=1)
        scores[label + "+kt"] = harness.evaluate_method(
            adapter.fit(splits), test, splits.task
        )
    return scores


_BACKBONE_COLUMNS = tuple(
    column for label in _BACKBONES for column in (label, label + "+kt")
)


def _backbone_prewarm(ctx: ExperimentContext) -> None:
    ctx.prewarm(list(_BACKBONES.values()))


def fig5_backbones_on_datasets(
    ctx: ExperimentContext, dataset_ids: Sequence[str] = NOVEL_DATASET_IDS
) -> Dict:
    """Paper Fig. 5: backbones ± KnowTrans on novel datasets."""
    return _run_grid("fig5", ctx, dataset_ids)


def fig6_backbones_on_tasks(
    ctx: ExperimentContext, dataset_ids: Sequence[str] = NOVEL_TASK_IDS
) -> Dict:
    """Paper Fig. 6: backbones ± KnowTrans on novel tasks."""
    return _run_grid("fig6", ctx, dataset_ids)


GRIDS: Dict[str, GridSpec] = {
    spec.name: spec
    for spec in (
        GridSpec(
            name="table2",
            title="Table II: open-source DP-LLMs and non-LLM methods (few-shot)",
            columns=(
                "non_llm", "mistral", "tablellama", "meld",
                "jellyfish", "jellyfish_icl", "knowtrans",
            ),
            dataset_ids=ALL_DATASETS,
            row_fn=_table2_row,
            prewarm=_table2_prewarm,
        ),
        GridSpec(
            name="table4",
            title="Table IV: closed-source LLMs vs KnowTrans tiers",
            columns=(
                "gpt_3_5", "gpt_4", "gpt_4o",
                "knowtrans_7b", "knowtrans_8b", "knowtrans_13b",
            ),
            dataset_ids=ALL_DATASETS,
            row_fn=_table4_row,
            prewarm=_table4_prewarm,
        ),
        GridSpec(
            name="table5",
            title="Table V: ablation study",
            columns=("wo_skc_akb", "wo_skc", "wo_akb", "knowtrans"),
            dataset_ids=ABLATION_DATASETS,
            row_fn=_table5_row,
            prewarm=_default_prewarm,
        ),
        GridSpec(
            name="table6",
            title="Table VI: patch weighting strategies",
            columns=("single", "uniform", "adaptive", "knowtrans"),
            dataset_ids=STRATEGY_DATASETS,
            row_fn=_table6_row,
            prewarm=_default_prewarm,
        ),
        GridSpec(
            name="fig5",
            title="Fig. 5: backbones on novel datasets (bare vs +KnowTrans)",
            columns=_BACKBONE_COLUMNS,
            dataset_ids=NOVEL_DATASET_IDS,
            row_fn=_backbone_row,
            prewarm=_backbone_prewarm,
        ),
        GridSpec(
            name="fig6",
            title="Fig. 6: backbones on novel tasks (bare vs +KnowTrans)",
            columns=_BACKBONE_COLUMNS,
            dataset_ids=NOVEL_TASK_IDS,
            row_fn=_backbone_row,
            prewarm=_backbone_prewarm,
        ),
    )
}


# ---------------------------------------------------------------------------
# Fig. 7 — refinement round analysis
# ---------------------------------------------------------------------------
def fig7_refinement_rounds(
    ctx: ExperimentContext,
    dataset_ids: Sequence[str] = ("ed/rayyan", "ave/ae110k"),
    rounds: int = 6,
) -> Dict:
    """Paper Fig. 7: eval/test score across AKB refinement rounds."""
    results = {}
    for dataset_id in dataset_ids:
        splits = ctx.splits(dataset_id)
        adapter = ctx.knowtrans(use_akb=False)
        adapted = adapter.fit(splits)
        scorer = adapter.cross_fit_scorer(splits)
        akb_config = replace(
            ctx.config.akb, iterations=rounds, patience=rounds + 1
        )
        result = search_knowledge(
            adapted.model,
            splits.few_shot,
            splits.validation.examples,
            mockgpt=MockGPT(temperature=akb_config.temperature, seed=ctx.seed),
            config=akb_config,
            initial_knowledge=seed_knowledge(splits.task),
            scorer=scorer,
        )
        task = get_task(splits.task)
        eval_curve = [round_.best_score for round_ in result.rounds]
        test_curve = [
            task.evaluate(adapted.model, splits.test.examples, knowledge, splits.test)
            for knowledge in result.trajectory
        ]
        # Pad flat if the search converged early — the paper's AVE curve
        # is exactly this plateau.
        while len(eval_curve) < rounds:
            eval_curve.append(eval_curve[-1])
            test_curve.append(test_curve[-1])
        results[dataset_id] = {"eval": eval_curve, "test": test_curve}
    blocks = []
    for dataset_id, series in results.items():
        curves = {"eval": series["eval"], "test": series["test"]}
        blocks.append(
            reporting.render_series(
                f"Fig. 7 ({dataset_id}): AKB refinement rounds",
                "round",
                list(range(1, rounds + 1)),
                curves,
            )
            + "\n"
            + plots.line_plot(
                f"Fig. 7 ({dataset_id})",
                list(range(1, rounds + 1)),
                curves,
                height=10,
            )
        )
    return {"series": results, "text": "\n\n".join(blocks)}
