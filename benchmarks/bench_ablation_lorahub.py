"""Extension ablation: SKC's gradient-learned fusion vs LoRAHub search.

The paper's Related Work positions SKC against LoRAHub's black-box
coefficient search over frozen LoRA modules. Expected shape: SKC
(adaptive λ + trainable patches + fresh patch) beats the search-only
composition on average, because the few-shot gradient signal can also
move the patches themselves.
"""

from conftest import run_once

from repro.core.knowtrans import KnowTrans
from repro.core.skc.lorahub import LoRAHubConfig, lorahub_search
from repro.eval.harness import evaluate_method
from repro.knowledge.seed import seed_knowledge
from repro.tasks.base import get_task

DATASETS = ("ed/beer", "em/abt_buy", "ed/rayyan")


def test_lorahub_ablation(benchmark, ctx, record_result):
    bundle = ctx.bundle()

    def run():
        rows = []
        for dataset_id in DATASETS:
            splits = ctx.splits(dataset_id)
            task = get_task(splits.task)
            model, __, __ = lorahub_search(
                bundle.upstream_model,
                bundle.patches,
                splits.few_shot,
                LoRAHubConfig(iterations=30),
                ctx.config.skc,
            )
            lorahub = task.evaluate(
                model, splits.test.examples, seed_knowledge(splits.task),
                splits.test,
            )
            skc = evaluate_method(
                KnowTrans(bundle, config=ctx.config, use_akb=False).fit(
                    splits
                ),
                splits.test.examples,
                splits.task,
            )
            rows.append((dataset_id, lorahub, skc))
        return rows

    rows = run_once(benchmark, run)
    lines = ["LoRAHub black-box search vs SKC (no AKB), test scores"]
    for dataset_id, lorahub, skc in rows:
        lines.append(f"  {dataset_id:18s} lorahub={lorahub:6.2f} skc={skc:6.2f}")
    record_result("ablation_lorahub", "\n".join(lines))
    mean_lorahub = sum(r[1] for r in rows) / len(rows)
    mean_skc = sum(r[2] for r in rows) / len(rows)
    assert mean_skc > mean_lorahub - 2.0
