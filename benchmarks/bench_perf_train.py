"""Perf gate: the rank-space frozen-backbone fit must beat dense ≥ 3×.

Times an SKC stage-3 workload — a 12-patch ``PatchFusion`` plus fresh
shared patch fine-tuned on a few-shot split with the paper's stage-3
hyperparameters — through two training engines:

* dense: the test-side reference trainer (``tests/reference.py``
  ``DenseTrainer``), which materialises effective weights on every
  step and routes adapter gradients through dense ``(out, in)``
  matrices;
* rank-space: production ``few_shot_finetune``, whose trainer caches
  the frozen projections once per dataset (``FrozenActivations``) and
  keeps every step's adapter math in rank space
  (``ScoringLM.rank_loss_and_gradients``).

Results are written to ``BENCH_train.json`` at the repo root and
appended to ``benchmarks/results/perf_trajectory.jsonl`` via the shared
:class:`repro.perf.Gate` protocol so the training-path trajectory is
tracked across commits alongside the other gates'.

CI target::

    REPRO_BENCH_PRESET=quick python -m pytest benchmarks/bench_perf_train.py

The assertion fails if the rank-space fit is less than 3× faster, if
any per-step loss drifts past rtol 1e-9, if the downstream test metric
or any argmax prediction differs from the dense path, or if the fit
materialised even one dense effective weight.
"""

import pathlib
import sys
from typing import Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))  # for tests.reference

from repro.perf import PERF, Gate, _best_of  # noqa: E402
from tests.reference import DenseTrainer  # noqa: E402

MIN_SPEEDUP = 3.0
LOSS_RTOL = 1e-9


def run_train_benchmark(
    dataset_id: str = "em/abt_buy",
    count: int = 160,
    seed: int = 0,
    repeats: int = 3,
    n_patches: int = 12,
) -> Dict:
    """Time a frozen-backbone SKC stage-3 fit: dense vs rank-space.

    Both arms run the identical fit from the identical init; the rank
    arm is timed with the perf registry captured, so the gate can
    assert the fit recorded zero ``model.weight_materializations``.
    Parity is reported, not assumed: per-step losses, final λ vectors,
    downstream test metric and argmax predictions are compared across
    arms — the speedup must come from associating the same math
    differently, never from doing different math.
    """
    from repro.core.akb.evaluation import task_metric
    from repro.core.config import SKCConfig
    from repro.core.skc.finetune import few_shot_finetune
    from repro.core.skc.fusion import attach_fusion
    from repro.data import generators
    from repro.data.splits import split_dataset
    from repro.knowledge.seed import seed_knowledge
    from repro.tasks.base import get_task
    from repro.tinylm.linalg import rng_for
    from repro.tinylm.lora import LoRAPatch
    from repro.tinylm.model import ModelConfig, ScoringLM

    dataset = generators.build(dataset_id, count=count, seed=seed)
    splits = split_dataset(dataset, few_shot=20, seed=seed)
    few_shot = splits.few_shot
    test = list(splits.test.examples)
    task = get_task(dataset.task)
    knowledge = seed_knowledge(dataset.task)
    config = SKCConfig(seed=seed)

    # Fit cost is independent of the backbone's weight values, so an
    # untrained upstream analogue measures the same hot path without
    # paying for pretraining; the upstream patches get seeded non-zero
    # ``A`` factors so they contribute like trained knowledge patches.
    upstream = ScoringLM(ModelConfig(name="bench-train", seed=seed))
    shapes = upstream.config.target_shapes()
    patches = []
    for i in range(n_patches):
        patch = LoRAPatch(
            f"bench-up{i:02d}",
            shapes,
            rank=config.lora_rank,
            alpha=config.lora_alpha,
            seed=seed + i,
        )
        rng = rng_for(seed, "bench-train", patch.name)
        for name in patch.A:
            patch.A[name] = rng.normal(0.0, 0.02, patch.A[name].shape)
        patches.append(patch)
    examples = [
        task.training_example(example, knowledge, few_shot)
        for example in few_shot.examples
    ]

    def run_dense():
        model, fusion = attach_fusion(upstream, patches, config, name="bench")
        report = DenseTrainer(
            model, config.finetune_train_config(), train_base=False
        ).fit(examples)
        return model, fusion, report

    def run_rank():
        model, fusion = attach_fusion(upstream, patches, config, name="bench")
        report = few_shot_finetune(model, few_shot, config, knowledge)
        return model, fusion, report

    def evaluate(model):
        prompts = [task.prompt(ex, knowledge) for ex in test]
        pools = [task.candidates(ex, knowledge, dataset) for ex in test]
        winners = model.predict_batch(prompts, pools)
        predictions = [pools[i][j] for i, j in enumerate(winners)]
        golds = [ex.answer for ex in test]
        return task_metric(task, golds, predictions, test), predictions

    run_dense()  # untimed warmup: featurization caches for both arms

    dense_seconds, dense_out = _best_of(repeats, run_dense)
    PERF.reset()
    rank_seconds, rank_out = _best_of(repeats, run_rank)
    counters = PERF.snapshot()

    dense_model, dense_fusion, dense_report = dense_out
    rank_model, rank_fusion, rank_report = rank_out
    dense_losses = dense_report.step_losses
    rank_losses = rank_report.step_losses
    loss_err = max(
        (
            abs(a - b) / max(abs(a), 1e-30)
            for a, b in zip(dense_losses, rank_losses)
        ),
        default=float("inf") if len(dense_losses) != len(rank_losses) else 0.0,
    )
    lambda_diff = float(
        max(abs(dense_fusion.lambdas - rank_fusion.lambdas), default=0.0)
    )

    dense_metric, dense_preds = evaluate(dense_model)
    rank_metric, rank_preds = evaluate(rank_model)

    steps = len(rank_losses)
    speedup = dense_seconds / rank_seconds if rank_seconds else 0.0
    return {
        "workload": dataset_id,
        "few_shot_examples": len(few_shot.examples),
        "test_examples": len(test),
        "patches": n_patches,
        "epochs": config.finetune_epochs,
        "steps": steps,
        "repeats": repeats,
        "dense": {
            "seconds": dense_seconds,
            "steps_per_sec": steps / dense_seconds if dense_seconds else 0.0,
        },
        "rank": {
            "seconds": rank_seconds,
            "steps_per_sec": steps / rank_seconds if rank_seconds else 0.0,
            "engaged": bool(rank_report.rank_space),
        },
        "speedup": speedup,
        "max_step_loss_rel_err": loss_err,
        "losses_match": loss_err <= LOSS_RTOL,
        "lambda_max_abs_diff": lambda_diff,
        "metrics": {"dense": dense_metric, "rank": rank_metric},
        "metrics_identical": dense_metric == rank_metric,
        "predictions_identical": dense_preds == rank_preds,
        "weight_materializations": int(
            counters["counters"].get("model.weight_materializations", 0)
        ),
        "rank_space_steps": int(
            counters["counters"].get("train.rank_space_steps", 0)
        ),
        "perf": counters,
    }


def render_train_benchmark(result: Dict) -> str:
    """Format :func:`run_train_benchmark` output for the terminal."""
    lines = [
        f"rank-space training benchmark — {result['workload']} "
        f"({result['patches']} fused patches, {result['steps']} steps, "
        f"best of {result['repeats']})",
        f"  dense fit:    {result['dense']['seconds']:.3f}s "
        f"({result['dense']['steps_per_sec']:.0f} steps/s)",
        f"  rank-space:   {result['rank']['seconds']:.3f}s "
        f"({result['rank']['steps_per_sec']:.0f} steps/s, "
        f"engaged={result['rank']['engaged']})",
        f"  speedup:      {result['speedup']:.2f}x",
        f"  step losses:  max rel err {result['max_step_loss_rel_err']:.2e} "
        f"(match={result['losses_match']})",
        f"  final λ:      max abs diff {result['lambda_max_abs_diff']:.2e}",
        f"  test metric:  dense {result['metrics']['dense']:.4f} / "
        f"rank {result['metrics']['rank']:.4f} "
        f"(identical={result['metrics_identical']}, predictions "
        f"identical={result['predictions_identical']})",
        f"  materializations during rank fit: "
        f"{result['weight_materializations']} "
        f"(rank-space steps: {result['rank_space_steps']})",
    ]
    return "\n".join(lines)


def test_rank_space_training_speedup(record_result):
    gate = Gate("train", {}, min_speedup=MIN_SPEEDUP, root=REPO_ROOT)
    count = 160 if gate.preset == "quick" else 400
    result = run_train_benchmark(seed=0, count=count)
    gate.result.update(result)
    gate.write(
        dense_seconds=result["dense"]["seconds"],
        rank_seconds=result["rank"]["seconds"],
        speedup=result["speedup"],
        steps=result["steps"],
        patches=result["patches"],
    )
    record_result("bench_perf_train", render_train_benchmark(gate.result))

    gate.require(
        result["rank"]["engaged"],
        "trainer did not auto-select the rank-space engine for a "
        "frozen-backbone fusion fit",
    )
    gate.require(
        result["weight_materializations"] == 0,
        f"rank-space fit materialised "
        f"{result['weight_materializations']} dense effective weights",
    )
    gate.require(
        result["rank_space_steps"] == result["steps"] * result["repeats"],
        "not every optimisation step of the rank arm ran in rank space",
    )
    gate.require(
        result["losses_match"],
        f"per-step losses drifted: max rel err "
        f"{result['max_step_loss_rel_err']:.3e} > {LOSS_RTOL}",
    )
    gate.require(
        result["metrics_identical"],
        f"downstream task metric diverged: {result['metrics']}",
    )
    gate.require(
        result["predictions_identical"],
        "argmax test predictions diverged between dense and rank-space fits",
    )
    gate.require_speedup()
    gate.check()
