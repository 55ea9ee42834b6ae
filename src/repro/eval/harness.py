"""Evaluation harness: datasets, splits, and method adaptation helpers.

Everything an experiment needs to go from a dataset id to scored
methods: cached dataset splits, single-patch few-shot adaptation for
base models (the Mistral / TableLLaMA baselines), and a uniform
``evaluate`` over anything with a ``predict`` method.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .. import obs
from ..core.config import KnowTransConfig, SKCConfig
from ..core.knowtrans import AdaptedModel
from ..core.skc.finetune import few_shot_finetune
from ..core.skc.fusion import attach_fusion
from ..data import generators
from ..data.augment import AugmentConfig
from ..data.schema import Dataset, Example
from ..data.splits import DatasetSplits, split_dataset
from ..knowledge.seed import seed_knowledge
from ..tasks import metrics
from ..tasks.base import get_task
from ..tinylm.model import ScoringLM

__all__ = [
    "load_splits",
    "adapt_single",
    "evaluate_method",
    "clear_split_cache",
]

_SPLITS: Dict[Tuple[str, int, int, int, float, str], DatasetSplits] = {}


def load_splits(
    dataset_id: str,
    count: Optional[int] = None,
    seed: int = 0,
    few_shot: int = 20,
    scale: float = 1.0,
    augment: Optional["AugmentConfig"] = None,
) -> DatasetSplits:
    """Generate and split a downstream dataset (memoised).

    ``augment`` optionally applies the entity-augmentation pass
    (:mod:`repro.data.augment`) before splitting; its canonical
    ``describe()`` string participates in the memo key so augmented and
    unaugmented splits never collide.
    """
    augment_key = augment.describe() if augment is not None else ""
    key = (dataset_id, count or -1, seed, few_shot, scale, augment_key)
    if key not in _SPLITS:
        dataset = generators.build(
            dataset_id, count=count, seed=seed, scale=scale, augment=augment
        )
        _SPLITS[key] = split_dataset(dataset, few_shot=few_shot, seed=seed)
    return _SPLITS[key]


def clear_split_cache() -> None:
    _SPLITS.clear()


def adapt_single(
    base_model: ScoringLM,
    few_shot: Dataset,
    config: Optional[SKCConfig] = None,
) -> AdaptedModel:
    """Plain few-shot LoRA fine-tuning of any model (no SKC, no AKB).

    This is the adaptation recipe behind the Mistral, TableLLaMA and
    Jellyfish baselines of Table II: one fresh patch, seed knowledge.
    """
    config = config or KnowTransConfig.fast().skc
    task = get_task(few_shot.task)
    knowledge = seed_knowledge(few_shot.task)
    model, __fusion = attach_fusion(
        base_model, [], config, strategy="single", name=f"single-{few_shot.name}"
    )
    few_shot_finetune(model, few_shot, config, knowledge)
    return AdaptedModel(
        model=model, task=task, knowledge=knowledge, dataset=few_shot
    )


def evaluate_method(method, examples: Sequence[Example], task: str) -> float:
    """Score any object exposing ``predict(example) -> str``.

    This is the canonical scoring entry point — the experiments and
    the CLI both route through it.  Methods that also expose
    ``predict_batch(examples) -> List[str]`` (adapted models, ICL
    baselines) are scored through the batched inference engine; plain
    per-example predictors still work.
    The actual metric dispatch is one shared call path:
    :func:`repro.tasks.metrics.score_predictions`.
    """
    with obs.span("harness.evaluate", task=task, examples=len(examples)):
        golds = [ex.answer for ex in examples]
        if hasattr(method, "predict_batch"):
            preds = list(method.predict_batch(examples))
        else:
            preds = [method.predict(ex) for ex in examples]
        return metrics.score_predictions(task, golds, preds, examples)
