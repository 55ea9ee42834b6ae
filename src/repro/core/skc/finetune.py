"""SKC stage 3 — few-shot fine-tuning (Alg. 1 lines 11-14, Eq. 5).

The backbone stays frozen; only the fused knowledge patches and their
interpolation weights λ receive gradients.  Prompts carry the task's
seed knowledge — AKB's searched knowledge arrives later, at inference.
"""

from __future__ import annotations

from typing import Optional

from ... import obs
from ...data.schema import Dataset
from ...knowledge.rules import Knowledge
from ...knowledge.seed import seed_knowledge
from ...tasks.base import get_task
from ...tinylm.model import ScoringLM
from ...tinylm.trainer import Trainer, TrainReport
from ..config import SKCConfig

__all__ = ["few_shot_finetune"]


def few_shot_finetune(
    model: ScoringLM,
    few_shot: Dataset,
    config: SKCConfig,
    knowledge: Optional[Knowledge] = None,
    purpose: str = "finetune",
) -> TrainReport:
    """Fine-tune the attached adapter on the few-shot downstream data.

    The backbone stays frozen and the fusion speaks the rank-space
    protocol, so the trainer runs its rank-space engine.  ``purpose``
    tags the ``trainer.fit`` span: ``"crossfit"`` for an AKB shadow.
    """
    if model.adapter is None:
        raise ValueError("attach a fusion adapter before few-shot fine-tuning")
    if knowledge is None:
        knowledge = seed_knowledge(few_shot.task)
    with obs.span(
        "skc.finetune",
        dataset=few_shot.name,
        task=few_shot.task,
        examples=len(few_shot.examples),
    ):
        task = get_task(few_shot.task)
        examples = [
            task.training_example(example, knowledge, few_shot)
            for example in few_shot.examples
        ]
        trainer = Trainer(
            model,
            config.finetune_train_config(),
            train_base=False,
        )
        return trainer.fit(examples, purpose=purpose)
