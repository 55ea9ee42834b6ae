"""SKC stage 1 — upstream knowledge patch extraction (Alg. 1 lines 1-6).

For every upstream dataset, a fresh LoRA module is fine-tuned *on the
base model* (cross-model low-rank parameterisation, paper Eq. 2-3): the
upstream DP-LLM has already absorbed the upstream data, so further
fine-tuning it would extract nothing, while the analogous base model
shares architecture and pretraining and therefore yields patches that
transfer onto the upstream model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ... import obs
from ... import store as artifact_store
from ...data.schema import Dataset
from ...knowledge.rules import Knowledge
from ...knowledge.seed import ORACLES
from ...runtime import WorkerPool, resolve_shared, share
from ...tasks.base import get_task
from ...tinylm.lora import LoRAPatch
from ...tinylm.model import ScoringLM
from ...tinylm.trainer import Trainer, TrainingExample
from ..config import SKCConfig

__all__ = [
    "dataset_training_examples",
    "patch_store_key",
    "extract_patch",
    "extract_knowledge_patches",
]


def dataset_training_examples(
    dataset: Dataset, knowledge: Optional[Knowledge] = None
) -> List[TrainingExample]:
    """Convert a dataset into supervised instances for Eq. 3 training.

    Upstream datasets train with their oracle knowledge in the prompt —
    the instruction-tuning convention that grounds the canonical marker
    vocabulary in the model.
    """
    if knowledge is None:
        knowledge = ORACLES.get("up/" + dataset.name, Knowledge.empty())
    task = get_task(dataset.task)
    return [
        task.training_example(example, knowledge, dataset)
        for example in dataset.examples
    ]


def patch_store_key(
    base_model: ScoringLM,
    dataset: Dataset,
    config: SKCConfig,
    knowledge: Knowledge,
) -> str:
    """Content address of one extracted patch (full Eq. 3 provenance)."""
    return artifact_store.artifact_key(
        "patch",
        {
            "base": artifact_store.model_fingerprint(base_model),
            "dataset": dataset,
            "config": config,
            "knowledge": knowledge,
        },
    )


def extract_patch(
    base_model: ScoringLM,
    dataset: Dataset,
    config: SKCConfig,
    knowledge: Optional[Knowledge] = None,
) -> LoRAPatch:
    """Train one isolated knowledge patch for ``dataset`` on the base model.

    With an active artifact store the trained ``(B, A)`` arrays persist
    under the full provenance (base weights, dataset content, config,
    oracle knowledge), so stage-1 extraction is skipped entirely on a
    warm run — a store hit rebuilds the patch and loads the arrays.
    """
    if knowledge is None:
        knowledge = ORACLES.get("up/" + dataset.name, Knowledge.empty())
    with obs.span(
        "skc.extract_patch", dataset=dataset.name, task=dataset.task
    ):
        patch = LoRAPatch(
            name=f"{dataset.task}-{dataset.name}",
            target_shapes=base_model.config.target_shapes(),
            rank=config.lora_rank,
            alpha=config.lora_alpha,
            seed=config.seed,
        )
        store = artifact_store.active()
        store_key = None
        if store is not None:
            store_key = patch_store_key(
                base_model, dataset, config, knowledge
            )
            cached = store.get("patch", store_key)
            if cached is not None:
                try:
                    patch.load_state_dict(cached)
                    return patch
                except Exception:
                    # structurally unexpected entry — retrain and rewrite
                    obs.counter("store.repair", kind="patch")
        # Work on a clone so the caller's base model never carries state.
        worker = base_model.clone()
        worker.attach(patch)
        trainer = Trainer(
            worker, config.patch_train_config(), train_base=False
        )
        trainer.fit(
            dataset_training_examples(dataset, knowledge), purpose="patch"
        )
        worker.detach()
        if store_key is not None:
            store.put("patch", store_key, patch.state_dict())
        obs.counter("skc.patches_trained")
        return patch


def _patch_task(args) -> LoRAPatch:
    """Worker-pool task wrapping :func:`extract_patch`.

    Patch extraction is a pure function of (base model, dataset,
    config): the LoRA init and the trainer's shuffling both derive from
    seeds in the arguments, so a patch trained in a worker process is
    bit-identical to one trained inline.  The base model arrives as a
    fork-inherited :class:`~repro.runtime.SharedRef` — only the dataset
    and config ever cross the IPC boundary.
    """
    base_model, dataset, config = args
    return extract_patch(resolve_shared(base_model), dataset, config)


def extract_knowledge_patches(
    base_model: ScoringLM,
    upstream_datasets: Sequence[Dataset],
    config: Optional[SKCConfig] = None,
    jobs: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
) -> List[LoRAPatch]:
    """Alg. 1 stage 1: one patch per upstream dataset, mutually isolated.

    The patches are independent by construction (each trains a fresh
    LoRA on a clone of the base model), so extraction fans out over a
    :class:`~repro.runtime.WorkerPool` — ``jobs``/``REPRO_JOBS``
    controls the width, ``pool`` overrides it, and ``jobs=1`` is the
    historical serial loop.
    """
    config = config or SKCConfig()
    pool = pool if pool is not None else WorkerPool(jobs)
    base_ref = share(base_model)
    return pool.map(
        _patch_task,
        [(base_ref, dataset, config) for dataset in upstream_datasets],
    )
