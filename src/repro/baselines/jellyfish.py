"""Upstream DP-LLM construction — the "Jellyfish" pipeline.

Multi-task supervised fine-tuning over the twelve upstream datasets
(paper Table VII) inside one shared parameter space.  This is exactly
the setting that produces the paper's *knowledge distraction*: all
upstream gradients fight over the same weights, and the result carries
overlapping parameter representations for the different datasets.

:func:`get_bundle` memoises the full pipeline per
``(tier, seed, scale)`` — pretraining, upstream SFT and SKC patch
extraction are by far the most expensive steps and every experiment
shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import store as artifact_store
from ..core.config import SKCConfig
from ..core.skc.patches import dataset_training_examples, extract_knowledge_patches
from ..data.generators import upstream
from ..data.schema import Dataset
from ..tinylm.lora import LoRAPatch
from ..tinylm.model import ScoringLM
from ..tinylm.registry import _load_weights, _weight_payload, create_base_model
from ..tinylm.trainer import TrainConfig, Trainer, TrainingExample

__all__ = ["UpstreamBundle", "get_bundle", "clear_bundles", "upstream_sft"]


@dataclass
class UpstreamBundle:
    """Everything downstream adaptation needs from the upstream stage."""

    tier: str
    seed: int
    scale: float
    base_model: ScoringLM
    upstream_model: ScoringLM
    upstream_datasets: List[Dataset]
    skc_config: SKCConfig
    _patches: Optional[List[LoRAPatch]] = field(default=None, repr=False)

    @property
    def patches(self) -> List[LoRAPatch]:
        """Knowledge patches, extracted lazily on first use (Alg. 1 st. 1)."""
        return self.ensure_patches()

    def ensure_patches(self, jobs=None, pool=None) -> List[LoRAPatch]:
        """Extract the patches now, optionally fanning out over workers.

        The experiment harness calls this in the parent before
        submitting per-dataset rows to a worker pool, so the expensive
        stage-1 extraction happens exactly once (and is inherited by
        forked workers) instead of once per row.
        """
        if self._patches is None:
            self._patches = extract_knowledge_patches(
                self.base_model, self.upstream_datasets, self.skc_config,
                jobs=jobs, pool=pool,
            )
        return self._patches

    def fresh_base(self) -> ScoringLM:
        return self.base_model.clone()

    def fresh_upstream(self) -> ScoringLM:
        return self.upstream_model.clone()


def upstream_sft(
    base_model: ScoringLM,
    datasets: List[Dataset],
    epochs: int = 3,
    seed: int = 0,
) -> ScoringLM:
    """Multi-task SFT of all upstream datasets in one parameter space.

    Warm-startable: the result is a pure function of the base weights,
    the upstream data and the train config, so with an active artifact
    store the fine-tuned weights persist across runs under that full
    provenance and a repeat run loads them instead of re-training.
    """
    train_config = TrainConfig(
        learning_rate=3e-3, batch_size=8, epochs=epochs, seed=seed
    )
    model = base_model.clone()
    store = artifact_store.active()
    store_key = None
    if store is not None:
        store_key = artifact_store.artifact_key(
            "upstream_sft",
            {
                "base": artifact_store.model_fingerprint(base_model),
                "datasets": datasets,
                "train": train_config,
            },
        )
        if _load_weights(model, store.get("upstream_sft", store_key)):
            return model
    examples: List[TrainingExample] = []
    for dataset in datasets:
        examples.extend(dataset_training_examples(dataset))
    trainer = Trainer(model, train_config, train_base=True)
    trainer.fit(examples, purpose="sft")
    if store_key is not None:
        store.put("upstream_sft", store_key, _weight_payload(model))
    return model


_BUNDLES: Dict[Tuple[str, int, float, bool], UpstreamBundle] = {}


def get_bundle(
    tier: str = "mistral-7b",
    seed: int = 0,
    scale: float = 1.0,
    skc_config: Optional[SKCConfig] = None,
    with_upstream_sft: bool = True,
) -> UpstreamBundle:
    """Build (or fetch) the upstream bundle for a model tier.

    ``with_upstream_sft=False`` keeps the pretrained base as the
    "upstream" model — the paper's Mistral-7B backbone setting, which
    never underwent upstream multi-task DP training but still benefits
    from KnowTrans (Fig. 5-6).
    """
    key = (tier, seed, scale, with_upstream_sft)
    if key not in _BUNDLES:
        base = create_base_model(tier, seed=seed)
        datasets = upstream.generate_all(seed=seed, scale=scale)
        if with_upstream_sft:
            upstream_model = upstream_sft(base, datasets, seed=seed)
        else:
            upstream_model = base.clone()
        _BUNDLES[key] = UpstreamBundle(
            tier=tier,
            seed=seed,
            scale=scale,
            base_model=base,
            upstream_model=upstream_model,
            upstream_datasets=datasets,
            skc_config=skc_config or SKCConfig(seed=seed),
        )
    return _BUNDLES[key]


def clear_bundles() -> None:
    """Drop memoised bundles (tests use this for isolation)."""
    _BUNDLES.clear()
