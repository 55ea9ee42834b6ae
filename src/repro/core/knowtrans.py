"""The KnowTrans facade — the paper's full framework in one call.

``KnowTrans(bundle).fit(splits)`` runs Selective Knowledge
Concentration (attach fused upstream patches, few-shot fine-tune) and
Automatic Knowledge Bridging (search dataset-informed knowledge with a
closed-source LLM) and returns an :class:`AdaptedModel` ready for
inference on the novel dataset.  Ablation switches (``use_skc`` /
``use_akb`` / ``strategy``) reproduce the paper's Table V and VI rows;
:meth:`AdaptedModel.without_akb` gives an AKB fit's no-AKB column
without fine-tuning the same adapter again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

import numpy as np

from .. import obs
from .. import store as artifact_store
from ..data.schema import Dataset, Example
from ..data.splits import DatasetSplits
from ..knowledge.rules import Knowledge
from ..knowledge.seed import seed_knowledge
from ..llm.mockgpt import MockGPT
from ..runtime import WorkerPool, resolve_shared, sharing
from ..tasks.base import Task, get_task
from ..tinylm.model import ScoringLM
from .akb.evaluation import (
    pack_detail_record,
    predict_detailed,
    predict_detailed_pool,
    task_metric,
    unpack_detail_record,
)
from .akb.optimizer import AKBResult, search_knowledge
from .config import KnowTransConfig
from .skc.finetune import few_shot_finetune
from .skc.fusion import attach_fusion

__all__ = ["AdaptedModel", "KnowTrans", "CrossFitScorer"]


@dataclass
class AdaptedModel:
    """A DP-LLM adapted to one downstream dataset."""

    model: ScoringLM
    task: Task
    knowledge: Knowledge
    dataset: Optional[Dataset] = None
    akb_result: Optional[AKBResult] = None
    fusion_weights: Dict[str, float] = field(default_factory=dict)

    def predict(self, example: Example) -> str:
        return self.task.predict(self.model, example, self.knowledge, self.dataset)

    def predict_batch(self, examples: Sequence[Example]) -> Sequence[str]:
        """Batched greedy predictions (one inference-engine call)."""
        _warm_eval_featurizations(
            self.model, self.task, examples, self.knowledge, self.dataset
        )
        return self.task.predict_batch(
            self.model, examples, self.knowledge, self.dataset
        )

    def without_akb(self) -> "AdaptedModel":
        """The same fine-tuned adapter, prompted with seed knowledge.

        AKB searches prompt knowledge at inference time and never
        touches the weights, so for the same strategy this is exactly
        what ``KnowTrans(use_akb=False).fit`` builds: both fine-tune
        through :func:`_fused_finetune` on identical inputs.  The model
        is shared, not copied.
        """
        return replace(
            self,
            knowledge=seed_knowledge(self.task.name),
            akb_result=None,
            fusion_weights=dict(self.fusion_weights),
        )


def _warm_eval_featurizations(model, task, examples, knowledge, dataset):
    """Seed the featurization caches from the store before an eval pass.

    Encoded-dataset featurizations are pure functions of (featurizer
    config, text), so the sparse rows of a full evaluation surface
    persist as one store entry; a warm run skips re-tokenising the test
    set entirely.  No-op without an active store.
    """
    if artifact_store.active() is None:
        return
    texts = [task.prompt(example, knowledge) for example in examples]
    for example in examples:
        texts.extend(task.candidates(example, knowledge, dataset))
    artifact_store.warm_featurizations(model.featurizer, texts)


def _fusion_state(fusion) -> dict:
    """The full trainable state of a fusion adapter, copy-safe."""
    return {
        "lambdas": np.copy(fusion.lambdas),
        "new_patch": fusion.new_patch.state_dict(),
        "patches": [patch.state_dict() for patch in fusion.patches],
    }


def _patch_state_ok(patch, state) -> bool:
    """Whether ``state`` is a complete, shape-exact state dict for ``patch``."""
    if not isinstance(state, dict):
        return False
    reference = patch.state_dict()
    if set(state.keys()) != set(reference.keys()):
        return False
    for key, value in state.items():
        arr = np.asarray(value)
        if arr.shape != reference[key].shape or arr.dtype.kind not in "fiu":
            return False
    return True


def _load_fusion_state(fusion, state) -> bool:
    """Install a stored fusion state; reject structural mismatches.

    Validation runs to completion *before* any mutation so a bad entry
    can never leave the fusion half-loaded — the caller falls back to
    the fine-tune path from the pristine init.
    """
    try:
        lambdas = np.asarray(state["lambdas"], dtype=float)
        new_state = state["new_patch"]
        patch_states = state["patches"]
    except (KeyError, TypeError, IndexError, ValueError):
        return False
    if lambdas.shape != fusion.lambdas.shape:
        return False
    if not isinstance(patch_states, list) or len(patch_states) != len(
        fusion.patches
    ):
        return False
    if not _patch_state_ok(fusion.new_patch, new_state):
        return False
    if not all(
        _patch_state_ok(patch, patch_state)
        for patch, patch_state in zip(fusion.patches, patch_states)
    ):
        return False
    fusion.new_patch.load_state_dict(new_state)
    for patch, patch_state in zip(fusion.patches, patch_states):
        patch.load_state_dict(patch_state)
    fusion.lambdas[:] = lambdas
    return True


def _fused_finetune(
    upstream_model, patches, skc_config, strategy, name, train_dataset,
    knowledge, purpose="finetune",
):
    """SKC stages 2-3 with a warm start (shared by fit and the shadows).

    Attaches the fusion stack, then either restores the fine-tuned
    adapter state from the artifact store (keyed by the full provenance:
    upstream weights, patch contents, config, strategy, adapter name,
    training data, prompt knowledge) or runs the few-shot fine-tune and
    persists the result.  Loading mutates only the freshly-built fusion —
    ``build_adapter`` clones the upstream patches, so the caller's patch
    list is never touched.  ``purpose`` only labels the trainer's span.
    """
    store = artifact_store.active()
    store_key = None
    if store is not None:
        store_key = artifact_store.artifact_key(
            "finetune",
            {
                "upstream": artifact_store.model_fingerprint(upstream_model),
                "patches": [
                    artifact_store.patch_fingerprint(patch)
                    for patch in patches
                ],
                "config": skc_config,
                "strategy": strategy,
                "name": name,
                "train": train_dataset,
                "knowledge": knowledge,
            },
        )
    model, fusion = attach_fusion(
        upstream_model, patches, skc_config, strategy=strategy, name=name
    )
    if store_key is not None:
        cached = store.get("finetune", store_key)
        if cached is not None:
            if _load_fusion_state(fusion, cached):
                # The fusion was mutated in place after attach; drop any
                # effective weights memoized against the pristine init.
                model.bump_adapter_version()
                _report_lambdas(fusion)
                return model, fusion
            # structurally unexpected entry — re-fine-tune and rewrite
            obs.counter("store.repair", kind="finetune")
    few_shot_finetune(model, train_dataset, skc_config, knowledge, purpose)
    if store_key is not None:
        store.put("finetune", store_key, _fusion_state(fusion))
    _report_lambdas(fusion)
    return model, fusion


def _report_lambdas(fusion) -> None:
    """Gauge the fused λ trajectory (one sample per patch per fit)."""
    if not obs.enabled():
        return
    for patch_name, weight in fusion.weight_report().items():
        obs.gauge("skc.lambda", float(weight), patch=patch_name)


def _shadow_task(args):
    """Fine-tune one cross-fit shadow's adapter (worker-pool task).

    A pure function of its picklable arguments: the clone, the fusion
    attachment, and the fine-tune all derive their randomness from
    seeds carried in the config/name, so building a shadow in a worker
    process yields the same weights as building it inline.  The frozen
    upstream model and patch list arrive as fork-inherited
    :class:`~repro.runtime.SharedRef` tokens — only the half-split
    few-shot data and config cross the IPC boundary — and the *result*
    is just the fused adapter's trained state (the λ vector and LoRA
    factors, a few small arrays), never the shadow model itself: its
    backbone is a byte-exact copy of the upstream weights the parent
    already holds, so shipping it home would pay megabytes of result
    transport per fold for nothing.  The parent reattaches the state
    via the same :func:`_load_fusion_state` path a warm store hit uses.
    """
    model_ref, patches_ref, skc_config, strategy, name, train_half, base_knowledge = args
    __shadow, fusion = _fused_finetune(
        resolve_shared(model_ref),
        resolve_shared(patches_ref),
        skc_config,
        strategy,
        name,
        train_half,
        base_knowledge,
        purpose="crossfit",
    )
    return _fusion_state(fusion)


class CrossFitScorer:
    """Eq. 8 scorer that stays informative despite few-shot memorisation.

    A LoRA stack fine-tuned on all 20 examples interpolates them, so
    scoring candidates on the same 20 examples cannot rank anything.
    Two *shadow* models are therefore fine-tuned on complementary halves
    of the few-shot data; each candidate is scored on the half its
    shadow never saw, and the two held-out scores are averaged (errors
    are pooled).  This plays the role of the paper's train/validation
    split at substrate scale.

    Calling the scorer evaluates one candidate (legacy per-candidate
    path); :meth:`score_pool` evaluates a whole Alg. 2 round with one
    engine mega-batch per shadow fold — the folds use different weights
    so they cannot share a call, but within a fold every candidate ×
    held-out-example pair rides one batch.  Both paths accumulate
    golds/preds/margins fold0-then-fold1 per candidate, so the metric
    and margin-bonus float summations are bit-identical.
    """

    #: Cap on each fold's held-out slice: scoring cost multiplies by
    #: pool size and refinement rounds.  The paper's 20-shot setting
    #: (10-example folds) is unaffected — this only bounds the Fig. 4
    #: scalability sweeps.
    SCORING_CAP = 30

    def __init__(self, shadows, halves, task: Task):
        self.shadows = list(shadows)
        self.halves = tuple(halves)
        self.task = task
        # Per-fold provenance digests, computed lazily once per scorer:
        # hashing the shadow's effective weights is ~ms work that every
        # store key of the fold shares.
        self._fold_provenance: Dict[int, tuple] = {}

    def _held_out(self, fold: int):
        held_out = self.halves[1 - fold]
        return held_out, held_out.examples[: self.SCORING_CAP]

    def _record_key(self, fold: int, candidate: Knowledge) -> str:
        """Store address of one (candidate, fold) evaluation record."""
        provenance = self._fold_provenance.get(fold)
        if provenance is None:
            provenance = (
                artifact_store.model_fingerprint(
                    self.shadows[fold], effective=True
                ),
                artifact_store.fingerprint(self._held_out(fold)[0]),
            )
            self._fold_provenance[fold] = provenance
        model_fp, held_out_fp = provenance
        return artifact_store.artifact_key(
            "akb_eval",
            {
                "model": model_fp,
                "task": self.task.name,
                "held_out": held_out_fp,
                "cap": self.SCORING_CAP,
                "candidate": candidate,
            },
        )

    def _detailed(self, fold: int, candidate: Knowledge):
        """One fold's evaluation record, served from the store when warm."""
        store = artifact_store.active()
        key = None
        if store is not None:
            key = self._record_key(fold, candidate)
            cached = unpack_detail_record(store.get("akb_eval", key))
            if cached is not None:
                return cached
        held_out, examples = self._held_out(fold)
        detail = predict_detailed(
            self.shadows[fold], self.task, candidate, examples, held_out
        )
        if key is not None:
            store.put("akb_eval", key, pack_detail_record(detail))
        return detail

    def _finalize(self, golds, preds, margins, errors, pooled_examples):
        metric = task_metric(self.task, golds, preds, pooled_examples)
        # Margin bonus (< one metric quantum) breaks hard-score ties
        # toward knowledge the model is genuinely more confident in.
        margin_bonus = 4.0 * (sum(margins) / max(len(margins), 1))
        return metric + margin_bonus, errors

    def __call__(self, candidate: Knowledge):
        golds, preds, margins, errors = [], [], [], []
        pooled_examples = []
        for fold in range(len(self.shadows)):
            g, p, m, e = self._detailed(fold, candidate)
            golds.extend(g)
            preds.extend(p)
            margins.extend(m)
            errors.extend(e)
            pooled_examples.extend(self._held_out(fold)[1])
        return self._finalize(golds, preds, margins, errors, pooled_examples)

    def score_pool(self, candidates: Sequence[Knowledge]):
        """Score a whole candidate pool: one mega-batch per shadow fold.

        With an active store, candidates whose (candidate, fold) record
        already exists — from an earlier run *or* an earlier AKB round —
        load from disk, and only the genuinely fresh candidates enter
        the mega-batch.  The engine is batch-composition invariant, so
        slicing the pool this way returns the same floats as scoring
        everything together.
        """
        candidates = list(candidates)
        store = artifact_store.active()
        per_fold = []
        for fold, shadow in enumerate(self.shadows):
            held_out, examples = self._held_out(fold)
            entries = [None] * len(candidates)
            missing = list(range(len(candidates)))
            if store is not None:
                missing = []
                for ci, candidate in enumerate(candidates):
                    cached = unpack_detail_record(
                        store.get("akb_eval", self._record_key(fold, candidate))
                    )
                    if cached is not None:
                        entries[ci] = cached
                    else:
                        missing.append(ci)
            if missing:
                fresh = predict_detailed_pool(
                    shadow,
                    self.task,
                    [candidates[ci] for ci in missing],
                    examples,
                    held_out,
                )
                for ci, detail in zip(missing, fresh):
                    entries[ci] = detail
                    if store is not None:
                        store.put(
                            "akb_eval",
                            self._record_key(fold, candidates[ci]),
                            pack_detail_record(detail),
                        )
            per_fold.append(entries)
        results = []
        for ci in range(len(candidates)):
            golds, preds, margins, errors = [], [], [], []
            pooled_examples = []
            for fold in range(len(self.shadows)):
                g, p, m, e = per_fold[fold][ci]
                golds.extend(g)
                preds.extend(p)
                margins.extend(m)
                errors.extend(e)
                pooled_examples.extend(self._held_out(fold)[1])
            results.append(
                self._finalize(golds, preds, margins, errors, pooled_examples)
            )
        return results


class KnowTrans:
    """Knowledge augmentation for boosting DP-LLM transferability.

    Parameters
    ----------
    bundle:
        The upstream stage output
        (:class:`~repro.baselines.jellyfish.UpstreamBundle`).
    config:
        SKC + AKB hyperparameters.
    strategy:
        Patch weighting strategy: ``adaptive`` (full SKC), ``uniform``
        or ``single`` (Table VI rows).
    use_skc / use_akb:
        Ablation switches (Table V rows).  ``use_skc=False`` degrades
        the strategy to ``single`` — plain few-shot LoRA fine-tuning.
    mockgpt:
        The closed-source LLM analogue driving AKB.
    jobs / pool:
        Worker-pool fan-out for the two cross-fit shadow fine-tunes.
        ``jobs`` builds a clamped :class:`~repro.runtime.WorkerPool`
        (``None`` defers to ``REPRO_JOBS``); passing ``pool`` directly
        overrides it (tests inject unclamped pools to force real worker
        processes).  Results are bit-identical at any job count.
    use_kb:
        Attach the persistent cross-dataset knowledge base
        (:mod:`repro.knowledge.kb`) to the AKB search: seed the
        candidate pool with nearest-profile knowledge from previous
        searches and promote this search's winners back.  ``None``
        (default) defers to the process-wide ``--kb`` / ``REPRO_KB``
        opt-in plus an active artifact store; ``False`` forces it off.
        ``kb`` pins an explicit :class:`~repro.knowledge.kb.
        KnowledgeBase` instance instead (benchmarks and tests).
    """

    def __init__(
        self,
        bundle,
        config: Optional[KnowTransConfig] = None,
        strategy: str = "adaptive",
        use_skc: bool = True,
        use_akb: bool = True,
        mockgpt: Optional[MockGPT] = None,
        jobs: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
        use_kb: Optional[bool] = None,
        kb=None,
    ):
        self.bundle = bundle
        self.config = config or KnowTransConfig()
        self.strategy = strategy if use_skc else "single"
        self.use_akb = use_akb
        self.mockgpt = mockgpt or MockGPT(
            temperature=self.config.akb.temperature, seed=self.config.seed
        )
        self.pool = pool if pool is not None else WorkerPool(jobs)
        self.use_kb = use_kb
        self.kb = kb  # explicit KnowledgeBase instance (benchmarks/tests)

    def fit(self, splits: DatasetSplits) -> AdaptedModel:
        """Adapt the upstream DP-LLM to one novel dataset (Alg. 1 + 2)."""
        few_shot = splits.few_shot
        with obs.span(
            "knowtrans.fit",
            dataset=few_shot.name,
            task=few_shot.task,
            strategy=self.strategy,
            use_akb=self.use_akb,
        ):
            return self._fit(splits)

    def _fit(self, splits: DatasetSplits) -> AdaptedModel:
        few_shot = splits.few_shot
        task = get_task(few_shot.task)
        base_knowledge = seed_knowledge(few_shot.task)

        # SKC stages 2-3: fuse patches (or a lone fresh patch) and
        # fine-tune the adapter on the few-shot data (warm-started from
        # the artifact store when a previous run already did this).
        patches = self.bundle.patches if self.strategy != "single" else []
        model, fusion = _fused_finetune(
            self.bundle.upstream_model,
            patches,
            self.config.skc,
            self.strategy,
            f"downstream-{few_shot.name}",
            few_shot,
            base_knowledge,
        )

        # AKB: inference-time knowledge search with the fine-tuned model.
        knowledge = base_knowledge
        akb_result = None
        if self.use_akb:
            scorer = self.cross_fit_scorer(splits, patches, base_knowledge)
            akb_result = search_knowledge(
                model,
                few_shot,
                splits.validation.examples,
                mockgpt=self.mockgpt,
                config=self.config.akb,
                initial_knowledge=base_knowledge,
                scorer=scorer,
                use_kb=self.use_kb,
                kb=self.kb,
            )
            knowledge = akb_result.knowledge

        return AdaptedModel(
            model=model,
            task=task,
            knowledge=knowledge,
            dataset=few_shot,
            akb_result=akb_result,
            fusion_weights=fusion.weight_report(),
        )

    def cross_fit_scorer(
        self, splits: DatasetSplits, patches=None, base_knowledge=None
    ) -> CrossFitScorer:
        """Build the :class:`CrossFitScorer` for one dataset's splits.

        The two shadow fine-tunes are independent, so they fan out over
        the instance's worker pool (serial at ``jobs=1``).
        """
        if patches is None:
            patches = self.bundle.patches if self.strategy != "single" else []
        if base_knowledge is None:
            base_knowledge = seed_knowledge(splits.few_shot.task)
        few_shot = splits.few_shot
        task = get_task(few_shot.task)
        # Contiguous halves: the few-shot prefix interleaves classes, so
        # each half keeps the class balance (stride-2 sampling would put
        # one class per fold and break the scorer entirely).
        midpoint = len(few_shot) // 2
        halves = (
            few_shot.subset(range(0, midpoint), ":fold0"),
            few_shot.subset(range(midpoint, len(few_shot)), ":fold1"),
        )
        # Scope the share registrations to the fan-out: a long-lived
        # process adapting many datasets must not pin every upstream
        # model and patch list it ever shadowed.
        with sharing(self.bundle.upstream_model, patches) as (
            model_ref,
            patches_ref,
        ):
            states = self.pool.map(
                _shadow_task,
                [
                    (
                        model_ref,
                        patches_ref,
                        self.config.skc,
                        self.strategy,
                        f"shadow{fold}-{few_shot.name}",
                        train_half,
                        base_knowledge,
                    )
                    for fold, train_half in enumerate(halves)
                ],
            )
        # Rebuild each shadow from its compact adapter state — the exact
        # code path a warm "finetune" store hit takes, so the
        # reconstruction is bit-identical to the worker's model.
        shadows = []
        for fold, state in enumerate(states):
            shadow, fusion = attach_fusion(
                self.bundle.upstream_model,
                patches,
                self.config.skc,
                strategy=self.strategy,
                name=f"shadow{fold}-{few_shot.name}",
            )
            if not _load_fusion_state(fusion, state):
                raise RuntimeError(
                    f"shadow fold {fold} returned an incompatible fusion "
                    "state — adapter shapes drifted between parent and "
                    "worker"
                )
            shadow.bump_adapter_version()
            shadows.append(shadow)
        return CrossFitScorer(shadows, halves, task)
