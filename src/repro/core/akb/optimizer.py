"""The AKB optimisation loop (paper Algorithm 2).

Generation seeds a candidate pool; each iteration scores every pool
member on the validation data with the fine-tuned DP-LLM, collects the
best candidate's error set, and grows the pool with feedback-driven
refinements.  The loop stops at the configured iteration budget, when
the best candidate makes no validation errors, or when the best score
stops improving (patience).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ... import obs
from ... import store as artifact_store
from ...data.schema import Dataset, Example
from ...knowledge import kb as kb_module
from ...knowledge.rules import Knowledge
from ...knowledge.seed import seed_knowledge
from ...llm.mockgpt import MockGPT
from ...perf import PERF
from ...tasks.base import get_task
from ...tinylm.model import ScoringLM
from ..config import AKBConfig
from .evaluation import (
    pack_score_record,
    score_knowledge,
    score_knowledge_pool,
    unpack_score_record,
)
from .feedback import make_feedback
from .generation import seeded_pool
from .refinement import refine_knowledge

__all__ = ["AKBRound", "AKBResult", "search_knowledge"]


@dataclass(frozen=True)
class AKBRound:
    """Bookkeeping for one optimisation iteration."""

    iteration: int
    best_score: float
    pool_size: int
    error_count: int


@dataclass
class AKBResult:
    """The searched knowledge plus its optimisation history."""

    knowledge: Knowledge
    best_score: float
    rounds: List[AKBRound] = field(default_factory=list)
    trajectory: List[Knowledge] = field(default_factory=list)
    retrieved: int = 0
    promoted: int = 0

    @property
    def iterations_run(self) -> int:
        return len(self.rounds)

    @property
    def rounds_to_best(self) -> int:
        """1-based index of the first round reaching the final best score.

        The metric the KB perf gate tracks: a retrieval-seeded search
        should reach its best candidate in round one instead of
        grinding refinement rounds toward it.
        """
        for round_info in self.rounds:
            if round_info.best_score >= self.best_score:
                return round_info.iteration + 1
        return len(self.rounds)


def search_knowledge(
    model: ScoringLM,
    dataset: Dataset,
    validation: Sequence[Example],
    mockgpt: Optional[MockGPT] = None,
    config: Optional[AKBConfig] = None,
    initial_knowledge: Optional[Knowledge] = None,
    scorer=None,
    use_kb: Optional[bool] = None,
    kb: Optional["kb_module.KnowledgeBase"] = None,
) -> AKBResult:
    """Run Algorithm 2 and return the optimised dataset knowledge.

    ``model`` is the SKC fine-tuned DP-LLM; ``validation`` is the
    few-shot data (the paper uses D_valid = D'_i).  ``scorer`` overrides
    the Eq. 8 evaluation — :class:`~repro.core.knowtrans.KnowTrans`
    passes a cross-fitted scorer so a model that interpolates its 20
    training examples still yields an informative ranking.

    Each round is scored in a single pass: all unscored candidates are
    flattened into one candidate-major mega-batch through the batched
    engine (via :func:`score_knowledge_pool`, or the scorer's own
    ``score_pool`` method when it has one).  Plain-function scorers
    without ``score_pool``, and rounds with a single unscored
    candidate, score one candidate per call instead; the scores are
    bit-identical either way.

    ``use_kb`` / ``kb`` attach the persistent cross-dataset knowledge
    base (:mod:`repro.knowledge.kb`): the candidate pool is seeded with
    the top-k nearest-profile entries of previous searches (same task,
    *other* datasets — entries promoted from this exact dataset are
    excluded so a re-run stays bit-identical to its first run), and
    after the search the best-scoring candidates are promoted back.
    The default (``use_kb=None``) resolves through
    :func:`repro.knowledge.kb.active_kb` — off unless ``--kb`` /
    ``REPRO_KB`` opted the process in and an artifact store is active.

    When the best retrieval is *trusted* — profile similarity at least
    ``config.kb_trust_similarity`` — and a retrieved candidate scores
    at least as well as everything generated in round one, the search
    stops there: the bank already spent its refinement budget on a
    near-identical profile, so re-running the feedback loop would
    re-derive what retrieval just supplied.  A generated candidate
    strictly beating every retrieved one disables the shortcut and the
    search proceeds normally.
    """
    config = config or AKBConfig()
    mockgpt = mockgpt or MockGPT(temperature=config.temperature, seed=config.seed)
    task = get_task(dataset.task)
    seed = initial_knowledge if initial_knowledge is not None else seed_knowledge(dataset.task)

    score_pool_fn = None
    if scorer is None:
        # Eq. 8 evaluation is deterministic given (weights, candidate,
        # validation data), so candidate scores memoise across runs and
        # across AKB rounds in the artifact store under that provenance.
        store = artifact_store.active()
        provenance = None
        if store is not None:
            provenance = {
                "model": artifact_store.model_fingerprint(
                    model, effective=True
                ),
                "task": task.name,
                "dataset": artifact_store.fingerprint(dataset),
                "validation": artifact_store.fingerprint(list(validation)),
            }

        def _score_key(candidate: Knowledge) -> str:
            return artifact_store.artifact_key(
                "akb_score", {**provenance, "candidate": candidate}
            )

        def scorer(candidate: Knowledge):
            if provenance is not None:
                cached = unpack_score_record(
                    store.get("akb_score", _score_key(candidate))
                )
                if cached is not None:
                    return cached
            value, errors = score_knowledge(
                model, task, candidate, validation, dataset
            )
            if provenance is not None:
                store.put(
                    "akb_score", _score_key(candidate),
                    pack_score_record(value, errors),
                )
            return value, errors

        def score_pool_fn(candidates: Sequence[Knowledge]):
            candidates = list(candidates)
            results = [None] * len(candidates)
            missing = list(range(len(candidates)))
            if provenance is not None:
                missing = []
                for ci, candidate in enumerate(candidates):
                    cached = unpack_score_record(
                        store.get("akb_score", _score_key(candidate))
                    )
                    if cached is not None:
                        results[ci] = cached
                    else:
                        missing.append(ci)
            if missing:
                fresh = score_knowledge_pool(
                    model, task, [candidates[ci] for ci in missing],
                    validation, dataset,
                )
                for ci, entry in zip(missing, fresh):
                    results[ci] = entry
                    if provenance is not None:
                        store.put(
                            "akb_score", _score_key(candidates[ci]),
                            pack_score_record(*entry),
                        )
            return results
    else:
        score_pool_fn = getattr(scorer, "score_pool", None)

    # Persistent-KB retrieval: seed the pool with the nearest-profile
    # knowledge of previous searches (retrieve-then-refine).
    bank = kb_module.resolve_use_kb(use_kb, kb)
    retrieved: list = []
    profile_vector = None
    dataset_fp = None
    if bank is not None:
        profile_vector, dataset_fp = kb_module.profile_vector_for(dataset)
        retrieved = bank.retrieve(
            profile_vector,
            task=dataset.task,
            k=config.kb_top_k,
            min_similarity=config.kb_min_similarity,
            exclude_fingerprint=dataset_fp,
        )
    pool = seeded_pool(
        mockgpt, dataset.task, validation, seed, config, retrieved
    )
    trusted_candidates = (
        {entry.knowledge for __similarity, entry in retrieved}
        if retrieved and retrieved[0][0] >= config.kb_trust_similarity
        else set()
    )
    scores: Dict[Knowledge, float] = {}
    errors_by_candidate: Dict[Knowledge, list] = {}

    def ensure_scored(candidate: Knowledge) -> float:
        if candidate not in scores:
            value, errors = scorer(candidate)
            scores[candidate] = value
            errors_by_candidate[candidate] = errors
        return scores[candidate]

    def ensure_scored_many(candidates: Sequence[Knowledge]) -> None:
        """Score every not-yet-scored candidate, pooled when possible."""
        seen: set = set()
        fresh = [
            c
            for c in candidates
            if c not in scores and not (c in seen or seen.add(c))
        ]
        # "Pruned" = already scored this search (memo hit) or duplicate
        # within the round — candidates that cost nothing to re-rank.
        obs.counter("akb.candidates_pruned", len(candidates) - len(fresh))
        obs.counter("akb.candidates_scored", len(fresh))
        if not fresh:
            return
        if score_pool_fn is not None and len(fresh) > 1:
            PERF.count("akb.pool_rounds")
            PERF.count("akb.pool_candidates", len(fresh))
            for candidate, (value, errors) in zip(
                fresh, score_pool_fn(fresh)
            ):
                scores[candidate] = value
                errors_by_candidate[candidate] = errors
        else:
            for candidate in fresh:
                ensure_scored(candidate)

    result = AKBResult(knowledge=seed, best_score=float("-inf"))
    stale_rounds = 0
    with obs.span(
        "akb.search", dataset=dataset.name, task=dataset.task
    ):
        for iteration in range(config.iterations):
            with obs.span("akb.round", iteration=iteration):
                ensure_scored_many(pool)
                best = max(pool, key=lambda candidate: scores[candidate])
                best_score = scores[best]
                errors = errors_by_candidate[best]
                result.rounds.append(
                    AKBRound(
                        iteration=iteration,
                        best_score=best_score,
                        pool_size=len(pool),
                        error_count=len(errors),
                    )
                )
                obs.gauge("akb.best_score", best_score)
                obs.gauge("akb.pool_size", len(pool))
                if best_score > result.best_score + config.min_improvement:
                    result.knowledge = best
                    result.best_score = best_score
                    stale_rounds = 0
                else:
                    stale_rounds += 1
                result.trajectory.append(best)
                if not errors:
                    break  # perfect on validation — nothing to refine
                if (
                    iteration == 0
                    and trusted_candidates
                    and any(
                        scores[candidate] >= best_score
                        for candidate in trusted_candidates
                    )
                ):
                    # Trusted retrieval matched or beat everything
                    # generated — the bank already refined this
                    # knowledge on a near-identical profile.
                    obs.counter("akb.kb_early_stop")
                    break
                if stale_rounds > config.patience:
                    break
                for refinement_round in range(
                    config.refinements_per_iteration
                ):
                    feedback = make_feedback(
                        mockgpt,
                        dataset.task,
                        best,
                        errors,
                        config,
                        round_index=iteration * 100 + refinement_round,
                    )
                    refined = refine_knowledge(
                        mockgpt, dataset.task, best, errors, feedback,
                        result.trajectory,
                    )
                    obs.counter("akb.refinements")
                    if refined not in pool:
                        pool.append(refined)
        # Final selection over everything ever scored (Alg. 2 line 15).
        ensure_scored_many(pool)
        final = max(pool, key=lambda candidate: scores[candidate])
    result.knowledge = final
    result.best_score = scores[final]
    result.retrieved = len(retrieved)
    # Promote the search's winners back into the bank so the next
    # near-identical dataset starts from them instead of from cold.
    if bank is not None:
        floor = scores.get(seed, float("-inf"))
        winners = sorted(
            (
                candidate
                for candidate in pool
                if candidate != seed
                and candidate
                and scores[candidate] >= floor
            ),
            key=lambda candidate: -scores[candidate],
        )[: config.kb_promote_top]
        for candidate in winners:
            if bank.promote(
                task=dataset.task,
                dataset=dataset.name,
                fingerprint=dataset_fp,
                vector=profile_vector,
                knowledge=candidate,
                score=scores[candidate],
            ) is not None:
                result.promoted += 1
    return result
