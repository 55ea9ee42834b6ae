"""The neural scoring language model at the heart of the substrate.

:class:`ScoringLM` plays the role of a (very small) decoder LLM for data
preparation: it reads a *prompt* (task instruction + knowledge + serialized
record) and assigns a conditional likelihood to each *candidate response*.
Classification tasks score a fixed candidate set (``yes``/``no`` or a label
vocabulary); open-generation tasks (imputation, cleaning, extraction) score
a dynamically generated candidate pool — see :mod:`repro.tasks`.

Architecture
------------
``u = W2·relu(W1·φ(x) + b1) + b2`` encodes the prompt and
``v = V·ψ(y)`` embeds a candidate answer; the logit is
``u·v/√k + b·ψ(y)``.  Training maximises the conditional likelihood of the
reference answer with a softmax over candidates — the direct analogue of
the paper's token-level maximum-likelihood objective (Eq. 3).

All three weight matrices (``encoder.W1``, ``encoder.W2``, ``answer.V``)
are LoRA targets, mirroring "apply LoRA to the attention projections".

Batched engine
--------------
Every scoring path — training, greedy decode, the AKB Eq. 8 loop — runs
through one vectorized ragged forward: prompts are encoded once into an
``(n, D)`` matrix, the variable-size candidate pools are flattened into a
single ``(M, D)`` matrix with a ``(n+1,)`` offsets array, and all ``M``
logits come out of two matmuls plus a segment softmax.  The scoring
formula lives in exactly one place (:meth:`ScoringLM._score_flat`); the
single-example ``logits``/``predict`` methods are one-row batches.
Featurization is cached at three levels (see ``docs/performance.md``):
the featurizer's shared sparse text cache plus per-feature-space dense
prompt and candidate caches that survive :meth:`ScoringLM.clone`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..perf import PERF
from .linalg import (
    relu,
    relu_grad,
    rng_for,
    segment_logsumexp,
    segment_softmax,
    softmax,
    xavier_init,
)
from .tokenizer import HashedFeaturizer, resolve_cache_size

__all__ = [
    "ModelConfig",
    "EncodedExample",
    "RaggedBatch",
    "FrozenActivations",
    "FrozenBatch",
    "ScoringLM",
    "LORA_TARGETS",
]

LORA_TARGETS = ("encoder.W1", "encoder.W2", "answer.V")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one model tier.

    ``feature_dim``/``hidden_dim`` stand in for parameter count: the
    "13B" analogue is simply wider than the "7B" analogue.
    """

    name: str = "tiny"
    feature_dim: int = 2048
    hidden_dim: int = 96
    seed: int = 0
    featurizer_salt: str = "repro"

    def target_shapes(self) -> Dict[str, Tuple[int, int]]:
        """Shapes of the LoRA-targetable weight matrices."""
        return {
            "encoder.W1": (self.hidden_dim, self.feature_dim),
            "encoder.W2": (self.hidden_dim, self.hidden_dim),
            "answer.V": (self.hidden_dim, self.feature_dim),
        }


@dataclass
class EncodedExample:
    """A featurized training/inference instance."""

    prompt: np.ndarray  # (D,)
    candidates: np.ndarray  # (m, D)
    target: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.candidates.ndim != 2:
            raise ValueError("candidates must be a (m, D) matrix")
        if not 0 <= self.target < self.candidates.shape[0]:
            raise ValueError(
                f"target {self.target} out of range for "
                f"{self.candidates.shape[0]} candidates"
            )


@dataclass
class RaggedBatch:
    """A batch of prompts with variable-size candidate pools, flattened.

    Candidate features are stored deduplicated: ``Yu`` holds one row per
    *distinct* candidate string and ``cand_index`` maps each of the
    ``M`` flat pool slots to its ``Yu`` row.  Classification-style tasks
    share one small pool across every prompt, so ``u ≪ M`` and the
    engine embeds each distinct candidate exactly once.  ``rows`` maps
    each flat slot back to its prompt row; slot ``m`` of prompt ``i``
    lives in the flat range ``offsets[i]:offsets[i+1]``.
    """

    X: np.ndarray  # (n, D) prompt features
    Yu: np.ndarray  # (u, D) distinct candidate features
    cand_index: np.ndarray  # (M,) flat slot -> Yu row
    offsets: np.ndarray  # (n+1,) prefix sums of pool sizes
    rows: np.ndarray  # (M,) prompt row of each flat slot
    targets: np.ndarray  # (n,) reference index within each pool
    weights: np.ndarray  # (n,) per-example loss weights

    _Y: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        """Total flat candidate slots across all pools."""
        return self.cand_index.shape[0]

    @property
    def Y(self) -> np.ndarray:
        """The materialised ``(M, D)`` flat candidate matrix (memoised).

        The backward pass needs per-slot rows; for training batches the
        slots are already distinct so this is ``Yu`` itself.
        """
        if self._Y is None:
            if self.Yu.shape[0] == self.m:
                self._Y = self.Yu
            else:
                self._Y = self.Yu[self.cand_index]
        return self._Y

    @property
    def target_flat(self) -> np.ndarray:
        """Flat positions of the reference candidates."""
        return self.offsets[:-1] + self.targets


def _shared_pool_groups(rb: RaggedBatch) -> Optional[List[List[int]]]:
    """Rows grouped by identical candidate pool, or ``None``.

    Returns the groups only when pools are heavily shared (at least 8
    prompts per distinct pool on average) — the shape where scoring each
    distinct pool once with a grouped GEMM beats the per-slot gathered
    einsums.  Per-example pools (DI/DC/AVE proposals) never qualify, so
    those workloads keep their existing path untouched.
    """
    if rb.n < 16:
        return None
    groups: Dict[bytes, List[int]] = {}
    for i in range(rb.n):
        signature = rb.cand_index[rb.offsets[i] : rb.offsets[i + 1]].tobytes()
        groups.setdefault(signature, []).append(i)
    if len(groups) * 8 > rb.n:
        return None
    return list(groups.values())


@dataclass
class _Cache:
    """Intermediate activations needed for the backward pass."""

    batch: RaggedBatch
    H_pre: np.ndarray  # (n, k)
    H: np.ndarray  # (n, k)
    U: np.ndarray  # (n, k)
    Vy: np.ndarray  # (M, k)
    overlap: np.ndarray  # (M,) prompt·candidate feature overlap
    probs: np.ndarray  # (M,) flat softmax over each pool


@dataclass
class FrozenBatch:
    """One mini-batch view over a :class:`FrozenActivations` sidecar.

    Carries the ragged batch plus the frozen-backbone projections of its
    rows, so the rank-space engine only has to add the adapter's low-rank
    contributions on top.
    """

    rb: RaggedBatch
    XW1b: np.ndarray  # (n, k) X @ W1_base.T + b1
    YV: np.ndarray  # (M, k) Y @ V_base.T
    yb: np.ndarray  # (M,) Y @ b
    overlap: np.ndarray  # (M,) prompt·candidate feature overlap


class FrozenActivations:
    """Frozen-backbone projections of an encoded dataset, computed once.

    When ``train_base=False`` the base weights never move during a fit, so
    the expensive ``O(N·D·k)`` projections ``X @ W1ᵀ``, ``Y @ Vᵀ``,
    ``Y @ b`` and the weight-independent overlap GEMM ``X·Y`` are
    identical every epoch, mini-batch and eval call.  This sidecar (owned
    by :class:`~repro.tinylm.trainer.Trainer`) computes them exactly once
    per dataset; :meth:`batch` then assembles per-step
    :class:`FrozenBatch` views with cheap row gathers, and
    :meth:`ScoringLM.rank_loss_and_gradients` adds only the ``O(M·D·r)``
    rank-space adapter terms on top.
    """

    def __init__(self, model: "ScoringLM", examples: Sequence[EncodedExample]):
        if not examples:
            raise ValueError("empty dataset")
        self._model = model
        with PERF.timer("model.frozen_activations"):
            (
                self.X,
                self.Y,
                self.pool_sizes,
                self.targets,
                self.weights,
                self.XW1b,
                self.YV,
                self.yb,
                self.overlap,
            ) = self._project(examples)
            self.flat_offsets = np.zeros(
                self.pool_sizes.size + 1, dtype=np.intp
            )
            np.cumsum(self.pool_sizes, out=self.flat_offsets[1:])
        PERF.count("train.frozen_builds")
        obs.counter("train.frozen_builds")

    def _project(self, examples: Sequence[EncodedExample]) -> Tuple[
        np.ndarray, ...
    ]:
        """Frozen-backbone projections of ``examples`` alone."""
        model = self._model
        W1 = model.weights["encoder.W1"]
        V = model.weights["answer.V"]
        b = model.weights["answer.b"]
        X = np.stack([ex.prompt for ex in examples])
        Y = np.concatenate([ex.candidates for ex in examples])
        sizes = np.asarray(
            [ex.candidates.shape[0] for ex in examples], dtype=np.intp
        )
        targets = np.asarray([ex.target for ex in examples], dtype=np.intp)
        weights = np.asarray([ex.weight for ex in examples])
        XW1b = X @ W1.T + model.weights["encoder.b1"]
        YV = Y @ V.T
        yb = Y @ b
        rows = np.repeat(np.arange(sizes.size), sizes)
        overlap = np.einsum("md,md->m", Y, X[rows])
        return X, Y, sizes, targets, weights, XW1b, YV, yb, overlap

    def append(self, examples: Sequence[EncodedExample]) -> None:
        """Extend the sidecar with freshly arrived (already encoded) rows.

        Only the new rows are projected — ``O(batch·D·k)`` GEMMs — while
        every prior row's projections are reused untouched, which is what
        makes a streaming micro-batch update ``O(batch)`` instead of
        ``O(stream-so-far)``.  Same contract as the constructor: only
        valid while the base weights stay frozen.
        """
        if not examples:
            return
        with PERF.timer("model.frozen_append"):
            X, Y, sizes, targets, weights, XW1b, YV, yb, overlap = (
                self._project(examples)
            )
            self.X = np.concatenate([self.X, X])
            self.Y = np.concatenate([self.Y, Y])
            self.pool_sizes = np.concatenate([self.pool_sizes, sizes])
            tail = self.flat_offsets[-1] + np.cumsum(sizes)
            self.flat_offsets = np.concatenate([self.flat_offsets, tail])
            self.targets = np.concatenate([self.targets, targets])
            self.weights = np.concatenate([self.weights, weights])
            self.XW1b = np.concatenate([self.XW1b, XW1b])
            self.YV = np.concatenate([self.YV, YV])
            self.yb = np.concatenate([self.yb, yb])
            self.overlap = np.concatenate([self.overlap, overlap])
        PERF.count("train.frozen_appends")
        PERF.count("train.frozen_rows_appended", len(examples))
        obs.counter("train.frozen_appends", rows=len(examples))

    @property
    def n(self) -> int:
        return self.pool_sizes.size

    def batch(self, indices: Sequence[int]) -> FrozenBatch:
        """Assemble the mini-batch view for a list of example indices."""
        idx = np.asarray(indices, dtype=np.intp)
        sizes = self.pool_sizes[idx]
        offsets = np.zeros(idx.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        m = int(offsets[-1])
        rows = np.repeat(np.arange(idx.size), sizes)
        local = np.arange(m) - np.repeat(offsets[:-1], sizes)
        flat = np.repeat(self.flat_offsets[idx], sizes) + local
        rb = RaggedBatch(
            X=self.X[idx],
            Yu=self.Y[flat],
            cand_index=np.arange(m, dtype=np.intp),
            offsets=offsets,
            rows=rows,
            targets=self.targets[idx],
            weights=self.weights[idx],
        )
        return FrozenBatch(
            rb=rb,
            XW1b=self.XW1b[idx],
            YV=self.YV[flat],
            yb=self.yb[flat],
            overlap=self.overlap[flat],
        )

    def full(self) -> FrozenBatch:
        """The whole dataset as one batch (loss evaluation)."""
        return self.batch(np.arange(self.n))


@dataclass
class _RankCache:
    """Forward intermediates of the rank-space path, reused in backward."""

    H_pre: np.ndarray  # (n, k)
    H: np.ndarray  # (n, k)
    U: np.ndarray  # (n, k)
    Vy: np.ndarray  # (M, k)
    comps_W1: list
    comps_W2: list
    comps_V: list
    PA: list  # X @ Aᵀ per W1 component, (n, r)
    HA: list  # H @ Aᵀ per W2 component, (n, r)
    YA: list  # Y @ Aᵀ per V component, (M, r)


def _accumulate(grads: Dict[str, np.ndarray], key: str, value) -> None:
    if key in grads:
        grads[key] = grads[key] + value
    else:
        grads[key] = value


def _add_rank_terms(out, inputs, adapter, target: str) -> None:
    """``out += Σ coeff·((inputs @ Aᵀ) @ Bᵀ)`` over an adapter's terms."""
    if adapter is None:
        return
    for comp in adapter.rank_components(target):
        out += comp.coeff * ((inputs @ comp.A.T) @ comp.B.T)


class ScoringLM:
    """A candidate-scoring conditional language model with adapter support.

    The optional ``adapter`` (a :class:`~repro.tinylm.lora.LoRAPatch` or a
    :class:`~repro.tinylm.fusion.PatchFusion`) modifies the effective
    weights without touching the frozen base parameters, exactly like PEFT
    adapters on a transformer.
    """

    #: Bound on the dense candidate-feature LRU (least recently used
    #: entries are evicted past this point, so long open-pool DC/AVE
    #: runs keep their hot candidates instead of thrashing at the cap).
    CANDIDATE_CACHE_SIZE = 200_000

    #: Bound on the dense prompt-feature LRU (prompts are long, so this
    #: cache is kept tighter than the candidate memo).
    PROMPT_CACHE_SIZE = 4096

    def __init__(
        self,
        config: ModelConfig,
        candidate_cache_size: Optional[int] = None,
        prompt_cache_size: Optional[int] = None,
    ):
        self.config = config
        # LRU bounds resolve explicit arg > REPRO_LRU_SIZE env > class
        # default, so a serving deployment can keep resident memory flat
        # under sustained traffic with one knob.
        self.candidate_cache_size = resolve_cache_size(
            self.CANDIDATE_CACHE_SIZE, candidate_cache_size
        )
        self.prompt_cache_size = resolve_cache_size(
            self.PROMPT_CACHE_SIZE, prompt_cache_size
        )
        rng = rng_for(config.seed, "model", config.name)
        d, k = config.feature_dim, config.hidden_dim
        self.weights: Dict[str, np.ndarray] = {
            "encoder.W1": xavier_init(rng, (k, d)),
            "encoder.b1": np.zeros(k),
            "encoder.W2": xavier_init(rng, (k, k)),
            "encoder.b2": np.zeros(k),
            "answer.V": xavier_init(rng, (k, d)),
            "answer.b": np.zeros(d),
            # Copy head: scales direct prompt·candidate feature overlap —
            # the substrate analogue of a transformer induction head.  The
            # hidden bottleneck (k ≪ d) cannot represent a general copy
            # operator, so this path carries it; pretraining tunes γ.
            "copy.gamma": np.array([3.0]),
        }
        self.featurizer = HashedFeaturizer(dim=d, salt=config.featurizer_salt)
        self.adapter = None
        self._scale = 1.0 / np.sqrt(k)
        # Dense featurization memos.  Encoding is weight-independent, so
        # clones sharing the same feature space share these dicts.
        self._candidate_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._prompt_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        # Effective-weight memo, keyed by the adapter version counter:
        # within one version the dense W_eff per target is built at most
        # once, however many forward calls read it (AKB fold scoring runs
        # hundreds of batches against a fixed adapter).
        self._adapter_version = 0
        self._weight_memo: Dict[str, np.ndarray] = {}
        self._weight_memo_token: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def bump_adapter_version(self) -> None:
        """Invalidate memoized effective weights.

        Call after mutating adapter parameters in place (the trainer does
        this after every optimizer step; λ-search loops do it after each
        candidate write).  Attach/detach/merge bump automatically.
        """
        self._adapter_version += 1

    def effective_weight(self, name: str) -> np.ndarray:
        """Base weight plus any attached adapter delta (memoized).

        The dense sum is built once per adapter version and reused until
        :meth:`bump_adapter_version`.
        """
        base = self.weights[name]
        if self.adapter is None:
            return base
        token = (self._adapter_version, id(self.adapter))
        if token != self._weight_memo_token:
            self._weight_memo = {}
            self._weight_memo_token = token
        cached = self._weight_memo.get(name)
        if cached is not None:
            return cached
        delta = self.adapter.delta(name)
        if delta is None:
            result = base
        else:
            PERF.count("model.weight_materializations")
            result = base + delta
        self._weight_memo[name] = result
        return result

    def attach(self, adapter) -> None:
        """Attach a LoRA patch or fusion stack (replaces any previous)."""
        for name in adapter.target_names:
            if name not in self.weights:
                raise KeyError(f"adapter targets unknown weight {name!r}")
            shape_of = getattr(adapter, "delta_shape", None)
            if shape_of is not None:
                shape = shape_of(name)
            else:
                delta = adapter.delta(name)
                shape = None if delta is None else delta.shape
            if shape is not None and tuple(shape) != self.weights[name].shape:
                raise ValueError(f"adapter delta shape mismatch on {name!r}")
        self.adapter = adapter
        self.bump_adapter_version()

    def detach(self):
        """Remove and return the current adapter."""
        adapter, self.adapter = self.adapter, None
        self.bump_adapter_version()
        return adapter

    def merge_adapter(self) -> None:
        """Fold the adapter into the base weights and drop it."""
        if self.adapter is None:
            return
        for name in self.adapter.target_names:
            delta = self.adapter.delta(name)
            if delta is not None:
                self.weights[name] = self.weights[name] + delta
        self.adapter = None
        self.bump_adapter_version()

    def num_parameters(self) -> int:
        return sum(w.size for w in self.weights.values())

    def clone(self, name: Optional[str] = None) -> "ScoringLM":
        """Deep copy of base weights (the adapter is *not* copied).

        Featurization caches are shared with the clone: encoding depends
        only on the feature space (salt + dim), never on the weights, so
        cross-fit shadow models and per-tier baselines reuse every
        already-hashed string instead of starting cold.
        """
        config = self.config
        if name is not None:
            config = ModelConfig(
                name=name,
                feature_dim=config.feature_dim,
                hidden_dim=config.hidden_dim,
                seed=config.seed,
                featurizer_salt=config.featurizer_salt,
            )
        copy = ScoringLM(
            config,
            candidate_cache_size=self.candidate_cache_size,
            prompt_cache_size=self.prompt_cache_size,
        )
        for key, value in self.weights.items():
            copy.weights[key] = value.copy()
        if (
            copy.config.feature_dim == self.config.feature_dim
            and copy.config.featurizer_salt == self.config.featurizer_salt
        ):
            copy._candidate_cache = self._candidate_cache
            copy._prompt_cache = self._prompt_cache
        return copy

    def __getstate__(self):
        """Pickle weights + adapter but never the dense featurization memos.

        The memos are re-derivable from text and can hold hundreds of
        megabytes; worker processes rebuild their own (or inherit the
        parent's via fork copy-on-write before the first task).
        """
        state = self.__dict__.copy()
        state["_candidate_cache"] = OrderedDict()
        state["_prompt_cache"] = OrderedDict()
        # Memoized effective weights are re-derivable and would pickle a
        # redundant dense copy per target.
        state["_weight_memo"] = {}
        state["_weight_memo_token"] = None
        return state

    # ------------------------------------------------------------------
    # Featurization
    # ------------------------------------------------------------------
    def encode_prompt(self, text: str) -> np.ndarray:
        """Featurize a prompt, memoising the dense row (LRU-bounded)."""
        cache = self._prompt_cache
        vec = cache.get(text)
        if vec is not None:
            cache.move_to_end(text)
            PERF.count("model.prompt_hits")
            obs.counter("model.prompt_hit")
            return vec
        PERF.count("model.prompt_misses")
        obs.counter("model.prompt_miss")
        vec = self.featurizer.encode(text)
        vec.setflags(write=False)
        cache[text] = vec
        if len(cache) > self.prompt_cache_size:
            cache.popitem(last=False)
        return vec

    def encode_prompts(self, texts: Sequence[str]) -> np.ndarray:
        """Featurize a batch of prompts into an ``(n, D)`` matrix."""
        if not texts:
            return np.zeros((0, self.config.feature_dim))
        return np.stack([self.encode_prompt(t) for t in texts])

    def encode_candidates(self, texts: Sequence[str]) -> np.ndarray:
        """Featurize candidates, memoising individual strings (LRU)."""
        cache = self._candidate_cache
        rows = []
        for text in texts:
            vec = cache.get(text)
            if vec is None:
                PERF.count("model.candidate_misses")
                obs.counter("model.candidate_miss")
                vec = self.featurizer.encode(text)
                vec.setflags(write=False)
                cache[text] = vec
                if len(cache) > self.candidate_cache_size:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(text)
                PERF.count("model.candidate_hits")
                obs.counter("model.candidate_hit")
            rows.append(vec)
        if not rows:
            return np.zeros((0, self.config.feature_dim))
        return np.stack(rows)

    def cache_sizes(self) -> Dict[str, int]:
        """Current entry counts of every featurization cache layer."""
        return {
            "candidate": len(self._candidate_cache),
            "prompt": len(self._prompt_cache),
            "featurizer_sparse": len(self.featurizer._sparse_cache),
        }

    def emit_cache_gauges(self) -> Dict[str, int]:
        """Sample the cache sizes into ``obs`` gauges; returns the sizes.

        The serve scheduler calls this each batch tick so a trace shows
        resident cache growth staying flat under the configured LRU
        bounds (``REPRO_LRU_SIZE`` / the constructor arguments).
        """
        sizes = self.cache_sizes()
        if obs.enabled():
            for cache_name, size in sizes.items():
                obs.gauge(
                    "model.cache_size",
                    size,
                    cache=cache_name,
                    model=self.config.name,
                )
        return sizes

    def encode_example(
        self, prompt: str, candidates: Sequence[str], target: int = 0
    ) -> EncodedExample:
        return EncodedExample(
            prompt=self.encode_prompt(prompt),
            candidates=self.encode_candidates(candidates),
            target=target,
        )

    # ------------------------------------------------------------------
    # Ragged batch assembly
    # ------------------------------------------------------------------
    @staticmethod
    def _offsets_for(sizes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Prefix-sum offsets plus the flat→row index map."""
        sizes = np.asarray(sizes, dtype=np.intp)
        offsets = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        rows = np.repeat(np.arange(sizes.size), sizes)
        return offsets, rows

    def _ragged_from_encoded(
        self, batch: Sequence[EncodedExample]
    ) -> RaggedBatch:
        offsets, rows = self._offsets_for(
            [ex.candidates.shape[0] for ex in batch]
        )
        Y = np.concatenate([ex.candidates for ex in batch])
        return RaggedBatch(
            X=np.stack([ex.prompt for ex in batch]),
            Yu=Y,
            cand_index=np.arange(Y.shape[0], dtype=np.intp),
            offsets=offsets,
            rows=rows,
            targets=np.asarray([ex.target for ex in batch], dtype=np.intp),
            weights=np.asarray([ex.weight for ex in batch]),
        )

    def _ragged_from_text(
        self, prompts: Sequence[str], pools: Sequence[Sequence[str]]
    ) -> RaggedBatch:
        if len(prompts) != len(pools):
            raise ValueError(
                f"{len(prompts)} prompts but {len(pools)} candidate pools"
            )
        for pool in pools:
            if not pool:
                raise ValueError("candidate pools must be non-empty")
        # Dedup candidate strings so shared pools (yes/no, label
        # vocabularies) are embedded once, not once per prompt.
        index_of: Dict[str, int] = {}
        distinct: List[str] = []
        cand_index: List[int] = []
        for pool in pools:
            for candidate in pool:
                slot = index_of.get(candidate)
                if slot is None:
                    slot = len(distinct)
                    index_of[candidate] = slot
                    distinct.append(candidate)
                cand_index.append(slot)
        offsets, rows = self._offsets_for([len(pool) for pool in pools])
        return RaggedBatch(
            X=self.encode_prompts(prompts),
            Yu=self.encode_candidates(distinct),
            cand_index=np.asarray(cand_index, dtype=np.intp),
            offsets=offsets,
            rows=rows,
            targets=np.zeros(len(prompts), dtype=np.intp),
            weights=np.ones(len(prompts)),
        )

    # ------------------------------------------------------------------
    # Forward — the one place the scoring formula lives
    # ------------------------------------------------------------------
    def _score_flat(self, rb: RaggedBatch) -> Tuple[np.ndarray, _Cache]:
        """All candidate logits of a ragged batch via two matmuls.

        Encoder activations are computed once per *prompt*; candidate
        embeddings once per *distinct candidate*; :meth:`_slot_logits`
        turns them into the flat logits.
        """
        W1 = self.effective_weight("encoder.W1")
        W2 = self.effective_weight("encoder.W2")
        V = self.effective_weight("answer.V")
        b = self.weights["answer.b"]
        H_pre = rb.X @ W1.T + self.weights["encoder.b1"]
        H = relu(H_pre)
        U = H @ W2.T + self.weights["encoder.b2"]
        Vy_u = rb.Yu @ V.T  # (u, k) — one embedding per distinct candidate
        yb_u = rb.Yu @ b
        logits, overlap, Vy = self._slot_logits(rb, U, Vy_u, yb_u)
        cache = _Cache(
            batch=rb,
            H_pre=H_pre,
            H=H,
            U=U,
            Vy=Vy,
            overlap=overlap,
            probs=np.zeros(0),
        )
        return logits, cache

    def _slot_logits(
        self,
        rb: RaggedBatch,
        U: np.ndarray,
        Vy_u: np.ndarray,
        yb_u: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat logits, overlaps and slot embeddings from the projections.

        ``U`` holds one encoded row per prompt and ``Vy_u``/``yb_u`` one
        row per distinct candidate of ``rb``.  When pools are shared
        (``n·u`` comparable to ``M``) the whole score surface is one
        dense ``(n, u)`` GEMM and the flat logits are a single gather;
        otherwise per-slot row-gathered einsums keep the cost at
        ``O(M·D)``.
        """
        gamma = float(self.weights["copy.gamma"][0])
        u, m = rb.Yu.shape[0], rb.m
        if u * rb.n <= 2 * m:
            # Dense cross-product: score every prompt against every
            # distinct candidate with GEMMs, then gather the pool slots.
            P = rb.X @ rb.Yu.T  # (n, u) prompt·candidate feature overlap
            S = self._scale * (U @ Vy_u.T) + gamma * P + yb_u
            logits = S[rb.rows, rb.cand_index]
            overlap = P[rb.rows, rb.cand_index]
            Vy = Vy_u[rb.cand_index]
        elif (groups := _shared_pool_groups(rb)) is not None:
            # Grouped shared-pool GEMMs: a few large pools repeated
            # across many prompts (the table-QA full-column-vocabulary
            # shape, where ``u·n ≫ m`` rules the dense path out).  Each
            # distinct pool is scored for all its prompts in one GEMM
            # pair, with the same FLOP count as the gathered einsums
            # below but none of their ``(M, D)`` materialisations —
            # which at D=2048 dominate wall-clock through memory
            # traffic, not arithmetic.
            logits = np.empty(m)
            overlap = np.empty(m)
            for row_ids in groups:
                first = row_ids[0]
                slots = rb.cand_index[
                    rb.offsets[first] : rb.offsets[first + 1]
                ]
                idx = np.asarray(row_ids, dtype=np.intp)
                P_g = rb.X[idx] @ rb.Yu[slots].T  # (n_g, u_g)
                S_g = (
                    self._scale * (U[idx] @ Vy_u[slots].T)
                    + gamma * P_g
                    + yb_u[slots]
                )
                for pos, i in enumerate(row_ids):
                    logits[rb.offsets[i] : rb.offsets[i + 1]] = S_g[pos]
                    overlap[rb.offsets[i] : rb.offsets[i + 1]] = P_g[pos]
            Vy = Vy_u[rb.cand_index]
        else:
            Vy = Vy_u[rb.cand_index]  # (M, k)
            X_rows = rb.X[rb.rows]  # (M, D) gather of each slot's prompt
            overlap = np.einsum("md,md->m", rb.Y, X_rows)
            logits = (
                self._scale * np.einsum("mk,mk->m", Vy, U[rb.rows])
                + yb_u[rb.cand_index]
                + gamma * overlap
            )
        PERF.count("model.batches")
        PERF.count("model.examples", rb.n)
        PERF.count("model.candidates", m)
        if obs.enabled():
            obs.counter("model.batches")
            obs.counter("model.examples", rb.n)
            obs.counter("model.candidates", m)
            obs.histogram("model.batch_size", rb.n)
        return logits, overlap, Vy

    def _forward(
        self, batch: Sequence[EncodedExample]
    ) -> Tuple[np.ndarray, _Cache]:
        """Per-example weighted CE losses plus the backward cache."""
        rb = self._ragged_from_encoded(batch)
        logits, cache = self._score_flat(rb)
        log_z = segment_logsumexp(logits, rb.offsets)
        losses = (log_z - logits[rb.target_flat]) * rb.weights
        cache.probs = segment_softmax(logits, rb.offsets)
        return losses, cache

    # ------------------------------------------------------------------
    # Batched inference API
    # ------------------------------------------------------------------
    def forward_batch(
        self, prompts: Sequence[str], pools: Sequence[Sequence[str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw engine output: ``(flat_logits, offsets)`` for ragged pools.

        Prompt ``i``'s logits are ``flat_logits[offsets[i]:offsets[i+1]]``.
        """
        if not prompts:
            return np.zeros(0), np.zeros(1, dtype=np.intp)
        with PERF.timer("model.forward"):
            rb = self._ragged_from_text(prompts, pools)
            logits, __ = self._score_flat(rb)
        return logits, rb.offsets

    def logits_batch(
        self, prompts: Sequence[str], pools: Sequence[Sequence[str]]
    ) -> List[np.ndarray]:
        """Per-prompt candidate logits (a ragged list of arrays)."""
        flat, offsets = self.forward_batch(prompts, pools)
        return [
            flat[offsets[i] : offsets[i + 1]] for i in range(len(prompts))
        ]

    def probabilities_batch(
        self, prompts: Sequence[str], pools: Sequence[Sequence[str]]
    ) -> List[np.ndarray]:
        """Per-prompt softmax distributions over each candidate pool."""
        flat, offsets = self.forward_batch(prompts, pools)
        probs = segment_softmax(flat, offsets)
        return [
            probs[offsets[i] : offsets[i + 1]] for i in range(len(prompts))
        ]

    def predict_batch(
        self, prompts: Sequence[str], pools: Sequence[Sequence[str]]
    ) -> List[int]:
        """Greedy decode for every prompt: argmax index into its pool."""
        flat, offsets = self.forward_batch(prompts, pools)
        return [
            int(np.argmax(flat[offsets[i] : offsets[i + 1]]))
            for i in range(len(prompts))
        ]

    def predict_mixed(
        self,
        prompts: Sequence[str],
        pools: Sequence[Sequence[str]],
        slices: Sequence[Tuple[Optional[object], int, int]],
    ) -> List[int]:
        """Greedy decode of a batch whose row slices carry different adapters.

        ``slices`` lists ``(adapter, start, stop)`` in row order and must
        tile ``range(len(prompts))``; ``adapter`` is anything with
        ``rank_components`` (a LoRA patch or a fusion), or ``None`` for
        the frozen base.  Nothing is attached and :attr:`adapter` is
        ignored: see :meth:`_mixed_logits`.
        """
        flat, offsets = self._mixed_logits(prompts, pools, slices)
        return [
            int(np.argmax(flat[offsets[i] : offsets[i + 1]]))
            for i in range(len(prompts))
        ]

    def _mixed_logits(
        self,
        prompts: Sequence[str],
        pools: Sequence[Sequence[str]],
        slices: Sequence[Tuple[Optional[object], int, int]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat_logits, offsets)`` of a mixed-adapter batch.

        The batch is featurized once, with candidates deduplicated per
        slice so that every slice owns a contiguous run of ``Yu`` rows.
        The frozen-base projections of the whole batch are computed
        once; each slice then adds its adapter's low-rank terms
        ``coeff·((P @ Aᵀ) @ Bᵀ)`` to its own rows, as the rank-space
        training engine does, so no dense weight is ever built.  A row's
        logits equal those of :meth:`forward_batch` with its slice's
        adapter attached up to float association order: within rtol
        1e-9, so the argmax is the same unless two candidates tie to
        that precision.
        """
        if len(prompts) != len(pools):
            raise ValueError(
                f"{len(prompts)} prompts but {len(pools)} candidate pools"
            )
        if not prompts:
            return np.zeros(0), np.zeros(1, dtype=np.intp)
        bounds = [(int(start), int(stop)) for __, start, stop in slices]
        ends = [0] + [stop for __, stop in bounds]
        if ends[-1] != len(prompts) or any(
            start != end or stop <= start
            for (start, stop), end in zip(bounds, ends)
        ):
            raise ValueError(
                f"slices {bounds} do not tile {len(prompts)} prompts"
            )
        with obs.span("serve.featurize", prompts=len(prompts)):
            parts = [
                self._ragged_from_text(prompts[start:stop], pools[start:stop])
                for start, stop in bounds
            ]
            firsts = np.cumsum([0] + [part.Yu.shape[0] for part in parts])
            offsets, rows = self._offsets_for([len(pool) for pool in pools])
            rb = RaggedBatch(
                X=np.concatenate([part.X for part in parts]),
                Yu=np.concatenate([part.Yu for part in parts]),
                cand_index=np.concatenate(
                    [p.cand_index + first for p, first in zip(parts, firsts)]
                ),
                offsets=offsets,
                rows=rows,
                targets=np.zeros(len(prompts), dtype=np.intp),
                weights=np.ones(len(prompts)),
            )
        with obs.span("serve.score", slices=len(slices)):
            weights = self.weights
            H_pre = rb.X @ weights["encoder.W1"].T + weights["encoder.b1"]
            Vy_u = rb.Yu @ weights["answer.V"].T
            yb_u = rb.Yu @ weights["answer.b"]
            runs = list(zip(slices, firsts, firsts[1:]))
            for (adapter, start, stop), first, last in runs:
                _add_rank_terms(
                    H_pre[start:stop], rb.X[start:stop], adapter, "encoder.W1"
                )
                _add_rank_terms(
                    Vy_u[first:last], rb.Yu[first:last], adapter, "answer.V"
                )
            H = relu(H_pre)
            U = H @ weights["encoder.W2"].T + weights["encoder.b2"]
            for (adapter, start, stop), __, __ in runs:
                _add_rank_terms(
                    U[start:stop], H[start:stop], adapter, "encoder.W2"
                )
            logits, __, __ = self._slot_logits(rb, U, Vy_u, yb_u)
        return logits, rb.offsets

    # ------------------------------------------------------------------
    # Single-example API (one-row batches of the same engine)
    # ------------------------------------------------------------------
    def logits(self, prompt: str, candidates: Sequence[str]) -> np.ndarray:
        """Raw candidate logits for one prompt."""
        return self.logits_batch([prompt], [candidates])[0]

    def probabilities(self, prompt: str, candidates: Sequence[str]) -> np.ndarray:
        return softmax(self.logits(prompt, candidates))

    def predict(self, prompt: str, candidates: Sequence[str]) -> int:
        """Greedy decode: index of the highest-likelihood candidate."""
        return self.predict_batch([prompt], [candidates])[0]

    def sample(
        self,
        prompt: str,
        candidates: Sequence[str],
        temperature: float = 0.35,
        top_k: int = 10,
        top_p: float = 0.9,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Nucleus/top-k sampling decode (paper inference settings).

        With the paper's defaults (T=0.35, k=10, p=0.9) this behaves
        near-greedily; the harness evaluates with :meth:`predict` for
        determinism but tests exercise this path too.
        """
        if temperature <= 0:
            return self.predict(prompt, candidates)
        logits = self.logits(prompt, candidates) / temperature
        order = np.argsort(logits)[::-1]
        keep = order[: max(1, min(top_k, len(order)))]
        probs = softmax(logits[keep])
        cumulative = np.cumsum(probs)
        cutoff = int(np.searchsorted(cumulative, top_p) + 1)
        keep = keep[:cutoff]
        probs = softmax(logits[keep])
        rng = rng or np.random.default_rng(0)
        return int(rng.choice(keep, p=probs))

    def evaluate_loss(self, batch: Sequence[EncodedExample]) -> float:
        """Mean weighted CE loss with no gradient computation.

        The backward pass costs several times the forward, so loss-only
        evaluation (early-stopping probes, reporting) must never route
        through :meth:`loss_and_gradients`.  The loss value is computed
        from the same logits as the training path, so the two agree
        bit-for-bit.
        """
        if not batch:
            raise ValueError("empty batch")
        self.bump_adapter_version()
        with PERF.timer("model.evaluate_loss"):
            rb = self._ragged_from_encoded(batch)
            logits, __cache = self._score_flat(rb)
            log_z = segment_logsumexp(logits, rb.offsets)
            losses = (log_z - logits[rb.target_flat]) * rb.weights
        return float(losses.mean())

    # ------------------------------------------------------------------
    # Rank-space frozen-backbone engine
    # ------------------------------------------------------------------
    def frozen_activations(
        self, examples: Sequence[EncodedExample]
    ) -> FrozenActivations:
        """Precompute the frozen-backbone projections of a dataset.

        Only valid while the base weights stay fixed (``train_base=False``
        fits); the adapter is free to change between calls on the
        returned sidecar.
        """
        return FrozenActivations(self, examples)

    def _rank_forward(self, fb: FrozenBatch) -> Tuple[np.ndarray, _RankCache]:
        """Flat logits of a frozen batch via rank-space adapter terms.

        Numerically equal to :meth:`_score_flat` on the same rows (the
        scoring formula is identical; only the association order of the
        adapter contribution differs): each low-rank term enters as
        ``coeff·((P @ Aᵀ) @ Bᵀ)`` so no dense ``(out, in)`` matrix is
        ever formed.
        """
        rb = fb.rb
        adapter = self.adapter
        comps_W1 = adapter.rank_components("encoder.W1") if adapter else []
        comps_W2 = adapter.rank_components("encoder.W2") if adapter else []
        comps_V = adapter.rank_components("answer.V") if adapter else []
        H_pre = fb.XW1b.copy()
        PA: List[np.ndarray] = []
        for comp in comps_W1:
            prod = rb.X @ comp.A.T
            PA.append(prod)
            H_pre += comp.coeff * (prod @ comp.B.T)
        H = relu(H_pre)
        U = H @ self.weights["encoder.W2"].T + self.weights["encoder.b2"]
        HA: List[np.ndarray] = []
        for comp in comps_W2:
            prod = H @ comp.A.T
            HA.append(prod)
            U += comp.coeff * (prod @ comp.B.T)
        Vy = fb.YV.copy()
        YA: List[np.ndarray] = []
        for comp in comps_V:
            prod = rb.Y @ comp.A.T
            YA.append(prod)
            Vy += comp.coeff * (prod @ comp.B.T)
        gamma = float(self.weights["copy.gamma"][0])
        logits = (
            self._scale * np.einsum("mk,mk->m", Vy, U[rb.rows])
            + fb.yb
            + gamma * fb.overlap
        )
        PERF.count("model.batches")
        PERF.count("model.examples", rb.n)
        PERF.count("model.candidates", rb.m)
        if obs.enabled():
            obs.counter("model.batches")
            obs.counter("model.examples", rb.n)
            obs.counter("model.candidates", rb.m)
            obs.histogram("model.batch_size", rb.n)
        cache = _RankCache(
            H_pre=H_pre,
            H=H,
            U=U,
            Vy=Vy,
            comps_W1=comps_W1,
            comps_W2=comps_W2,
            comps_V=comps_V,
            PA=PA,
            HA=HA,
            YA=YA,
        )
        return logits, cache

    def rank_evaluate_loss(self, fb: FrozenBatch) -> float:
        """Mean weighted CE loss on a frozen batch, forward only."""
        rb = fb.rb
        if rb.n == 0:
            raise ValueError("empty batch")
        with PERF.timer("model.evaluate_loss"):
            logits, __ = self._rank_forward(fb)
            log_z = segment_logsumexp(logits, rb.offsets)
            losses = (log_z - logits[rb.target_flat]) * rb.weights
        return float(losses.mean())

    def rank_loss_and_gradients(
        self, fb: FrozenBatch
    ) -> Tuple[float, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Frozen-backbone analogue of :meth:`loss_and_gradients`.

        Returns ``(loss, {}, adapter_grads)`` — the base is frozen by
        construction, so base gradients are always empty.  Adapter
        gradients are produced through factored rank-space products:
        with ``M = dW_eff @ Aᵀ`` (computed as a gather-free product with
        the forward's cached ``P @ Aᵀ`` intermediates),

        * ``∂loss/∂B = grad_coeff·M``,
        * ``∂loss/∂A = grad_coeff·(dRows @ B)ᵀ @ P``,
        * ``∂loss/∂λ_i = α·Σ(M ∘ B)``,

        so no dense ``(out, in)`` gradient or delta is ever built.  The
        gradient key set matches the dense path exactly (λ only when a
        component advertises a ``lambda_index``; patch arrays only when
        ``trainable``).
        """
        rb = fb.rb
        if rb.n == 0:
            raise ValueError("empty batch")
        with PERF.timer("model.backward"):
            n = rb.n
            logits, cache = self._rank_forward(fb)
            log_z = segment_logsumexp(logits, rb.offsets)
            losses = (log_z - logits[rb.target_flat]) * rb.weights
            probs = segment_softmax(logits, rb.offsets)
            starts = rb.offsets[:-1]

            dlogits = probs
            dlogits[rb.target_flat] -= 1.0
            dlogits *= (rb.weights / n)[rb.rows]
            dU = self._scale * np.add.reduceat(
                dlogits[:, None] * cache.Vy, starts, axis=0
            )
            # G.T @ Y would be the dense dV_eff; we only ever take its
            # products with the (D, r) factors.
            G = self._scale * (cache.U[rb.rows] * dlogits[:, None])

            adapter_grads: Dict[str, np.ndarray] = {}
            lambda_grad: Optional[np.ndarray] = None

            def note_lambda(comp, M) -> None:
                nonlocal lambda_grad
                if lambda_grad is None:
                    lambda_grad = np.zeros_like(self.adapter.lambdas)
                lambda_grad[comp.lambda_index] += comp.alpha * float(
                    np.sum(M * comp.B)
                )

            for comp, YAc in zip(cache.comps_V, cache.YA):
                if comp.lambda_index is None and not comp.trainable:
                    continue
                M = G.T @ YAc
                if comp.lambda_index is not None:
                    note_lambda(comp, M)
                if comp.trainable:
                    _accumulate(adapter_grads, comp.key_B, comp.grad_coeff * M)
                    _accumulate(
                        adapter_grads,
                        comp.key_A,
                        comp.grad_coeff * ((G @ comp.B).T @ rb.Y),
                    )

            dH = dU @ self.weights["encoder.W2"]
            for comp, HAc in zip(cache.comps_W2, cache.HA):
                dUB = dU @ comp.B
                dH += comp.coeff * (dUB @ comp.A)
                if comp.lambda_index is None and not comp.trainable:
                    continue
                M = dU.T @ HAc
                if comp.lambda_index is not None:
                    note_lambda(comp, M)
                if comp.trainable:
                    _accumulate(adapter_grads, comp.key_B, comp.grad_coeff * M)
                    _accumulate(
                        adapter_grads,
                        comp.key_A,
                        comp.grad_coeff * (dUB.T @ cache.H),
                    )

            dH_pre = dH * relu_grad(cache.H_pre)
            for comp, PAc in zip(cache.comps_W1, cache.PA):
                if comp.lambda_index is None and not comp.trainable:
                    continue
                M = dH_pre.T @ PAc
                if comp.lambda_index is not None:
                    note_lambda(comp, M)
                if comp.trainable:
                    _accumulate(adapter_grads, comp.key_B, comp.grad_coeff * M)
                    _accumulate(
                        adapter_grads,
                        comp.key_A,
                        comp.grad_coeff * ((dH_pre @ comp.B).T @ rb.X),
                    )

            if lambda_grad is not None:
                _accumulate(
                    adapter_grads, self.adapter.lambda_key, lambda_grad
                )
        PERF.count("train.rank_space_steps")
        obs.counter("train.rank_space_steps")
        return float(losses.mean()), {}, adapter_grads

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def loss_and_gradients(
        self, batch: Sequence[EncodedExample], train_base: bool = True
    ) -> Tuple[float, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Mean CE loss plus gradients for base weights and the adapter.

        Returns ``(loss, base_grads, adapter_grads)`` where ``base_grads``
        is empty when ``train_base`` is False and ``adapter_grads`` is
        empty when no adapter is attached.  The backward pass is fully
        vectorized over the ragged batch — no per-example Python loop.
        """
        if not batch:
            raise ValueError("empty batch")
        # Adapter arrays may have been updated in place since the last
        # step; re-materialise once here, then the backward's second
        # effective_weight("encoder.W2") read below is a memo hit instead
        # of a second dense build.
        self.bump_adapter_version()
        with PERF.timer("model.backward"):
            losses, cache = self._forward(batch)
            rb = cache.batch
            n = rb.n
            W2 = self.effective_weight("encoder.W2")
            starts = rb.offsets[:-1]

            dlogits = cache.probs.copy()
            dlogits[rb.target_flat] -= 1.0
            dlogits *= (rb.weights / n)[rb.rows]
            # dU_i = scale · Σ_j dlogits_ij Vy_ij  — a segment sum.
            dU = self._scale * np.add.reduceat(
                dlogits[:, None] * cache.Vy, starts, axis=0
            )
            # dV = scale · Σ_m dlogits_m · U_{row(m)} ⊗ Y_m as one matmul.
            dV_eff = self._scale * (
                (cache.U[rb.rows] * dlogits[:, None]).T @ rb.Y
            )
            db_ans = dlogits @ rb.Y
            dgamma = float(dlogits @ cache.overlap)
            dH = dU @ W2
            dH_pre = dH * relu_grad(cache.H_pre)
            dW2_eff = dU.T @ cache.H
            dW1_eff = dH_pre.T @ rb.X
            effective_grads = {
                "encoder.W1": dW1_eff,
                "encoder.W2": dW2_eff,
                "answer.V": dV_eff,
            }

            base_grads: Dict[str, np.ndarray] = {}
            if train_base:
                base_grads = dict(effective_grads)
                base_grads["encoder.b1"] = dH_pre.sum(axis=0)
                base_grads["encoder.b2"] = dU.sum(axis=0)
                base_grads["answer.b"] = db_ans
                base_grads["copy.gamma"] = np.array([dgamma])

            adapter_grads: Dict[str, np.ndarray] = {}
            if self.adapter is not None:
                for name, d_weight in effective_grads.items():
                    for key, grad in self.adapter.grad_wrt(name, d_weight).items():
                        if key in adapter_grads:
                            adapter_grads[key] = adapter_grads[key] + grad
                        else:
                            adapter_grads[key] = grad
        return float(losses.mean()), base_grads, adapter_grads
