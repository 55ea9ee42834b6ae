"""Adam-based trainer for :class:`~repro.tinylm.model.ScoringLM`.

Implements the conditional maximum-likelihood objective of paper Eq. 3
(patch extraction and few-shot fine-tuning alike) with mini-batching,
gradient clipping, and selective parameter groups:

* ``train_base=True`` updates the frozen-by-default backbone — used for
  upstream multi-task supervised fine-tuning (building "Jellyfish").
* Attaching an adapter and ``train_base=False`` updates only the LoRA
  patch / fusion parameters — used by SKC stages 1 and 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..runtime import INLINE, Lanes, fit_lanes
from .linalg import rng_for
from .model import (
    CANDIDATE_TOWER_PARAMS,
    EncodedExample,
    FrozenActivations,
    ScoringLM,
)

__all__ = [
    "FIT_PURPOSES",
    "TrainConfig",
    "TrainingExample",
    "Trainer",
    "StreamState",
]

#: What a :meth:`Trainer.fit` is for, as tagged on its ``trainer.fit``
#: span and ``trainer.fits`` counter: backbone pretraining, upstream
#: SFT, an SKC stage-1 patch, a fused few-shot fine-tune, or an AKB
#: cross-fit shadow's fine-tune.
FIT_PURPOSES: Tuple[str, ...] = ("pretrain", "sft", "patch", "finetune", "crossfit")


@dataclass(frozen=True)
class TrainingExample:
    """One text-level supervised instance before featurization."""

    prompt: str
    candidates: Tuple[str, ...]
    target: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.target < len(self.candidates):
            raise ValueError(
                f"target {self.target} out of range for "
                f"{len(self.candidates)} candidates"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyperparameters (paper Section VII-A analogues)."""

    learning_rate: float = 6e-3
    batch_size: int = 4
    epochs: int = 3
    grad_clip: float = 5.0
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True


@dataclass
class _AdamSlot:
    """Adam moments plus two scratch buffers of the parameter's shape.

    ``g`` holds the working (decayed / clipped) gradient and ``t`` the
    intermediate products, so an update allocates nothing.
    """

    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    t: np.ndarray
    step: int = 0


@dataclass
class StreamState:
    """Warm-start state threaded across :meth:`Trainer.fit_incremental`.

    Owns the growing :class:`FrozenActivations` sidecar plus stream
    position counters.  The Adam moments live on the trainer itself
    (``_slots``), so handing a ``StreamState`` to a *different* trainer
    resumes the activation cache but restarts the optimiser — keep one
    trainer per stream for exact warm resumption.
    """

    frozen: Optional[FrozenActivations] = None
    examples_seen: int = 0
    batches: int = 0


@dataclass
class TrainReport:
    """Loss trajectory returned by :meth:`Trainer.fit`."""

    epoch_losses: List[float] = field(default_factory=list)
    step_losses: List[float] = field(default_factory=list)
    rank_space: bool = False

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Stateful optimiser bound to one model (and its current adapter).

    The engine follows from what is trained.  A frozen backbone
    (``train_base=False``) with an adapter that speaks the rank-space
    protocol (``rank_components``) takes the rank-space path: frozen
    projections are computed once per :meth:`fit` dataset
    (:class:`~repro.tinylm.model.FrozenActivations`) and every step runs
    through :meth:`ScoringLM.rank_loss_and_gradients`, never building a
    dense effective weight.  Everything else — base training, or no
    rank-protocol adapter — takes the dense step.

    Every path shares one Adam update, :meth:`_adam_update`, which works
    in place on per-parameter scratch buffers kept beside the moments:
    it allocates nothing per call and stays bit-identical to the
    allocating textbook expression (see ``docs/performance.md``).  With
    tracing on, each step records its optimizer share as the
    ``trainer.optimizer_ms`` histogram.

    A dense fit runs each step's forward, backward and Adam phases on
    two lanes (:func:`repro.runtime.fit_lanes`) when a second CPU is
    free: the candidate tower (``answer.V``, ``answer.b``) on a lane
    thread, the prompt tower inline.  Every float is the same as with
    one lane.
    """

    def __init__(
        self,
        model: ScoringLM,
        config: Optional[TrainConfig] = None,
        train_base: bool = True,
    ):
        self.model = model
        self.config = config or TrainConfig()
        self.train_base = train_base
        self._slots: Dict[str, _AdamSlot] = {}
        # The adapter whose moments the "adapter/" slots belong to.
        # Parameter keys carry only the adapter's *name*, so two patches
        # named alike would otherwise silently share stale Adam state
        # after a swap; step() resets the slots on identity change.
        self._slots_adapter = model.adapter
        # Streaming sidecar grown by fit_incremental (None until the
        # first micro-batch arrives).
        self.stream_state: Optional[StreamState] = None

    def _use_rank_space(self) -> bool:
        return (
            not self.train_base
            and self.model.adapter is not None
            and hasattr(self.model.adapter, "rank_components")
        )

    # ------------------------------------------------------------------
    def _encode(self, examples: Sequence[TrainingExample]) -> List[EncodedExample]:
        """Featurize the whole dataset with the batched encoders.

        All prompts go through one :meth:`ScoringLM.encode_prompts` call
        and all candidates through one flat ``encode_candidates`` call;
        :meth:`fit` then reuses the encoded views across every epoch, so
        a fine-tune hashes each training string at most once.
        """
        prompts = self.model.encode_prompts([ex.prompt for ex in examples])
        flat = self.model.encode_candidates(
            [c for ex in examples for c in ex.candidates]
        )
        encoded = []
        start = 0
        for i, ex in enumerate(examples):
            stop = start + len(ex.candidates)
            encoded.append(
                EncodedExample(
                    prompt=prompts[i],
                    candidates=flat[start:stop],
                    target=ex.target,
                    weight=ex.weight,
                )
            )
            start = stop
        return encoded

    def _adam_update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """One Adam step on ``param`` in place, allocating nothing.

        Runs the IEEE operations of the allocating expression

            g = grad + wd*param;  g = g * (clip/|g|) if clipped
            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            param -= lr*(m/c1) / (sqrt(v/c2) + eps)

        in the same order, read left to right, into the slot's reused
        buffers, so every float is bit-identical to it.  ``grad`` is
        never written: ``loss_and_gradients`` shares its arrays between
        the base and adapter paths.
        """
        cfg = self.config
        slot = self._slots.get(key)
        if slot is None or slot.m.shape != param.shape:
            slot = _AdamSlot(
                m=np.zeros_like(param),
                v=np.zeros_like(param),
                g=np.empty_like(param),
                t=np.empty_like(param),
            )
            self._slots[key] = slot
        m, v, t = slot.m, slot.v, slot.t
        g = grad
        if cfg.weight_decay:
            np.multiply(cfg.weight_decay, param, out=t)
            g = np.add(grad, t, out=slot.g)
        norm = np.linalg.norm(g)
        if cfg.grad_clip and norm > cfg.grad_clip:
            g = np.multiply(g, cfg.grad_clip / norm, out=slot.g)
        slot.step += 1
        np.multiply(cfg.beta1, m, out=m)
        np.add(m, np.multiply(1 - cfg.beta1, g, out=t), out=m)
        np.multiply(cfg.beta2, v, out=v)
        np.multiply(np.multiply(1 - cfg.beta2, g, out=t), g, out=t)
        np.add(v, t, out=v)
        np.divide(v, 1 - cfg.beta2**slot.step, out=t)
        np.add(np.sqrt(t, out=t), cfg.eps, out=t)
        # ``g`` is dead from here on, so its buffer takes the step.
        u = np.divide(m, 1 - cfg.beta1**slot.step, out=slot.g)
        np.multiply(cfg.learning_rate, u, out=u)
        np.divide(u, t, out=u)
        np.subtract(param, u, out=param)

    def _apply_adapter_grads(
        self, adapter_grads: Dict[str, np.ndarray]
    ) -> None:
        """Route adapter gradients through Adam (shared by both paths)."""
        if not adapter_grads or self.model.adapter is None:
            return
        if self.model.adapter is not self._slots_adapter:
            for key in [k for k in self._slots if k.startswith("adapter/")]:
                del self._slots[key]
            self._slots_adapter = self.model.adapter
        params = self.model.adapter.parameters()
        for key, grad in adapter_grads.items():
            if key in params:
                self._adam_update("adapter/" + key, params[key], grad)

    def _update_base(self, grads: Dict[str, np.ndarray]) -> None:
        for name, grad in grads.items():
            self._adam_update("base/" + name, self.model.weights[name], grad)

    def _optimize(
        self,
        base_grads: Dict[str, np.ndarray],
        adapter_grads: Dict[str, np.ndarray],
        lanes: Lanes = INLINE,
    ) -> None:
        """The optimizer half of a step, timed as ``trainer.optimizer_ms``.

        The candidate tower's base parameters update on ``lanes`` while
        the rest update here; parameters and slots are disjoint, so the
        order between them changes nothing.  Adapter gradients go after
        the join.
        """
        start = time.perf_counter() if obs.enabled() else None
        tower_grads = {
            k: g for k, g in base_grads.items() if k in CANDIDATE_TOWER_PARAMS
        }
        tower = lanes.submit(self._update_base, tower_grads)
        self._update_base(
            {k: g for k, g in base_grads.items() if k not in tower_grads}
        )
        tower.result()
        self._apply_adapter_grads(adapter_grads)
        self.model.bump_adapter_version()
        if start is not None:
            obs.histogram(
                "trainer.optimizer_ms", (time.perf_counter() - start) * 1e3
            )

    def step(
        self, batch: Sequence[EncodedExample], lanes: Lanes = INLINE
    ) -> float:
        """One optimisation step over an encoded mini-batch."""
        loss, base_grads, adapter_grads = self.model.loss_and_gradients(
            batch, train_base=self.train_base, lanes=lanes
        )
        self._optimize(base_grads, adapter_grads, lanes)
        return loss

    def _rank_step(
        self, frozen: FrozenActivations, indices: np.ndarray
    ) -> float:
        """One optimisation step through the rank-space engine."""
        loss, base_grads, adapter_grads = self.model.rank_loss_and_gradients(
            frozen.batch(indices)
        )
        self._optimize(base_grads, adapter_grads)
        return loss

    def fit(
        self, examples: Sequence[TrainingExample], purpose: str = "finetune"
    ) -> TrainReport:
        """Run the configured number of epochs over ``examples``.

        ``purpose`` (one of :data:`FIT_PURPOSES`) only labels the trace.
        A dense fit opens its lanes for its own scope; the span's
        ``lanes`` attribute says whether it ran on one or two.
        """
        if not examples:
            raise ValueError("cannot fit on an empty example list")
        if purpose not in FIT_PURPOSES:
            raise ValueError(
                f"unknown fit purpose {purpose!r}; expected one of "
                + ", ".join(FIT_PURPOSES)
            )
        use_rank = self._use_rank_space()
        with fit_lanes(enabled=not use_rank) as lanes, obs.span(
            "trainer.fit",
            examples=len(examples),
            epochs=self.config.epochs,
            rank_space=use_rank,
            purpose=purpose,
            lanes=lanes.count,
        ):
            encoded = self._encode(examples)
            rng = rng_for(self.config.seed, "trainer")
            frozen = (
                self.model.frozen_activations(encoded) if use_rank else None
            )
            report = TrainReport(rank_space=use_rank)
            order = np.arange(len(encoded))
            for __epoch in range(self.config.epochs):
                if self.config.shuffle:
                    rng.shuffle(order)
                epoch_loss = 0.0
                batches = 0
                for start in range(0, len(order), self.config.batch_size):
                    idx = order[start : start + self.config.batch_size]
                    if frozen is not None:
                        loss = self._rank_step(frozen, idx)
                    else:
                        loss = self.step([encoded[i] for i in idx], lanes)
                    report.step_losses.append(loss)
                    obs.histogram("trainer.step_loss", loss)
                    epoch_loss += loss
                    batches += 1
                report.epoch_losses.append(epoch_loss / max(batches, 1))
            obs.counter("trainer.fits", rank_space=use_rank, purpose=purpose)
            obs.counter("trainer.steps", len(report.step_losses))
        return report

    def fit_incremental(
        self,
        new_examples: Sequence[TrainingExample],
        warm_state: Optional[StreamState] = None,
    ) -> TrainReport:
        """Extend a streaming fit with one micro-batch of fresh examples.

        Only ``new_examples`` are featurized and projected — the frozen
        sidecar grows in place via :meth:`FrozenActivations.append` — and
        the λ/patch Adam moments accumulated by every prior call resume
        untouched, so per-call cost is ``O(batch)`` rather than
        ``O(stream-so-far)``.  The configured epochs run over the new
        rows only, with a shuffle stream derived from
        ``(seed, "trainer-stream", batch_index)`` so replaying the same
        micro-batch sequence from the same initial adapter state is
        bit-identical, and a refit-from-scratch that presents the
        concatenated stream batch by batch through this same entry point
        reproduces the step losses exactly (documented tolerance:
        ``rtol 1e-9``; the only divergence source is BLAS blocking over
        different GEMM shapes).

        ``warm_state`` adopts the activation sidecar of a previous
        trainer; by default the trainer's own :attr:`stream_state` is
        used (created on first call).
        """
        if not new_examples:
            raise ValueError("cannot fit_incremental on an empty batch")
        if not self._use_rank_space():
            raise RuntimeError(
                "fit_incremental requires the rank-space path: a frozen "
                "backbone (train_base=False) with a rank-protocol adapter "
                "attached"
            )
        state = warm_state if warm_state is not None else self.stream_state
        if state is None:
            state = StreamState()
        self.stream_state = state
        with obs.span(
            "trainer.fit_incremental",
            new_examples=len(new_examples),
            batch_index=state.batches,
            stream_rows=state.examples_seen,
        ):
            encoded = self._encode(new_examples)
            if state.frozen is None:
                state.frozen = self.model.frozen_activations(encoded)
            else:
                state.frozen.append(encoded)
            start = state.examples_seen
            state.examples_seen += len(encoded)
            order = np.arange(start, state.examples_seen)
            rng = rng_for(
                self.config.seed, "trainer-stream", str(state.batches)
            )
            report = TrainReport(rank_space=True)
            for __epoch in range(self.config.epochs):
                if self.config.shuffle:
                    rng.shuffle(order)
                epoch_loss = 0.0
                batches = 0
                for s in range(0, order.size, self.config.batch_size):
                    idx = order[s : s + self.config.batch_size]
                    loss = self._rank_step(state.frozen, idx)
                    report.step_losses.append(loss)
                    obs.histogram("trainer.step_loss", loss)
                    epoch_loss += loss
                    batches += 1
                report.epoch_losses.append(epoch_loss / max(batches, 1))
            state.batches += 1
            obs.counter("trainer.incremental_fits")
            obs.counter("trainer.steps", len(report.step_losses))
        return report

    def evaluate_loss(self, examples: Sequence[TrainingExample]) -> float:
        """Mean CE loss without updating parameters (loss-only forward)."""
        encoded = self._encode(examples)
        return self.model.evaluate_loss(encoded)
