"""Low-Rank Adaptation (LoRA) knowledge patches.

A :class:`LoRAPatch` carries, for every targeted weight matrix ``W`` of
shape ``(out, in)``, a pair ``(B, A)`` with ``B ∈ R^{out×r}`` and
``A ∈ R^{r×in}`` so that the effective weight becomes
``W + α·B·A`` (paper Eq. 2).  Following the paper, ``B`` is initialised
from a Gaussian and ``A`` from zeros, so a fresh patch is a no-op until
trained.

Patches are the unit of "knowledge" in SKC: one patch per upstream
dataset, extracted on the *base* model, then re-attached to the
*upstream* model for dynamic fusion (see :mod:`repro.core.skc`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .linalg import gaussian_init, gram_trace, rng_for

__all__ = ["LoRAPatch", "RankComponent"]


@dataclass(frozen=True)
class RankComponent:
    """One low-rank term of an adapter's effective update for a weight.

    The attached adapter contributes ``Σ coeff·B·A`` to ``W_eff``; the
    rank-space engine consumes these terms directly (never forming the
    dense ``B·A``), applying each as ``coeff·((P @ Aᵀ) @ Bᵀ)`` in row
    space.  ``grad_coeff`` scales the ``B``/``A`` gradients (a fused
    upstream patch's gradients carry its λ), ``alpha`` feeds the
    λ-gradient identity ``α·Σ((dW @ Aᵀ) ∘ B)``, and ``lambda_index``
    names the fusion λ slot this term's mixing weight lives in (``None``
    when the coefficient is not trainable).
    """

    B: np.ndarray
    A: np.ndarray
    coeff: float
    alpha: float
    grad_coeff: float
    key_B: Optional[str]
    key_A: Optional[str]
    trainable: bool
    lambda_index: Optional[int] = None


class LoRAPatch:
    """A modular low-rank knowledge patch.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"em-abt_buy"``; prefixes parameter keys.
    target_shapes:
        Mapping from weight name (e.g. ``"encoder.W1"``) to its
        ``(out, in)`` shape.
    rank:
        LoRA rank ``r`` (paper default analogue).
    alpha:
        Scaling factor applied to ``B·A`` in the effective weight.
    seed:
        Root seed; the Gaussian ``B`` init derives from it and ``name``.
    """

    def __init__(
        self,
        name: str,
        target_shapes: Mapping[str, Tuple[int, int]],
        rank: int = 4,
        alpha: float = 1.0,
        seed: int = 0,
    ):
        if rank < 1:
            raise ValueError(f"LoRA rank must be >= 1, got {rank}")
        self.name = name
        self.rank = rank
        self.alpha = float(alpha)
        self.B: Dict[str, np.ndarray] = {}
        self.A: Dict[str, np.ndarray] = {}
        rng = rng_for(seed, "lora", name)
        for weight_name, (out_dim, in_dim) in target_shapes.items():
            if rank > min(out_dim, in_dim):
                raise ValueError(
                    f"rank {rank} exceeds min dim of {weight_name} "
                    f"({out_dim}x{in_dim})"
                )
            # Paper Section V-A: B ~ Gaussian, A = 0.
            self.B[weight_name] = gaussian_init(rng, (out_dim, rank))
            self.A[weight_name] = np.zeros((rank, in_dim))

    # ------------------------------------------------------------------
    # Adapter protocol (shared with PatchFusion)
    # ------------------------------------------------------------------
    @property
    def target_names(self) -> Tuple[str, ...]:
        return tuple(self.B.keys())

    def delta(self, weight_name: str) -> np.ndarray | None:
        """Effective update ``α·B·A`` for a weight, or None if untargeted."""
        if weight_name not in self.B:
            return None
        return self.alpha * (self.B[weight_name] @ self.A[weight_name])

    def delta_shape(self, weight_name: str) -> Tuple[int, int] | None:
        """Shape of :meth:`delta` without materialising it."""
        if weight_name not in self.B:
            return None
        return (self.B[weight_name].shape[0], self.A[weight_name].shape[1])

    def rank_components(self, weight_name: str) -> List[RankComponent]:
        """This patch's low-rank terms for a weight (rank-space protocol)."""
        if weight_name not in self.B:
            return []
        return [
            RankComponent(
                B=self.B[weight_name],
                A=self.A[weight_name],
                coeff=self.alpha,
                alpha=self.alpha,
                grad_coeff=self.alpha,
                key_B=f"{self.name}/{weight_name}/B",
                key_A=f"{self.name}/{weight_name}/A",
                trainable=True,
            )
        ]

    def parameters(self) -> Dict[str, np.ndarray]:
        """Flat, mutably-aliased view of all trainable arrays."""
        params: Dict[str, np.ndarray] = {}
        for weight_name in self.B:
            params[f"{self.name}/{weight_name}/B"] = self.B[weight_name]
            params[f"{self.name}/{weight_name}/A"] = self.A[weight_name]
        return params

    def grad_wrt(
        self, weight_name: str, d_weight: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Gradients of the loss w.r.t. this patch's arrays.

        ``d_weight`` is ∂loss/∂W_eff for the targeted weight; by the chain
        rule ∂loss/∂B = α·dW·Aᵀ and ∂loss/∂A = α·Bᵀ·dW.
        """
        if weight_name not in self.B:
            return {}
        return {
            f"{self.name}/{weight_name}/B": self.alpha
            * (d_weight @ self.A[weight_name].T),
            f"{self.name}/{weight_name}/A": self.alpha
            * (self.B[weight_name].T @ d_weight),
        }

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return sum(b.size for b in self.B.values()) + sum(
            a.size for a in self.A.values()
        )

    def frobenius_norm(self) -> float:
        """Norm of the full update — a cheap "how much was learned" probe.

        ``‖α·B·A‖_F² = α²·trace((BᵀB)(AAᵀ))`` — two ``(r, r)`` Gram
        matrices instead of the dense ``(out, in)`` delta.
        """
        total = 0.0
        for weight_name in self.B:
            total += self.alpha**2 * gram_trace(
                self.B[weight_name], self.A[weight_name]
            )
        return float(np.sqrt(total))

    def clone(self, name: str | None = None) -> "LoRAPatch":
        """Deep copy, optionally renamed."""
        shapes = {w: (b.shape[0], self.A[w].shape[1]) for w, b in self.B.items()}
        copy = LoRAPatch(
            name or self.name, shapes, rank=self.rank, alpha=self.alpha
        )
        for weight_name in self.B:
            copy.B[weight_name] = self.B[weight_name].copy()
            copy.A[weight_name] = self.A[weight_name].copy()
        return copy

    def scaled(self, factor: float) -> "LoRAPatch":
        """Return a copy whose effective update is multiplied by ``factor``."""
        copy = self.clone()
        copy.alpha *= factor
        return copy

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serialisable state (compose with ``np.savez`` for disk)."""
        state: Dict[str, np.ndarray] = {}
        for weight_name in self.B:
            state[f"B::{weight_name}"] = self.B[weight_name]
            state[f"A::{weight_name}"] = self.A[weight_name]
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        for key, value in state.items():
            kind, _, weight_name = key.partition("::")
            table = self.B if kind == "B" else self.A
            if weight_name not in table:
                raise KeyError(f"unknown LoRA target {weight_name!r}")
            if table[weight_name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: "
                    f"{table[weight_name].shape} vs {value.shape}"
                )
            table[weight_name] = np.asarray(value, dtype=float).copy()

    def __iter__(self) -> Iterator[str]:
        return iter(self.B)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LoRAPatch({self.name!r}, rank={self.rank}, "
            f"targets={list(self.B)})"
        )
