"""Dynamic knowledge-patch fusion (paper Eq. 4).

:class:`PatchFusion` combines N upstream knowledge patches with learnable
interpolation weights λ plus one freshly-initialised "shared" patch:

    W_eff = W0 + Σ_i λ_i·Δ_i + Δ_new

where each Δ_i already carries its own LoRA scaling α.  The fusion module
implements the same adapter protocol as a single :class:`LoRAPatch`
(``delta`` / ``parameters`` / ``grad_wrt``) so a model and trainer do not
need to know whether one patch or a fused stack is attached.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .lora import LoRAPatch, RankComponent

__all__ = ["PatchFusion"]


class PatchFusion:
    """λ-weighted ensemble of knowledge patches plus a new shared patch.

    Parameters
    ----------
    upstream_patches:
        The frozen-or-trainable knowledge patches extracted from upstream
        datasets (Alg. 1 stage 1 output).
    new_patch:
        The additional patch Δ_{N+1} capturing shared downstream
        knowledge; always trainable.
    initial_weight:
        Initial value for every λ_i.  The paper initialises uniformly.
    train_lambdas:
        Whether λ receives gradients ("adaptive" strategy).  The
        "uniform" ablation of Table VI freezes them instead.
    train_patches:
        Whether the upstream patches' own arrays receive gradients
        (paper Eq. 5 fine-tunes both patches and weights).
    """

    def __init__(
        self,
        upstream_patches: Sequence[LoRAPatch],
        new_patch: LoRAPatch,
        initial_weight: float = 0.1,
        train_lambdas: bool = True,
        train_patches: bool = True,
    ):
        self.patches: List[LoRAPatch] = list(upstream_patches)
        self.new_patch = new_patch
        self.lambdas = np.full(len(self.patches), float(initial_weight))
        self.train_lambdas = train_lambdas
        self.train_patches = train_patches
        self._lambda_key = "fusion/lambdas"

    # ------------------------------------------------------------------
    # Adapter protocol
    # ------------------------------------------------------------------
    @property
    def target_names(self) -> tuple:
        names = set(self.new_patch.target_names)
        for patch in self.patches:
            names.update(patch.target_names)
        return tuple(sorted(names))

    def delta(self, weight_name: str) -> np.ndarray | None:
        """Fused low-rank update for one weight (Eq. 4 inner sum)."""
        total: np.ndarray | None = None
        for lam, patch in zip(self.lambdas, self.patches):
            part = patch.delta(weight_name)
            if part is None:
                continue
            total = lam * part if total is None else total + lam * part
        new_part = self.new_patch.delta(weight_name)
        if new_part is not None:
            total = new_part if total is None else total + new_part
        return total

    def delta_shape(self, weight_name: str) -> Tuple[int, int] | None:
        """Shape of :meth:`delta` without materialising it."""
        shape = self.new_patch.delta_shape(weight_name)
        if shape is not None:
            return shape
        for patch in self.patches:
            shape = patch.delta_shape(weight_name)
            if shape is not None:
                return shape
        return None

    @property
    def lambda_key(self) -> str:
        """Parameter key the λ vector is published under."""
        return self._lambda_key

    def rank_components(self, weight_name: str) -> List[RankComponent]:
        """Low-rank terms of the fused update (rank-space protocol).

        Each upstream patch contributes one term with coefficient
        ``λ_i·α_i``; its ``B``/``A`` gradients carry the same ``λ_i·α_i``
        factor but are only emitted when ``train_patches`` is on, and its
        λ slot is only advertised (``lambda_index``) when
        ``train_lambdas`` is on.  The new shared patch is always fully
        trainable and has no λ.
        """
        components: List[RankComponent] = []
        for i, (lam, patch) in enumerate(zip(self.lambdas, self.patches)):
            if weight_name not in patch.B:
                continue
            alpha = patch.alpha
            components.append(
                RankComponent(
                    B=patch.B[weight_name],
                    A=patch.A[weight_name],
                    coeff=float(lam) * alpha,
                    alpha=alpha,
                    grad_coeff=float(lam) * alpha,
                    key_B=f"{patch.name}/{weight_name}/B",
                    key_A=f"{patch.name}/{weight_name}/A",
                    trainable=self.train_patches,
                    lambda_index=i if self.train_lambdas else None,
                )
            )
        components.extend(self.new_patch.rank_components(weight_name))
        return components

    def parameters(self) -> Dict[str, np.ndarray]:
        """All trainable arrays, respecting the train_* flags."""
        params: Dict[str, np.ndarray] = dict(self.new_patch.parameters())
        if self.train_lambdas and len(self.patches):
            params[self._lambda_key] = self.lambdas
        if self.train_patches:
            for patch in self.patches:
                params.update(patch.parameters())
        return params

    def grad_wrt(
        self, weight_name: str, d_weight: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Route ∂loss/∂W_eff into λ, patch and new-patch gradients.

        λ-gradients use the rank identity ``∂loss/∂λ_i = α·Σ((dW @ Aᵀ) ∘ B)``
        so the dense per-patch ``Δ_i`` is never formed, and the same
        ``dW @ Aᵀ`` product doubles as the patch's own ``B`` gradient.
        With neither ``train_lambdas`` nor ``train_patches`` the upstream
        loop is skipped outright.
        """
        grads: Dict[str, np.ndarray] = dict(
            self.new_patch.grad_wrt(weight_name, d_weight)
        )
        if not (self.train_lambdas or self.train_patches):
            return grads
        lambda_grad = np.zeros_like(self.lambdas)
        any_lambda = False
        for i, (lam, patch) in enumerate(zip(self.lambdas, self.patches)):
            if weight_name not in patch.B:
                continue
            B = patch.B[weight_name]
            A = patch.A[weight_name]
            dwA = d_weight @ A.T
            if self.train_lambdas:
                lambda_grad[i] = patch.alpha * float(np.sum(dwA * B))
                any_lambda = True
            if self.train_patches:
                scale = float(lam) * patch.alpha
                self._accumulate(
                    grads, f"{patch.name}/{weight_name}/B", scale * dwA
                )
                self._accumulate(
                    grads,
                    f"{patch.name}/{weight_name}/A",
                    scale * (B.T @ d_weight),
                )
        if any_lambda:
            grads[self._lambda_key] = lambda_grad
        return grads

    @staticmethod
    def _accumulate(
        grads: Dict[str, np.ndarray], key: str, value: np.ndarray
    ) -> None:
        if key in grads:
            grads[key] = grads[key] + value
        else:
            grads[key] = value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def weight_report(self) -> Dict[str, float]:
        """λ per upstream patch name — which knowledge the model selected."""
        return {
            patch.name: float(lam)
            for patch, lam in zip(self.patches, self.lambdas)
        }

    def num_parameters(self) -> int:
        total = self.new_patch.num_parameters() + self.lambdas.size
        total += sum(p.num_parameters() for p in self.patches)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PatchFusion(n_patches={len(self.patches)}, "
            f"lambdas={np.round(self.lambdas, 3).tolist()})"
        )
