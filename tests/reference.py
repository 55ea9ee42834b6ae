"""Dense reference implementations the production fast paths match.

Production trains a frozen backbone in rank space, routes λ/patch
gradients through the rank identity and reduces Frobenius norms through
``(r, r)`` Gram matrices.  Each of those associates the same math in a
different float order from the dense formulation it replaced.  The
dense formulations live here, used only by tests and the training
benchmark, as the references the fast paths are checked against:

* :func:`dense_fusion_grads` — λ/patch gradients through the dense
  ``Δ_i`` (``∂loss/∂λ_i = Σ(dW ∘ Δ_i)``);
* :func:`dense_frobenius_norm` — ``‖Δ‖_F`` from the materialised
  deltas;
* :class:`DenseTrainer` — a :class:`Trainer` that takes the dense step
  even on a frozen-backbone fit.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.tinylm.fusion import PatchFusion
from repro.tinylm.lora import LoRAPatch
from repro.tinylm.trainer import Trainer

__all__ = ["dense_fusion_grads", "dense_frobenius_norm", "DenseTrainer"]


def dense_fusion_grads(
    fusion: PatchFusion, weight_name: str, d_weight: np.ndarray
) -> Dict[str, np.ndarray]:
    """:meth:`PatchFusion.grad_wrt` computed through each dense ``Δ_i``."""
    grads: Dict[str, np.ndarray] = dict(
        fusion.new_patch.grad_wrt(weight_name, d_weight)
    )
    lambda_grad = np.zeros_like(fusion.lambdas)
    any_lambda = False
    for i, (lam, patch) in enumerate(zip(fusion.lambdas, fusion.patches)):
        part = patch.delta(weight_name)
        if part is None:
            continue
        if fusion.train_lambdas:
            lambda_grad[i] = float(np.sum(d_weight * part))
            any_lambda = True
        if fusion.train_patches:
            for key, grad in patch.grad_wrt(weight_name, d_weight).items():
                grads[key] = grads[key] + lam * grad if key in grads else lam * grad
    if any_lambda:
        grads[fusion.lambda_key] = lambda_grad
    return grads


def dense_frobenius_norm(patch: LoRAPatch) -> float:
    """:meth:`LoRAPatch.frobenius_norm` from the materialised deltas."""
    total = 0.0
    for weight_name in patch.B:
        total += float(np.sum(patch.delta(weight_name) ** 2))
    return float(np.sqrt(total))


class DenseTrainer(Trainer):
    """A trainer that takes the dense step on every fit.

    On a frozen backbone with a rank-protocol adapter attached, the
    production :class:`Trainer` runs its rank-space engine; this one
    builds the dense effective weights and routes every adapter
    gradient through a dense ``(out, in)`` matrix instead, from the
    same initial state and with the same batches and Adam update.
    """

    def _use_rank_space(self) -> bool:
        return False
