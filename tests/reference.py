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

The featurizer's per-token memo regroups the same integer-valued sums,
so its fast path must be *bit-identical* to the per-feature loop it
replaced, kept here as :func:`reference_encode_sparse` (with
:func:`reference_features` and :func:`reference_bucket`, which hash
every feature afresh and never touch the production caches).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.tinylm.fusion import PatchFusion
from repro.tinylm.lora import LoRAPatch
from repro.tinylm.tokenizer import (
    _TOKEN_RE,
    HashedFeaturizer,
    SparseRow,
    _stable_hash,
    normalize,
)
from repro.tinylm.trainer import Trainer

__all__ = [
    "dense_fusion_grads",
    "dense_frobenius_norm",
    "DenseTrainer",
    "reference_tokenize",
    "reference_features",
    "reference_bucket",
    "reference_encode_sparse",
]


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


def reference_tokenize(text: str) -> List[str]:
    """Tokens of the normalised text (whitespace collapsed first)."""
    return _TOKEN_RE.findall(normalize(text))


def reference_features(
    featurizer: HashedFeaturizer, tokens: List[str]
) -> Iterator[str]:
    """Every feature string of a token list, grouped by kind."""
    for tok in tokens:
        yield "w:" + tok
    if featurizer.use_bigrams:
        for left, right in zip(tokens, tokens[1:]):
            yield "b:" + left + "_" + right
    if featurizer.use_char_ngrams:
        for tok in tokens:
            if tok.startswith("["):
                continue  # markers are atomic
            padded = "^" + tok + "$"
            for i in range(len(padded) - 2):
                yield "c:" + padded[i : i + 3]


def reference_bucket(featurizer: HashedFeaturizer, feature: str) -> Tuple[int, float]:
    """``(index, sign)`` of one feature, hashed without any memo."""
    h = _stable_hash(featurizer.salt + "\x00" + feature)
    return h % featurizer.dim, 1.0 if (h >> 63) & 1 else -1.0


def reference_encode_sparse(featurizer: HashedFeaturizer, text: str) -> SparseRow:
    """:meth:`HashedFeaturizer.encode_sparse` as one step per feature."""
    raw_indices: List[int] = []
    raw_values: List[float] = []
    for feature in reference_features(featurizer, reference_tokenize(text)):
        index, sign = reference_bucket(featurizer, feature)
        raw_indices.append(index)
        raw_values.append(
            sign * featurizer.MARKER_WEIGHT if feature.startswith("w:[") else sign
        )
    if not raw_indices:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
    occupied = np.asarray(raw_indices, dtype=np.intp)
    weights = np.asarray(raw_values, dtype=np.float64)
    indices, inverse = np.unique(occupied, return_inverse=True)
    values = np.bincount(inverse.ravel(), weights=weights, minlength=indices.size)
    norm = float(np.sqrt(values @ values))
    if norm > 0.0:
        values /= norm
    return indices, values
