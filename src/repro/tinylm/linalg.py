"""Small numerical helpers shared across the tiny-LM substrate.

Everything here is deterministic given an explicit seed; no global RNG
state is ever consulted.  All arrays are float64 numpy arrays — at the
scale of this substrate (feature dims of a few thousand) double precision
costs nothing and removes a whole class of flaky-test headaches.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rng_for",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "relu",
    "relu_grad",
    "xavier_init",
    "gaussian_init",
    "segment_softmax",
    "segment_logsumexp",
    "gram_trace",
]


def gram_trace(B: np.ndarray, A: np.ndarray) -> float:
    """``trace((AᵀA)(BᵀB)) = ‖B·A‖_F²`` without materialising ``B·A``.

    Both Gram matrices are ``(r, r)`` for rank-``r`` factors, so the
    cost is ``O((out + in)·r²)`` instead of the ``O(out·r·in)`` dense
    product plus an ``O(out·in)`` reduction.
    """
    return float(np.sum((B.T @ B) * (A @ A.T)))


def rng_for(seed: int, *streams: str) -> np.random.Generator:
    """Return a Generator for ``seed`` refined by named sub-streams.

    Deriving independent streams from a root seed keeps every component
    reproducible while letting them draw without interfering, e.g.
    ``rng_for(7, "lora", "em-abt_buy")``.
    """
    words = [seed & 0xFFFFFFFF]
    for stream in streams:
        acc = 2166136261
        for byte in stream.encode("utf-8"):
            acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
        words.append(acc)
    return np.random.default_rng(words)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def cross_entropy(logits: np.ndarray, target_index: int) -> float:
    """Negative log-likelihood of ``target_index`` under softmax(logits)."""
    return float(-log_softmax(logits)[target_index])


def _segment_shift(values: np.ndarray, offsets: np.ndarray) -> tuple:
    """Per-segment max-shifted values plus helper index arrays.

    ``offsets`` is the ``(n+1,)`` prefix-sum layout of a ragged batch:
    segment ``i`` spans ``values[offsets[i]:offsets[i+1]]``.  Segments
    must be non-empty (candidate pools always are).
    """
    starts = offsets[:-1]
    rows = np.repeat(
        np.arange(starts.size), np.diff(offsets).astype(np.intp)
    )
    seg_max = np.maximum.reduceat(values, starts)
    return values - seg_max[rows], rows, starts, seg_max


def segment_softmax(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Softmax independently over each ragged segment of ``values``."""
    if values.size == 0:
        return np.zeros_like(values)
    shifted, rows, starts, __ = _segment_shift(values, offsets)
    exp = np.exp(shifted)
    return exp / np.add.reduceat(exp, starts)[rows]


def segment_logsumexp(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Stable ``log(sum(exp(·)))`` per ragged segment; returns ``(n,)``."""
    if values.size == 0:
        return np.zeros(0)
    shifted, __, starts, seg_max = _segment_shift(values, offsets)
    return np.log(np.add.reduceat(np.exp(shifted), starts)) + seg_max


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(pre_activation: np.ndarray) -> np.ndarray:
    """Derivative of relu evaluated at the pre-activation values."""
    return (pre_activation > 0.0).astype(pre_activation.dtype)


def xavier_init(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Glorot-uniform initialisation for a weight of ``shape``(out, in)."""
    fan_out, fan_in = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def gaussian_init(
    rng: np.random.Generator, shape: tuple, scale: float = 0.02
) -> np.ndarray:
    """Scaled Gaussian initialisation (used for LoRA ``B`` per the paper)."""
    return rng.normal(0.0, scale, size=shape)
