"""Parity suite: the batched inference engine vs the per-example path.

The batched engine (ragged forward, sparse featurization, shared
caches) must be a pure optimisation.  Reference implementations of the
*pre-batching* code — dense scalar featurizer loop, per-example forward
and backward — live in this file, and every public API is checked
against them at ``atol=1e-10`` on all seven data preparation tasks.
"""

import numpy as np
import pytest

from repro.data import generators
from repro.knowledge.seed import seed_knowledge
from repro.tasks.base import get_task
from repro.tinylm.linalg import relu, relu_grad, softmax
from repro.tinylm.model import ModelConfig, ScoringLM
from repro.tinylm.tokenizer import HashedFeaturizer
from tests.reference import (
    reference_bucket,
    reference_features,
    reference_tokenize,
)

# One downstream dataset per task, covering all seven tasks.
TASK_DATASETS = {
    "ed": "ed/beer",
    "di": "di/phone",
    "sm": "sm/cms",
    "em": "em/abt_buy",
    "cta": "cta/sotab",
    "ave": "ave/ae110k",
    "dc": "dc/beer",
}

ATOL = 1e-10


# ----------------------------------------------------------------------
# Reference implementations (the pre-change per-example code paths)
# ----------------------------------------------------------------------
def reference_encode(featurizer: HashedFeaturizer, text: str) -> np.ndarray:
    """The original dense scalar-scatter featurizer loop."""
    vec = np.zeros(featurizer.dim)
    for feature in reference_features(featurizer, reference_tokenize(text)):
        index, sign = reference_bucket(featurizer, feature)
        weight = (
            featurizer.MARKER_WEIGHT if feature.startswith("w:[") else 1.0
        )
        vec[index] += sign * weight
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


def reference_logits(model: ScoringLM, prompt, pool) -> np.ndarray:
    """The original single-example forward formula."""
    x = model.featurizer.encode(prompt)
    Y = np.stack([model.featurizer.encode(c) for c in pool])
    W1 = model.effective_weight("encoder.W1")
    W2 = model.effective_weight("encoder.W2")
    V = model.effective_weight("answer.V")
    h = relu(W1 @ x + model.weights["encoder.b1"])
    u = W2 @ h + model.weights["encoder.b2"]
    gamma = float(model.weights["copy.gamma"][0])
    return (
        model._scale * ((Y @ V.T) @ u)
        + Y @ model.weights["answer.b"]
        + gamma * (Y @ x)
    )


def reference_loss_and_gradients(model, batch, train_base=True):
    """The original per-example forward + backward loops."""
    W1 = model.effective_weight("encoder.W1")
    W2 = model.effective_weight("encoder.W2")
    V = model.effective_weight("answer.V")
    b = model.weights["answer.b"]
    X = np.stack([ex.prompt for ex in batch])
    H_pre = X @ W1.T + model.weights["encoder.b1"]
    H = relu(H_pre)
    U = H @ W2.T + model.weights["encoder.b2"]
    gamma = float(model.weights["copy.gamma"][0])
    losses = np.zeros(len(batch))
    per_example = []
    for i, ex in enumerate(batch):
        Y = ex.candidates
        Vy = Y @ V.T
        logits = model._scale * (Vy @ U[i]) + Y @ b + gamma * (Y @ X[i])
        shifted = logits - logits.max()
        log_z = np.log(np.exp(shifted).sum())
        losses[i] = (log_z - shifted[ex.target]) * ex.weight
        per_example.append((Y, Vy, np.exp(shifted - log_z)))

    n = len(batch)
    k, d = model.config.hidden_dim, model.config.feature_dim
    dU = np.zeros((n, k))
    dV_eff = np.zeros((k, d))
    db_ans = np.zeros(d)
    dgamma = 0.0
    for i, ex in enumerate(batch):
        Y, Vy, probs = per_example[i]
        dlogits = probs.copy()
        dlogits[ex.target] -= 1.0
        dlogits *= ex.weight / n
        dU[i] = model._scale * (dlogits @ Vy)
        dV_eff += model._scale * np.outer(U[i], dlogits @ Y)
        db_ans += dlogits @ Y
        dgamma += float(dlogits @ (Y @ X[i]))
    dH = dU @ W2
    dH_pre = dH * relu_grad(H_pre)
    effective_grads = {
        "encoder.W1": dH_pre.T @ X,
        "encoder.W2": dU.T @ H,
        "answer.V": dV_eff,
    }
    base_grads = {}
    if train_base:
        base_grads = dict(effective_grads)
        base_grads["encoder.b1"] = dH_pre.sum(axis=0)
        base_grads["encoder.b2"] = dU.sum(axis=0)
        base_grads["answer.b"] = db_ans
        base_grads["copy.gamma"] = np.array([dgamma])
    adapter_grads = {}
    if model.adapter is not None:
        for name, d_weight in effective_grads.items():
            for key, grad in model.adapter.grad_wrt(name, d_weight).items():
                if key in adapter_grads:
                    adapter_grads[key] = adapter_grads[key] + grad
                else:
                    adapter_grads[key] = grad
    return float(losses.mean()), base_grads, adapter_grads


# ----------------------------------------------------------------------
# Shared workload fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_model() -> ScoringLM:
    return ScoringLM(
        ModelConfig(name="parity", feature_dim=256, hidden_dim=24, seed=7)
    )


def task_workload(task_name, limit=6):
    dataset = generators.build(TASK_DATASETS[task_name], count=30, seed=5)
    task = get_task(dataset.task)
    knowledge = seed_knowledge(dataset.task)
    examples = dataset.examples[:limit]
    prompts = [task.prompt(ex, knowledge) for ex in examples]
    pools = [task.candidates(ex, knowledge, dataset) for ex in examples]
    return prompts, pools


# ----------------------------------------------------------------------
# Featurizer: sparse vs dense
# ----------------------------------------------------------------------
class TestSparseFeaturizerParity:
    TEXTS = [
        "",
        "alpha",
        "alpha beta gamma alpha",
        "record [ abv: 0.05% ] [missing] value",
        "[fmt_violation_abv] 12.5 $ # @",
        "the quick brown fox jumps over the lazy dog " * 4,
    ]

    def test_encode_matches_dense_reference(self):
        featurizer = HashedFeaturizer(dim=128)
        for text in self.TEXTS:
            np.testing.assert_allclose(
                featurizer.encode(text),
                reference_encode(featurizer, text),
                atol=1e-12,
                err_msg=text,
            )

    def test_encode_batch_matches_rows(self):
        featurizer = HashedFeaturizer(dim=128)
        batch = featurizer.encode_batch(self.TEXTS)
        for row, text in zip(batch, self.TEXTS):
            np.testing.assert_array_equal(row, featurizer.encode(text))

    def test_sparse_rows_are_sorted_unit_norm_and_readonly(self):
        featurizer = HashedFeaturizer(dim=512)
        indices, values = featurizer.encode_sparse("alpha beta gamma")
        assert np.all(np.diff(indices) > 0)
        assert float(values @ values) == pytest.approx(1.0)
        assert not indices.flags.writeable and not values.flags.writeable

    def test_task_prompts_match_reference(self, parity_model):
        for task_name in TASK_DATASETS:
            prompts, __ = task_workload(task_name, limit=3)
            for prompt in prompts:
                np.testing.assert_allclose(
                    parity_model.featurizer.encode(prompt),
                    reference_encode(parity_model.featurizer, prompt),
                    atol=1e-12,
                )


class TestCacheDeterminism:
    def test_eviction_does_not_change_encodings(self):
        featurizer = HashedFeaturizer(dim=64, cache_size=4)
        texts = [f"token{i} value{i % 3} [missing]" for i in range(12)]
        first = [featurizer.encode(t) for t in texts]
        assert len(featurizer._sparse_cache) <= 4
        # Re-encode in reverse order: every early text was evicted and
        # must round-trip to bit-identical vectors.
        for text, expected in zip(reversed(texts), reversed(first)):
            np.testing.assert_array_equal(featurizer.encode(text), expected)

    def test_shared_cache_across_instances(self):
        a = HashedFeaturizer(dim=96, salt="shared-test")
        b = HashedFeaturizer(dim=96, salt="shared-test")
        a.encode("warm this text")
        assert "warm this text" in b._sparse_cache
        assert a._cache is b._cache  # bucket cache shared on (salt, dim)

    def test_clone_shares_featurization_caches(self, parity_model):
        parity_model.encode_candidates(["shared candidate string"])
        parity_model.encode_prompt("shared prompt string")
        clone = parity_model.clone(name="clone")
        assert "shared candidate string" in clone._candidate_cache
        assert "shared prompt string" in clone._prompt_cache
        assert clone.featurizer._cache is parity_model.featurizer._cache
        np.testing.assert_array_equal(
            clone.encode_prompt("shared prompt string"),
            parity_model.encode_prompt("shared prompt string"),
        )


# ----------------------------------------------------------------------
# Model: batched vs per-example forward
# ----------------------------------------------------------------------
class TestBatchedForwardParity:
    @pytest.mark.parametrize("task_name", sorted(TASK_DATASETS))
    def test_probabilities_batch_matches_reference(
        self, parity_model, task_name
    ):
        prompts, pools = task_workload(task_name)
        batched = parity_model.probabilities_batch(prompts, pools)
        for prompt, pool, probs in zip(prompts, pools, batched):
            reference = softmax(reference_logits(parity_model, prompt, pool))
            np.testing.assert_allclose(probs, reference, atol=ATOL)

    @pytest.mark.parametrize("task_name", sorted(TASK_DATASETS))
    def test_predict_batch_matches_reference(self, parity_model, task_name):
        prompts, pools = task_workload(task_name)
        batched = parity_model.predict_batch(prompts, pools)
        reference = [
            int(np.argmax(reference_logits(parity_model, p, pool)))
            for p, pool in zip(prompts, pools)
        ]
        assert batched == reference

    @pytest.mark.parametrize("task_name", sorted(TASK_DATASETS))
    def test_single_example_path_is_the_batched_path(
        self, parity_model, task_name
    ):
        prompts, pools = task_workload(task_name, limit=4)
        batched = parity_model.logits_batch(prompts, pools)
        for prompt, pool, expected in zip(prompts, pools, batched):
            np.testing.assert_allclose(
                parity_model.logits(prompt, pool), expected, atol=ATOL
            )

    def test_empty_batch(self, parity_model):
        assert parity_model.logits_batch([], []) == []
        assert parity_model.predict_batch([], []) == []

    def test_empty_pool_rejected(self, parity_model):
        with pytest.raises(ValueError):
            parity_model.predict_batch(["a prompt"], [[]])

    def test_mismatched_lengths_rejected(self, parity_model):
        with pytest.raises(ValueError):
            parity_model.logits_batch(["a", "b"], [["x"]])


# ----------------------------------------------------------------------
# Model: batched vs per-example backward
# ----------------------------------------------------------------------
class TestBatchedBackwardParity:
    def _training_batch(self, model, task_name):
        dataset = generators.build(TASK_DATASETS[task_name], count=30, seed=5)
        task = get_task(dataset.task)
        knowledge = seed_knowledge(dataset.task)
        batch = []
        for i, example in enumerate(dataset.examples[:5]):
            t = task.training_example(example, knowledge, dataset)
            encoded = model.encode_example(t.prompt, t.candidates, t.target)
            encoded.weight = 1.0 + 0.25 * i  # exercise non-uniform weights
            batch.append(encoded)
        return batch

    @pytest.mark.parametrize("task_name", sorted(TASK_DATASETS))
    def test_base_gradients_match_reference(self, parity_model, task_name):
        batch = self._training_batch(parity_model, task_name)
        loss, grads, __ = parity_model.loss_and_gradients(batch)
        ref_loss, ref_grads, __ = reference_loss_and_gradients(
            parity_model, batch
        )
        assert loss == pytest.approx(ref_loss, abs=ATOL)
        assert set(grads) == set(ref_grads)
        for name in grads:
            np.testing.assert_allclose(
                grads[name], ref_grads[name], atol=ATOL, err_msg=name
            )

    def test_adapter_gradients_match_reference(self, parity_model):
        from repro.tinylm.lora import LoRAPatch

        model = parity_model.clone(name="adapter-parity")
        patch = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=9)
        rng = np.random.default_rng(2)
        for name in patch.A:
            patch.A[name] = rng.normal(0, 0.05, patch.A[name].shape)
        model.attach(patch)
        batch = self._training_batch(model, "em")
        loss, __, adapter_grads = model.loss_and_gradients(
            batch, train_base=False
        )
        ref_loss, __, ref_adapter = reference_loss_and_gradients(
            model, batch, train_base=False
        )
        assert loss == pytest.approx(ref_loss, abs=ATOL)
        assert set(adapter_grads) == set(ref_adapter)
        for key in adapter_grads:
            np.testing.assert_allclose(
                adapter_grads[key], ref_adapter[key], atol=ATOL, err_msg=key
            )
