"""Unit tests for repro.tinylm.model — including numerical gradient checks."""

import numpy as np
import pytest

from repro.tinylm.fusion import PatchFusion
from repro.tinylm.lora import LoRAPatch
from repro.tinylm.model import EncodedExample, LORA_TARGETS, ModelConfig, ScoringLM


def _toy_batch(model, n=3):
    rng = np.random.default_rng(0)
    batch = []
    for i in range(n):
        prompt = " ".join(f"tok{rng.integers(40)}" for __ in range(6))
        candidates = [f"answer{j}" for j in range(3)]
        batch.append(model.encode_example(prompt, candidates, target=i % 3))
    return batch


class TestConfig:
    def test_target_shapes(self):
        config = ModelConfig(feature_dim=100, hidden_dim=10)
        shapes = config.target_shapes()
        assert shapes["encoder.W1"] == (10, 100)
        assert shapes["encoder.W2"] == (10, 10)
        assert shapes["answer.V"] == (10, 100)
        assert set(shapes) == set(LORA_TARGETS)


class TestForward:
    def test_logits_shape(self, tiny_model):
        logits = tiny_model.logits("a prompt", ["x", "y", "z"])
        assert logits.shape == (3,)

    def test_probabilities_sum_to_one(self, tiny_model):
        probs = tiny_model.probabilities("a prompt", ["x", "y"])
        assert probs.sum() == pytest.approx(1.0)

    def test_predict_returns_valid_index(self, tiny_model):
        assert tiny_model.predict("a prompt", ["x", "y"]) in (0, 1)

    def test_prediction_deterministic(self, tiny_model):
        first = tiny_model.predict("some prompt here", ["a", "b", "c"])
        second = tiny_model.predict("some prompt here", ["a", "b", "c"])
        assert first == second

    def test_copy_head_prefers_candidate_in_prompt(self, fresh_tiny_model):
        model = fresh_tiny_model
        model.weights["copy.gamma"][0] = 50.0  # exaggerate the copy path
        probs = model.probabilities(
            "text contains zanzibar somewhere", ["zanzibar", "quixote"]
        )
        assert probs[0] > probs[1]

    def test_sample_greedy_at_zero_temperature(self, tiny_model):
        greedy = tiny_model.predict("prompt", ["a", "b", "c"])
        assert tiny_model.sample("prompt", ["a", "b", "c"], temperature=0.0) == greedy

    def test_sample_respects_top_k_one(self, tiny_model):
        rng = np.random.default_rng(0)
        greedy = tiny_model.predict("prompt", ["a", "b", "c"])
        sampled = tiny_model.sample(
            "prompt", ["a", "b", "c"], temperature=1.0, top_k=1, rng=rng
        )
        assert sampled == greedy

    def test_sample_within_range(self, tiny_model):
        rng = np.random.default_rng(0)
        for __ in range(10):
            index = tiny_model.sample(
                "prompt", ["a", "b", "c"], temperature=2.0, rng=rng
            )
            assert 0 <= index < 3


class TestEncodedExample:
    def test_rejects_bad_target(self, tiny_model):
        candidates = tiny_model.encode_candidates(["a", "b"])
        with pytest.raises(ValueError):
            EncodedExample(prompt=np.zeros(256), candidates=candidates, target=5)

    def test_rejects_1d_candidates(self):
        with pytest.raises(ValueError):
            EncodedExample(prompt=np.zeros(4), candidates=np.zeros(4), target=0)


class TestAdapters:
    def test_attach_and_detach(self, fresh_tiny_model):
        model = fresh_tiny_model
        patch = LoRAPatch("p", model.config.target_shapes(), rank=2)
        model.attach(patch)
        assert model.adapter is patch
        assert model.detach() is patch
        assert model.adapter is None

    def test_attach_rejects_unknown_target(self, fresh_tiny_model):
        patch = LoRAPatch("p", {"nonexistent.W": (4, 4)}, rank=2)
        with pytest.raises(KeyError):
            fresh_tiny_model.attach(patch)

    def test_fresh_patch_is_noop(self, fresh_tiny_model):
        model = fresh_tiny_model
        before = model.logits("a prompt", ["x", "y"])
        model.attach(LoRAPatch("p", model.config.target_shapes(), rank=2))
        after = model.logits("a prompt", ["x", "y"])
        np.testing.assert_allclose(before, after)

    def test_merge_adapter_preserves_outputs(self, fresh_tiny_model):
        model = fresh_tiny_model
        patch = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=4)
        # Give the patch a real update.
        for name in patch.A:
            patch.A[name] = np.random.default_rng(1).normal(
                0, 0.05, patch.A[name].shape
            )
        model.attach(patch)
        with_adapter = model.logits("prompt text", ["x", "y"])
        model.merge_adapter()
        assert model.adapter is None
        merged = model.logits("prompt text", ["x", "y"])
        np.testing.assert_allclose(with_adapter, merged)

    def test_clone_is_independent(self, fresh_tiny_model):
        clone = fresh_tiny_model.clone()
        clone.weights["encoder.b1"][0] = 99.0
        assert fresh_tiny_model.weights["encoder.b1"][0] != 99.0

    def test_num_parameters_positive(self, tiny_model):
        assert tiny_model.num_parameters() > 0


class TestGradients:
    """Numerical gradient checks — the backbone of trainer correctness."""

    @staticmethod
    def _loss(model, batch):
        loss, __, __ = model.loss_and_gradients(batch, train_base=False)
        return loss

    def test_base_gradients_match_numerical(self, fresh_tiny_model):
        model = fresh_tiny_model
        batch = _toy_batch(model)
        __, grads, __ = model.loss_and_gradients(batch, train_base=True)
        eps = 1e-6
        for name in ("encoder.W1", "encoder.W2", "answer.V", "encoder.b1",
                     "answer.b", "copy.gamma"):
            weight = model.weights[name]
            flat_index = 0 if weight.ndim <= 1 else (0, 0)
            original = weight[flat_index]
            weight[flat_index] = original + eps
            plus = self._loss(model, batch)
            weight[flat_index] = original - eps
            minus = self._loss(model, batch)
            weight[flat_index] = original
            numerical = (plus - minus) / (2 * eps)
            assert grads[name][flat_index] == pytest.approx(
                numerical, abs=1e-5
            ), name

    def test_lora_gradients_match_numerical(self, fresh_tiny_model):
        model = fresh_tiny_model
        patch = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=9)
        for name in patch.A:  # non-zero A so B gradients flow
            patch.A[name] = np.random.default_rng(2).normal(0, 0.05, patch.A[name].shape)
        model.attach(patch)
        batch = _toy_batch(model)
        __, __, adapter_grads = model.loss_and_gradients(batch, train_base=False)
        eps = 1e-6
        for key, grad in adapter_grads.items():
            array = patch.parameters()[key]  # mutably aliased view
            original = array[0, 0]
            array[0, 0] = original + eps
            plus = self._loss(model, batch)
            array[0, 0] = original - eps
            minus = self._loss(model, batch)
            array[0, 0] = original
            numerical = (plus - minus) / (2 * eps)
            assert grad[0, 0] == pytest.approx(numerical, abs=1e-5), key

    def test_fusion_lambda_gradients_match_numerical(self, fresh_tiny_model):
        model = fresh_tiny_model
        shapes = model.config.target_shapes()
        rng = np.random.default_rng(3)
        patches = []
        for i in range(2):
            patch = LoRAPatch(f"p{i}", shapes, rank=2, seed=i)
            for name in patch.A:
                patch.A[name] = rng.normal(0, 0.05, patch.A[name].shape)
            patches.append(patch)
        fusion = PatchFusion(patches, LoRAPatch("new", shapes, rank=2, seed=7))
        model.attach(fusion)
        batch = _toy_batch(model)
        __, __, grads = model.loss_and_gradients(batch, train_base=False)
        eps = 1e-6
        lambda_grad = grads["fusion/lambdas"]
        for i in range(2):
            original = fusion.lambdas[i]
            fusion.lambdas[i] = original + eps
            plus = self._loss(model, batch)
            fusion.lambdas[i] = original - eps
            minus = self._loss(model, batch)
            fusion.lambdas[i] = original
            numerical = (plus - minus) / (2 * eps)
            assert lambda_grad[i] == pytest.approx(numerical, abs=1e-5)

    def test_empty_batch_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.loss_and_gradients([])


def _fused(model, n_patches=2, seed=3):
    shapes = model.config.target_shapes()
    rng = np.random.default_rng(seed)
    patches = []
    for i in range(n_patches):
        patch = LoRAPatch(f"p{i}", shapes, rank=2, seed=i)
        for name in patch.A:
            patch.A[name] = rng.normal(0, 0.05, patch.A[name].shape)
        patches.append(patch)
    fusion = PatchFusion(patches, LoRAPatch("new", shapes, rank=2, seed=7))
    model.attach(fusion)
    return fusion


class TestWeightMemo:
    """effective_weight memoisation keyed on the adapter version."""

    def test_repeated_reads_share_one_materialisation(self, fresh_tiny_model):
        model = fresh_tiny_model
        _fused(model)
        first = model.effective_weight("encoder.W1")
        second = model.effective_weight("encoder.W1")
        assert first is second

    def test_bump_invalidates_after_inplace_mutation(self, fresh_tiny_model):
        model = fresh_tiny_model
        fusion = _fused(model)
        stale = model.effective_weight("encoder.W1")
        fusion.lambdas[:] = 5.0
        # Without a bump the memo serves the stale array by design...
        assert model.effective_weight("encoder.W1") is stale
        # ...and the version bump is exactly what invalidates it.
        model.bump_adapter_version()
        fresh = model.effective_weight("encoder.W1")
        assert fresh is not stale
        assert not np.allclose(fresh, stale)

    def test_attach_detach_invalidate(self, fresh_tiny_model):
        model = fresh_tiny_model
        base = model.effective_weight("encoder.W1").copy()
        fusion = _fused(model)
        with_delta = model.effective_weight("encoder.W1")
        assert not np.allclose(with_delta, base)
        model.detach()
        np.testing.assert_array_equal(
            model.effective_weight("encoder.W1"), base
        )
        assert fusion is not None

    def test_pickle_drops_memo_and_roundtrips(self, fresh_tiny_model):
        import pickle

        model = fresh_tiny_model
        _fused(model)
        model.effective_weight("encoder.W1")  # populate the memo
        restored = pickle.loads(pickle.dumps(model))
        np.testing.assert_allclose(
            restored.logits("a prompt", ["x", "y"]),
            model.logits("a prompt", ["x", "y"]),
        )


class TestFrozenActivations:
    """The rank-space engine matches the dense path on the same batch."""

    def test_loss_matches_dense(self, fresh_tiny_model):
        model = fresh_tiny_model
        _fused(model)
        batch = _toy_batch(model, n=5)
        frozen = model.frozen_activations(batch)
        dense = model.evaluate_loss(batch)
        rank = model.rank_evaluate_loss(frozen.full())
        assert rank == pytest.approx(dense, rel=1e-9)

    def test_gradients_match_dense(self, fresh_tiny_model):
        model = fresh_tiny_model
        _fused(model)
        batch = _toy_batch(model, n=5)
        frozen = model.frozen_activations(batch)
        dense_loss, __, dense_grads = model.loss_and_gradients(
            batch, train_base=False
        )
        rank_loss, base_grads, rank_grads = model.rank_loss_and_gradients(
            frozen.full()
        )
        assert base_grads == {}
        assert rank_loss == pytest.approx(dense_loss, rel=1e-9)
        assert rank_grads.keys() == dense_grads.keys()
        for key in dense_grads:
            np.testing.assert_allclose(
                rank_grads[key], dense_grads[key], rtol=1e-9, atol=1e-12
            )

    def test_batch_view_matches_subset(self, fresh_tiny_model):
        model = fresh_tiny_model
        _fused(model)
        batch = _toy_batch(model, n=6)
        frozen = model.frozen_activations(batch)
        indices = np.array([4, 1, 3])
        subset = [batch[i] for i in indices]
        dense_loss, __, dense_grads = model.loss_and_gradients(
            subset, train_base=False
        )
        rank_loss, __, rank_grads = model.rank_loss_and_gradients(
            frozen.batch(indices)
        )
        assert rank_loss == pytest.approx(dense_loss, rel=1e-9)
        for key in dense_grads:
            np.testing.assert_allclose(
                rank_grads[key], dense_grads[key], rtol=1e-9, atol=1e-12
            )

    def test_empty_dataset_rejected(self, fresh_tiny_model):
        with pytest.raises(ValueError):
            fresh_tiny_model.frozen_activations([])


class TestBoundedCaches:
    """The featurization memos are LRU-bounded (serving memory hygiene)."""

    def _spin(self, model, n):
        for i in range(n):
            model.predict(f"prompt number {i}", [f"cand {i} a", f"cand {i} b"])

    def test_candidate_cache_respects_bound(self):
        model = ScoringLM(
            ModelConfig(name="lru", feature_dim=64, hidden_dim=8),
            candidate_cache_size=6,
        )
        self._spin(model, 20)
        assert len(model._candidate_cache) <= 6

    def test_prompt_cache_respects_bound(self):
        model = ScoringLM(
            ModelConfig(name="lru", feature_dim=64, hidden_dim=8),
            prompt_cache_size=5,
        )
        self._spin(model, 20)
        assert len(model._prompt_cache) <= 5
        assert "prompt number 19" in model._prompt_cache  # LRU keeps newest

    def test_env_bounds_all_caches(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "4")
        model = ScoringLM(ModelConfig(name="lru-env", feature_dim=64, hidden_dim=8))
        assert model.candidate_cache_size == 4
        assert model.prompt_cache_size == 4
        assert model.featurizer.cache_size == 4
        self._spin(model, 12)
        sizes = model.cache_sizes()
        assert sizes["candidate"] <= 4
        assert sizes["prompt"] <= 4
        assert sizes["featurizer_sparse"] <= 4

    def test_explicit_sizes_survive_clone(self):
        model = ScoringLM(
            ModelConfig(name="lru-clone", feature_dim=64, hidden_dim=8),
            candidate_cache_size=9,
            prompt_cache_size=7,
        )
        copy = model.clone()
        assert copy.candidate_cache_size == 9
        assert copy.prompt_cache_size == 7

    def test_eviction_does_not_change_predictions(self):
        config = ModelConfig(name="lru-parity", feature_dim=64, hidden_dim=8)
        bounded = ScoringLM(config, candidate_cache_size=2, prompt_cache_size=2)
        unbounded = ScoringLM(config)
        prompts = [f"the quick prompt {i}" for i in range(8)]
        pools = [[f"yes {i}", f"no {i}", f"maybe {i}"] for i in range(8)]
        # Two passes so the bounded model replays through evictions.
        for __ in range(2):
            got = [bounded.predict(p, c) for p, c in zip(prompts, pools)]
            want = [unbounded.predict(p, c) for p, c in zip(prompts, pools)]
            assert got == want

    def test_emit_cache_gauges_records_obs(self, tmp_path):
        from repro import obs

        model = ScoringLM(ModelConfig(name="lru-obs", feature_dim=64, hidden_dim=8))
        model.predict("warm the caches", ["a", "b"])
        tracer = obs.Tracer(tmp_path / "trace.jsonl")
        with obs.using_tracer(tracer):
            sizes = model.emit_cache_gauges()
        assert sizes == model.cache_sizes()
        gauge_names = {name for name, __ in tracer.gauges}
        assert "model.cache_size" in gauge_names
        labels = {
            dict(attrs).get("cache")
            for name, attrs in tracer.gauges
            if name == "model.cache_size"
        }
        assert {"candidate", "prompt", "featurizer_sparse"} <= labels
