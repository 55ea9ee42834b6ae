"""Unit tests for repro.tinylm.fusion (paper Eq. 4)."""

import numpy as np
import pytest

from repro.tinylm.fusion import PatchFusion
from repro.tinylm.lora import LoRAPatch
from tests.reference import dense_fusion_grads

SHAPES = {"encoder.W1": (6, 20)}


def _patch(name, seed, fill=0.1, alpha=1.0):
    patch = LoRAPatch(name, SHAPES, rank=2, seed=seed, alpha=alpha)
    patch.A["encoder.W1"] = np.full((2, 20), fill)
    return patch


class TestDelta:
    def test_weighted_sum_matches_eq4(self):
        patches = [_patch("a", 1), _patch("b", 2)]
        new = _patch("new", 3, fill=0.05)
        fusion = PatchFusion(patches, new, initial_weight=0.5)
        expected = (
            0.5 * patches[0].delta("encoder.W1")
            + 0.5 * patches[1].delta("encoder.W1")
            + new.delta("encoder.W1")
        )
        np.testing.assert_allclose(fusion.delta("encoder.W1"), expected)

    def test_zero_lambdas_leave_only_new_patch(self):
        patches = [_patch("a", 1)]
        new = _patch("new", 3, fill=0.05)
        fusion = PatchFusion(patches, new, initial_weight=0.0)
        np.testing.assert_allclose(
            fusion.delta("encoder.W1"), new.delta("encoder.W1")
        )

    def test_no_patches_is_just_new(self):
        new = _patch("new", 3)
        fusion = PatchFusion([], new)
        np.testing.assert_allclose(
            fusion.delta("encoder.W1"), new.delta("encoder.W1")
        )

    def test_untargeted_weight_is_none(self):
        fusion = PatchFusion([_patch("a", 1)], _patch("new", 2))
        assert fusion.delta("other.weight") is None


class TestParameters:
    def test_lambda_exposure_follows_flag(self):
        fusion = PatchFusion([_patch("a", 1)], _patch("new", 2), train_lambdas=True)
        assert "fusion/lambdas" in fusion.parameters()
        frozen = PatchFusion([_patch("a", 1)], _patch("new", 2), train_lambdas=False)
        assert "fusion/lambdas" not in frozen.parameters()

    def test_patch_exposure_follows_flag(self):
        fusion = PatchFusion([_patch("a", 1)], _patch("new", 2), train_patches=True)
        assert "a/encoder.W1/A" in fusion.parameters()
        frozen = PatchFusion([_patch("a", 1)], _patch("new", 2), train_patches=False)
        assert "a/encoder.W1/A" not in frozen.parameters()

    def test_new_patch_always_trainable(self):
        fusion = PatchFusion(
            [_patch("a", 1)], _patch("new", 2),
            train_lambdas=False, train_patches=False,
        )
        assert "new/encoder.W1/A" in fusion.parameters()

    def test_no_lambda_param_without_patches(self):
        fusion = PatchFusion([], _patch("new", 2), train_lambdas=True)
        assert "fusion/lambdas" not in fusion.parameters()


class TestGrads:
    def test_lambda_gradient_is_inner_product(self):
        patch = _patch("a", 1)
        fusion = PatchFusion([patch], _patch("new", 2), initial_weight=0.3)
        d_weight = np.random.default_rng(0).normal(0, 1, SHAPES["encoder.W1"])
        grads = fusion.grad_wrt("encoder.W1", d_weight)
        expected = float(np.sum(d_weight * patch.delta("encoder.W1")))
        assert grads["fusion/lambdas"][0] == pytest.approx(expected)

    def test_patch_gradients_scaled_by_lambda(self):
        patch = _patch("a", 1)
        fusion = PatchFusion([patch], _patch("new", 2), initial_weight=0.5)
        d_weight = np.ones(SHAPES["encoder.W1"])
        grads = fusion.grad_wrt("encoder.W1", d_weight)
        direct = patch.grad_wrt("encoder.W1", d_weight)
        np.testing.assert_allclose(
            grads["a/encoder.W1/A"], 0.5 * direct["a/encoder.W1/A"]
        )

    def test_frozen_patches_get_no_gradient(self):
        fusion = PatchFusion(
            [_patch("a", 1)], _patch("new", 2), train_patches=False
        )
        grads = fusion.grad_wrt("encoder.W1", np.ones(SHAPES["encoder.W1"]))
        assert "a/encoder.W1/A" not in grads
        assert "new/encoder.W1/A" in grads


class TestRankComponents:
    def test_components_reconstruct_delta(self):
        patches = [_patch("a", 1), _patch("b", 2)]
        fusion = PatchFusion(patches, _patch("new", 3, fill=0.05), initial_weight=0.4)
        rebuilt = sum(
            comp.coeff * (comp.B @ comp.A)
            for comp in fusion.rank_components("encoder.W1")
        )
        np.testing.assert_allclose(rebuilt, fusion.delta("encoder.W1"))

    def test_coefficients_carry_lambda_times_alpha(self):
        patch = _patch("a", 1)
        fusion = PatchFusion([patch], _patch("new", 2), initial_weight=0.25)
        upstream = fusion.rank_components("encoder.W1")[0]
        assert upstream.coeff == pytest.approx(0.25 * patch.alpha)
        assert upstream.grad_coeff == pytest.approx(0.25 * patch.alpha)
        assert upstream.key_B == "a/encoder.W1/B"
        assert upstream.lambda_index == 0

    def test_flags_gate_trainability_and_lambda_index(self):
        fusion = PatchFusion(
            [_patch("a", 1)], _patch("new", 2),
            train_lambdas=False, train_patches=False,
        )
        upstream, new = fusion.rank_components("encoder.W1")
        assert not upstream.trainable
        assert upstream.lambda_index is None
        assert new.trainable
        assert new.lambda_index is None

    def test_delta_shape_without_materialising(self):
        fusion = PatchFusion([_patch("a", 1)], _patch("new", 2))
        assert fusion.delta_shape("encoder.W1") == (6, 20)
        assert fusion.delta_shape("other.weight") is None

    def test_lambda_key_matches_parameters(self):
        fusion = PatchFusion([_patch("a", 1)], _patch("new", 2))
        assert fusion.lambda_key in fusion.parameters()

    def test_untargeted_weight_has_no_components(self):
        fusion = PatchFusion([_patch("a", 1)], _patch("new", 2))
        assert fusion.rank_components("other.weight") == []


class TestRankGradIdentity:
    """grad_wrt's rank identity must match routing through the dense Δ_i."""

    def _grads_both_ways(self, **flags):
        d_weight = np.random.default_rng(7).normal(0, 1, SHAPES["encoder.W1"])
        fusion = PatchFusion(
            [_patch("a", 1, alpha=2.0), _patch("b", 2, alpha=0.5)],
            _patch("new", 3),
            **flags,
        )
        return (
            fusion.grad_wrt("encoder.W1", d_weight),
            dense_fusion_grads(fusion, "encoder.W1", d_weight),
        )

    @pytest.mark.parametrize("train_lambdas", [True, False])
    @pytest.mark.parametrize("train_patches", [True, False])
    def test_rank_matches_dense(self, train_lambdas, train_patches):
        rank, dense = self._grads_both_ways(
            initial_weight=0.3,
            train_lambdas=train_lambdas,
            train_patches=train_patches,
        )
        assert rank.keys() == dense.keys()
        for key in dense:
            np.testing.assert_allclose(rank[key], dense[key], rtol=1e-12)

    def test_fully_frozen_skips_upstream_work(self):
        fusion = PatchFusion(
            [_patch("a", 1)], _patch("new", 2),
            train_lambdas=False, train_patches=False,
        )
        grads = fusion.grad_wrt("encoder.W1", np.ones(SHAPES["encoder.W1"]))
        assert set(grads) == {"new/encoder.W1/B", "new/encoder.W1/A"}


class TestIntrospection:
    def test_weight_report_names(self):
        fusion = PatchFusion(
            [_patch("a", 1), _patch("b", 2)], _patch("new", 3),
            initial_weight=0.25,
        )
        report = fusion.weight_report()
        assert report == {"a": 0.25, "b": 0.25}

    def test_num_parameters(self):
        fusion = PatchFusion([_patch("a", 1)], _patch("new", 2))
        single = _patch("x", 9).num_parameters()
        assert fusion.num_parameters() == 2 * single + 1

    def test_target_names_union(self):
        extra_shapes = {"answer.V": (6, 20)}
        mixed = LoRAPatch("c", extra_shapes, rank=2)
        fusion = PatchFusion([mixed], _patch("new", 2))
        assert set(fusion.target_names) == {"encoder.W1", "answer.V"}
