"""Unit tests for repro.tinylm.lora."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tinylm.lora import LoRAPatch
from tests.reference import dense_frobenius_norm

SHAPES = {"encoder.W1": (8, 32), "answer.V": (8, 32)}


class TestInit:
    def test_paper_initialisation(self):
        """Paper Section V-A: B Gaussian, A zeros → fresh delta is zero."""
        patch = LoRAPatch("p", SHAPES, rank=3)
        for name in SHAPES:
            assert np.any(patch.B[name] != 0.0)
            assert np.all(patch.A[name] == 0.0)
            np.testing.assert_array_equal(patch.delta(name), np.zeros(SHAPES[name]))

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            LoRAPatch("p", SHAPES, rank=0)
        with pytest.raises(ValueError):
            LoRAPatch("p", {"w": (4, 100)}, rank=5)

    def test_seed_and_name_determine_init(self):
        a = LoRAPatch("p", SHAPES, rank=3, seed=1)
        b = LoRAPatch("p", SHAPES, rank=3, seed=1)
        c = LoRAPatch("q", SHAPES, rank=3, seed=1)
        np.testing.assert_array_equal(a.B["encoder.W1"], b.B["encoder.W1"])
        assert not np.allclose(a.B["encoder.W1"], c.B["encoder.W1"])


class TestDelta:
    def test_delta_is_alpha_scaled_product(self):
        patch = LoRAPatch("p", SHAPES, rank=2, alpha=3.0, seed=5)
        patch.A["encoder.W1"] = np.ones((2, 32))
        expected = 3.0 * patch.B["encoder.W1"] @ np.ones((2, 32))
        np.testing.assert_allclose(patch.delta("encoder.W1"), expected)

    def test_delta_none_for_untargeted(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        assert patch.delta("other.weight") is None

    def test_delta_rank_bounded(self):
        patch = LoRAPatch("p", SHAPES, rank=2, seed=1)
        patch.A["encoder.W1"] = np.random.default_rng(0).normal(0, 1, (2, 32))
        assert np.linalg.matrix_rank(patch.delta("encoder.W1")) <= 2


class TestParametersAndGrads:
    def test_parameters_are_aliased(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        params = patch.parameters()
        params["p/encoder.W1/A"][0, 0] = 42.0
        assert patch.A["encoder.W1"][0, 0] == 42.0

    def test_parameter_keys(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        assert set(patch.parameters()) == {
            "p/encoder.W1/A", "p/encoder.W1/B", "p/answer.V/A", "p/answer.V/B",
        }

    def test_grad_wrt_shapes(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        grads = patch.grad_wrt("encoder.W1", np.ones(SHAPES["encoder.W1"]))
        assert grads["p/encoder.W1/B"].shape == patch.B["encoder.W1"].shape
        assert grads["p/encoder.W1/A"].shape == patch.A["encoder.W1"].shape

    def test_grad_wrt_untargeted_is_empty(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        assert patch.grad_wrt("other", np.ones((3, 3))) == {}

    def test_num_parameters(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        assert patch.num_parameters() == 2 * (8 * 2 + 2 * 32)


class TestUtilities:
    def test_clone_is_deep(self):
        patch = LoRAPatch("p", SHAPES, rank=2, seed=1)
        copy = patch.clone()
        copy.A["encoder.W1"][0, 0] = 7.0
        assert patch.A["encoder.W1"][0, 0] == 0.0

    def test_clone_rename(self):
        assert LoRAPatch("p", SHAPES, rank=2).clone("q").name == "q"

    def test_scaled(self):
        patch = LoRAPatch("p", SHAPES, rank=2, alpha=1.0, seed=1)
        patch.A["encoder.W1"] = np.ones((2, 32))
        doubled = patch.scaled(2.0)
        np.testing.assert_allclose(
            doubled.delta("encoder.W1"), 2.0 * patch.delta("encoder.W1")
        )

    def test_frobenius_norm_zero_when_fresh(self):
        assert LoRAPatch("p", SHAPES, rank=2).frobenius_norm() == 0.0

    def test_frobenius_trace_identity_matches_dense(self):
        """‖αBA‖_F via (r,r) Grams equals the materialised norm."""
        patch = LoRAPatch("p", SHAPES, rank=3, alpha=2.0, seed=4)
        rng = np.random.default_rng(11)
        for name in patch.A:
            patch.A[name] = rng.normal(0, 1, patch.A[name].shape)
        dense = dense_frobenius_norm(patch)
        assert dense > 0.0
        assert patch.frobenius_norm() == pytest.approx(dense, rel=1e-12)

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_state_dict_roundtrip(self, rank):
        patch = LoRAPatch("p", SHAPES, rank=rank, seed=2)
        rng = np.random.default_rng(0)
        for name in patch.A:
            patch.A[name] = rng.normal(0, 1, patch.A[name].shape)
        restored = LoRAPatch("p", SHAPES, rank=rank, seed=99)
        restored.load_state_dict(patch.state_dict())
        for name in SHAPES:
            np.testing.assert_array_equal(
                restored.delta(name), patch.delta(name)
            )

    def test_load_state_dict_rejects_unknown_target(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        with pytest.raises(KeyError):
            patch.load_state_dict({"B::unknown": np.zeros((8, 2))})

    def test_load_state_dict_rejects_bad_shape(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        with pytest.raises(ValueError):
            patch.load_state_dict({"B::encoder.W1": np.zeros((3, 3))})

    def test_iteration_yields_targets(self):
        assert set(LoRAPatch("p", SHAPES, rank=2)) == set(SHAPES)


class TestRankProtocol:
    def test_delta_shape(self):
        patch = LoRAPatch("p", SHAPES, rank=2)
        assert patch.delta_shape("encoder.W1") == SHAPES["encoder.W1"]
        assert patch.delta_shape("other.weight") is None

    def test_rank_components_reconstruct_delta(self):
        patch = LoRAPatch("p", SHAPES, rank=2, alpha=3.0, seed=5)
        patch.A["encoder.W1"] = np.random.default_rng(0).normal(0, 1, (2, 32))
        (comp,) = patch.rank_components("encoder.W1")
        np.testing.assert_allclose(
            comp.coeff * (comp.B @ comp.A), patch.delta("encoder.W1")
        )
        assert comp.trainable
        assert comp.lambda_index is None
        assert comp.key_B == "p/encoder.W1/B"
        assert comp.key_A == "p/encoder.W1/A"

    def test_rank_components_empty_for_untargeted(self):
        assert LoRAPatch("p", SHAPES, rank=2).rank_components("other") == []
