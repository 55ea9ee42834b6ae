"""Unit tests for repro.tinylm.trainer."""

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from repro import obs, runtime
from repro.tinylm.fusion import PatchFusion
from repro.tinylm.lora import LoRAPatch
from repro.tinylm.model import ModelConfig, ScoringLM
from repro.runtime import WorkerPool
from repro.tinylm.trainer import TrainConfig, Trainer, TrainingExample
from tests.reference import DenseTrainer

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def _separable_examples(n=80, seed=0):
    rng = np.random.default_rng(seed)
    colors = ("red", "blue")
    examples = []
    for __ in range(n):
        color = colors[int(rng.integers(2))]
        noise = " ".join(str(rng.integers(50)) for __ in range(4))
        examples.append(
            TrainingExample(
                prompt=f"item color {color} {noise}",
                candidates=("warm", "cold"),
                target=0 if color == "red" else 1,
            )
        )
    return examples


@pytest.fixture()
def model():
    return ScoringLM(ModelConfig(name="trainer-test", feature_dim=256, hidden_dim=24, seed=5))


class TestTrainingExample:
    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            TrainingExample("p", ("a", "b"), target=2)

    def test_accepts_valid(self):
        ex = TrainingExample("p", ("a", "b"), target=1)
        assert ex.candidates == ("a", "b")


class TestFit:
    def test_loss_decreases(self, model):
        trainer = Trainer(model, TrainConfig(epochs=4, seed=1))
        report = trainer.fit(_separable_examples())
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_learns_separable_task(self, model):
        Trainer(model, TrainConfig(epochs=5, seed=1)).fit(_separable_examples())
        examples = _separable_examples(seed=9)
        accuracy = np.mean(
            [model.predict(ex.prompt, ex.candidates) == ex.target for ex in examples]
        )
        assert accuracy > 0.9

    def test_empty_examples_rejected(self, model):
        with pytest.raises(ValueError):
            Trainer(model).fit([])

    def test_final_loss_property(self, model):
        report = Trainer(model, TrainConfig(epochs=2, seed=1)).fit(
            _separable_examples(n=16)
        )
        assert report.final_loss == report.epoch_losses[-1]

    def test_deterministic_given_seed(self):
        results = []
        for __ in range(2):
            model = ScoringLM(
                ModelConfig(name="det", feature_dim=128, hidden_dim=16, seed=2)
            )
            Trainer(model, TrainConfig(epochs=2, seed=3)).fit(
                _separable_examples(n=24)
            )
            results.append(model.weights["encoder.W1"].copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_adapter_only_training_freezes_base(self, model):
        patch = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=1)
        model.attach(patch)
        before = {k: v.copy() for k, v in model.weights.items()}
        Trainer(model, TrainConfig(epochs=2, seed=1), train_base=False).fit(
            _separable_examples(n=24)
        )
        for name, value in model.weights.items():
            np.testing.assert_array_equal(value, before[name])
        assert patch.frobenius_norm() > 0.0

    def test_adapter_swap_resets_adam_state(self, model):
        """Adam moments must not leak from one adapter into the next.

        Slot keys carry only the parameter name ("adapter/B::..."), so
        training patch A and then patch B with the same trainer used to
        warm-start B's moments from A's — the swapped-in patch must
        train exactly like one fitted by a fresh trainer.
        """
        examples = _separable_examples(n=24)
        patch_a = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=1)
        patch_b = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=7)
        trainer = Trainer(model, TrainConfig(epochs=2, seed=3), train_base=False)
        model.attach(patch_a)
        trainer.fit(examples)
        model.detach()
        model.attach(patch_b)
        trainer.fit(examples)

        twin = ScoringLM(
            ModelConfig(name="trainer-test", feature_dim=256, hidden_dim=24, seed=5)
        )
        twin_patch = LoRAPatch("p", twin.config.target_shapes(), rank=2, seed=7)
        twin.attach(twin_patch)
        Trainer(twin, TrainConfig(epochs=2, seed=3), train_base=False).fit(
            examples
        )
        trained = patch_b.parameters()
        expected = twin_patch.parameters()
        assert trained.keys() == expected.keys()
        for key in trained:
            np.testing.assert_array_equal(trained[key], expected[key])

    def test_adapter_training_learns(self, model):
        patch = LoRAPatch("p", model.config.target_shapes(), rank=4, alpha=2.0, seed=1)
        model.attach(patch)
        Trainer(
            model, TrainConfig(epochs=6, seed=1), train_base=False
        ).fit(_separable_examples())
        examples = _separable_examples(seed=9)
        accuracy = np.mean(
            [model.predict(ex.prompt, ex.candidates) == ex.target for ex in examples]
        )
        assert accuracy > 0.85


def _fused_model(train_lambdas=True, train_patches=True, n_patches=3, seed=5):
    """Frozen-backbone model with a non-trivial fusion attached.

    Upstream ``A`` factors are filled with small random values so the
    fused delta (and hence the λ gradients) are non-zero from step one.
    """
    model = ScoringLM(
        ModelConfig(name="trainer-test", feature_dim=256, hidden_dim=24, seed=seed)
    )
    shapes = model.config.target_shapes()
    patches = []
    for i in range(n_patches):
        patch = LoRAPatch(f"up{i}", shapes, rank=2, seed=10 + i)
        rng = np.random.default_rng(100 + i)
        for key in patch.A:
            patch.A[key] = rng.normal(0.0, 0.02, patch.A[key].shape)
        patches.append(patch)
    fusion = PatchFusion(
        patches,
        LoRAPatch("new", shapes, rank=2, seed=42),
        initial_weight=0.3,
        train_lambdas=train_lambdas,
        train_patches=train_patches,
    )
    model.attach(fusion)
    return model, fusion


#: The engine under test (rank space) and its dense reference, by flag.
_ENGINE = {True: Trainer, False: DenseTrainer}


class TestRankSpaceParity:
    """Rank-space engine must reproduce the dense path to rtol 1e-9."""

    RTOL = 1e-9

    def _fit(self, rank_space, train_lambdas, train_patches, epochs=2):
        model, fusion = _fused_model(train_lambdas, train_patches)
        trainer = _ENGINE[rank_space](
            model, TrainConfig(epochs=epochs, seed=3), train_base=False
        )
        report = trainer.fit(_separable_examples(n=24))
        return model, fusion, report

    @pytest.mark.parametrize("train_lambdas", [True, False])
    @pytest.mark.parametrize("train_patches", [True, False])
    def test_losses_lambdas_and_params_match(self, train_lambdas, train_patches):
        __, dense_fusion, dense_report = self._fit(
            False, train_lambdas, train_patches
        )
        __, rank_fusion, rank_report = self._fit(
            True, train_lambdas, train_patches
        )
        assert not dense_report.rank_space
        assert rank_report.rank_space
        assert len(rank_report.step_losses) == len(dense_report.step_losses) > 0
        np.testing.assert_allclose(
            rank_report.step_losses,
            dense_report.step_losses,
            rtol=self.RTOL,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            rank_fusion.lambdas, dense_fusion.lambdas, rtol=self.RTOL, atol=1e-12
        )
        dense_params = dense_fusion.parameters()
        rank_params = rank_fusion.parameters()
        assert dense_params.keys() == rank_params.keys()
        for key in dense_params:
            np.testing.assert_allclose(
                rank_params[key], dense_params[key], rtol=self.RTOL, atol=1e-12
            )

    def test_predictions_match(self):
        """Rank and dense fits pick the same argmax on held-out prompts."""
        held_out = _separable_examples(n=40, seed=9)
        prompts = [ex.prompt for ex in held_out]
        pools = [list(ex.candidates) for ex in held_out]
        dense_model, __, __ = self._fit(False, True, True)
        rank_model, __, __ = self._fit(True, True, True)
        assert list(rank_model.predict_batch(prompts, pools)) == list(
            dense_model.predict_batch(prompts, pools)
        )

    def test_lambda_trajectory_matches(self):
        """λ agrees with the dense path after every epoch, not just the end."""
        trajectories = {}
        for rank_space in (False, True):
            model, fusion = _fused_model()
            trainer = _ENGINE[rank_space](
                model, TrainConfig(epochs=1, seed=3), train_base=False
            )
            path = []
            for __ in range(3):
                trainer.fit(_separable_examples(n=24))
                path.append(fusion.lambdas.copy())
            trajectories[rank_space] = path
        for rank_lam, dense_lam in zip(trajectories[True], trajectories[False]):
            np.testing.assert_allclose(
                rank_lam, dense_lam, rtol=self.RTOL, atol=1e-12
            )

    def test_single_patch_parity(self):
        examples = _separable_examples(n=24)
        results = {}
        for rank_space in (False, True):
            model = ScoringLM(
                ModelConfig(
                    name="trainer-test", feature_dim=256, hidden_dim=24, seed=5
                )
            )
            patch = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=1)
            model.attach(patch)
            report = _ENGINE[rank_space](
                model, TrainConfig(epochs=2, seed=3), train_base=False
            ).fit(examples)
            results[rank_space] = (patch.parameters(), report)
        rank_params, rank_report = results[True]
        dense_params, dense_report = results[False]
        assert rank_report.rank_space and not dense_report.rank_space
        np.testing.assert_allclose(
            rank_report.step_losses,
            dense_report.step_losses,
            rtol=self.RTOL,
            atol=1e-12,
        )
        for key in dense_params:
            np.testing.assert_allclose(
                rank_params[key], dense_params[key], rtol=self.RTOL, atol=1e-12
            )

    def test_adapter_swap_mid_fit(self):
        """Swapping fusions between fits stays in parity with dense."""
        examples = _separable_examples(n=24)
        finals = {}
        for rank_space in (False, True):
            model, fusion_a = _fused_model(seed=5)
            trainer = _ENGINE[rank_space](
                model, TrainConfig(epochs=1, seed=3), train_base=False
            )
            trainer.fit(examples)
            model.detach()
            fusion_b = PatchFusion(
                fusion_a.patches,
                LoRAPatch("new-b", model.config.target_shapes(), rank=2, seed=77),
                initial_weight=0.2,
            )
            model.attach(fusion_b)
            trainer.fit(examples)
            finals[rank_space] = fusion_b.parameters()
        assert finals[True].keys() == finals[False].keys()
        for key in finals[False]:
            np.testing.assert_allclose(
                finals[True][key], finals[False][key], rtol=self.RTOL, atol=1e-12
            )

    def test_auto_selection(self, model):
        """The engine is a function of train_base and the adapter alone."""
        examples = _separable_examples(n=8)
        # Base training never engages the rank engine.
        base_report = Trainer(model, TrainConfig(epochs=1, seed=1)).fit(examples)
        assert not base_report.rank_space
        # Neither does base training with a rank-protocol adapter attached.
        fused, __ = _fused_model()
        report = Trainer(fused, TrainConfig(epochs=1, seed=1)).fit(examples)
        assert not report.rank_space
        # Frozen backbone + adapter auto-selects it.
        fused, __ = _fused_model()
        report = Trainer(
            fused, TrainConfig(epochs=1, seed=1), train_base=False
        ).fit(examples)
        assert report.rank_space
        # The dense reference forces the dense step on the same fit.
        fused, __ = _fused_model()
        report = DenseTrainer(
            fused, TrainConfig(epochs=1, seed=1), train_base=False
        ).fit(examples)
        assert not report.rank_space


class TestEvaluateLoss:
    def test_no_parameter_updates(self, model):
        before = model.weights["encoder.W1"].copy()
        Trainer(model).evaluate_loss(_separable_examples(n=8))
        np.testing.assert_array_equal(model.weights["encoder.W1"], before)

    def test_returns_finite_loss(self, model):
        loss = Trainer(model).evaluate_loss(_separable_examples(n=8))
        assert np.isfinite(loss) and loss > 0


class TestAdamMechanics:
    def test_grad_clip_limits_step(self, model):
        config = TrainConfig(epochs=1, grad_clip=1e-9, learning_rate=1.0, seed=0)
        before = model.weights["encoder.W1"].copy()
        Trainer(model, config).fit(_separable_examples(n=8))
        # Clipped to almost nothing; Adam normalisation still moves a
        # little, but far less than lr=1.0 would unclipped.
        drift = np.abs(model.weights["encoder.W1"] - before).max()
        assert drift < 1.5

    def test_weight_decay_shrinks_weights(self):
        examples = _separable_examples(n=8)
        heavy = ScoringLM(ModelConfig(name="wd", feature_dim=128, hidden_dim=16, seed=2))
        light = ScoringLM(ModelConfig(name="wd", feature_dim=128, hidden_dim=16, seed=2))
        Trainer(heavy, TrainConfig(epochs=3, weight_decay=0.5, seed=1)).fit(examples)
        Trainer(light, TrainConfig(epochs=3, weight_decay=0.0, seed=1)).fit(examples)
        assert np.linalg.norm(heavy.weights["encoder.W1"]) < np.linalg.norm(
            light.weights["encoder.W1"]
        )


# ----------------------------------------------------------------------
# In-place Adam against the allocating update it replaced
# ----------------------------------------------------------------------
@dataclass
class _RefSlot:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


class _ReferenceTrainer(Trainer):
    """Trainer running the allocating Adam update (the exactness oracle)."""

    def _adam_update(self, key, param, grad):
        cfg = self.config
        slot = self._slots.get(key)
        if slot is None or slot.m.shape != param.shape:
            slot = _RefSlot(m=np.zeros_like(param), v=np.zeros_like(param))
            self._slots[key] = slot
        if cfg.weight_decay:
            grad = grad + cfg.weight_decay * param
        norm = np.linalg.norm(grad)
        if cfg.grad_clip and norm > cfg.grad_clip:
            grad = grad * (cfg.grad_clip / norm)
        slot.step += 1
        slot.m = cfg.beta1 * slot.m + (1 - cfg.beta1) * grad
        slot.v = cfg.beta2 * slot.v + (1 - cfg.beta2) * grad * grad
        m_hat = slot.m / (1 - cfg.beta1**slot.step)
        v_hat = slot.v / (1 - cfg.beta2**slot.step)
        param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


def _tiny_model(seed=2):
    return ScoringLM(
        ModelConfig(name="adam-test", feature_dim=128, hidden_dim=16, seed=seed)
    )


def _assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


class TestInPlaceAdam:
    """The scratch-buffer update is bit-identical and never aliases."""

    @pytest.mark.parametrize(
        "shape",
        [(1,), (12,), (4, 256), (24, 256), (96, 2048), (37, 2048), (2048,)],
    )
    @pytest.mark.parametrize("weight_decay", [0.0, 2e-5])
    @pytest.mark.parametrize("grad_clip", [1e-3, 1e6], ids=["clipped", "unclipped"])
    def test_update_matches_reference(self, shape, weight_decay, grad_clip):
        config = TrainConfig(weight_decay=weight_decay, grad_clip=grad_clip)
        model = _tiny_model()
        fast, ref = Trainer(model, config), _ReferenceTrainer(model, config)
        rng = np.random.default_rng(sum(shape))
        param = rng.normal(0.0, 1.0, shape)
        ref_param = param.copy()
        for __ in range(5):
            grad = rng.normal(0.0, 1.0, shape)
            before = grad.copy()
            fast._adam_update("base/w", param, grad)
            np.testing.assert_array_equal(grad, before)
            ref._adam_update("base/w", ref_param, grad)
        np.testing.assert_array_equal(param, ref_param)
        got, want = fast._slots["base/w"], ref._slots["base/w"]
        np.testing.assert_array_equal(got.m, want.m)
        np.testing.assert_array_equal(got.v, want.v)

    def test_equal_shape_slots_share_no_buffer(self):
        trainer = Trainer(_tiny_model(), TrainConfig(weight_decay=2e-5))
        rng = np.random.default_rng(0)
        params = {k: rng.normal(size=(24, 256)) for k in ("base/W1", "base/V")}
        for key, param in params.items():
            trainer._adam_update(key, param, rng.normal(size=param.shape))
        arrays = list(params.values())
        for slot in trainer._slots.values():
            arrays += [slot.m, slot.v, slot.g, slot.t]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_shape_change_reallocates_scratch(self):
        model = _tiny_model()
        fast, ref = Trainer(model), _ReferenceTrainer(model)
        rng = np.random.default_rng(1)
        for shape in [(4, 256), (4, 256), (24, 256)]:
            param = rng.normal(size=shape)
            ref_param = param.copy()
            grad = rng.normal(size=shape)
            fast._adam_update("base/w", param, grad)
            ref._adam_update("base/w", ref_param, grad)
            np.testing.assert_array_equal(param, ref_param)
        slot = fast._slots["base/w"]
        assert slot.step == 1
        assert {a.shape for a in (slot.m, slot.v, slot.g, slot.t)} == {(24, 256)}

    def test_base_fit_matches_reference(self):
        config = TrainConfig(epochs=2, weight_decay=2e-5, seed=3)
        models = [_tiny_model(), _tiny_model()]
        Trainer(models[0], config).fit(_separable_examples(n=24))
        _ReferenceTrainer(models[1], config).fit(_separable_examples(n=24))
        _assert_same_arrays(models[0].weights, models[1].weights)

    def test_rank_space_fit_matches_reference(self):
        fused = []
        for cls in (Trainer, _ReferenceTrainer):
            model, fusion = _fused_model()
            report = cls(
                model, TrainConfig(epochs=2, seed=3), train_base=False
            ).fit(_separable_examples(n=24))
            assert report.rank_space
            fused.append(fusion)
        np.testing.assert_array_equal(fused[0].lambdas, fused[1].lambdas)
        _assert_same_arrays(fused[0].parameters(), fused[1].parameters())

    def test_fit_incremental_matches_reference(self):
        stream = _separable_examples(n=24)
        fused = []
        for cls in (Trainer, _ReferenceTrainer):
            model, fusion = _fused_model()
            trainer = cls(model, TrainConfig(epochs=1, seed=3), train_base=False)
            trainer.fit_incremental(stream[:12])
            trainer.fit_incremental(stream[12:])
            fused.append(fusion)
        np.testing.assert_array_equal(fused[0].lambdas, fused[1].lambdas)
        _assert_same_arrays(fused[0].parameters(), fused[1].parameters())

    def test_traced_fit_records_optimizer_time_per_step(self):
        tracer = obs.Tracer()
        with obs.using_tracer(tracer):
            report = Trainer(_tiny_model(), TrainConfig(epochs=1)).fit(
                _separable_examples(n=8)
            )
        count, total = tracer.histograms[("trainer.optimizer_ms", ())][:2]
        assert count == len(report.step_losses) and total > 0.0


# ----------------------------------------------------------------------
# Two-lane dense step
# ----------------------------------------------------------------------
class _DenseOnlyAdapter:
    """A LoRA patch without the rank-space protocol: trains on the dense step."""

    def __init__(self, patch):
        self._patch = patch

    def __getattr__(self, name):
        if name == "rank_components":
            raise AttributeError(name)
        return getattr(self._patch, name)


@contextmanager
def _cpus(n):
    """Make the lane runner see ``n`` available CPUs."""
    original = runtime.available_cpus
    runtime.available_cpus = lambda: n
    try:
        yield
    finally:
        runtime.available_cpus = original


def _lane_fit_state(cpus, adapter=False, train_base=True):
    """Weights, losses and Adam slots of one dense fit seeing ``cpus`` CPUs.

    Weight decay is on and the clip fires, so every branch of the update
    runs.
    """
    model = ScoringLM(
        ModelConfig(name="lane-test", feature_dim=1024, hidden_dim=48, seed=4)
    )
    params = {}
    if adapter:
        patch = LoRAPatch("dense-only", model.config.target_shapes(), rank=2, seed=6)
        model.attach(_DenseOnlyAdapter(patch))
        params = patch.parameters()
    config = TrainConfig(
        epochs=2, batch_size=6, weight_decay=2e-5, grad_clip=0.05, seed=3
    )
    trainer = Trainer(model, config, train_base=train_base)
    with _cpus(cpus):
        report = trainer.fit(_separable_examples(n=30))
    assert not report.rank_space
    slots = {
        key: (slot.m.copy(), slot.v.copy(), slot.step)
        for key, slot in trainer._slots.items()
    }
    return model.weights, params, report.step_losses, slots


def _assert_same_fit(got, want):
    weights, params, losses, slots = got
    _assert_same_arrays(weights, want[0])
    _assert_same_arrays(params, want[1])
    assert losses == want[2]
    assert slots.keys() == want[3].keys()
    for key, (m, v, step) in want[3].items():
        np.testing.assert_array_equal(slots[key][0], m, err_msg=key)
        np.testing.assert_array_equal(slots[key][1], v, err_msg=key)
        assert slots[key][2] == step


def _lane_pool_task(seed):
    """Fit a small base model in a pool worker; return its step losses."""
    model = ScoringLM(
        ModelConfig(name="lane-pool", feature_dim=256, hidden_dim=24, seed=seed)
    )
    report = Trainer(model, TrainConfig(epochs=1, seed=seed)).fit(
        _separable_examples(n=12, seed=seed)
    )
    return report.step_losses, model.weights["answer.V"]


class TestTwoLaneStep:
    """The two-lane dense step changes no float against the inline step."""

    def test_base_fit_matches_inline(self):
        _assert_same_fit(_lane_fit_state(2), _lane_fit_state(1))

    @pytest.mark.parametrize("train_base", [True, False])
    def test_non_rank_adapter_fit_matches_inline(self, train_base):
        got = _lane_fit_state(2, adapter=True, train_base=train_base)
        want = _lane_fit_state(1, adapter=True, train_base=train_base)
        assert got[1] and (got[3].keys() >= {"adapter/" + k for k in got[1]})
        _assert_same_fit(got, want)

    def test_detected_cpus_match_inline(self):
        # No patching: under ``taskset -c 0`` this is the inline path.
        tracer = obs.Tracer()
        with obs.using_tracer(tracer):
            model = _tiny_model()
            Trainer(model, TrainConfig(epochs=1, seed=2)).fit(
                _separable_examples(n=12)
            )
        (fit,) = [s for s in tracer.spans if s["name"] == "trainer.fit"]
        assert fit["attrs"]["lanes"] == (2 if runtime.available_cpus() >= 2 else 1)
        inline = _tiny_model()
        with _cpus(1):
            Trainer(inline, TrainConfig(epochs=1, seed=2)).fit(
                _separable_examples(n=12)
            )
        _assert_same_arrays(model.weights, inline.weights)

    def test_two_blas_threads_match_inline(self):
        script = (
            "from tests.test_trainer import _lane_fit_state, _assert_same_fit\n"
            "_assert_same_fit(_lane_fit_state(2), _lane_fit_state(1))\n"
            "_assert_same_fit(_lane_fit_state(2, adapter=True),"
            " _lane_fit_state(1, adapter=True))\n"
            "print('identical')\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join([_SRC, _ROOT])
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            cwd=_ROOT,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "identical"

    def test_lane_thread_is_joined_after_fit(self):
        baseline = threading.active_count()
        seen = []
        original = Trainer._optimize

        def spy(self, base_grads, adapter_grads, lanes=runtime.INLINE):
            seen.append((lanes.count, threading.active_count()))
            return original(self, base_grads, adapter_grads, lanes)

        with _cpus(2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(Trainer, "_optimize", spy)
            Trainer(_tiny_model(), TrainConfig(epochs=1)).fit(
                _separable_examples(n=8)
            )
        assert seen and all(count == 2 for count, __ in seen)
        assert seen[-1][1] == baseline + 1
        assert threading.active_count() == baseline

    def test_pool_fork_after_base_fit_trains_in_child(self):
        with _cpus(2):
            Trainer(_tiny_model(), TrainConfig(epochs=1)).fit(
                _separable_examples(n=8)
            )
            forked = WorkerPool(jobs=2, clamp=False).map(_lane_pool_task, [1, 2])
        serial = [_lane_pool_task(seed) for seed in (1, 2)]
        for (losses, weight), (want_losses, want_weight) in zip(forked, serial):
            assert losses == want_losses and len(losses) == 3
            np.testing.assert_array_equal(weight, want_weight)

    def test_traced_two_lane_fit_records_same_metrics(self):
        # One untraced fit warms the process-wide featurizer caches, so
        # both traced fits see the same cache hits.
        Trainer(_tiny_model(), TrainConfig(epochs=1)).fit(_separable_examples(n=16))
        tracers = {}
        for cpus in (2, 1):
            tracers[cpus] = tracer = obs.Tracer()
            with _cpus(cpus), obs.using_tracer(tracer):
                Trainer(_tiny_model(), TrainConfig(epochs=2)).fit(
                    _separable_examples(n=16)
                )
        two, one = tracers[2], tracers[1]
        assert [s["name"] for s in two.spans] == [s["name"] for s in one.spans]
        assert two.counters == one.counters
        # Same observation counts; step losses are the same floats.
        assert two.histograms.keys() == one.histograms.keys()
        for key, (count, *__) in one.histograms.items():
            assert two.histograms[key][0] == count, key
        loss_key = ("trainer.step_loss", ())
        assert two.histograms[loss_key] == one.histograms[loss_key]
        (lanes2,) = [s["attrs"]["lanes"] for s in two.spans if s["name"] == "trainer.fit"]
        (lanes1,) = [s["attrs"]["lanes"] for s in one.spans if s["name"] == "trainer.fit"]
        assert (lanes2, lanes1) == (2, 1)
