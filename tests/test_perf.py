"""Tests for the perf observability registry (repro.perf)."""

import json

import pytest

from repro.perf import PerfRegistry, render_benchmark


class TestPerfRegistry:
    def test_counters_accumulate(self):
        perf = PerfRegistry()
        perf.count("x")
        perf.count("x", 4)
        assert perf.counter("x") == 5
        assert perf.counter("missing") == 0

    def test_timer_context_accumulates(self):
        perf = PerfRegistry()
        with perf.timer("t"):
            pass
        with perf.timer("t"):
            pass
        snap = perf.snapshot()
        assert snap["timers"]["t"]["calls"] == 2
        assert snap["timers"]["t"]["seconds"] >= 0.0

    def test_hit_rate(self):
        perf = PerfRegistry()
        perf.count("hits", 3)
        perf.count("misses", 1)
        assert perf.hit_rate("hits", "misses") == pytest.approx(0.75)
        assert perf.hit_rate("nope", "nada") == 0.0

    def test_throughput(self):
        perf = PerfRegistry()
        perf.count("examples", 100)
        perf.add_time("work", 2.0)
        assert perf.throughput("examples", "work") == pytest.approx(50.0)
        assert perf.throughput("examples", "missing") == 0.0

    def test_reset(self):
        perf = PerfRegistry()
        perf.count("x")
        perf.add_time("t", 1.0)
        perf.reset()
        assert perf.snapshot() == {"counters": {}, "timers": {}}

    def test_snapshot_is_json_serialisable(self):
        perf = PerfRegistry()
        perf.count("featurizer.sparse_misses", 7)
        with perf.timer("model.forward"):
            pass
        json.dumps(perf.snapshot())

    def test_report_renders_derived_rates(self):
        perf = PerfRegistry()
        perf.count("featurizer.sparse_hits", 9)
        perf.count("featurizer.sparse_misses", 1)
        perf.count("model.examples", 10)
        perf.add_time("model.forward", 0.5)
        report = perf.report()
        assert "featurizer sparse cache hit-rate" in report
        assert "90.0%" in report
        assert "scored examples/sec" in report


class TestInstrumentation:
    def test_model_paths_record_counters(self):
        from repro.perf import PERF
        from repro.tinylm.model import ModelConfig, ScoringLM

        model = ScoringLM(
            ModelConfig(name="perf-test", feature_dim=128, hidden_dim=8)
        )
        PERF.reset()
        model.predict_batch(
            ["one prompt", "two prompt"], [["a", "b"], ["c", "d", "e"]]
        )
        assert PERF.counter("model.batches") == 1
        assert PERF.counter("model.examples") == 2
        assert PERF.counter("model.candidates") == 5
        assert PERF.seconds("model.forward") > 0.0
        # Second identical call is served from the featurization caches.
        model.predict_batch(
            ["one prompt", "two prompt"], [["a", "b"], ["c", "d", "e"]]
        )
        assert PERF.counter("model.prompt_hits") == 2
        assert PERF.counter("model.candidate_hits") == 5

    def test_frozen_backbone_fit_never_materialises_weights(self):
        """A rank-space fit must record zero dense weight builds."""
        import numpy as np

        from repro.perf import PERF
        from repro.tinylm.fusion import PatchFusion
        from repro.tinylm.lora import LoRAPatch
        from repro.tinylm.model import ModelConfig, ScoringLM
        from repro.tinylm.trainer import TrainConfig, Trainer, TrainingExample
        from tests.reference import DenseTrainer

        model = ScoringLM(
            ModelConfig(name="perf-train", feature_dim=128, hidden_dim=8, seed=0)
        )
        shapes = model.config.target_shapes()
        patches = []
        for i in range(2):
            patch = LoRAPatch(f"up{i}", shapes, rank=2, seed=i)
            rng = np.random.default_rng(i)
            for key in patch.A:
                patch.A[key] = rng.normal(0.0, 0.02, patch.A[key].shape)
            patches.append(patch)
        model.attach(
            PatchFusion(patches, LoRAPatch("new", shapes, rank=2, seed=9))
        )
        examples = [
            TrainingExample(f"prompt number {i}", ("yes", "no"), target=i % 2)
            for i in range(8)
        ]
        PERF.reset()
        report = Trainer(
            model, TrainConfig(epochs=2, seed=1), train_base=False
        ).fit(examples)
        assert report.rank_space
        assert PERF.counter("train.rank_space_steps") == len(report.step_losses) > 0
        assert PERF.counter("train.frozen_builds") == 1  # once per fit, not per step
        assert PERF.counter("model.weight_materializations") == 0
        # The dense reference step does materialise, so the counter is live.
        PERF.reset()
        DenseTrainer(
            model, TrainConfig(epochs=1, seed=1), train_base=False
        ).fit(examples)
        assert PERF.counter("model.weight_materializations") > 0

    def test_render_benchmark_format(self):
        result = {
            "workload": "em/abt_buy",
            "examples": 10,
            "candidates": 20,
            "repeats": 3,
            "per_example": {"seconds": 1.0, "examples_per_sec": 10.0},
            "batched": {"seconds": 0.1, "examples_per_sec": 100.0},
            "cold": {"per_example_seconds": 1.5, "batched_seconds": 0.5},
            "speedup": 10.0,
            "predictions_identical": True,
        }
        text = render_benchmark(result)
        assert "10.0x" in text
        assert "em/abt_buy" in text
        assert "predictions identical: True" in text


class TestCLI:
    def test_perf_command_runs(self, capsys):
        from repro.cli import main

        code = main(
            [
                "perf",
                "--dataset",
                "ed/beer",
                "--count",
                "40",
                "--repeats",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "batched inference benchmark" in out
        assert "speedup" in out
