"""Tests for the evaluation harness, reporting, and experiment registry."""

import pytest

from repro.core.knowtrans import KnowTrans
from repro.eval import experiments, harness, reporting
from tests.reference import reference_table5_row, reference_table6_row


class TestHarness:
    def test_load_splits_cached(self):
        a = harness.load_splits("ed/beer", count=60, seed=3)
        b = harness.load_splits("ed/beer", count=60, seed=3)
        assert a is b

    def test_load_splits_keyed_on_few_shot(self):
        # Regression: the memo key used to omit ``few_shot``, so the
        # second call silently returned the first call's splits.
        a = harness.load_splits("ed/beer", count=60, seed=3, few_shot=20)
        b = harness.load_splits("ed/beer", count=60, seed=3, few_shot=10)
        assert a is not b
        assert len(a.few_shot) == 20
        assert len(b.few_shot) == 10

    def test_evaluate_method_uses_predict_batch(self, beer_splits):
        class Batched:
            called = False

            def predict(self, example):  # pragma: no cover - must not run
                raise AssertionError("per-example path used")

            def predict_batch(self, examples):
                Batched.called = True
                return ["no"] * len(examples)

        score = harness.evaluate_method(
            Batched(), beer_splits.test.examples, "ed"
        )
        assert Batched.called
        assert score == 0.0

    def test_adapt_single(self, base_model, fast_config, beer_splits):
        adapted = harness.adapt_single(base_model, beer_splits.few_shot, fast_config.skc)
        assert adapted.predict(beer_splits.test.examples[0]) in ("yes", "no")

    def test_evaluate_method_protocol(self, beer_splits):
        class Majority:
            def predict(self, example):
                return "no"

        score = harness.evaluate_method(Majority(), beer_splits.test.examples, "ed")
        assert score == 0.0  # no true positives


class TestReporting:
    def test_render_table_alignment(self):
        rows = [
            {"dataset": "a", "x": 1.234, "y": "text"},
            {"dataset": "bb", "x": 10.0, "y": "t"},
        ]
        text = reporting.render_table("Title", ["x", "y"], rows)
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "1.23" in text and "10.00" in text

    def test_averages_row_skips_non_numeric(self):
        rows = [{"dataset": "a", "x": 2.0, "y": "n/a"}, {"dataset": "b", "x": 4.0}]
        average = reporting.averages_row(rows, ["x", "y"])
        assert average["x"] == pytest.approx(3.0)
        assert "y" not in average

    def test_render_series(self):
        text = reporting.render_series(
            "Fig", "n", [20, 50], {"m1": [1.0, 2.0], "m2": [3.0, 4.0]}
        )
        assert "Fig" in text and "m1" in text and "4.00" in text


class TestExperimentContext:
    def test_presets(self):
        quick = experiments.ExperimentContext.quick()
        paper = experiments.ExperimentContext.paper()
        assert quick.data_scale < paper.data_scale

    def test_dataset_constants(self):
        assert len(experiments.ALL_DATASETS) == 13
        assert len(experiments.NOVEL_DATASET_IDS) == 8
        assert len(experiments.NOVEL_TASK_IDS) == 5
        assert set(experiments.ABLATION_DATASETS) <= set(experiments.ALL_DATASETS)


@pytest.fixture(scope="module")
def quick_ctx():
    ctx = experiments.ExperimentContext.quick()
    # Share the session bundle scale so tests reuse the cached pipeline.
    ctx.upstream_scale = 0.3
    return ctx


class TestExperiments:
    """Each registry entry runs end-to-end at the quick preset."""

    def test_table1(self, quick_ctx):
        result = experiments.table1_dataset_statistics(quick_ctx)
        assert len(result["rows"]) == 13
        assert "Table I" in result["text"]

    def test_table7(self, quick_ctx):
        result = experiments.table7_upstream_statistics(quick_ctx)
        assert len(result["rows"]) == 12

    def test_table2_single_dataset(self, quick_ctx):
        result = experiments.table2_open_source_comparison(
            quick_ctx, dataset_ids=["ed/beer"]
        )
        row = result["rows"][0]
        for column in ("non_llm", "mistral", "jellyfish", "knowtrans"):
            assert 0.0 <= row[column] <= 100.0

    def test_table3_cost(self, quick_ctx):
        result = experiments.table3_cost_analysis(quick_ctx, sample=6)
        by_name = {row["dataset"]: row for row in result["rows"]}
        assert by_name["knowtrans"]["input_tokens"] < by_name["gpt-4"]["input_tokens"]
        assert (
            by_name["knowtrans"]["cost_per_instance"]
            < by_name["gpt-4"]["cost_per_instance"]
        )

    def test_table5_single_dataset(self, quick_ctx):
        result = experiments.table5_ablation(quick_ctx, dataset_ids=["dc/beer"])
        row = result["rows"][0]
        assert set(row) >= {"wo_skc_akb", "wo_skc", "wo_akb", "knowtrans"}

    def test_table6_single_dataset(self, quick_ctx):
        result = experiments.table6_weight_strategies(
            quick_ctx, dataset_ids=["ed/beer"]
        )
        row = result["rows"][0]
        assert set(row) >= {"single", "uniform", "adaptive", "knowtrans"}

    def test_fig4_series_shape(self, quick_ctx):
        result = experiments.fig4_scalability(
            quick_ctx, dataset_ids=["dc/beer"], instance_counts=(20, 40)
        )
        series = result["series"]["dc/beer"]
        assert series["counts"] == [20, 40]
        assert len(series["jellyfish"]) == len(series["knowtrans"]) == 2

    def test_fig7_curves(self, quick_ctx):
        result = experiments.fig7_refinement_rounds(
            quick_ctx, dataset_ids=["ed/beer"], rounds=2
        )
        series = result["series"]["ed/beer"]
        assert len(series["eval"]) == 2
        assert len(series["test"]) == 2


class TestOneFitPerAblationArm:
    """Each no-AKB column is the AKB fit's adapter with seed knowledge."""

    # Datasets whose four columns all differ at this context, so a
    # column filled from the wrong fit cannot match by accident.
    def test_table5_row_matches_four_fit_reference(self, quick_ctx):
        args = (quick_ctx, "di/phone")
        row = experiments._table5_row(args)
        # Same keys, same column order, same floats.
        assert list(row.items()) == list(reference_table5_row(args).items())

    def test_table6_row_matches_four_fit_reference(self, quick_ctx):
        args = (quick_ctx, "ed/rayyan")
        row = experiments._table6_row(args)
        assert list(row.items()) == list(reference_table6_row(args).items())

    @pytest.mark.parametrize("use_skc", [True, False])
    def test_without_akb_is_the_no_akb_fit(
        self, bundle, fast_config, beer_splits, use_skc
    ):
        full = KnowTrans(
            bundle, config=fast_config, use_skc=use_skc, jobs=1
        ).fit(beer_splits)
        view = full.without_akb()
        plain = KnowTrans(
            bundle, config=fast_config, use_skc=use_skc, use_akb=False, jobs=1
        ).fit(beer_splits)
        test = beer_splits.test.examples
        assert view.model is full.model
        assert view.akb_result is None and full.akb_result is not None
        assert view.knowledge == plain.knowledge
        assert list(view.predict_batch(test)) == list(plain.predict_batch(test))
        assert view.fusion_weights == plain.fusion_weights

