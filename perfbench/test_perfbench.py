"""Tests of the benchmark's own checks, timers and report plumbing.

Run from the repository root: ``python3 -m pytest perfbench -q``.  None
of them runs the program; each tampered case must make the run report
itself as failed, so that no correctness check can pass silently.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import run as run_module  # noqa: E402
import serve_load  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from common import OpResult, load_config  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)


def _ctx(trace: bool = False) -> workloads.Context:
    return workloads.Context(
        seed=0, seconds=1.0, trace=trace, config=load_config(), run=None,
        backbone="",
    )


def _adapt_op(score: float, rc: int = 0) -> OpResult:
    stdout = json.dumps({"score": score}) if rc == 0 else ""
    return OpResult(rc, 1.0, stdout, "", {"rss_mb": {"self": 100.0}})


# ----------------------------------------------------------------------
# adapt
# ----------------------------------------------------------------------
def test_adapt_identical_scores_are_correct():
    ops = [_adapt_op(70.0), _adapt_op(80.0), _adapt_op(70.0)]
    scores = [("ed/a", 70.0), ("em/b", 80.0), ("ed/a", 70.0)]
    outcome = workloads._adapt_outcome(_ctx(), ops, scores, 1.0, "t", [])
    assert outcome.problems == []
    result = run_module.result_line(outcome, DECLARED, trace=False)
    assert result["correct"] is True
    assert result["metrics"]["test_score"]["value"] == 75.0


def test_adapt_tampered_score_fails_the_run():
    ops = [_adapt_op(70.0), _adapt_op(70.000001)]
    scores = [("ed/a", 70.0), ("ed/a", 70.000001)]
    outcome = workloads._adapt_outcome(_ctx(), ops, scores, 1.0, "t", [])
    assert any("differs" in p for p in outcome.problems)
    assert run_module.result_line(outcome, DECLARED, trace=False)["correct"] is False


def test_adapt_nonzero_exit_fails_the_run():
    ops = [_adapt_op(70.0), _adapt_op(0.0, rc=1)]
    scores = [("ed/a", 70.0), ("ed/a", checks.adapt_score(ops[1].stdout))]
    outcome = workloads._adapt_outcome(_ctx(), ops, scores, 1.0, "t", [])
    assert outcome.failed == 1
    assert any("exit code 1" in p for p in outcome.problems)
    assert any("no score" in p for p in outcome.problems)
    assert run_module.result_line(outcome, DECLARED, trace=False)["correct"] is False


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------
ROWS = [{"dataset": "ed/a", "knowtrans": 70.0},
        {"dataset": "average", "knowtrans": 70.0}]


def _pass(rows, rc: int = 0) -> dict:
    return {"rc": rc, "wall_s": 3.0, "rows": rows}


def test_grid_identical_rows_are_correct():
    outcome = workloads.grid_outcome(
        _ctx(), [1.0], ROWS, [_pass(ROWS), _pass(ROWS)], {"self": 1.0}, []
    )
    assert outcome.problems == []
    assert outcome.metrics["test_score"] == 70.0


def test_grid_tampered_row_fails_the_run():
    tampered = [dict(ROWS[0], knowtrans=69.9), ROWS[1]]
    outcome = workloads.grid_outcome(
        _ctx(), [1.0], ROWS, [_pass(ROWS), _pass(tampered)], {"self": 1.0}, []
    )
    assert outcome.problems == ["grid pass 1: rows differ from the reference pass"]
    assert run_module.result_line(outcome, DECLARED, trace=False)["correct"] is False


def test_grid_failed_pass_fails_the_run():
    outcome = workloads.grid_outcome(
        _ctx(), [1.0], ROWS, [_pass(ROWS), _pass(None, rc=2)], {"self": 1.0}, []
    )
    assert outcome.failed == 1
    assert run_module.result_line(outcome, DECLARED, trace=False)["correct"] is False


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
POOL = serve_load.Pool("t", "em/x", "em", ["p0", "p1", "p2", "p3"],
                       [["a", "b"]] * 4, [0, 1, 0, 1])
LEARNER = serve_load.Pool("l", "em/y", "em", ["q0", "q1"], [["a", "b"]] * 2, [0, 1])


def _request(kind, pool, picks, response, start):
    request = serve_load.Request(kind, b"", pool, picks)
    request.due = request.sent = start
    request.received = start + 0.01
    request.response = response
    return request


def _serve_outcome(monkeypatch, served_predictions, update_rows, phase2_update=None):
    # The oracle says every prompt's prediction is its gold target.
    monkeypatch.setattr(
        serve_load, "_oracle",
        lambda cfg, config, store, predicts: [
            [r.pool.targets[i] for i in r.picks] for r in predicts
        ],
    )
    phase1 = [
        _request("predict", POOL, [0, 1], {"ok": True, "predictions": served_predictions,
                                           "queue_ms": 1.0}, 1.0),
        _request("stream_update", LEARNER, [0, 1],
                 {"ok": True, "stream_rows": update_rows}, 2.0),
    ]
    phase2 = [_request("predict", POOL, [2, 3],
                       {"ok": True, "predictions": [0, 1], "queue_ms": 1.0}, 3.0)]
    if phase2_update is not None:
        sent, rows = phase2_update
        phase2.append(_request("stream_update", LEARNER, [0, 1],
                               {"ok": True, "stream_rows": rows}, sent))
    ctx = _ctx()
    return serve_load._outcome(
        ctx, ctx.config["serve_mixed"], "", [POOL], phase1, phase2, 1.0, [0.1],
        {"requests": 3, "adapter_swaps": 1, "mean_batch_size": 1.0}, [2.0],
        {"rss_mb": {"self": 300.0}}, None, [],
    )


def test_serve_matching_responses_are_correct(monkeypatch):
    outcome = _serve_outcome(monkeypatch, [0, 1], update_rows=2)
    assert outcome.problems == []
    assert outcome.metrics["test_score"] == 100.0
    assert run_module.result_line(outcome, DECLARED, trace=False)["correct"] is True


def test_serve_tampered_prediction_fails_the_run(monkeypatch):
    outcome = _serve_outcome(monkeypatch, [1, 1], update_rows=2)
    assert outcome.problems == ["predict 0: served predictions differ from the oracle"]
    assert run_module.result_line(outcome, DECLARED, trace=False)["correct"] is False


def test_serve_wrong_stream_rows_fails_the_run(monkeypatch):
    outcome = _serve_outcome(monkeypatch, [0, 1], update_rows=3)
    assert any("stream_rows 3 != 2" in p for p in outcome.problems)
    assert run_module.result_line(outcome, DECLARED, trace=False)["correct"] is False


def test_serve_updates_are_checked_in_send_order(monkeypatch):
    # The phases alternate in blocks: this closed-loop update was sent
    # before the open-loop one, so the daemon applied it first.
    outcome = _serve_outcome(monkeypatch, [0, 1], update_rows=4, phase2_update=(1.5, 2))
    assert outcome.problems == []
    outcome = _serve_outcome(monkeypatch, [0, 1], update_rows=2, phase2_update=(1.5, 4))
    assert any("stream_rows 4 != 2" in p for p in outcome.problems)


def test_stream_update_error_fails():
    assert checks.stream_updates([(8, {"ok": False, "error": "x"})])
    assert checks.stream_updates([(8, None)])


# ----------------------------------------------------------------------
# timers and the layer budget
# ----------------------------------------------------------------------
def test_self_time_excludes_wrapped_children_and_recursion():
    recorder = tracer.RECORDER
    recorder.reset()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer._wrap("inner", inner)

    def outer(depth):
        time.sleep(0.01)
        wrapped_inner()
        if depth:
            wrapped_outer(depth - 1)

    wrapped_outer = tracer._wrap("outer", outer)
    wrapped_outer(1)
    calls, incl, self_s = recorder.totals["outer"]
    inner_calls, inner_incl, inner_self = recorder.totals["inner"]
    recorder.reset()
    assert calls == 2 and inner_calls == 2
    # Inclusive time counts the outermost call only, never the recursion.
    assert incl == pytest.approx(self_s + inner_incl, abs=1e-6)
    assert inner_self == pytest.approx(inner_incl)
    assert 0.015 < self_s < incl


def test_budget_rows_sum_to_wall_time():
    record = {
        "totals": {"trainer.fit": [2, 3.0, 2.5], "predict": [1, 0.5, 0.5]},
        "budget": {"trainer.fit": [2, 3.0, 2.5], "predict": [1, 0.5, 0.5]},
        "counts": {"trainer.steps": 40},
        "perf": {"model.prompt_hits": 3, "model.prompt_misses": 1},
        "wall_s": 4.0,
        "import_s": 0.25,
    }
    metrics = layers.summarize([record, record])
    rows = [metrics[f"self.{name}_s"] for name in tracer.BUDGET_NAMES]
    assert sum(rows) + metrics["import_s"] + metrics["unattributed_s"] == pytest.approx(4.0)
    assert metrics["unattributed_share"] == pytest.approx(0.75 / 4.0)
    assert metrics["trainer.steps"] == 40
    assert metrics["prompt_hit_share"] == 0.75


def test_benchmark_json_matches_the_metrics_produced():
    assert [m["name"] for m in DECLARED["per_layer"]] == list(layers.UNITS)
    for spec in DECLARED["per_layer"]:
        assert spec["unit"] == layers.UNITS[spec["name"]]
    outcome = workloads._adapt_outcome(
        _ctx(), [_adapt_op(1.0)], [("ed/a", 1.0)], 1.0, "t", []
    )
    assert set(outcome.metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    assert [w["name"] for w in DECLARED["workloads"]] == [
        "adapt_cold", "grid", "serve_mixed"
    ]
