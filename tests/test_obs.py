"""The observability layer: spans, metrics, fork merging, reporting.

The fork tests force real worker processes (``clamp=False``) so the
cross-process path — ``worker_reset`` in the child, snapshot pickling,
``merge_worker`` re-parenting in the parent — is exercised on actual
forks, and the aggregated serial vs parallel traces are compared for
exact equality, not shape.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import cli, obs
from repro import store as artifact_store
from repro.core.knowtrans import KnowTrans
from repro.eval.harness import evaluate_method
from repro.perf import Gate
from repro.reporting import Console, jsonable
from repro.runtime import WorkerPool


def _traced_task(x):
    """Module-level (picklable) worker body that emits spans + metrics."""
    with obs.span("test.task", parity=x % 2):
        obs.counter("test.calls")
        obs.histogram("test.value", float(x))
    return x * x


# ----------------------------------------------------------------------
# Disabled tracing is a true no-op
# ----------------------------------------------------------------------
def test_disabled_tracing_no_events_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with obs.using_tracer(None):
        assert not obs.enabled()
        # span() returns the shared no-op singleton — no allocation.
        assert obs.span("a") is obs.span("b", k=1)
        with obs.span("test.root"):
            obs.counter("test.calls")
            obs.gauge("test.g", 1.0)
            obs.histogram("test.h", 2.0)
        assert WorkerPool(jobs=1).map(_traced_task, [1, 2]) == [1, 4]
        assert obs.finish() is None
        assert obs.current_span_id() is None
    assert list(tmp_path.iterdir()) == []


def test_traced_decorator_records_only_when_enabled():
    @obs.traced("test.fn", tagged=True)
    def fn():
        return 7

    assert fn() == 7  # tracing off: plain call
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        assert fn() == 7
    (event,) = tracer.spans
    assert event["name"] == "test.fn"
    assert event["attrs"] == {"tagged": True}


# ----------------------------------------------------------------------
# Span semantics
# ----------------------------------------------------------------------
def test_span_nesting_records_parentage():
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert obs.current_span_id() == inner.id
            assert obs.current_span_id() == outer.id
    by_name = {event["name"]: event for event in tracer.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["ok"] and by_name["outer"]["ok"]
    assert by_name["outer"]["elapsed"] >= by_name["inner"]["elapsed"]


def test_span_records_exception_as_not_ok():
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
    (event,) = tracer.spans
    assert event["ok"] is False


def test_metric_attrs_key_separately():
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        obs.counter("hits", kind="a")
        obs.counter("hits", 2, kind="a")
        obs.counter("hits", kind="b")
    assert tracer.counters[("hits", (("kind", "a"),))] == 3
    assert tracer.counters[("hits", (("kind", "b"),))] == 1


# ----------------------------------------------------------------------
# Fork-aware merging: serial and parallel traces aggregate identically
# ----------------------------------------------------------------------
def test_worker_pool_merges_spans_and_metrics():
    items = list(range(8))

    serial = obs.Tracer()
    with obs.using_tracer(serial):
        serial_out = WorkerPool(jobs=1).map(_traced_task, items)
    parallel = obs.Tracer()
    with obs.using_tracer(parallel):
        parallel_out = WorkerPool(jobs=4, clamp=False).map(
            _traced_task, items
        )

    assert serial_out == parallel_out == [x * x for x in items]
    # Aggregated metrics are exactly equal, not merely similar.
    assert serial.counters == parallel.counters
    assert serial.histograms == parallel.histograms
    assert sorted(s["name"] for s in serial.spans) == sorted(
        s["name"] for s in parallel.spans
    )
    # Every task span is parented under the one runtime.map span, in
    # both runtimes — worker roots are re-parented on merge.
    for tracer in (serial, parallel):
        (map_span,) = [
            s for s in tracer.spans if s["name"] == "runtime.map"
        ]
        tasks = [s for s in tracer.spans if s["name"] == "test.task"]
        assert len(tasks) == len(items)
        assert {s["parent"] for s in tasks} == {map_span["id"]}
    # The parallel map actually forked: child pids differ from the
    # parent's.
    parent_pid = parallel.pid
    child_pids = {
        s["pid"] for s in parallel.spans if s["name"] == "test.task"
    }
    assert child_pids - {parent_pid}


# ----------------------------------------------------------------------
# Trace file round-trip: write → read → rollup → render
# ----------------------------------------------------------------------
def test_trace_roundtrip_and_rollup(tmp_path):
    path = tmp_path / "run.jsonl"
    tracer = obs.Tracer(path)
    with obs.using_tracer(tracer):
        with obs.span("root"):
            for value in (1.0, 3.0):
                with obs.span("child"):
                    obs.histogram("work.size", value)
            obs.counter("work.items", 2)
            obs.gauge("work.lambda", 0.5, patch="p0")
    assert tracer.write() == path

    rows = obs.read_trace(path)
    assert rows[0]["type"] == "trace"
    assert rows[0]["version"] == obs.TRACE_SCHEMA_VERSION
    summary = obs.rollup(rows)
    assert summary["spans"] == 3
    assert summary["counters"]["work.items"] == 2
    hist = summary["histograms"]["work.size"]
    assert hist["count"] == 2 and hist["min"] == 1.0 and hist["max"] == 3.0
    assert summary["gauges"]["work.lambda{patch=p0}"]["values"] == [0.5]
    (root,) = summary["tree"]
    assert root["name"] == "root" and root["count"] == 1
    (child,) = root["children"]
    assert child["name"] == "child" and child["count"] == 2

    text = obs.render_trace(summary)
    for needle in ("root", "child", "work.items", "work.lambda"):
        assert needle in text


def test_configure_finish_cycle(tmp_path):
    path = tmp_path / "cli.jsonl"
    previous = obs.active()
    try:
        obs.configure(path)
        with obs.span("only"):
            pass
        assert obs.finish() == path
        assert obs.active() is None
        assert path.exists()
    finally:
        obs.configure(None)
        obs._TRACER = previous


def test_resolve_trace_path(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "env.jsonl")
    assert obs.resolve_trace_path(None) == "env.jsonl"
    assert obs.resolve_trace_path("flag.jsonl") == "flag.jsonl"
    monkeypatch.setenv("REPRO_TRACE", "   ")
    assert obs.resolve_trace_path(None) is None


# ----------------------------------------------------------------------
# A traced adaptation covers every instrumented layer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_adapt(tmp_path_factory, bundle, fast_config, beer_splits):
    tmp = tmp_path_factory.mktemp("obs")
    tracer = obs.Tracer(tmp / "adapt.jsonl")
    store = artifact_store.ArtifactStore(tmp / "store")
    with obs.using_tracer(tracer), artifact_store.using_store(store):
        adapted = KnowTrans(bundle, config=fast_config).fit(beer_splits)
        evaluate_method(
            adapted, beer_splits.test.examples, adapted.task.name
        )
    return tracer, adapted


def test_traced_adapt_covers_all_layers(traced_adapt):
    tracer, _ = traced_adapt
    span_names = {event["name"] for event in tracer.spans}
    counter_names = {name for name, _ in tracer.counters}
    gauge_names = {name for name, _ in tracer.gauges}
    histogram_names = {name for name, _ in tracer.histograms}

    assert "knowtrans.fit" in span_names
    # 1. tinylm trainer
    assert "trainer.fit" in span_names
    assert "trainer.step_loss" in histogram_names
    # 2. inference engine
    assert {"model.batches", "model.examples"} <= counter_names
    # 3. artifact store
    assert any(name.startswith("store.") for name in counter_names)
    # 4. SKC stages (fine-tune span + fusion λ trajectory)
    assert "skc.finetune" in span_names
    assert "skc.lambda" in gauge_names
    # 5. AKB optimiser
    assert {"akb.search", "akb.round"} <= span_names
    assert "akb.candidates_scored" in counter_names
    assert {"akb.best_score", "akb.pool_size"} <= gauge_names
    # 6. eval harness
    assert "harness.evaluate" in span_names


# ----------------------------------------------------------------------
# CLI: the trace subcommand and console modes
# ----------------------------------------------------------------------
def _write_sample_trace(path):
    tracer = obs.Tracer(path)
    with obs.using_tracer(tracer):
        with obs.span("sample.root"):
            obs.counter("sample.items", 3)
    tracer.write()


def test_cli_trace_renders_and_gates(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_sample_trace(path)
    assert cli.main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "sample.root" in out and "sample.items" in out

    assert cli.main(["trace", str(path), "--min-spans", "99"]) == 1
    captured = capsys.readouterr()
    assert "fewer than --min-spans" in captured.err


def test_cli_trace_json_payload(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_sample_trace(path)
    assert cli.main(["trace", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rollup"]["spans"] == 1
    assert payload["path"] == str(path)


def test_cli_list_modes(capsys):
    assert cli.main(["list"]) == 0
    text_out = capsys.readouterr().out
    assert text_out.strip()

    assert cli.main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["datasets"]

    assert cli.main(["list", "--quiet"]) == 0
    assert capsys.readouterr().out


def test_console_modes():
    for mode, expect_info, expect_result in (
        ("text", True, True),
        ("quiet", False, True),
        ("json", False, False),
    ):
        out, err = io.StringIO(), io.StringIO()
        console = Console(mode, stream=out, error_stream=err)
        console.info("progress")
        console.result("answer")
        console.error("diag")
        console.set("score", 0.5)
        console.close()
        console.close()  # idempotent
        text = out.getvalue()
        assert ("progress" in text) == expect_info
        assert ("answer" in text) == expect_result
        assert err.getvalue() == "diag\n"
        if mode == "json":
            assert json.loads(text) == {"score": 0.5}


def test_jsonable_coerces_payload_types(tmp_path):
    import numpy as np

    assert jsonable(np.float64(0.5)) == 0.5
    assert jsonable(np.arange(3)) == [0, 1, 2]
    assert jsonable({1: {tmp_path}}) == {"1": [str(tmp_path)]}


# ----------------------------------------------------------------------
# The shared perf-gate protocol
# ----------------------------------------------------------------------
def test_gate_writes_and_checks(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_PRESET", raising=False)
    gate = Gate("demo", {"speedup": 4.0}, min_speedup=3.0, root=tmp_path)
    assert gate.preset == "paper"
    gate.write(speedup=4.0, extra=1)
    data = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert data == {"preset": "paper", "min_speedup": 3.0, "speedup": 4.0}
    (line,) = gate.trajectory_path.read_text().splitlines()
    row = json.loads(line)
    for key in ("commit", "dirty", "date", "cpu_count", "numpy"):
        row.pop(key)  # provenance: see test_gate_row_records_provenance
    assert row == {
        "bench": "demo", "preset": "paper", "speedup": 4.0, "extra": 1,
    }
    gate.require(True, "fine")
    gate.require_speedup()
    gate.check()  # no failures collected


def _trajectory_row(root):
    gate = Gate("demo", {"speedup": 2.0}, root=root)
    gate.write(speedup=2.0)
    return json.loads(gate.trajectory_path.read_text().splitlines()[-1])


def test_gate_row_records_provenance(tmp_path):
    """A trajectory row names the commit, tree state, time, CPUs and numpy."""
    import datetime
    import os
    import shutil
    import subprocess

    import numpy

    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    # The gate's own outputs must not make the tree dirty.
    ignore = tmp_path / ".gitignore"
    ignore.write_text("BENCH_*.json\nbenchmarks/\n")
    subprocess.run(git + ["add", ".gitignore"], cwd=tmp_path, check=True)
    subprocess.run(
        git + ["commit", "-q", "-m", "root"], cwd=tmp_path, check=True,
    )
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tmp_path,
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    before = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    row = _trajectory_row(tmp_path)
    after = datetime.datetime.now(datetime.timezone.utc)
    assert row["commit"] == head
    assert row["dirty"] is False
    stamp = datetime.datetime.strptime(
        row["date"], "%Y-%m-%dT%H:%M:%SZ"
    ).replace(tzinfo=datetime.timezone.utc)
    assert before <= stamp <= after
    assert row["cpu_count"] == os.cpu_count()
    assert row["numpy"] == numpy.__version__
    assert row["speedup"] == 2.0

    ignore.write_text("BENCH_*.json\nbenchmarks/\n*.tmp\n")  # uncommitted
    row = _trajectory_row(tmp_path)
    assert row["commit"] == head
    assert row["dirty"] is True


def test_gate_row_commit_is_none_without_git(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", "")  # no git executable to find
    row = _trajectory_row(tmp_path)
    assert row["commit"] is None
    assert row["dirty"] is None
    assert row["cpu_count"] is not None and row["date"].endswith("Z")


def test_gate_collects_all_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_PRESET", "quick")
    gate = Gate("demo", {"speedup": 1.5}, min_speedup=3.0, root=tmp_path)
    assert gate.preset == "quick"
    gate.require(False, "identity diverged")
    gate.require_speedup()
    with pytest.raises(AssertionError) as excinfo:
        gate.check()
    message = str(excinfo.value)
    assert "demo gate failed" in message
    assert "identity diverged" in message and "1.50x" in message
    # write() never ran — failing assertions must not block artifacts
    # when the gate author writes first, but nothing is written
    # implicitly either.
    assert not (tmp_path / "BENCH_demo.json").exists()
