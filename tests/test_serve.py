"""Tests for repro.serve — registry, rank-space parity, protocol, batching."""

import asyncio
import json
import socket

import numpy as np
import pytest

from repro import obs
from repro.perf import PERF
from repro.serve import (
    AdaptationServer,
    ServeClient,
    ServerThread,
    TenantRegistry,
    _Pending,
    build_demo_registry,
    build_workload,
    drive_clients,
    offline_reference,
    run_smoke,
)
from repro.tinylm.model import ModelConfig, ScoringLM


@pytest.fixture(scope="module")
def registry():
    return build_demo_registry(tenants=2, seed=0, n_patches=3, rank=4)


@pytest.fixture(scope="module")
def workload(registry):
    return build_workload(registry, requests=8, prompts_per_request=3, seed=0)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_duplicate_backbone_object_is_idempotent(self):
        registry = TenantRegistry()
        model = ScoringLM(ModelConfig(name="reg", feature_dim=64, hidden_dim=8))
        assert registry.add_backbone("b", model) is model
        assert registry.add_backbone("b", model) is model
        with pytest.raises(ValueError):
            registry.add_backbone("b", model.clone())

    def test_entry_requires_known_backbone(self):
        registry = TenantRegistry()
        with pytest.raises(KeyError):
            registry.add_entry("t", "d", "em", None, backbone="missing")

    def test_duplicate_entry_rejected(self, registry):
        entry = next(iter(registry.entries.values()))
        with pytest.raises(ValueError):
            registry.add_entry(
                entry.tenant, entry.dataset, entry.task, None, entry.backbone
            )

    def test_ensure_attached_skips_resident_adapter(self, registry):
        first, second = list(registry.entries.values())[:2]
        backbone, swapped = registry.ensure_attached(first)
        assert backbone.adapter is first.adapter
        version = backbone._adapter_version
        __, swapped = registry.ensure_attached(first)
        assert swapped is False
        # The no-op path must not bump the version: that would
        # invalidate the effective-weight memo and re-materialise the
        # fusion deltas on every same-tenant oracle call.
        assert backbone._adapter_version == version
        __, swapped = registry.ensure_attached(second)
        assert swapped is True
        assert backbone.adapter is second.adapter

    def test_load_tier_unknown_raises(self):
        with pytest.raises(KeyError):
            TenantRegistry().load_tier("not-a-tier")


    def test_detach_restores_base_predictions(self):
        registry = build_demo_registry(tenants=1, seed=3, n_patches=2)
        backbone = registry.backbones["serve-demo"]
        base = backbone.clone()
        base.detach()
        entry = next(iter(registry.entries.values()))
        base_entry = registry.add_entry(
            "base-tenant", entry.dataset, entry.task, None, entry.backbone
        )
        workload = build_workload(registry, requests=2, seed=3)
        item = workload[0]
        registry.ensure_attached(entry)
        backbone.predict_batch(item["prompts"], item["pools"])
        registry.ensure_attached(base_entry)
        assert backbone.adapter is None
        got = backbone.predict_batch(item["prompts"], item["pools"])
        assert got == base.predict_batch(item["prompts"], item["pools"])


# ----------------------------------------------------------------------
# Rank-space scoring: shared backbone == isolated per-tenant models
# ----------------------------------------------------------------------
def _isolated(backbone, adapter):
    """A clone of ``backbone`` with ``adapter`` attached densely."""
    model = backbone.clone()
    if adapter is not None:
        model.attach(adapter)
    return model


def _assert_matches_isolated(backbone, prompts, pools, slices):
    """Mixed-batch logits == each slice's isolated dense model.

    The contract: argmax identical, logits within rtol 1e-9.
    """
    flat, offsets = backbone._mixed_logits(prompts, pools, slices)
    predictions = backbone.predict_mixed(prompts, pools, slices)
    for adapter, start, stop in slices:
        model = _isolated(backbone, adapter)
        want, __ = model.forward_batch(prompts[start:stop], pools[start:stop])
        np.testing.assert_allclose(
            flat[offsets[start] : offsets[stop]], want, rtol=1e-9, atol=0
        )
        assert predictions[start:stop] == model.predict_batch(
            prompts[start:stop], pools[start:stop]
        )


def _serve_one_batch(registry, items):
    """Dispatch ``items`` as one coalesced batch; returns the results."""
    server = AdaptationServer(registry)
    loop = asyncio.new_event_loop()
    try:
        batch = [
            _Pending(
                key=(item["tenant"], item["dataset"], item["task"]),
                prompts=item["prompts"],
                pools=item["pools"],
                future=loop.create_future(),
                accepted=0.0,
            )
            for item in items
        ]
        server._dispatch(batch)
        return [pending.future.result() for pending in batch]
    finally:
        loop.close()


class TestRankSpaceParity:
    def test_interleaved_tenants_match_isolated_models(
        self, registry, workload
    ):
        """Tenant-alternating requests on one shared backbone score like
        fully isolated models with each adapter attached."""
        backbone = registry.backbones["serve-demo"]
        for item in workload:  # tenant-alternating by construction
            entry = registry.get(item["tenant"], item["dataset"], item["task"])
            slices = [(entry.adapter, 0, len(item["prompts"]))]
            _assert_matches_isolated(
                backbone, item["prompts"], item["pools"], slices
            )
        with ServerThread(registry, max_batch=1, max_wait_ms=0.0) as server:
            responses, __ = drive_clients(
                "127.0.0.1", server.port, workload, clients=1
            )
        for item, response in zip(workload, responses):
            entry = registry.get(item["tenant"], item["dataset"], item["task"])
            model = _isolated(backbone, entry.adapter)
            assert response["predictions"] == model.predict_batch(
                item["prompts"], item["pools"]
            )

    def test_one_batch_mixes_two_tenants_and_the_base(self):
        registry = build_demo_registry(tenants=2, seed=5, n_patches=3)
        backbone = registry.backbones["serve-demo"]
        # Let the adapters, not the untrained copy head, decide the
        # argmax, so a slice scored with the wrong adapter shows.
        backbone.weights["copy.gamma"][:] = 0.0
        for entry in registry.entries.values():
            for target in entry.adapter.new_patch.A:
                entry.adapter.new_patch.A[target] *= 10.0
        entry = next(iter(registry.entries.values()))
        registry.add_entry(
            "base-tenant", entry.dataset, entry.task, None, entry.backbone
        )
        workload = build_workload(
            registry, requests=6, prompts_per_request=3, seed=5
        )
        assert {item["tenant"] for item in workload[:3]} == {
            "tenant0", "tenant1", "base-tenant",
        }
        prompts = [p for item in workload for p in item["prompts"]]
        pools = [pool for item in workload for pool in item["pools"]]
        slices = [
            (registry.get(item["tenant"], item["dataset"], item["task"])
             .adapter, 3 * i, 3 * i + 3)
            for i, item in enumerate(workload)
        ]
        assert slices[2][0] is None
        _assert_matches_isolated(backbone, prompts, pools, slices)
        outputs = [
            _isolated(backbone, adapter).predict_batch(prompts, pools)
            for adapter, __, __ in slices[:3]
        ]
        assert len({tuple(out) for out in outputs}) == 3

        results = _serve_one_batch(registry, workload)
        for item, result in zip(workload, results):
            entry = registry.get(item["tenant"], item["dataset"], item["task"])
            model = _isolated(backbone, entry.adapter)
            assert result["ok"] and result["batch_size"] == len(workload)
            assert result["group_size"] == 2
            assert result["predictions"] == model.predict_batch(
                item["prompts"], item["pools"]
            )

    def test_slices_must_tile_the_batch(self, registry):
        backbone = registry.backbones["serve-demo"]
        prompts, pools = ["a", "b"], [["yes", "no"], ["yes", "no"]]
        for slices in (
            [(None, 0, 1)],
            [(None, 0, 1), (None, 0, 2)],
            [(None, 1, 2), (None, 0, 1)],
            [(None, 0, 0), (None, 0, 2)],
        ):
            with pytest.raises(ValueError):
                backbone.predict_mixed(prompts, pools, slices)
        assert backbone.predict_mixed([], [], []) == []

    def test_tenant_right_after_stream_update(self):
        registry = build_demo_registry(tenants=2, seed=7, n_patches=2)
        backbone = registry.backbones["serve-demo"]
        entry = registry.get("tenant0", "em/abt_buy", "em")
        workload = [
            item
            for item in build_workload(registry, requests=4, seed=7)
            if item["tenant"] == "tenant0"
        ]
        item = workload[0]
        targets = [1] * len(item["prompts"])
        with ServerThread(registry, max_batch=8) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                before = client.predict(
                    "tenant0", "em/abt_buy", "em",
                    item["prompts"], item["pools"],
                )["predictions"]
                client.stream_update(
                    "tenant0", "em/abt_buy", "em", item["prompts"],
                    item["pools"], targets, epochs=4, learning_rate=5e-2,
                )
                after = client.predict(
                    "tenant0", "em/abt_buy", "em",
                    item["prompts"], item["pools"],
                )["predictions"]
        assert after == targets != before
        # The adapter was trained in place: an isolated dense model of
        # its current arrays is the oracle for the next dispatch.
        assert after == _isolated(backbone, entry.adapter).predict_batch(
            item["prompts"], item["pools"]
        )
        slices = [(entry.adapter, 0, len(item["prompts"]))]
        _assert_matches_isolated(
            backbone, item["prompts"], item["pools"], slices
        )

    def test_serving_never_attaches_or_materializes(self):
        registry = build_demo_registry(tenants=2, seed=9, n_patches=3)
        backbone = registry.backbones["serve-demo"]
        workload = build_workload(registry, requests=8, seed=9)
        version = backbone._adapter_version
        materialized = PERF.counter("model.weight_materializations")
        with ServerThread(registry, max_batch=8, max_wait_ms=5.0) as server:
            responses, __ = drive_clients(
                "127.0.0.1", server.port, workload, clients=3
            )
            item = workload[0]
            with ServeClient("127.0.0.1", server.port) as client:
                client.stream_update(
                    item["tenant"], item["dataset"], item["task"],
                    item["prompts"], item["pools"], [0] * len(item["prompts"]),
                )
                client.predict(
                    item["tenant"], item["dataset"], item["task"],
                    item["prompts"], item["pools"],
                )
                stats = client.stats()
        assert all(response["ok"] for response in responses)
        assert backbone.adapter is None
        assert backbone._adapter_version == version
        assert PERF.counter("model.weight_materializations") == materialized
        assert "adapter_swaps" not in stats


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_ping_stats_and_errors(self, registry, workload):
        with ServerThread(registry, max_batch=8, max_wait_ms=2.0) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                assert client.ping()

                response = client.request({"op": "nonsense"})
                assert not response["ok"] and "unknown op" in response["error"]

                response = client.request(
                    {"op": "predict", "tenant": "nobody", "dataset": "x",
                     "task": "em", "prompts": ["p"], "pools": [["a"]]}
                )
                assert not response["ok"]
                assert "unknown entry" in response["error"]

                item = workload[0]
                response = client.request(
                    {"op": "predict", "tenant": item["tenant"],
                     "dataset": item["dataset"], "task": item["task"],
                     "prompts": item["prompts"], "pools": []}
                )
                assert not response["ok"]  # length mismatch

                response = client.predict(
                    item["tenant"], item["dataset"], item["task"],
                    item["prompts"], item["pools"],
                )
                assert response["ok"]
                assert len(response["predictions"]) == len(item["prompts"])
                assert response["answers"] == [
                    item["pools"][i][p]
                    for i, p in enumerate(response["predictions"])
                ]

                stats = client.stats()
                assert stats["requests"] == 1  # errors never reach the queue
                assert stats["batches"] == 1
                assert [e["tenant"] for e in stats["entries"]]

    def test_malformed_line_gets_error_not_disconnect(self, registry):
        with ServerThread(registry) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as raw:
                raw.sendall(b"this is not json\n")
                reply = json.loads(raw.makefile("rb").readline())
                assert not reply["ok"]
                assert "malformed" in reply["error"]

    def test_shutdown_op_stops_server(self, registry):
        server = ServerThread(registry).start()
        with ServeClient("127.0.0.1", server.port) as client:
            client.shutdown()
        server._thread.join(timeout=30)
        assert not server._thread.is_alive()

    def test_startup_failure_surfaces(self, registry):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(RuntimeError):
                ServerThread(registry, port=port).start()
        finally:
            blocker.close()


# ----------------------------------------------------------------------
# Continuous batching: coalesced results == offline oracle
# ----------------------------------------------------------------------
class TestBatching:
    def test_concurrent_load_matches_offline(self, registry, workload):
        offline = offline_reference(registry, workload)
        with ServerThread(registry, max_batch=16, max_wait_ms=15.0) as server:
            responses, latencies = drive_clients(
                "127.0.0.1", server.port, workload, clients=4
            )
            with ServeClient("127.0.0.1", server.port) as probe:
                stats = probe.stats()
        for i, response in enumerate(responses):
            assert response["ok"]
            assert response["predictions"] == offline[i]
        assert stats["requests"] == len(workload)
        assert stats["mean_batch_size"] > 1.0  # coalescing engaged
        assert all(lat > 0.0 for lat in latencies)

    def test_sequential_server_also_matches_offline(self, registry, workload):
        offline = offline_reference(registry, workload)
        with ServerThread(registry, max_batch=1, max_wait_ms=0.0) as server:
            responses, __ = drive_clients(
                "127.0.0.1", server.port, workload, clients=1
            )
        assert [r["predictions"] for r in responses] == offline

    def test_lone_request_skips_the_straggler_window(self, registry, workload):
        item = workload[0]
        with ServerThread(registry, max_batch=16, max_wait_ms=200.0) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                responses = [
                    client.predict(
                        item["tenant"], item["dataset"], item["task"],
                        item["prompts"], item["pools"],
                    )
                    for __ in range(3)
                ]
        for response in responses:
            assert response["batch_size"] == 1
            assert response["queue_ms"] < 50.0

    def test_smoke_runner(self):
        result = run_smoke(clients=3, requests=6, prompts_per_request=2)
        assert result["ok"] and result["predictions_identical"]
        assert result["weight_materializations"] == 0


# ----------------------------------------------------------------------
# Tracing through the request path
# ----------------------------------------------------------------------
class TestServeTracing:
    def test_spans_cover_the_request_path(self, tmp_path):
        registry = build_demo_registry(tenants=2, seed=1, n_patches=2)
        workload = build_workload(registry, requests=6, seed=1)
        tracer = obs.Tracer(tmp_path / "serve.jsonl")
        with obs.using_tracer(tracer):
            with ServerThread(
                registry, max_batch=8, max_wait_ms=10.0
            ) as server:
                drive_clients(
                    "127.0.0.1", server.port, workload, clients=3
                )
        spans = {s["name"]: s for s in tracer.spans}
        assert {"serve.run", "serve.batch", "serve.predict",
                "serve.request"} <= set(spans)
        by_id = {s["id"]: s for s in tracer.spans}
        run_id = spans["serve.run"]["id"]
        requests = [s for s in tracer.spans if s["name"] == "serve.request"]
        assert len(requests) == len(workload)
        for request in requests:
            batch = by_id[request["parent"]]
            assert batch["name"] == "serve.batch"
            assert batch["parent"] == run_id
        histograms = {name for name, __ in tracer.histograms}
        assert "serve.queue_wait_ms" in histograms
        assert "serve.batch_size" in histograms
        gauge_names = {name for name, __ in tracer.gauges}
        assert "model.cache_size" in gauge_names

    def test_untraced_serving_records_nothing(self, registry, workload):
        # obs disabled: record_span/new_span_id must no-op, not crash.
        assert obs.new_span_id() is None
        with ServerThread(registry) as server:
            responses, __ = drive_clients(
                "127.0.0.1", server.port, workload[:2], clients=1
            )
        assert all(r["ok"] for r in responses)


# ----------------------------------------------------------------------
# Streaming updates
# ----------------------------------------------------------------------
class TestStreamUpdate:
    """The stream_update op: in-place online training of live tenants."""

    def _fresh(self):
        # stream_update mutates adapters in place; never share the
        # module-scoped registry.
        return build_demo_registry(tenants=2, seed=7, n_patches=2, rank=4)

    @staticmethod
    def _workload(n=6):
        prompts = [f"match record {i} color red" for i in range(n)]
        pools = [["yes", "no"] for _ in range(n)]
        return prompts, pools

    def test_update_trains_adapter_in_place(self):
        registry = self._fresh()
        adapter = registry.get("tenant0", "em/abt_buy", "em").adapter
        lambdas = adapter.lambdas
        prompts, pools = self._workload()
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            client.predict("tenant0", "em/abt_buy", "em", prompts, pools)
            response = client.stream_update(
                "tenant0", "em/abt_buy", "em", prompts, pools, [0] * 6,
                epochs=4, learning_rate=5e-2,
            )
            assert registry.get(
                "tenant0", "em/abt_buy", "em"
            ).adapter is adapter
            assert adapter.lambdas is lambdas  # updated in place
            assert response["stream_rows"] == 6
            assert response["stream_batches"] == 1
            after = client.predict(
                "tenant0", "em/abt_buy", "em", prompts, pools
            )["predictions"]
            assert after == [0] * 6
            assert client.stats()["stream_updates"] == 1
            client.shutdown()
            client.close()

    def test_update_leaves_other_tenants_untouched(self):
        registry = self._fresh()
        prompts, pools = self._workload()
        backbone = registry.backbones["serve-demo"]
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            before = client.predict(
                "tenant1", "em/abt_buy", "em", prompts, pools
            )["predictions"]
            version = backbone._adapter_version
            response = client.stream_update(
                "tenant0", "em/abt_buy", "em", prompts, pools, [0] * 6
            )
            assert "resident_memo_invalidated" not in response
            assert backbone._adapter_version == version
            assert backbone.adapter is None
            again = client.predict(
                "tenant1", "em/abt_buy", "em", prompts, pools
            )["predictions"]
            assert again == before
            client.shutdown()
            client.close()

    def test_updates_accumulate_stream_state(self):
        registry = self._fresh()
        prompts, pools = self._workload()
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            first = client.stream_update(
                "tenant0", "em/abt_buy", "em", prompts, pools, [0] * 6
            )
            second = client.stream_update(
                "tenant0", "em/abt_buy", "em",
                prompts[:3], pools[:3], [1, 1, 1],
            )
            assert (first["stream_rows"], first["stream_batches"]) == (6, 1)
            assert (second["stream_rows"], second["stream_batches"]) == (9, 2)
            assert client.stats()["stream_updates"] == 2
            client.shutdown()
            client.close()

    def test_error_paths(self):
        registry = self._fresh()
        registry.add_entry(
            tenant="base", dataset="d", task="t",
            adapter=None, backbone="serve-demo",
        )
        prompts, pools = self._workload(2)
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            unknown = client.request({
                "op": "stream_update", "tenant": "nope", "dataset": "d",
                "task": "t", "prompts": prompts, "pools": pools,
                "targets": [0, 0],
            })
            assert not unknown["ok"] and "unknown entry" in unknown["error"]
            base_tier = client.request({
                "op": "stream_update", "tenant": "base", "dataset": "d",
                "task": "t", "prompts": prompts, "pools": pools,
                "targets": [0, 0],
            })
            assert not base_tier["ok"]
            assert "no adapter" in base_tier["error"]
            ragged = client.request({
                "op": "stream_update", "tenant": "tenant0",
                "dataset": "em/abt_buy", "task": "em",
                "prompts": prompts, "pools": pools, "targets": [0],
            })
            assert not ragged["ok"] and "parallel" in ragged["error"]
            out_of_range = client.request({
                "op": "stream_update", "tenant": "tenant0",
                "dataset": "em/abt_buy", "task": "em",
                "prompts": prompts, "pools": pools, "targets": [0, 9],
            })
            assert not out_of_range["ok"]
            assert "out of range" in out_of_range["error"]
            client.shutdown()
            client.close()
