"""The persistent artifact store: keying, atomicity, robustness.

The contract under test: a hit returns exactly the bytes the
computation would produce, and *anything* unexpected — a missing entry,
a truncated file, a flipped bit, a structurally bogus payload — behaves
like a miss, so callers recompute and rewrite instead of crashing or
serving bad floats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import store as artifact_store
from repro.perf import PERF
from repro.store import (
    ArtifactStore,
    artifact_key,
    canonical_bytes,
    fingerprint,
    model_fingerprint,
)


@pytest.fixture(autouse=True)
def _restore_active_store():
    """Keep per-test configure() calls from leaking across the suite."""
    state = (
        artifact_store._ACTIVE,
        artifact_store._NO_CACHE,
        artifact_store._ENV_RESOLVED,
    )
    yield
    (
        artifact_store._ACTIVE,
        artifact_store._NO_CACHE,
        artifact_store._ENV_RESOLVED,
    ) = state


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "cache")


def _store_delta(before):
    counters = PERF.snapshot()["counters"]
    return {
        name: counters.get("store." + name, 0) - before.get("store." + name, 0)
        for name in ("hits", "misses", "writes", "corrupt")
    }


def _counters():
    return dict(PERF.snapshot()["counters"])


# ----------------------------------------------------------------------
# Canonicalisation and keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_key_is_deterministic(self):
        fields = {"seed": 3, "rate": 0.25, "names": ["a", "b"]}
        assert artifact_key("k", fields) == artifact_key("k", dict(fields))

    def test_key_sensitive_to_every_field(self):
        base = {"seed": 3, "rate": 0.25}
        key = artifact_key("k", base)
        assert artifact_key("k", {**base, "seed": 4}) != key
        assert artifact_key("k", {**base, "rate": 0.250001}) != key
        assert artifact_key("other", base) != key

    def test_float_bit_patterns_distinguished(self):
        assert canonical_bytes(0.1 + 0.2) != canonical_bytes(0.3)

    def test_dict_key_order_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_ndarray_content_hashed(self, rng):
        arr = rng.normal(size=(4, 3))
        twin = arr.copy()
        assert fingerprint(arr) == fingerprint(twin)
        twin[2, 1] += 1e-12
        assert fingerprint(arr) != fingerprint(twin)

    def test_dataclass_provenance(self, beer_splits):
        examples = list(beer_splits.validation.examples)
        assert fingerprint(examples) == fingerprint(list(examples))
        assert fingerprint(examples[:-1]) != fingerprint(examples)

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_model_fingerprint_tracks_weights(self, fresh_tiny_model):
        before = model_fingerprint(fresh_tiny_model)
        assert before == model_fingerprint(fresh_tiny_model)
        fresh_tiny_model.weights["encoder.W1"][0, 0] += 1.0
        assert model_fingerprint(fresh_tiny_model) != before


# ----------------------------------------------------------------------
# Read/write and corruption robustness
# ----------------------------------------------------------------------
class TestRoundtrip:
    def test_put_get_bit_identical(self, store, rng):
        payload = {"arr": rng.normal(size=(8, 5)), "meta": ("x", 3, 0.5)}
        key = artifact_key("t", {"n": 1})
        store.put("t", key, payload)
        loaded = store.get("t", key)
        assert loaded["meta"] == payload["meta"]
        np.testing.assert_array_equal(loaded["arr"], payload["arr"])
        assert loaded["arr"].tobytes() == payload["arr"].tobytes()

    def test_miss_returns_none(self, store):
        before = _counters()
        assert store.get("t", "0" * 64) is None
        assert _store_delta(before)["misses"] == 1

    def test_get_or_compute_memoises(self, store):
        calls = []

        def compute():
            calls.append(1)
            return {"value": 42}

        fields = {"seed": 1}
        assert store.get_or_compute("t", fields, compute)["value"] == 42
        assert store.get_or_compute("t", fields, compute)["value"] == 42
        assert len(calls) == 1

    def test_truncated_entry_is_a_miss(self, store):
        key = artifact_key("t", {"n": 2})
        store.put("t", key, {"value": 1.0})
        path = store._path("t", key)
        path.write_bytes(path.read_bytes()[:-7])
        before = _counters()
        assert store.get("t", key) is None
        delta = _store_delta(before)
        assert delta["corrupt"] == 1 and delta["misses"] == 1
        # The bad entry is dropped so a rewrite repairs the store.
        assert not path.exists()

    def test_digest_mismatch_is_a_miss(self, store):
        key = artifact_key("t", {"n": 3})
        store.put("t", key, {"value": 1.0})
        path = store._path("t", key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload bit; the header stays intact
        path.write_bytes(bytes(blob))
        before = _counters()
        assert store.get("t", key) is None
        assert _store_delta(before)["corrupt"] == 1

    def test_garbage_file_is_a_miss(self, store):
        key = artifact_key("t", {"n": 4})
        path = store._path("t", key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an artifact at all")
        assert store.get("t", key) is None

    def test_rewrite_after_corruption(self, store):
        key = artifact_key("t", {"n": 5})
        store.put("t", key, {"value": 1.0})
        path = store._path("t", key)
        path.write_bytes(b"garbage")
        assert store.get("t", key) is None
        store.put("t", key, {"value": 2.0})
        assert store.get("t", key) == {"value": 2.0}


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def _concurrent_put(args):
    root, key, worker = args
    store = ArtifactStore(root)
    store.put("race", key, {"worker-independent": True})
    return store.get("race", key)


class TestConcurrency:
    def test_concurrent_writers_same_key(self, tmp_path):
        from repro.runtime import WorkerPool

        root = str(tmp_path / "shared")
        key = artifact_key("race", {"n": 1})
        before = _counters()
        results = WorkerPool(jobs=2, clamp=False).map(
            _concurrent_put, [(root, key, i) for i in range(4)]
        )
        # Every racer saw a complete entry (atomic rename: readers never
        # observe partial writes) and the survivor decodes cleanly.
        assert all(r == {"worker-independent": True} for r in results)
        # Worker-side store traffic merged home with the perf snapshots.
        assert _store_delta(before)["writes"] == 4
        assert ArtifactStore(root).get("race", key) == {
            "worker-independent": True
        }

    def test_interrupted_write_leaves_no_entry(self, store, monkeypatch):
        key = artifact_key("t", {"n": 6})

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(artifact_store.os, "replace", boom)
        with pytest.raises(OSError):
            store.put("t", key, {"value": 1.0})
        monkeypatch.undo()
        assert store.get("t", key) is None
        assert list(store.root.rglob("*.tmp")) == []


# ----------------------------------------------------------------------
# Activation and bypass
# ----------------------------------------------------------------------
class TestActivation:
    def test_configure_and_using_store(self, store):
        artifact_store.configure(cache_dir=str(store.root))
        assert artifact_store.active().root == store.root
        with artifact_store.using_store(None):
            assert artifact_store.active() is None
        assert artifact_store.active().root == store.root

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        artifact_store.configure(no_cache=True)
        assert artifact_store.active() is None
        # Store-aware pipeline stages degrade to plain computation: the
        # featurization warm-start must not touch the directory.
        from repro.tinylm.tokenizer import HashedFeaturizer

        artifact_store.warm_featurizations(
            HashedFeaturizer(dim=64), ["alpha", "beta"]
        )
        assert not cache_dir.exists()

    def test_env_dir_resolves_lazily(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        artifact_store._ACTIVE = None
        artifact_store._NO_CACHE = False
        artifact_store._ENV_RESOLVED = False
        assert artifact_store.active().root == tmp_path / "env"


# ----------------------------------------------------------------------
# Warm-start equivalence through real pipeline stages
# ----------------------------------------------------------------------
class TestWarmStarts:
    def test_extract_patch_warm_identical(self, bundle, store):
        from repro.core.config import SKCConfig
        from repro.core.skc.patches import extract_patch

        config = SKCConfig(patch_epochs=1)
        dataset = bundle.upstream_datasets[0]
        with artifact_store.using_store(None):
            plain = extract_patch(bundle.base_model, dataset, config)
        before = _counters()
        with artifact_store.using_store(store):
            cold = extract_patch(bundle.base_model, dataset, config)
            warm = extract_patch(bundle.base_model, dataset, config)
        delta = _store_delta(before)
        assert delta["writes"] == 1 and delta["hits"] == 1
        for reference in (cold, warm):
            state = reference.state_dict()
            for key, value in plain.state_dict().items():
                np.testing.assert_array_equal(value, state[key])

    def test_bogus_payload_triggers_retrain_and_rewrite(self, bundle, store):
        from repro.core.config import SKCConfig
        from repro.core.skc.patches import extract_patch, patch_store_key
        from repro.knowledge.seed import ORACLES
        from repro.knowledge.rules import Knowledge

        config = SKCConfig(patch_epochs=1)
        dataset = bundle.upstream_datasets[0]
        knowledge = ORACLES.get("up/" + dataset.name, Knowledge.empty())
        key = patch_store_key(bundle.base_model, dataset, config, knowledge)
        # A well-formed entry with a structurally wrong payload: decodes
        # fine, but load_state_dict must reject it and retraining must
        # overwrite it with the real arrays.
        store.put("patch", key, {"B::nonsense": np.zeros((2, 2))})
        with artifact_store.using_store(store):
            repaired = extract_patch(bundle.base_model, dataset, config)
        with artifact_store.using_store(None):
            plain = extract_patch(bundle.base_model, dataset, config)
        for k, value in plain.state_dict().items():
            np.testing.assert_array_equal(value, repaired.state_dict()[k])
        cached = store.get("patch", key)
        assert set(cached) == set(plain.state_dict())

    def test_search_knowledge_warm_identical(self, tiny_model, store):
        from repro.core.akb.optimizer import search_knowledge
        from repro.core.config import AKBConfig
        from repro.data import generators
        from repro.data.splits import split_dataset

        dataset = generators.build("ed/beer", count=40, seed=7)
        splits = split_dataset(dataset, few_shot=10, seed=7)
        config = AKBConfig(pool_size=3, iterations=2, seed=5)

        def run():
            return search_knowledge(
                tiny_model,
                dataset,
                splits.validation.examples,
                config=config,
            )

        with artifact_store.using_store(None):
            plain = run()
        before = _counters()
        with artifact_store.using_store(store):
            cold = run()
            warm = run()
        delta = _store_delta(before)
        assert delta["hits"] > 0
        for result in (cold, warm):
            assert result.knowledge == plain.knowledge
            assert result.best_score == plain.best_score
            assert result.rounds == plain.rounds

    def test_featurization_roundtrip(self, store):
        from repro.tinylm.tokenizer import HashedFeaturizer

        texts = ["entity one", "entity two", "entity one"]
        featurizer = HashedFeaturizer(dim=128, salt="store-test")
        reference = [featurizer.encode(t) for t in texts]
        with artifact_store.using_store(store):
            artifact_store.warm_featurizations(featurizer, texts)
            # A fresh featurizer after a cache wipe models a new process:
            # the warm-start must seed its sparse cache from the store.
            HashedFeaturizer.clear_shared_caches()
            fresh = HashedFeaturizer(dim=128, salt="store-test")
            before = _counters()
            artifact_store.warm_featurizations(fresh, texts)
            assert _store_delta(before)["hits"] == 1
            assert "entity one" in fresh._sparse_cache
        seeded = [fresh.encode(t) for t in texts]
        for ref, got in zip(reference, seeded):
            np.testing.assert_array_equal(ref, got)

    def test_featurization_roundtrip_is_byte_identical(self, store):
        from repro.tinylm.tokenizer import HashedFeaturizer
        from tests.reference import reference_encode_sparse

        texts = ["[missing] entity one", "entity two two", "   "]
        featurizer = HashedFeaturizer(dim=128, salt="store-memo-test")
        with artifact_store.using_store(store):
            artifact_store.warm_featurizations(featurizer, texts)
            HashedFeaturizer.clear_shared_caches()
            fresh = HashedFeaturizer(dim=128, salt="store-memo-test")
            artifact_store.warm_featurizations(fresh, texts)
        # Seeded rows come from the store, so no token was re-hashed.
        assert fresh._token_cache == {}
        for text in texts:
            indices, values = fresh.encode_sparse(text)
            want_indices, want_values = reference_encode_sparse(fresh, text)
            assert indices.dtype == want_indices.dtype
            assert values.dtype == want_values.dtype
            np.testing.assert_array_equal(indices, want_indices)
            assert values.tobytes() == want_values.tobytes()


# ----------------------------------------------------------------------
# Maintenance and stats
# ----------------------------------------------------------------------
class TestMaintenance:
    def test_disk_stats_and_clear(self, store):
        for n in range(3):
            store.put("t", artifact_key("t", {"n": n}), {"n": n})
        stats = store.disk_stats()
        assert stats["t"]["entries"] == 3 and stats["t"]["bytes"] > 0
        removed = store.clear()
        assert removed["entries"] == 3
        assert store.disk_stats() == {}

    def test_gc_drops_corrupt_and_bounds_size(self, store):
        keys = [artifact_key("t", {"n": n}) for n in range(4)]
        for n, key in enumerate(keys):
            store.put("t", key, {"n": n, "pad": "x" * 512})
        store._path("t", keys[0]).write_bytes(b"garbage")
        (store.root / "t" / "zz").mkdir(parents=True, exist_ok=True)
        (store.root / "t" / "zz" / "left.tmp").write_bytes(b"partial")
        report = store.gc(max_bytes=1)
        assert report["corrupt_removed"] == 1
        assert report["tmp_removed"] == 1
        assert report["evicted"] == 3
        assert store.disk_stats() == {}

    def test_session_log_and_render(self, store):
        key = artifact_key("t", {"n": 1})
        PERF.reset()
        store.put("t", key, {"n": 1})
        store.get("t", key)
        store.log_session()
        totals = store.session_totals()
        assert totals["sessions"] == 1
        assert totals["hits"] == 1 and totals["writes"] == 1
        text = store.render_stats()
        assert "artifact store" in text and "logged sessions: 1" in text

    def test_log_session_skips_idle(self, store):
        PERF.reset()
        store.log_session()
        assert not (store.root / "stats.jsonl").exists()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCacheCLI:
    def test_stats_clear_gc(self, store, capsys):
        from repro.cli import main

        store.put("t", artifact_key("t", {"n": 1}), {"n": 1})
        root = str(store.root)
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", root]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out

    def test_stats_requires_directory(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err
