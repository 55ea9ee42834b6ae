"""Unit tests for repro.tinylm.tokenizer."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generators
from repro.data.generators.registry import generator_names
from repro.data.generators.upstream import UPSTREAM_SPECS
from repro.knowledge.seed import seed_knowledge
from repro.tasks.base import get_task
from repro.tinylm.model import ModelConfig, ScoringLM
from repro.tinylm.tokenizer import (
    HashedFeaturizer,
    count_tokens,
    normalize,
    resolve_cache_size,
    tokenize,
)
from tests.reference import (
    reference_bucket,
    reference_encode_sparse,
    reference_tokenize,
)

text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd", "Zs")),
    max_size=80,
)


class TestNormalizeAndTokenize:
    def test_normalize_lowercases_and_collapses(self):
        assert normalize("  Hello   WORLD ") == "hello world"

    def test_tokenize_words_and_numbers(self):
        assert tokenize("abc 12.5 def") == ["abc", "12.5", "def"]

    def test_tokenize_keeps_markers_atomic(self):
        assert tokenize("x [fmt_violation] y") == ["x", "[fmt_violation]", "y"]

    def test_tokenize_symbols(self):
        assert "%" in tokenize("0.05%")

    def test_count_tokens_matches_tokenize(self):
        text = "record [ abv: 0.05% ]"
        assert count_tokens(text) == len(tokenize(text))

    def test_empty_text(self):
        assert tokenize("") == []
        assert count_tokens("") == 0

    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd", "Zs", "Cc", "Po", "Sc")
            ),
            max_size=80,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_tokens_ignore_whitespace_normalisation(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestHashedFeaturizer:
    def test_unit_norm(self):
        featurizer = HashedFeaturizer(dim=128)
        vec = featurizer.encode("some example text here")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        featurizer = HashedFeaturizer(dim=128)
        assert np.linalg.norm(featurizer.encode("")) == 0.0

    def test_deterministic_across_instances(self):
        a = HashedFeaturizer(dim=256).encode("hello world")
        b = HashedFeaturizer(dim=256).encode("hello world")
        np.testing.assert_array_equal(a, b)

    def test_salt_changes_embedding(self):
        a = HashedFeaturizer(dim=256, salt="one").encode("hello world")
        b = HashedFeaturizer(dim=256, salt="two").encode("hello world")
        assert not np.allclose(a, b)

    def test_different_texts_differ(self):
        featurizer = HashedFeaturizer(dim=512)
        a = featurizer.encode("alpha beta gamma")
        b = featurizer.encode("delta epsilon zeta")
        assert not np.allclose(a, b)

    def test_similar_texts_closer_than_different(self):
        featurizer = HashedFeaturizer(dim=1024)
        base = featurizer.encode("hoppy trail ipa from portland")
        near = featurizer.encode("hoppy trail ale from portland")
        far = featurizer.encode("annals of internal medicine 2015")
        assert base @ near > base @ far

    def test_marker_tokens_get_elevated_weight(self):
        featurizer = HashedFeaturizer(
            dim=1024, use_bigrams=False, use_char_ngrams=False
        )
        plain = featurizer.encode("alpha beta")
        marked = featurizer.encode("alpha [missing]")
        # The marker bucket should carry MARKER_WEIGHT times the mass of
        # a plain word bucket (up to normalisation).
        plain_mass = np.abs(plain).max()
        marked_mass = np.abs(marked).max()
        assert marked_mass > plain_mass

    def test_encode_batch_shape(self):
        featurizer = HashedFeaturizer(dim=64)
        batch = featurizer.encode_batch(["a b", "c d", "e"])
        assert batch.shape == (3, 64)

    def test_encode_batch_empty(self):
        featurizer = HashedFeaturizer(dim=64)
        assert featurizer.encode_batch([]).shape == (0, 64)

    def test_rejects_degenerate_dim(self):
        with pytest.raises(ValueError):
            HashedFeaturizer(dim=1)

    @given(text_strategy)
    @settings(max_examples=60, deadline=None)
    def test_norm_at_most_one(self, text):
        featurizer = HashedFeaturizer(dim=128)
        norm = np.linalg.norm(featurizer.encode(text))
        assert norm == pytest.approx(1.0) or norm == 0.0

    @given(text_strategy, text_strategy)
    @settings(max_examples=40, deadline=None)
    def test_encoding_is_function_of_text(self, left, right):
        featurizer = HashedFeaturizer(dim=128)
        a, b = featurizer.encode(left), featurizer.encode(right)
        if normalize(left) == normalize(right):
            np.testing.assert_array_equal(a, b)

    def test_bigram_flag_changes_features(self):
        with_bigrams = HashedFeaturizer(dim=512, use_bigrams=True)
        without = HashedFeaturizer(dim=512, use_bigrams=False)
        text = "alpha beta gamma"
        assert not np.allclose(with_bigrams.encode(text), without.encode(text))


class TestCacheSizeResolution:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "100")
        assert resolve_cache_size(500, override=7) == 7

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "64")
        assert resolve_cache_size(500) == 64

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_LRU_SIZE", raising=False)
        assert resolve_cache_size(500) == 500

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "lots")
        with pytest.raises(ValueError):
            resolve_cache_size(500)

    def test_floors_at_one(self):
        assert resolve_cache_size(500, override=0) == 1

    def test_sparse_cache_respects_bound(self):
        featurizer = HashedFeaturizer(
            dim=128, salt="lru-test", cache_size=4
        )
        for i in range(20):
            featurizer.encode_sparse(f"text number {i}")
        assert len(featurizer._sparse_cache) <= 4
        # Most recent entries survive (LRU semantics).
        assert "text number 19" in featurizer._sparse_cache

    def test_env_sized_featurizers_share_a_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "8")
        first = HashedFeaturizer(dim=128, salt="lru-env-test")
        second = HashedFeaturizer(dim=128, salt="lru-env-test")
        assert first.cache_size == 8
        assert first._sparse_cache is second._sparse_cache


# ----------------------------------------------------------------------
# Bit-identity of the memoised encoder against the per-feature loop
# ----------------------------------------------------------------------
CONFIGS = {
    "default": {},
    "no-bigrams": {"use_bigrams": False},
    "no-char-ngrams": {"use_char_ngrams": False},
    "other-space": {"salt": "identity-salt", "dim": 384},
}


@pytest.fixture(scope="module")
def generator_texts():
    """Prompts (with seed knowledge) and candidates of every generator."""
    datasets = [generators.build(name, count=12, seed=2) for name in generator_names()]
    datasets += [builder(12, 2) for __, __, builder, __ in UPSTREAM_SPECS]
    texts = []
    for dataset in datasets:
        task = get_task(dataset.task)
        knowledge = seed_knowledge(dataset.task)
        for example in dataset.examples:
            texts.append(task.prompt(example, knowledge))
            texts.extend(task.candidates(example, knowledge, dataset))
    return list(dict.fromkeys(texts))


def assert_rows_identical(got, want, text):
    (got_indices, got_values), (want_indices, want_values) = got, want
    assert got_indices.dtype == want_indices.dtype, text
    assert got_values.dtype == want_values.dtype, text
    np.testing.assert_array_equal(got_indices, want_indices, err_msg=text)
    assert got_values.tobytes() == want_values.tobytes(), text


def cancelling_pair(featurizer):
    """Two tokens whose unigram features share a bucket with opposite signs."""
    seen = {}
    for i in range(1000):
        token = f"t{i}"
        index, sign = reference_bucket(featurizer, "w:" + token)
        other = seen.get((index, -sign))
        if other is not None:
            return other, token
        seen[(index, sign)] = token
    raise AssertionError("no cancelling pair found")


class TestReferenceIdentity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_generator_texts(self, generator_texts, config):
        featurizer = HashedFeaturizer(**CONFIGS[config])
        featurizer._sparse_cache.clear()
        assert len(generator_texts) > 1000
        for text in generator_texts:
            assert_rows_identical(
                featurizer.encode_sparse(text),
                reference_encode_sparse(featurizer, text),
                text,
            )

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   \t\n  ",
            "[missing]",
            "[missing] [fmt_violation_abv]",
            "alpha [missing] beta [missing] [x_y] gamma",
            "Beer [ ABV: 0.05% ]   12.5 $ # @ &",
            "a a a a",
        ],
    )
    def test_edge_cases(self, config, text):
        featurizer = HashedFeaturizer(**CONFIGS[config])
        featurizer._sparse_cache.clear()
        assert_rows_identical(
            featurizer.encode_sparse(text),
            reference_encode_sparse(featurizer, text),
            text,
        )

    def test_cancelled_bucket_stays_in_support_with_zero(self):
        featurizer = HashedFeaturizer(
            dim=8, use_bigrams=False, use_char_ngrams=False, salt="cancel"
        )
        left, right = cancelling_pair(featurizer)
        index, __ = reference_bucket(featurizer, "w:" + left)
        indices, values = featurizer.encode_sparse(f"{left} {right}")
        assert indices.tolist() == [index]
        assert values.tobytes() == np.zeros(1).tobytes()  # +0.0, no NaN
        extra = next(
            f"u{i}"
            for i in range(100)
            if reference_bucket(featurizer, f"w:u{i}")[0] != index
        )
        text = f"{left} {extra} {right}"
        indices, values = featurizer.encode_sparse(text)
        assert index in indices.tolist()
        assert values[indices.tolist().index(index)] == 0.0
        assert_rows_identical(
            (indices, values), reference_encode_sparse(featurizer, text), text
        )


# ----------------------------------------------------------------------
# The process-wide token→row memo
# ----------------------------------------------------------------------
class TestTokenMemo:
    def test_same_configuration_shares_the_memo(self):
        first = HashedFeaturizer(dim=128, salt="memo-share")
        second = HashedFeaturizer(dim=128, salt="memo-share", use_bigrams=False)
        assert first._token_cache is second._token_cache
        first.encode_sparse("shared tokens here")
        assert "shared" in second._token_cache

    def test_model_clone_shares_the_memo(self):
        model = ScoringLM(ModelConfig(name="memo", feature_dim=128, hidden_dim=8))
        clone = model.clone(name="memo-clone")
        assert clone.featurizer._token_cache is model.featurizer._token_cache

    def test_char_ngram_flag_never_shares_rows(self):
        with_ngrams = HashedFeaturizer(dim=128, salt="memo-flag")
        without = HashedFeaturizer(dim=128, salt="memo-flag", use_char_ngrams=False)
        assert with_ngrams._token_cache is not without._token_cache
        with_ngrams.encode_sparse("token")
        without.encode_sparse("token")
        # w: plus 5 trigrams against w: alone, one int64 code each
        assert len(with_ngrams._token_cache["token"]) == 6 * 8
        assert len(without._token_cache["token"]) == 1 * 8

    def test_pickle_drops_and_reconnects(self):
        featurizer = HashedFeaturizer(dim=128, salt="memo-pickle")
        featurizer.encode_sparse("pickled memo")
        assert "_token_cache" not in featurizer.__getstate__()
        payload = pickle.dumps(featurizer)
        assert b"pickled" not in payload
        restored = pickle.loads(payload)
        assert restored._token_cache is featurizer._token_cache

    def test_clear_shared_caches_empties_it(self):
        HashedFeaturizer(dim=128, salt="memo-clear").encode_sparse("cleared")
        assert HashedFeaturizer._TOKEN_CACHES
        HashedFeaturizer.clear_shared_caches()
        assert HashedFeaturizer._TOKEN_CACHES == {}
        assert HashedFeaturizer(dim=128, salt="memo-clear")._token_cache == {}

    def test_cap_stops_growth_and_rows_stay_correct(self, monkeypatch):
        monkeypatch.setattr(HashedFeaturizer, "BUCKET_CACHE_CAP", 5)
        featurizer = HashedFeaturizer(dim=128, salt="memo-cap")
        texts = [f"w{i} x{i} y{i} [m{i}]" for i in range(20)]
        for text in texts:
            assert_rows_identical(
                featurizer.encode_sparse(text),
                reference_encode_sparse(featurizer, text),
                text,
            )
        assert len(featurizer._token_cache) == 5
        assert len(featurizer._cache) == 5
        featurizer._sparse_cache.clear()
        for text in texts:  # memo hits and misses mixed
            assert_rows_identical(
                featurizer.encode_sparse(text),
                reference_encode_sparse(featurizer, text),
                text,
            )
        assert len(featurizer._token_cache) == 5
