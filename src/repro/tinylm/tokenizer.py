"""Text normalisation and the hashed n-gram featurizer.

The featurizer stands in for an LLM tokenizer + embedding table: it maps a
prompt string to a fixed-dimension dense feature vector by hashing word
unigrams, word bigrams and character trigrams into signed buckets
(feature hashing, a.k.a. the hashing trick).  Hashing is based on
blake2b so it is stable across processes and Python versions —
``hash()`` randomisation would make models irreproducible.

Internally everything is built on a *sparse* intermediate: hashing a
string yields an ``(indices, values)`` pair — sorted unique bucket
indices with their accumulated signed, L2-normalised weights.  Dense
vectors and batch matrices are scatter-assembled from sparse rows, and
the sparse rows themselves live in an LRU-bounded text cache.  Because
featurization is a pure function of ``(salt, dim, flags, text)``, the
caches are content-addressed and shared process-wide between featurizer
instances with the same configuration — clones and per-tier baselines
never re-hash a string any instance has seen.  A second, finer memo maps
each token to its unigram and character-trigram features, so a text
never seen before still costs one dict hit per known token.
"""

from __future__ import annotations

import hashlib
import os
import re
from array import array
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..perf import PERF

__all__ = [
    "normalize",
    "tokenize",
    "count_tokens",
    "resolve_cache_size",
    "HashedFeaturizer",
]


def resolve_cache_size(default: int, override: Optional[int] = None) -> int:
    """Resolve an LRU bound: explicit arg > ``REPRO_LRU_SIZE`` env > default.

    One environment knob bounds every featurization LRU (the featurizer's
    text→sparse cache and the model's dense prompt/candidate memos), so a
    serving deployment can cap resident memory without touching call
    sites.  Explicit constructor arguments always win over the env.
    """
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get("REPRO_LRU_SIZE", "").strip()
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(
            f"REPRO_LRU_SIZE must be an integer, got {raw!r}"
        ) from exc

_TOKEN_RE = re.compile(r"\[[a-z0-9_]+\]|[a-z0-9]+(?:\.[0-9]+)?|[%$#@&]")
_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace; keep ``[special]`` markers intact."""
    return _WS_RE.sub(" ", text.lower()).strip()


def tokenize(text: str) -> List[str]:
    """Split normalised text into word tokens.

    ``[special_markers]`` (e.g. ``[missing]`` or ``[fmt_violation_abv]``)
    survive as single tokens so that derived knowledge features hash to a
    single stable bucket.  No token pattern matches whitespace, so
    tokenizing the lowercased text gives the same tokens as tokenizing
    :func:`normalize`'s output without paying for its whitespace pass.
    """
    return _TOKEN_RE.findall(text.lower())


def count_tokens(text: str) -> int:
    """Token count used by the pricing model (Table III accounting)."""
    return len(tokenize(text))


def _stable_hash(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


#: Sparse representation of one featurized string: sorted unique bucket
#: indices and their accumulated (unit-norm) signed weights.  Both
#: arrays are marked read-only because they are shared via the cache.
SparseRow = Tuple[np.ndarray, np.ndarray]

#: One token's unigram and character-trigram features before
#: accumulation, as the native bytes of an int64 array of feature codes
#: (see :meth:`HashedFeaturizer._bucket`): rows of consecutive tokens
#: concatenate into one code array with a single ``bytes.join``.
TokenRow = bytes


class HashedFeaturizer:
    """Map text to a dense, L2-normalised feature vector of size ``dim``.

    Parameters
    ----------
    dim:
        Number of hash buckets (the model's "embedding width" analogue).
    use_bigrams:
        Include word bigram features (order sensitivity).
    use_char_ngrams:
        Include character trigram features inside each token (robustness
        to typos — important for error-detection style tasks).
    salt:
        Distinguishes featurizer families so that two models with the same
        ``dim`` need not share a feature space.
    cache_size:
        Bound on the LRU text→sparse-row cache (least recently used
        entries are evicted; re-encoding an evicted text is
        deterministic, so eviction only costs time).  ``None`` resolves
        through :func:`resolve_cache_size` — the ``REPRO_LRU_SIZE``
        environment knob, falling back to :data:`SPARSE_CACHE_SIZE`.

    Configuration is frozen at construction: the caches are keyed by the
    full configuration, so mutating ``use_bigrams`` etc. on a live
    instance would corrupt shared state.
    """

    #: Weight multiplier for ``[special]`` marker tokens.  A transformer
    #: can attend sharply to one decisive token; a bag-of-features
    #: encoder cannot, so markers get elevated mass instead.
    MARKER_WEIGHT = 4.0

    #: Pre-normalisation weight of each feature-code kind (``code & 3``):
    #: bit 0 is the hash sign, bit 1 marks a ``[marker]`` unigram.
    _CODE_WEIGHTS = np.array([-1.0, 1.0, -MARKER_WEIGHT, MARKER_WEIGHT])

    #: Default bound on the per-configuration text→sparse LRU cache.
    SPARSE_CACHE_SIZE = 32768

    #: Feature→code and token→row entries stop being added past this
    #: many (the maps stay correct — misses simply re-hash).
    BUCKET_CACHE_CAP = 1_000_000

    #: Process-wide caches, keyed by configuration.  Content-addressed
    #: and never invalidated: hashing is a pure function of the key.
    _BUCKET_CACHES: Dict[Tuple, Dict[str, int]] = {}
    _TOKEN_CACHES: Dict[Tuple, Dict[str, TokenRow]] = {}
    _SPARSE_CACHES: Dict[Tuple, "OrderedDict[str, SparseRow]"] = {}

    def __init__(
        self,
        dim: int = 2048,
        use_bigrams: bool = True,
        use_char_ngrams: bool = True,
        salt: str = "repro",
        cache_size: Optional[int] = None,
    ):
        if dim <= 1:
            raise ValueError(f"featurizer dim must be > 1, got {dim}")
        self.dim = dim
        self.use_bigrams = use_bigrams
        self.use_char_ngrams = use_char_ngrams
        self.salt = salt
        self.cache_size = resolve_cache_size(self.SPARSE_CACHE_SIZE, cache_size)
        self._connect_caches()

    def _connect_caches(self) -> None:
        """Alias this configuration's entries in the process-wide caches.

        Buckets depend only on ``(salt, dim)``; token rows additionally
        on ``use_char_ngrams``; sparse rows on both n-gram flags and the
        *resolved* eviction bound, so an env-bounded instance never
        inherits an unbounded cache.
        """
        self._cache = self._BUCKET_CACHES.setdefault((self.salt, self.dim), {})
        self._token_cache = self._TOKEN_CACHES.setdefault(
            (self.salt, self.dim, self.use_char_ngrams), {}
        )
        self._sparse_cache = self._SPARSE_CACHES.setdefault(
            (
                self.salt,
                self.dim,
                self.use_bigrams,
                self.use_char_ngrams,
                self.cache_size,
            ),
            OrderedDict(),
        )

    def __getstate__(self):
        """Pickle the configuration only, never the shared caches.

        The instance attributes ``_cache`` / ``_token_cache`` /
        ``_sparse_cache`` alias the process-wide content-addressed
        caches; shipping those to worker processes would be pure dead
        weight (and they re-derive from text anyway).  Unpickling
        reconnects to the *receiving* process's shared caches for the
        same configuration.
        """
        state = self.__dict__.copy()
        state.pop("_cache", None)
        state.pop("_token_cache", None)
        state.pop("_sparse_cache", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._connect_caches()

    @classmethod
    def clear_shared_caches(cls) -> None:
        """Drop all process-wide featurization caches (tests/benchmarks)."""
        cls._BUCKET_CACHES.clear()
        cls._TOKEN_CACHES.clear()
        cls._SPARSE_CACHES.clear()

    def seed_sparse_cache(self, rows: Iterable[Tuple[str, SparseRow]]) -> None:
        """Pre-populate the sparse cache with externally stored rows.

        The artifact store's featurization warm-start feeds rows saved
        by a previous run.  Rows for texts already cached are ignored
        (the live entry is authoritative); inserted arrays are validated
        and re-flagged read-only because cached rows are shared.
        """
        cache = self._sparse_cache
        for text, (indices, values) in rows:
            if text in cache:
                continue
            indices = np.asarray(indices, dtype=np.intp)
            values = np.asarray(values, dtype=np.float64)
            if indices.shape != values.shape or indices.ndim != 1:
                raise ValueError("malformed sparse row")
            indices.setflags(write=False)
            values.setflags(write=False)
            cache[text] = (indices, values)
            if len(cache) > self.cache_size:
                cache.popitem(last=False)

    def _bucket(self, feature: str) -> int:
        """Return a feature's code ``index << 2 | sign_bit``, memoised.

        ``sign_bit`` 1 means weight +1, 0 means -1; :meth:`_token_row`
        sets bit 1 on a marker unigram (weight ±:attr:`MARKER_WEIGHT`).
        """
        hit = self._cache.get(feature)
        if hit is not None:
            return hit
        h = _stable_hash(self.salt + "\x00" + feature)
        code = (h % self.dim) << 2 | (h >> 63) & 1
        if len(self._cache) < self.BUCKET_CACHE_CAP:
            self._cache[feature] = code
        return code

    def _token_row(self, token: str) -> TokenRow:
        """A token's unigram and char-trigram feature codes, memoised.

        ``[markers]`` get :attr:`MARKER_WEIGHT` and no trigrams (they
        are atomic).
        """
        bucket = self._bucket
        if token.startswith("["):
            codes = [bucket("w:" + token) | 2]
        elif self.use_char_ngrams:
            padded = "^" + token + "$"
            codes = [bucket("w:" + token)]
            codes += [
                bucket("c:" + padded[i : i + 3]) for i in range(len(padded) - 2)
            ]
        else:
            codes = [bucket("w:" + token)]
        row = array("q", codes).tobytes()
        if len(self._token_cache) < self.BUCKET_CACHE_CAP:
            self._token_cache[token] = row
        return row

    # ------------------------------------------------------------------
    # Sparse path (the substrate the dense APIs are built on)
    # ------------------------------------------------------------------
    def encode_sparse(self, text: str) -> SparseRow:
        """Featurize one string into a unit-norm sparse ``(indices, values)``.

        ``indices`` are sorted unique bucket positions; ``values`` carry
        the accumulated signed weights, L2-normalised over the non-zero
        support.  Results are LRU-cached by text and must be treated as
        immutable (the arrays are flagged read-only).
        """
        cache = self._sparse_cache
        hit = cache.get(text)
        if hit is not None:
            cache.move_to_end(text)
            PERF.count("featurizer.sparse_hits")
            obs.counter("featurizer.sparse_hit")
            return hit
        PERF.count("featurizer.sparse_misses")
        obs.counter("featurizer.sparse_miss")
        tokens = tokenize(text)
        if tokens:
            token_cache = self._token_cache
            parts: List[bytes] = []
            for token in tokens:
                known = token_cache.get(token)
                parts.append(self._token_row(token) if known is None else known)
            if self.use_bigrams:
                bucket = self._bucket
                bigrams = [
                    bucket("b:" + left + "_" + right)
                    for left, right in zip(tokens, tokens[1:])
                ]
                parts.append(array("q", bigrams).tobytes())
            codes = np.frombuffer(b"".join(parts), dtype=np.int64)
            # Every raw weight is ±1 or ±MARKER_WEIGHT (±4), so each
            # bucket's sum is a small integer that float64 adds exactly
            # in any order: grouping features by token instead of by
            # kind leaves the sums, the support and the norm unchanged.
            # The support is every *occupied* bucket, including ones
            # whose features cancel to 0.
            occupied = codes >> 2
            counts = np.bincount(occupied, minlength=self.dim)
            sums = np.bincount(
                occupied,
                weights=self._CODE_WEIGHTS[codes & 3],
                minlength=self.dim,
            )
            indices = np.flatnonzero(counts)
            values = sums[indices]
            norm = float(np.sqrt(values @ values))
            if norm > 0.0:
                values /= norm
        else:
            indices = np.empty(0, dtype=np.intp)
            values = np.empty(0, dtype=np.float64)
        indices.setflags(write=False)
        values.setflags(write=False)
        row: SparseRow = (indices, values)
        cache[text] = row
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
        return row

    # ------------------------------------------------------------------
    # Dense views
    # ------------------------------------------------------------------
    def encode(self, text: str) -> np.ndarray:
        """Featurize one string into a unit-norm dense vector."""
        indices, values = self.encode_sparse(text)
        vec = np.zeros(self.dim)
        vec[indices] = values
        return vec

    def encode_batch(self, texts: Iterable[str]) -> np.ndarray:
        """Featurize a batch; returns an ``(n, dim)`` matrix.

        The matrix is assembled with a single fancy-index scatter from
        the cached sparse rows — no per-example dense temporaries.
        """
        rows: Sequence[SparseRow] = [self.encode_sparse(t) for t in texts]
        matrix = np.zeros((len(rows), self.dim))
        if not rows:
            return matrix
        sizes = np.fromiter(
            (indices.size for indices, __ in rows),
            dtype=np.intp,
            count=len(rows),
        )
        if int(sizes.sum()) == 0:
            return matrix
        row_index = np.repeat(np.arange(len(rows)), sizes)
        col_index = np.concatenate([indices for indices, __ in rows])
        values = np.concatenate([values for __, values in rows])
        matrix[row_index, col_index] = values
        return matrix
