"""Multi-tenant continuous-batching adaptation server.

Long-lived serving daemon for adapted specialists.  The design mirrors
how production LoRA serving stacks (e.g. S-LoRA / punica-style
multi-tenant serving) amortise a shared backbone:

* each backbone (frozen base / upstream model) is loaded **once** and
  held by a :class:`TenantRegistry`;
* every adapted specialist is an *entry* keyed by
  ``(tenant, dataset, task)`` that holds only its LoRA/fusion adapter —
  warm-loaded from the artifact store via the same
  ``core.knowtrans._fused_finetune`` path the offline pipeline uses, so
  a populated store makes registration a millisecond restore instead of
  a fine-tune;
* requests hot-attach the entry's adapter onto the shared backbone.
  The attach is skipped entirely when the adapter is already resident
  (``backbone.adapter is entry.adapter``), which preserves the
  model's effective-weight memo — the expensive part of a swap is the
  adapter delta materialisation, so back-to-back requests for one
  tenant cost nothing;
* a continuous-batching scheduler coalesces concurrent in-flight
  requests (across connections and tenants) into one dispatch: the
  batch is grouped by entry and each group runs a **single**
  ``predict_batch`` over the concatenated prompts.  Grouping means a
  batch touching T tenants pays T adapter swaps instead of one per
  request — on a single-core host that amortisation, not parallelism,
  is where the throughput comes from.

Transport is deliberately boring: line-delimited JSON over a TCP
socket, stdlib ``asyncio`` only.  Ops: ``predict``, ``stream_update``,
``ping``, ``stats``, ``shutdown`` (see ``docs/serving.md`` for the
wire format).

``stream_update`` feeds a live tenant a labelled micro-batch: the
server trains the entry's adapter **in place** through
``Trainer.fit_incremental`` on a per-backbone *training replica* (a
``clone()`` that shares featurization caches but owns no serving
state), so the serving backbone's effective-weight memo is never
touched for tenants whose adapter is not resident.  Only when the
updated adapter *is* the resident one does the server issue a single
``bump_adapter_version()`` — the minimum invalidation correctness
requires, since the resident memo was materialised from the
now-stale parameters.

Determinism contract: a coalesced dispatch is bit-identical to
dispatching each request alone — ``predict_batch`` scores every prompt
row-independently (the batch-composition invariance the inference
perf gate and the tier-1 parity tests already pin down), and grouping
never reorders prompts within a request.
``benchmarks/bench_perf_serve.py`` gates this end to end against an
offline oracle.

Observability: every request is traced through the full path.  The
server pre-allocates explicit span ids (:func:`repro.obs.new_span_id`)
and records spans with :func:`repro.obs.record_span`, because the
stack-based ``obs.span`` context manager cannot follow a request that
hops between connection handlers and the scheduler task:

* ``serve.run`` — root, the server's lifetime;
* ``serve.batch`` — one per dispatch (size / group attrs);
* ``serve.predict`` — one per tenant group inside a batch;
* ``serve.request`` — one per request, spanning accept → response;

plus ``serve.queue_wait_ms`` / ``serve.batch_size`` histograms,
``serve.requests`` / ``serve.batches`` / ``serve.adapter_swaps``
counters and per-backbone cache-size gauges each dispatch, so
``python -m repro trace`` renders per-request flamegraphs of a serving
session.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import obs
from .perf import PERF
from .tinylm.fusion import PatchFusion
from .tinylm.linalg import rng_for
from .tinylm.lora import LoRAPatch
from .tinylm.model import ModelConfig, ScoringLM
from .tinylm.registry import TIERS, create_base_model
from .tinylm.trainer import TrainConfig, Trainer, TrainingExample

__all__ = [
    "TenantEntry",
    "TenantRegistry",
    "AdaptationServer",
    "ServerThread",
    "ServeClient",
    "build_demo_registry",
    "build_workload",
    "offline_reference",
    "drive_clients",
    "run_smoke",
    "render_smoke",
    "serve_forever",
]

EntryKey = Tuple[str, str, str]


@dataclass
class TenantEntry:
    """One adapted specialist: an adapter bound to a named backbone."""

    tenant: str
    dataset: str
    task: str
    adapter: Optional[Any]  # LoRAPatch / PatchFusion, or None for base
    backbone: str
    requests: int = 0
    predictions: int = 0
    # Task knowledge the specialist was registered with.  Normally the
    # handcrafted seed; a KB-warmed registration substitutes the best
    # nearest-profile knowledge from earlier AKB searches.
    knowledge: Optional[Any] = None
    kb_warmed: bool = False

    @property
    def key(self) -> EntryKey:
        return (self.tenant, self.dataset, self.task)

    def describe(self) -> Dict[str, Any]:
        from .tasks.base import get_task

        return {
            "tenant": self.tenant,
            "dataset": self.dataset,
            "task": self.task,
            "answer_mode": get_task(self.task).answer_mode,
            "backbone": self.backbone,
            "adapter": type(self.adapter).__name__ if self.adapter else None,
            "requests": self.requests,
            "predictions": self.predictions,
            "knowledge_rules": (
                len(self.knowledge.rules)
                if self.knowledge is not None
                else None
            ),
            "kb_warmed": self.kb_warmed,
        }


class TenantRegistry:
    """Backbones loaded once; adapted entries that hot-attach onto them.

    The registry is the server's unit of state: benchmarks and tests
    inject backbones/entries directly (:meth:`add_backbone` /
    :meth:`add_entry`), the CLI daemon builds them through
    :meth:`load_tier` + :meth:`register_adapted` (store-warm).
    """

    def __init__(self):
        self.backbones: Dict[str, ScoringLM] = {}
        self.entries: Dict[EntryKey, TenantEntry] = {}
        self.swaps = 0  # lifetime adapter swap count across all backbones

    # -- construction --------------------------------------------------
    def add_backbone(self, name: str, model: ScoringLM) -> ScoringLM:
        existing = self.backbones.get(name)
        if existing is not None:
            if existing is not model:
                raise ValueError(f"backbone {name!r} already registered")
            return existing
        self.backbones[name] = model
        return model

    def load_tier(self, tier: str, seed: int = 0) -> str:
        """Load a pretrained tier backbone once; returns its registry key."""
        if tier not in TIERS:
            raise KeyError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
        name = f"{tier}@{seed}"
        if name not in self.backbones:
            self.backbones[name] = create_base_model(tier, seed=seed)
        return name

    def add_entry(
        self,
        tenant: str,
        dataset: str,
        task: str,
        adapter: Optional[Any],
        backbone: str,
        knowledge: Optional[Any] = None,
        kb_warmed: bool = False,
    ) -> TenantEntry:
        if backbone not in self.backbones:
            raise KeyError(
                f"unknown backbone {backbone!r}; known: "
                f"{sorted(self.backbones)}"
            )
        entry = TenantEntry(
            tenant, dataset, task, adapter, backbone,
            knowledge=knowledge, kb_warmed=kb_warmed,
        )
        if entry.key in self.entries:
            raise ValueError(f"entry {entry.key!r} already registered")
        self.entries[entry.key] = entry
        return entry

    def register_adapted(
        self,
        tenant: str,
        dataset_id: str,
        tier: str = "mistral-7b",
        seed: int = 0,
        scale: float = 0.6,
        config=None,
    ) -> TenantEntry:
        """Register one adapted specialist via the offline pipeline.

        Runs the SKC fine-tune for ``(tier, dataset_id)`` — with a
        populated artifact store this is a warm restore of the adapter
        state, not a training run — and registers the resulting fusion
        against the shared upstream backbone.  The fine-tune operates
        on a clone of the upstream model with identical base weights,
        so hot-attaching the returned fusion to the shared backbone
        reproduces the adapted model exactly.

        When the persistent knowledge base is enabled (``--kb`` /
        ``REPRO_KB``), registration is KB-warmed: the few-shot data is
        profiled and the best nearest-profile knowledge from earlier
        AKB searches replaces the handcrafted seed.  Unlike the AKB
        search path, same-dataset entries are *not* excluded — reusing
        this exact dataset's own searched knowledge is the point.
        """
        from .baselines.jellyfish import get_bundle
        from .core.config import KnowTransConfig
        from .core.knowtrans import _fused_finetune
        from .eval.harness import load_splits
        from .knowledge import kb as kb_module
        from .knowledge.seed import seed_knowledge

        config = config or KnowTransConfig.fast()
        bundle = get_bundle(
            tier, seed=seed, scale=scale, skc_config=config.skc
        )
        backbone_key = f"upstream:{tier}@{seed}"
        self.add_backbone(backbone_key, bundle.upstream_model)
        splits = load_splits(dataset_id, seed=seed, scale=scale)
        knowledge = seed_knowledge(splits.few_shot.task)
        kb_warmed = False
        bank = kb_module.active_kb()
        if bank is not None:
            vector, __ = kb_module.profile_vector_for(splits.few_shot)
            hits = bank.retrieve(
                vector,
                task=splits.few_shot.task,
                k=1,
                min_similarity=config.akb.kb_min_similarity,
            )
            if hits:
                knowledge = hits[0][1].knowledge
                kb_warmed = True
                obs.counter(
                    "serve.kb_warmed", tenant=tenant, dataset=dataset_id
                )
        __, fusion = _fused_finetune(
            bundle.upstream_model,
            bundle.ensure_patches(),
            config.skc,
            "adaptive",
            f"serve-{tenant}-{dataset_id}",
            splits.few_shot,
            knowledge,
        )
        return self.add_entry(
            tenant, dataset_id, splits.few_shot.task, fusion, backbone_key,
            knowledge=knowledge, kb_warmed=kb_warmed,
        )

    # -- serving-time --------------------------------------------------
    def get(self, tenant: str, dataset: str, task: str) -> Optional[TenantEntry]:
        return self.entries.get((tenant, dataset, task))

    def ensure_attached(self, entry: TenantEntry) -> Tuple[ScoringLM, bool]:
        """Make ``entry``'s adapter resident; returns (backbone, swapped).

        The no-op check is identity-based on purpose: re-attaching the
        same adapter object would bump the backbone's adapter version
        and invalidate its effective-weight memo, turning every
        dispatch into a full delta re-materialisation.
        """
        backbone = self.backbones[entry.backbone]
        if backbone.adapter is entry.adapter:
            return backbone, False
        if entry.adapter is None:
            backbone.detach()
        else:
            backbone.attach(entry.adapter)
        self.swaps += 1
        PERF.count("serve.adapter_swaps")
        obs.counter("serve.adapter_swaps", tenant=entry.tenant)
        return backbone, True

    def describe(self) -> Dict[str, Any]:
        return {
            "backbones": {
                name: model.cache_sizes()
                for name, model in self.backbones.items()
            },
            "entries": [entry.describe() for entry in self.entries.values()],
            "lifetime_adapter_swaps": self.swaps,
        }


@dataclass
class _Pending:
    """One queued predict request awaiting a scheduler dispatch."""

    key: EntryKey
    prompts: List[str]
    pools: List[List[str]]
    future: "asyncio.Future[Dict[str, Any]]"
    accepted: float  # perf_counter at accept
    result: Optional[Dict[str, Any]] = field(default=None)


class AdaptationServer:
    """Line-JSON asyncio server with a continuous-batching scheduler.

    Parameters
    ----------
    registry:
        The tenant registry to serve.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (exposed as
        ``self.port`` after :meth:`start`).
    max_batch:
        Upper bound on requests coalesced into one dispatch.
        ``max_batch=1`` degenerates to sequential per-request dispatch
        (the benchmark's baseline arm).
    max_wait_ms:
        After the first request of a batch arrives, how long the
        scheduler keeps the window open for stragglers.  Zero means
        "take only what is already queued".
    """

    def __init__(
        self,
        registry: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        max_wait_ms: float = 5.0,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.max_batch = max(1, int(max_batch))
        self.max_wait = max(0.0, float(max_wait_ms)) / 1000.0
        self.requests = 0
        self.batches = 0
        self.batched_requests = 0
        self.swaps = 0  # swaps performed by *this* server's dispatches
        self.stream_updates = 0
        # Streaming-adaptation state: one training replica per backbone
        # (clone sharing featurization caches) and one Trainer per entry
        # (private Adam moments + activation sidecar).
        self._stream_replicas: Dict[str, ScoringLM] = {}
        self._stream_trainers: Dict[EntryKey, Trainer] = {}
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler: Optional["asyncio.Task[None]"] = None
        self._root_span: Optional[str] = None
        self._started_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._stop_event = asyncio.Event()
        # Prompts can be long; lift the readline limit well past them.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=1 << 22
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.perf_counter()
        self._root_span = obs.new_span_id()
        self._scheduler = asyncio.create_task(self._schedule())

    def request_stop(self) -> None:
        """Signal shutdown; safe to call from the event loop only."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        self._stop_event.set()
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
        while self._queue is not None and not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_result(
                    {"ok": False, "error": "server stopped"}
                )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._root_span is not None and self._started_at is not None:
            obs.record_span(
                "serve.run",
                self._started_at,
                time.perf_counter() - self._started_at,
                span_id=self._root_span,
                requests=self.requests,
                batches=self.batches,
                swaps=self.swaps,
            )
            self._root_span = None

    # -- protocol ------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                accepted = time.perf_counter()
                response = await self._handle_message(line, accepted)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
                if response.get("op") == "shutdown":
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_message(
        self, line: bytes, accepted: float
    ) -> Dict[str, Any]:
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return {"ok": False, "error": f"malformed request: {exc}"}
        op = message.get("op", "predict")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "op": "shutdown"}
        if op == "predict":
            return await self._submit(message, accepted)
        if op == "stream_update":
            return self._stream_update(message)
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _stream_update(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Train a tenant's adapter in place on one labelled micro-batch.

        The update runs through :meth:`Trainer.fit_incremental` on a
        per-backbone training replica, so cost is ``O(batch)`` and the
        serving backbone's weight memo survives untouched unless the
        trained adapter is currently resident (in which case one
        version bump forces the memo to re-materialise from the new
        parameters on the next dispatch).
        """
        key = (
            str(message.get("tenant", "")),
            str(message.get("dataset", "")),
            str(message.get("task", "")),
        )
        entry = self.registry.entries.get(key)
        if entry is None:
            known = sorted(":".join(k) for k in self.registry.entries)
            return {
                "ok": False,
                "error": f"unknown entry {':'.join(key)!r}; "
                f"registered: {known}",
            }
        if entry.adapter is None:
            return {
                "ok": False,
                "error": "entry serves the frozen base tier; "
                "there is no adapter to stream-update",
            }
        prompts = message.get("prompts")
        pools = message.get("pools")
        targets = message.get("targets")
        if (
            not isinstance(prompts, list)
            or not isinstance(pools, list)
            or not isinstance(targets, list)
            or len(prompts) != len(pools)
            or len(prompts) != len(targets)
            or not prompts
            or not all(isinstance(p, str) for p in prompts)
            or not all(isinstance(pool, list) and pool for pool in pools)
            or not all(isinstance(t, int) for t in targets)
        ):
            return {
                "ok": False,
                "error": "stream_update needs parallel non-empty "
                "'prompts' (strings), 'pools' (non-empty string lists) "
                "and 'targets' (ints)",
            }
        for pool, target in zip(pools, targets):
            if not 0 <= target < len(pool):
                return {
                    "ok": False,
                    "error": f"target {target} out of range for a "
                    f"{len(pool)}-candidate pool",
                }
        examples = [
            TrainingExample(prompt, tuple(pool), target)
            for prompt, pool, target in zip(prompts, pools, targets)
        ]
        with obs.span(
            "serve.stream_update",
            tenant=entry.tenant,
            dataset=entry.dataset,
            examples=len(examples),
        ):
            trainer = self._stream_trainers.get(key)
            if trainer is None:
                replica = self._stream_replicas.get(entry.backbone)
                if replica is None:
                    replica = self.registry.backbones[entry.backbone].clone()
                    self._stream_replicas[entry.backbone] = replica
                config = TrainConfig(
                    learning_rate=float(message.get("learning_rate", 6e-3)),
                    batch_size=int(message.get("batch_size", 4)),
                    epochs=int(message.get("epochs", 2)),
                    seed=int(message.get("seed", 0)),
                )
                trainer = Trainer(replica, config, train_base=False)
                self._stream_trainers[key] = trainer
            if trainer.model.adapter is not entry.adapter:
                trainer.model.attach(entry.adapter)
            try:
                report = trainer.fit_incremental(examples)
            except (RuntimeError, ValueError) as exc:
                return {"ok": False, "error": str(exc)}
            serving = self.registry.backbones[entry.backbone]
            resident = serving.adapter is entry.adapter
            if resident:
                # The resident memo was materialised from the old
                # parameters; one bump is the minimum invalidation.
                serving.bump_adapter_version()
            self.stream_updates += 1
            PERF.count("serve.stream_updates")
            obs.counter("serve.stream_updates", tenant=entry.tenant)
        state = trainer.stream_state
        return {
            "ok": True,
            "op": "stream_update",
            "examples": len(examples),
            "steps": len(report.step_losses),
            "final_epoch_loss": report.epoch_losses[-1],
            "stream_rows": state.examples_seen if state else 0,
            "stream_batches": state.batches if state else 0,
            "resident_memo_invalidated": resident,
        }

    async def _submit(
        self, message: Dict[str, Any], accepted: float
    ) -> Dict[str, Any]:
        key = (
            str(message.get("tenant", "")),
            str(message.get("dataset", "")),
            str(message.get("task", "")),
        )
        entry = self.registry.entries.get(key)
        if entry is None:
            known = sorted(":".join(k) for k in self.registry.entries)
            return {
                "ok": False,
                "error": f"unknown entry {':'.join(key)!r}; "
                f"registered: {known}",
            }
        prompts = message.get("prompts")
        pools = message.get("pools")
        if (
            not isinstance(prompts, list)
            or not isinstance(pools, list)
            or len(prompts) != len(pools)
            or not prompts
            or not all(isinstance(p, str) for p in prompts)
            or not all(isinstance(pool, list) and pool for pool in pools)
        ):
            return {
                "ok": False,
                "error": "predict needs parallel non-empty 'prompts' "
                "(strings) and 'pools' (non-empty string lists)",
            }
        pending = _Pending(
            key=key,
            prompts=list(prompts),
            pools=[list(pool) for pool in pools],
            future=asyncio.get_running_loop().create_future(),
            accepted=accepted,
        )
        await self._queue.put(pending)
        return await pending.future

    # -- scheduler -----------------------------------------------------
    async def _schedule(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            if self.max_batch > 1 and self.max_wait > 0.0:
                deadline = time.perf_counter() + self.max_wait
                while len(batch) < self.max_batch:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0.0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(
                                self._queue.get(), remaining
                            )
                        )
                    except asyncio.TimeoutError:
                        break
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._dispatch(batch)

    def _dispatch(self, batch: List[_Pending]) -> None:
        """Run one coalesced batch: group by entry, one GEMM per group."""
        batch_start = time.perf_counter()
        batch_span = obs.new_span_id()
        groups: Dict[EntryKey, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.key, []).append(pending)
        for key, members in groups.items():
            entry = self.registry.entries[key]
            group_start = time.perf_counter()
            prompts = [p for member in members for p in member.prompts]
            pools = [pool for member in members for pool in member.pools]
            ok = True
            try:
                swaps_before = self.registry.swaps
                backbone, __ = self.registry.ensure_attached(entry)
                self.swaps += self.registry.swaps - swaps_before
                predictions = backbone.predict_batch(prompts, pools)
            except Exception as exc:  # surface to every member request
                ok = False
                for member in members:
                    member.result = {"ok": False, "error": str(exc)}
            else:
                cursor = 0
                for member in members:
                    count = len(member.prompts)
                    preds = predictions[cursor : cursor + count]
                    cursor += count
                    member.result = {
                        "ok": True,
                        "predictions": [int(p) for p in preds],
                        "answers": [
                            member.pools[i][p] for i, p in enumerate(preds)
                        ],
                        "batch_size": len(batch),
                        "group_size": len(members),
                        "queue_ms": (batch_start - member.accepted) * 1000.0,
                    }
                entry.requests += len(members)
                entry.predictions += len(prompts)
            obs.record_span(
                "serve.predict",
                group_start,
                time.perf_counter() - group_start,
                parent=batch_span,
                ok=ok,
                tenant=entry.tenant,
                dataset=entry.dataset,
                requests=len(members),
                prompts=len(prompts),
            )
        finished = time.perf_counter()
        for pending in batch:
            obs.record_span(
                "serve.request",
                pending.accepted,
                finished - pending.accepted,
                parent=batch_span,
                ok=bool(pending.result and pending.result.get("ok")),
                tenant=pending.key[0],
                dataset=pending.key[1],
                prompts=len(pending.prompts),
            )
            obs.histogram(
                "serve.queue_wait_ms",
                (batch_start - pending.accepted) * 1000.0,
            )
            if not pending.future.done():
                pending.future.set_result(pending.result)
        self.requests += len(batch)
        self.batches += 1
        self.batched_requests += len(batch)
        PERF.count("serve.requests", len(batch))
        PERF.count("serve.batches")
        obs.counter("serve.requests", len(batch))
        obs.counter("serve.batches")
        obs.histogram("serve.batch_size", len(batch))
        for name in {self.registry.entries[key].backbone for key in groups}:
            self.registry.backbones[name].emit_cache_gauges()
        obs.record_span(
            "serve.batch",
            batch_start,
            finished - batch_start,
            parent=self._root_span,
            span_id=batch_span,
            size=len(batch),
            groups=len(groups),
        )

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        mean_batch = (
            self.batched_requests / self.batches if self.batches else 0.0
        )
        info = {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch_size": mean_batch,
            "adapter_swaps": self.swaps,
            "stream_updates": self.stream_updates,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait * 1000.0,
        }
        info.update(self.registry.describe())
        return info


class ServerThread:
    """Run an :class:`AdaptationServer` on its own event-loop thread.

    Benchmarks, tests and the CI smoke drive the server with plain
    blocking sockets from the calling thread; this helper owns the
    asyncio side.  Context-manager use guarantees shutdown::

        with ServerThread(registry, max_batch=64) as server:
            client = ServeClient("127.0.0.1", server.port)
    """

    def __init__(
        self,
        registry: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        max_wait_ms: float = 5.0,
    ):
        self._registry = registry
        self._host = host
        self._port = port
        self._max_batch = max_batch
        self._max_wait_ms = max_wait_ms
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.server: Optional[AdaptationServer] = None
        self.port: Optional[int] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve thread did not start within 30s")
        if self._error is not None:
            raise RuntimeError("serve thread failed to start") from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # startup/loop failure → caller
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        server = AdaptationServer(
            self._registry,
            host=self._host,
            port=self._port,
            max_batch=self._max_batch,
            max_wait_ms=self._max_wait_ms,
        )
        await server.start()
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.serve_until_stopped()

    def stop(self) -> None:
        if (
            self._loop is not None
            and self._thread is not None
            and self._thread.is_alive()
        ):
            self._loop.call_soon_threadsafe(self.server.request_stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServeClient:
    """Minimal blocking client for the line-JSON protocol."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def predict(
        self,
        tenant: str,
        dataset: str,
        task: str,
        prompts: Sequence[str],
        pools: Sequence[Sequence[str]],
    ) -> Dict[str, Any]:
        response = self.request(
            {
                "op": "predict",
                "tenant": tenant,
                "dataset": dataset,
                "task": task,
                "prompts": list(prompts),
                "pools": [list(pool) for pool in pools],
            }
        )
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "predict failed"))
        return response

    def stream_update(
        self,
        tenant: str,
        dataset: str,
        task: str,
        prompts: Sequence[str],
        pools: Sequence[Sequence[str]],
        targets: Sequence[int],
        **options: Any,
    ) -> Dict[str, Any]:
        response = self.request(
            {
                "op": "stream_update",
                "tenant": tenant,
                "dataset": dataset,
                "task": task,
                "prompts": list(prompts),
                "pools": [list(pool) for pool in pools],
                "targets": [int(t) for t in targets],
                **options,
            }
        )
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "stream_update failed"))
        return response

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Deterministic fixtures and load drivers (bench / smoke / tests)
# ----------------------------------------------------------------------
def build_demo_registry(
    tenants: int = 2,
    seed: int = 0,
    n_patches: int = 12,
    rank: int = 4,
    dataset_id: str = "em/abt_buy",
    task: str = "em",
    backbone_name: str = "serve-demo",
) -> TenantRegistry:
    """A seeded multi-tenant registry on one untrained backbone.

    Each tenant gets a distinct :class:`PatchFusion` stack (seeded
    non-zero ``A`` matrices, so deltas are real work to materialise) —
    the swap cost between tenants is therefore representative of a
    fused specialist without running any fine-tuning.
    """
    config = ModelConfig(name=backbone_name, seed=seed)
    backbone = ScoringLM(config)
    registry = TenantRegistry()
    registry.add_backbone(backbone_name, backbone)
    shapes = config.target_shapes()
    for tenant_index in range(tenants):
        patches = []
        for i in range(n_patches + 1):
            patch = LoRAPatch(
                f"{backbone_name}-t{tenant_index}-p{i:02d}",
                shapes,
                rank=rank,
                seed=seed + 997 * tenant_index + i,
            )
            rng = rng_for(seed, "serve-demo", patch.name)
            for target in patch.A:
                patch.A[target] = rng.normal(
                    0.0, 0.02, patch.A[target].shape
                )
            patches.append(patch)
        fusion = PatchFusion(patches[:-1], patches[-1], initial_weight=0.1)
        registry.add_entry(
            tenant=f"tenant{tenant_index}",
            dataset=dataset_id,
            task=task,
            adapter=fusion,
            backbone=backbone_name,
        )
    return registry


def build_workload(
    registry: TenantRegistry,
    requests: int = 16,
    prompts_per_request: int = 4,
    seed: int = 0,
    dataset_id: str = "em/abt_buy",
) -> List[Dict[str, Any]]:
    """A deterministic request stream cycling over the registry's entries.

    Consecutive requests alternate tenants (request ``r`` targets entry
    ``r % len(entries)``), which is the adversarial pattern for a
    sequential server: nearly every dispatch needs an adapter swap.
    """
    from .data import generators
    from .knowledge.seed import seed_knowledge
    from .tasks.base import get_task

    dataset = generators.build(
        dataset_id,
        count=max(48, requests * prompts_per_request // 2),
        seed=seed,
    )
    task = get_task(dataset.task)
    knowledge = seed_knowledge(dataset.task)
    prompts = [task.prompt(ex, knowledge) for ex in dataset.examples]
    pools = [
        list(task.candidates(ex, knowledge, dataset))
        for ex in dataset.examples
    ]
    entries = list(registry.entries.values())
    workload: List[Dict[str, Any]] = []
    for r in range(requests):
        entry = entries[r % len(entries)]
        picks = [
            (r * prompts_per_request + j) % len(prompts)
            for j in range(prompts_per_request)
        ]
        workload.append(
            {
                "tenant": entry.tenant,
                "dataset": entry.dataset,
                "task": entry.task,
                "prompts": [prompts[i] for i in picks],
                "pools": [list(pools[i]) for i in picks],
            }
        )
    return workload


def offline_reference(
    registry: TenantRegistry, workload: Sequence[Dict[str, Any]]
) -> List[List[int]]:
    """Offline per-request predictions — the bit-parity oracle.

    Attaches each request's adapter and runs ``predict_batch`` exactly
    as a standalone offline evaluation would.  Also serves as the
    warm-up pass: it populates the featurization caches both serving
    arms then share.
    """
    results: List[List[int]] = []
    for item in workload:
        entry = registry.entries[
            (item["tenant"], item["dataset"], item["task"])
        ]
        backbone, __ = registry.ensure_attached(entry)
        results.append(
            [
                int(p)
                for p in backbone.predict_batch(
                    item["prompts"], item["pools"]
                )
            ]
        )
    return results


def drive_clients(
    host: str,
    port: int,
    workload: Sequence[Dict[str, Any]],
    clients: int = 4,
) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Closed-loop client threads; returns (responses, latencies).

    Request ``i`` is sent by client ``i % clients``; each client sends
    its share in order over one persistent connection and only issues
    the next request after the previous response lands (closed loop).
    Both returned lists align with ``workload`` order; latencies are
    client-observed round-trip seconds.
    """
    responses: List[Optional[Dict[str, Any]]] = [None] * len(workload)
    latencies: List[float] = [0.0] * len(workload)
    errors: List[BaseException] = []
    clients = max(1, min(clients, len(workload)))

    def run_client(client_index: int) -> None:
        try:
            with ServeClient(host, port) as client:
                for i in range(client_index, len(workload), clients):
                    item = workload[i]
                    t0 = time.perf_counter()
                    responses[i] = client.request(
                        {"op": "predict", **item}
                    )
                    latencies[i] = time.perf_counter() - t0
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(
            target=run_client, args=(c,), name=f"serve-client-{c}"
        )
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return responses, latencies


# ----------------------------------------------------------------------
# Smoke + daemon entry points (CLI / CI)
# ----------------------------------------------------------------------
def run_smoke(
    clients: int = 4,
    requests: int = 12,
    prompts_per_request: int = 3,
    seed: int = 0,
    max_batch: int = 32,
    max_wait_ms: float = 10.0,
    tenants: int = 2,
) -> Dict[str, Any]:
    """End-to-end in-process smoke: concurrent clients vs offline oracle."""
    registry = build_demo_registry(
        tenants=tenants, seed=seed, n_patches=4, rank=4
    )
    workload = build_workload(
        registry,
        requests=requests,
        prompts_per_request=prompts_per_request,
        seed=seed,
    )
    offline = offline_reference(registry, workload)
    with ServerThread(
        registry, max_batch=max_batch, max_wait_ms=max_wait_ms
    ) as server:
        responses, latencies = drive_clients(
            "127.0.0.1", server.port, workload, clients=clients
        )
        with ServeClient("127.0.0.1", server.port) as probe:
            assert probe.ping()
            stats = probe.stats()
    match = all(
        response is not None
        and response.get("ok")
        and response.get("predictions") == offline[i]
        for i, response in enumerate(responses)
    )
    return {
        "ok": bool(match and stats["requests"] == len(workload)),
        "predictions_identical": match,
        "requests": len(workload),
        "clients": clients,
        "mean_batch_size": stats["mean_batch_size"],
        "adapter_swaps": stats["adapter_swaps"],
        "batches": stats["batches"],
        "max_latency_ms": max(latencies) * 1000.0 if latencies else 0.0,
    }


def render_smoke(result: Dict[str, Any]) -> str:
    status = "OK" if result["ok"] else "FAILED"
    return (
        f"serve smoke {status}: {result['requests']} requests / "
        f"{result['clients']} clients, "
        f"{result['batches']} batches "
        f"(mean size {result['mean_batch_size']:.1f}), "
        f"{result['adapter_swaps']} adapter swaps, "
        f"predictions_identical={result['predictions_identical']}, "
        f"max latency {result['max_latency_ms']:.1f} ms"
    )


def serve_forever(
    registry: TenantRegistry,
    host: str = "127.0.0.1",
    port: int = 8731,
    max_batch: int = 32,
    max_wait_ms: float = 5.0,
    console=None,
) -> int:
    """Run the daemon until SIGINT or a ``shutdown`` op."""

    async def main() -> None:
        server = AdaptationServer(
            registry,
            host=host,
            port=port,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
        )
        await server.start()
        if console is not None:
            console.info(
                f"serving {len(registry.entries)} entries on "
                f"{server.host}:{server.port} "
                f"(max_batch={server.max_batch}, "
                f"max_wait_ms={server.max_wait * 1000.0:g})"
            )
        await server.serve_until_stopped()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    return 0
