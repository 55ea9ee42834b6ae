"""The ``serve_mixed`` workload: a ``repro serve`` daemon under mixed load.

Six predict tenants and one learner tenant share one backbone.  Phase 1
is an open loop of seeded Poisson arrivals at a fixed rate, pipelined on
two connections; each predict is timed from its due time.  Phase 2 is a
closed loop on the same two connections.  The run alternates the two
phases in ``blocks`` equal blocks.  Each connection carries a
fixed set of tenants, as a front end per tenant group would: two
requests of one tenant are never coalesced, so the daemon's transient
memory does not depend on arrival timing.  All stream updates go
through connection 0, so the server applies them in the order sent.
After the daemon has shut down, this process registers the same tenants
offline and checks every served prediction against
``serve.offline_reference``.
"""

from __future__ import annotations

import collections
import json
import random
import re
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import checks
import layers
from common import LAUNCH, ROOT, clean_env, median, percentile, tail
from workloads import Context, Outcome

_SERVING = re.compile(r"serving (\d+) entries on ([^\s:]+):(\d+)")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Pool:
    tenant: str
    dataset: str
    task: str
    prompts: List[str]
    pools: List[List[str]]
    targets: List[int]


def build_pools(cfg: Dict[str, Any]) -> Tuple[List[Pool], Pool]:
    """Per-tenant prompt pools, regenerated at a size no cache can hold.

    The pools are fixed (``pool_data_seed``); the workload seed only
    orders and schedules requests, so every run serves the same leading
    prompts of each pool and the served accuracy is comparable.
    """
    from repro.data import generators
    from repro.knowledge.seed import seed_knowledge
    from repro.tasks.base import get_task

    def pool(tenant: str, dataset_id: str) -> Pool:
        dataset = generators.build(
            dataset_id, count=cfg["pool_examples_per_tenant"],
            seed=cfg["pool_data_seed"],
        )
        task = get_task(dataset.task)
        knowledge = seed_knowledge(dataset.task)
        examples = [
            task.training_example(example, knowledge, dataset)
            for example in dataset.examples
        ]
        return Pool(
            tenant, dataset_id, dataset.task,
            [ex.prompt for ex in examples],
            [list(ex.candidates) for ex in examples],
            [int(ex.target) for ex in examples],
        )

    tenants = [pool(t, d) for t, d in cfg["predict_tenants"].items()]
    learner = pool(cfg["learner"]["tenant"], cfg["learner"]["dataset"])
    return tenants, learner


@dataclass
class Request:
    kind: str  # "predict", "stream_update" or "control"
    payload: bytes
    pool: Optional[Pool]
    picks: List[int]
    due: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    response: Optional[Dict[str, Any]] = None

    def latency_ms(self, from_due: bool) -> float:
        return (self.received - (self.due if from_due else self.sent)) * 1000.0


class Cursors:
    """Next unserved prompt of each pool, shared by every request maker."""

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}
        self._lock = threading.Lock()

    def take(self, pool: Pool, count: int) -> List[int]:
        with self._lock:
            start = self._next.get(pool.tenant, 0)
            self._next[pool.tenant] = start + count
        return [(start + i) % len(pool.prompts) for i in range(count)]


class RequestMaker:
    """The request mix: every (tenant, size) pair once per shuffled cycle.

    The seed orders each cycle; whole cycles keep the mix of tenants and
    sizes the same in every run.  Every ``stream_update_every``-th
    request is a learner micro-batch when ``updates`` is set.
    """

    def __init__(self, cfg, tenants: List[Pool], learner: Pool, cursors: Cursors,
                 seed: int, stream: int, updates: bool = True):
        self.cfg = cfg
        self.tenants = tenants
        self.learner = learner
        self.cursors = cursors
        self.rng = random.Random(f"{seed}/{stream}")
        self.updates = updates
        self.cycle: List[Tuple[Pool, int]] = []
        self.count = 0

    def next(self) -> Request:
        self.count += 1
        if self.updates and self.count % self.cfg["stream_update_every"] == 0:
            return self._stream_update()
        if not self.cycle:
            self.cycle = [
                (pool, size)
                for pool in self.tenants
                for size in self.cfg["request_sizes"]
            ]
            self.rng.shuffle(self.cycle)
        pool, size = self.cycle.pop()
        picks = self.cursors.take(pool, size)
        message = {
            "op": "predict", "tenant": pool.tenant, "dataset": pool.dataset,
            "task": pool.task,
            "prompts": [pool.prompts[i] for i in picks],
            "pools": [pool.pools[i] for i in picks],
        }
        return Request("predict", _encode(message), pool, picks)

    def _stream_update(self) -> Request:
        pool = self.learner
        picks = self.cursors.take(pool, self.cfg["stream_update_examples"])
        message = {
            "op": "stream_update", "tenant": pool.tenant,
            "dataset": pool.dataset, "task": pool.task,
            "prompts": [pool.prompts[i] for i in picks],
            "pools": [pool.pools[i] for i in picks],
            "targets": [pool.targets[i] for i in picks],
        }
        return Request("stream_update", _encode(message), pool, picks)


def _encode(message: Dict[str, Any]) -> bytes:
    return json.dumps(message).encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# daemon and connections
# ----------------------------------------------------------------------
class Connection:
    """One pipelined line-JSON connection.

    A reader thread matches each response line to the oldest in-flight
    request (the server answers a connection in order), so a sender can
    keep several requests in flight (open loop) or wait for each one
    (closed loop and control ops).
    """

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.settimeout(None)  # the reader blocks until a reply or EOF
        self.reader = self.sock.makefile("rb")
        self.inflight: "collections.deque[Request]" = collections.deque()
        self.cond = threading.Condition()
        self.closed = False
        self.thread = threading.Thread(target=self._read_loop, daemon=True)
        self.thread.start()

    def send(self, request: Request) -> None:
        with self.cond:
            self.inflight.append(request)
        request.sent = time.perf_counter()
        self.sock.sendall(request.payload)

    def wait(self, request: Request, timeout: float = 60.0) -> None:
        with self.cond:
            self.cond.wait_for(
                lambda: request.response is not None or self.closed, timeout
            )

    def exchange(self, request: Request) -> None:
        self.send(request)
        self.wait(request)

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        request = Request("control", _encode(message), None, [])
        self.exchange(request)
        return request.response or {}

    def drain(self, timeout: float) -> None:
        with self.cond:
            self.cond.wait_for(lambda: not self.inflight or self.closed, timeout)

    def _read_loop(self) -> None:
        while True:
            try:
                line = self.reader.readline()
            except (OSError, ValueError):
                line = b""
            now = time.perf_counter()
            with self.cond:
                if not line:
                    self.closed = True
                    self.cond.notify_all()
                    return
                request = self.inflight.popleft()
                request.received = now
                request.response = json.loads(line)
                self.cond.notify_all()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.thread.join(timeout=5)
        self.reader.close()
        self.sock.close()


@dataclass
class Daemon:
    """A ``repro serve`` process launched through the benchmark launcher."""

    ctx: Context
    trace: bool = False
    store: str = ""
    proc: Optional[subprocess.Popen] = None
    address: Optional[Tuple[str, int]] = None
    meta_path: str = ""
    trace_path: str = ""
    stderr_path: str = ""

    def start(self) -> None:
        cfg = self.ctx.config["serve_mixed"]
        run = self.ctx.run
        self.store = run.store_copy(self.ctx.backbone)
        self.meta_path = run.fresh("daemon-meta") + ".json"
        cmd = [sys.executable, LAUNCH, "cli", "--meta", self.meta_path]
        if self.trace:
            self.trace_path = run.fresh("daemon-trace") + ".json"
            cmd += ["--trace", self.trace_path]
        cmd += ["--", "serve", "--port", "0", "--cache-dir", self.store]
        specs = dict(cfg["predict_tenants"])
        specs[cfg["learner"]["tenant"]] = cfg["learner"]["dataset"]
        for tenant, dataset in specs.items():
            cmd += ["--preload", f"{tenant}:{dataset}"]
        env = clean_env(1)
        env["PYTHONUNBUFFERED"] = "1"  # the "serving ... on HOST:PORT" line
        self.stderr_path = run.fresh("daemon-stderr") + ".txt"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            found = _SERVING.search(line)
            if found and self.address is None:
                self.address = (found.group(2), int(found.group(3)))
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 150.0) -> Connection:
        self._ready.wait(timeout)
        if self.address is None:
            raise RuntimeError("daemon did not start: " + self.stderr_tail())
        conn = Connection(*self.address)
        if not conn.call({"op": "ping"}).get("ok"):
            raise RuntimeError("daemon did not answer ping")
        return conn

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read().decode(errors="replace")[-1500:]

    def stop(self, conn: Optional[Connection]) -> int:
        """Shut the daemon down, killing it if it does not exit; returns rc."""
        if self.proc is None:
            return -1
        asked = False
        if conn is not None and self.proc.poll() is None:
            try:
                asked = conn.call({"op": "shutdown"}).get("ok", False)
            except OSError:
                pass
        if not asked and self.proc.poll() is None:
            self.proc.terminate()
        try:
            rc = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self._reader.join(timeout=5)
        self._stderr.close()
        return rc

    def result_files(self) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        def load(path: str) -> Optional[Dict[str, Any]]:
            try:
                with open(path) as handle:
                    return json.load(handle)
            except (OSError, ValueError):
                return None

        return load(self.meta_path) or {}, (
            load(self.trace_path) if self.trace_path else None
        )


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def serve_mixed(ctx: Context) -> Outcome:
    cfg = ctx.config["serve_mixed"]
    tenants, learner = build_pools(cfg)
    cursors = Cursors()
    route = {
        tenant: index
        for index, group in enumerate(cfg["connection_tenants"])
        for tenant in group
    }
    problems: List[str] = []
    setup_times: List[float] = []
    daemon: Optional[Daemon] = None
    conn: Optional[Connection] = None
    other: Optional[Connection] = None
    phase1: List[Request] = []
    phase2: List[Request] = []
    seconds2 = 0.0
    stats: Dict[str, Any] = {}
    lags: List[float] = []
    try:
        for __ in range(cfg["setup_repeats"]):
            if daemon is not None:
                problems += checks.exit_code(
                    "set-up daemon", daemon.stop(conn), daemon.stderr_tail()
                )
                conn.close()
            daemon = Daemon(ctx, trace=ctx.trace)
            start = time.perf_counter()
            daemon.start()
            conn = daemon.wait_ready()
            setup_times.append(time.perf_counter() - start)
        other = Connection(*daemon.address)
        conns = (conn, other)
        opener = RequestMaker(cfg, tenants, learner, cursors, ctx.seed, 0)
        closers = [
            RequestMaker(
                cfg, [p for p in tenants if route[p.tenant] == index],
                learner, cursors, ctx.seed, index + 1, updates=index == 0,
            )
            for index in range(len(cfg["connection_tenants"]))
        ]
        # The phases alternate in short blocks, so each phase samples
        # the whole run and not one stretch of the shared cores' speed.
        block_s = ctx.seconds / cfg["blocks"]
        for block in range(cfg["blocks"]):
            requests, block_lags = _open_loop(
                cfg, conns, opener, route, f"{ctx.seed}/{block}",
                block_s * cfg["phase1_share"],
            )
            phase1 += requests
            lags += block_lags
            requests, wall = _closed_loop(
                conns, closers, block_s * (1.0 - cfg["phase1_share"])
            )
            phase2 += requests
            seconds2 += wall
        stats = conn.call({"op": "stats"}).get("stats", {})
    finally:
        if other is not None:
            other.close()
        rc = daemon.stop(conn) if daemon is not None else -1
        if conn is not None:
            conn.close()
    problems += checks.exit_code("serve daemon", rc, daemon.stderr_tail() if daemon else "")
    meta, trace = daemon.result_files()
    return _outcome(ctx, cfg, daemon.store, tenants, phase1, phase2, seconds2,
                    lags, stats, setup_times, meta, trace, problems)


def _open_loop(cfg, conns, maker, route, seed: str,
               seconds: float) -> Tuple[List[Request], List[float]]:
    """Seeded Poisson arrivals at the fixed rate, timed from due time."""
    arrivals = random.Random(f"{seed}/arrivals")
    requests: List[Request] = []
    due = 0.0
    while True:
        due += arrivals.expovariate(cfg["phase1_rate_rps"])
        if due >= seconds:
            break
        request = maker.next()
        request.due = due
        requests.append(request)
    origin = time.perf_counter() + 0.05
    lags = []
    for request in requests:
        request.due += origin
        delay = request.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        target = conns[0 if request.kind == "stream_update" else route[request.pool.tenant]]
        target.send(request)
        lags.append((request.sent - request.due) * 1000.0)
    for conn in conns:
        conn.drain(timeout=60.0)
    return requests, lags


def _closed_loop(conns, makers, seconds) -> Tuple[List[Request], float]:
    """Each connection sends its next request when the last one returns.

    Only the first maker emits stream updates, so they all travel on
    connection 0 in order.
    """
    done: List[List[Request]] = [[] for __ in conns]
    start = time.perf_counter()
    deadline = start + seconds

    def client(index: int) -> None:
        while time.perf_counter() < deadline:
            request = makers[index].next()
            conns[index].exchange(request)
            done[index].append(request)
            if request.response is None:
                return

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(conns))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return [request for chunk in done for request in chunk], wall


def _ok(request: Request) -> bool:
    return bool(request.response and request.response.get("ok"))


def _oracle(cfg, config, store: str, predicts: List[Request]) -> List[List[int]]:
    """Offline predictions from an identically registered registry.

    Built after the daemon exited so it never competes with the
    measured process; registration restores the daemon's adapters from
    the daemon's store.
    """
    from repro import store as artifact_store
    from repro.serve import TenantRegistry, offline_reference

    artifact_store.configure(cache_dir=store)
    registry = TenantRegistry()
    for tenant, dataset in cfg["predict_tenants"].items():
        registry.register_adapted(
            tenant, dataset, tier=config["tier"], seed=config["program_seed"],
            scale=config["upstream_scale"],
        )
    workload = [
        {
            "tenant": r.pool.tenant, "dataset": r.pool.dataset,
            "task": r.pool.task,
            "prompts": [r.pool.prompts[i] for i in r.picks],
            "pools": [r.pool.pools[i] for i in r.picks],
        }
        for r in predicts
    ]
    return offline_reference(registry, workload)


def _outcome(ctx, cfg, store, tenants, phase1, phase2, seconds2, lags, stats,
             setup_times, meta, trace, problems) -> Outcome:
    limit = cfg["latency_limit_ms"]
    everything = phase1 + phase2
    failed = sum(1 for r in everything if not _ok(r))
    predicts1 = [r for r in phase1 if r.kind == "predict"]
    predicts2 = [r for r in phase2 if r.kind == "predict"]
    served = [r for r in predicts1 + predicts2 if _ok(r)]
    # A failed request misses every latency limit.
    latencies = [r.latency_ms(True) if _ok(r) else float("inf") for r in predicts1]
    closed = [r.latency_ms(False) if _ok(r) else float("inf") for r in predicts2]
    # Connection 0 carries every update, so send order is apply order.
    updates = sorted(
        (r for r in everything if r.kind == "stream_update"), key=lambda r: r.sent
    )
    update_latencies = [r.latency_ms(True) for r in phase1 if r.kind == "stream_update"]
    problems += checks.stream_updates([(len(r.picks), r.response) for r in updates])
    expected = _oracle(cfg, ctx.config, store, served)
    matches, mismatches = checks.predictions_match([r.response for r in served], expected)
    problems += mismatches
    correct = total = 0
    seen = set()
    repeats = 0
    for r in sorted(served, key=lambda r: r.sent):
        for i, prediction in zip(r.picks, r.response["predictions"]):
            total += 1
            correct += prediction == r.pool.targets[i]
            repeats += (r.pool.tenant, i) in seen
            seen.add((r.pool.tenant, i))
    within = sum(1 for value in closed if value <= limit)
    tail1 = tail(latencies)
    metrics = {
        "setup_s": median(setup_times),
        "p50_ms": median(latencies),
        "goodput_per_s": within / seconds2 if seconds2 else 0.0,
        "test_score": 100.0 * correct / max(1, total),
        "peak_rss_mb": meta.get("rss_mb", {}).get("self", 0.0),
    }
    predict_requests = max(1, stats.get("requests", 0))
    requests = predict_requests + stats.get("stream_updates", 0)
    queue = [r.response.get("queue_ms", 0.0) for r in predicts1 if _ok(r)]
    client_side = {
        "serve.queue_ms": median(queue),
        "serve.swaps_per_request": stats.get("adapter_swaps", 0) / predict_requests,
        "serve.batch_size": float(stats.get("mean_batch_size", 0.0)),
        "serve.repeat_share": repeats / max(1, total),
        "loadgen.lag_p99_ms": percentile(lags, 99.0),
    }
    report = [
        f"serve_mixed phase 1 (open loop, {cfg['phase1_rate_rps']:g} req/s, "
        f"{cfg['blocks']} blocks, "
        f"{len(phase1)} requests): p50_ms {metrics['p50_ms']:.2f} "
        f"(n={len(predicts1)}), p{tail1['percentile']:.1f} {tail1['value']:.2f} ms, "
        f"update_p50_ms {median(update_latencies):.2f} (n={len(update_latencies)})",
        f"serve_mixed phase 2 (closed loop, {len(cfg['connection_tenants'])} connections, "
        f"{len(phase2)} requests in {seconds2:.2f} s): p50 {median(closed):.2f} ms, "
        f"goodput_rps {metrics['goodput_per_s']:.2f} within {limit:g} ms",
        f"oracle_match: {matches / max(1, len(served)):.4f} ({matches}/{len(served)}), "
        f"stream updates ok: {len(updates)}, failed_share: "
        f"{failed / max(1, len(everything)):.4f}",
        "client side: " + ", ".join(f"{k}={v:.4f}" for k, v in client_side.items()),
    ]
    outcome = Outcome(metrics, len(everything), failed, problems, report)
    if ctx.trace and trace is not None:
        record = {
            "totals": trace["totals"], "budget": trace["totals"],
            "counts": trace["counts"], "perf": trace["perf"],
            "wall_s": trace["wall_s"],
        }
        outcome.layers = layers.summarize([record], ops=requests)
        outcome.layers.update(client_side)
        outcome.layers["trace.op_ms"] = metrics["p50_ms"]
        outcome.report += layers.budget_lines(outcome.layers, "served request")
    return outcome

