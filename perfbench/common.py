"""Shared plumbing: paths, process environment, the backbone build, stats."""

from __future__ import annotations

import fcntl
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")

#: One BLAS/OpenMP thread per measured process: the grid's two workers
#: or the daemon plus the load generator then never exceed two cores.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

OP_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed build)."""


def load_config() -> Dict[str, Any]:
    with open(os.path.join(HERE, "config.json")) as handle:
        return json.load(handle)


def check_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no program sources under {SRC}")


def clean_env(jobs: int) -> Dict[str, str]:
    """The environment of every measured process.

    Every inherited ``REPRO_*`` variable (cache dir, KB, trace, LRU size,
    payload mode, exact weights, ...) is stripped so a developer's shell
    cannot change what is measured; ``REPRO_JOBS`` is then set
    explicitly for the workload.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(PINNED_THREADS)
    env["REPRO_JOBS"] = str(jobs)
    return env


def apply_env(jobs: int) -> None:
    """Make this process's own environment match :func:`clean_env`."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_THREADS)
    os.environ["REPRO_JOBS"] = str(jobs)


def build_root() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_digest() -> str:
    """Content hash of the program sources, the launcher and the backbone settings."""
    digest = hashlib.sha256()
    files = sorted(
        glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)
    ) + [LAUNCH]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    config = load_config()
    digest.update(json.dumps(
        [config[key] for key in ("tier", "program_seed", "upstream_scale")]
    ).encode())
    return digest.hexdigest()[:16]


def backbone_store() -> str:
    """Path of the prebuilt backbone store, building it on first use.

    Pretraining the backbone takes ~15-20 s, so it is built once per
    source tree (the "build" of this benchmark) and copied into each
    run's private store; the cold workload times it on every op.
    """
    root = build_root()
    os.makedirs(root, exist_ok=True)
    target = os.path.join(root, f"backbone-{source_digest()}")
    if os.path.isdir(target):
        return target
    with open(os.path.join(root, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.isdir(target):
            return target
        staging = target + f".tmp-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        result = subprocess.run(
            [sys.executable, LAUNCH, "build", staging],
            cwd=ROOT, env=clean_env(1), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=850,
        )
        if result.returncode != 0:
            shutil.rmtree(staging, ignore_errors=True)
            raise BenchError(
                "backbone build failed:\n" + result.stderr.decode()[-2000:]
            )
        os.replace(staging, target)
        for stale in glob.glob(os.path.join(root, "backbone-*")):
            if stale != target and ".tmp-" not in stale:
                shutil.rmtree(stale, ignore_errors=True)
    return target


@dataclass
class RunDir:
    """A private scratch directory removed when the run ends."""

    path: str = ""
    _serial: int = 0

    def __enter__(self) -> "RunDir":
        self.path = os.path.join(build_root(), f"run-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh(self, stem: str) -> str:
        self._serial += 1
        return os.path.join(self.path, f"{stem}-{self._serial}")

    def store_copy(self, source: str) -> str:
        target = self.fresh("store")
        shutil.copytree(source, target)
        return target


@dataclass
class OpResult:
    rc: int
    wall_s: float
    stdout: str
    stderr: str
    meta: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None


def run_cli_op(
    argv: Sequence[str], run: RunDir, jobs: int = 1, trace: bool = False
) -> OpResult:
    """Run ``repro ARGV`` in a fresh interpreter through the launcher."""
    meta_path = run.fresh("meta") + ".json"
    trace_path = run.fresh("trace") + ".json" if trace else None
    cmd = [sys.executable, LAUNCH, "cli", "--meta", meta_path]
    if trace_path:
        cmd += ["--trace", trace_path]
    cmd += ["--", *argv]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=clean_env(jobs), capture_output=True,
            timeout=OP_TIMEOUT_S,
        )
        rc = done.returncode
        out, err = done.stdout.decode(), done.stderr.decode()
    except subprocess.TimeoutExpired as exc:
        rc, out, err = -1, "", f"timed out: {exc}"
    wall = time.perf_counter() - start
    meta = _read_json(meta_path) or {}
    trace_data = _read_json(trace_path) if trace_path else None
    return OpResult(rc, wall, out, err, meta, trace_data)


def _read_json(path: Optional[str]) -> Optional[Dict[str, Any]]:
    if not path or not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def sweep_shm(pids: Sequence[int]) -> int:
    """Unlink shared-memory segments left by the given processes."""
    removed = 0
    for pid in pids:
        for path in glob.glob(f"/dev/shm/repro-*-{pid:x}-*"):
            try:
                os.unlink(path)
                removed += 1
            except FileNotFoundError:
                pass
    return removed


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail(values: Sequence[float], beyond: int = 10) -> Dict[str, float]:
    """The highest percentile with at least ``beyond`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return {"percentile": 0.0, "value": ordered[-1] if ordered else 0.0}
    index = n - beyond - 1
    return {"percentile": 100.0 * (index + 1) / n, "value": ordered[index]}


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------
def host_record(workload: str, seed: int) -> Dict[str, Any]:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            found = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                timeout=10,
            )
            if found.returncode == 0:
                commit = found.stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_digest": source_digest(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "preset": "cli-defaults (adapt, serve); quick (grid)",
    }
