"""Entry point of every process the benchmark measures.

Usage (from the repository root)::

    python3 perfbench/launch.py cli --meta META.json [--trace T.json] -- ARGS...
    python3 perfbench/launch.py grid --store DIR [--trace-dir DIR]
    python3 perfbench/launch.py build STORE_DIR

``cli`` times ``import repro.cli``, optionally installs the layer
timers of :mod:`tracer`, then calls ``repro.cli.main(ARGS)`` exactly as
``python -m repro ARGS`` would.  ``grid`` keeps one prewarmed process
alive and runs one experiment pass per ``pass`` line on stdin,
answering with one JSON line each.  ``build`` fills an artifact store
with the upstream backbone (base model, upstream SFT, SKC patches) of
the CLI defaults and of the quick experiment preset.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402


def _import_cli() -> float:
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return time.perf_counter() - start


def _rss_mb() -> dict:
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024.0,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path + ".tmp", "w") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def run_cli(args: argparse.Namespace) -> int:
    import_s = _import_cli()
    from repro import cli
    from repro.perf import PERF

    marks = {}
    if args.trace:
        tracer.install()
        if args.argv and args.argv[0] == "serve":
            _mark_serve_start(marks, tracer.RECORDER, PERF)
    rc = 1
    try:
        rc = cli.main(args.argv)
    finally:
        end = time.perf_counter()
        _write_json(
            args.meta,
            {"rc": rc, "import_s": import_s, "rss_mb": _rss_mb()},
        )
        if args.trace:
            snapshot = tracer.RECORDER.snapshot()
            perf = PERF.snapshot()["counters"]
            wall = end - _T0
            if "serve" in marks:
                start, before, perf_before = marks["serve"]
                snapshot = tracer.delta(snapshot, before)
                perf = _perf_delta(perf, perf_before)
                wall = end - start
            snapshot.update({"perf": perf, "wall_s": wall})
            _write_json(args.trace, snapshot)
    return rc


def _mark_serve_start(marks: dict, recorder, perf) -> None:
    """Zero the serve trace when the daemon starts accepting requests.

    Tenant registration happens before the server starts; it is set-up,
    not serving, so the daemon's layer budget covers serving only.
    """
    from repro import serve

    original = serve.AdaptationServer.start

    async def start(self):
        await original(self)
        marks["serve"] = (
            time.perf_counter(), recorder.snapshot(),
            perf.snapshot()["counters"],
        )

    serve.AdaptationServer.start = start


def _perf_delta(after: dict, before: dict) -> dict:
    """Counter increments between two ``PERF`` counter snapshots."""
    return {name: value - before.get(name, 0) for name, value in after.items()}


def run_grid(args: argparse.Namespace) -> int:
    """Prewarm, run one untimed pass, then serve ``pass`` lines on stdin."""
    from repro import cli
    from repro import store as artifact_store
    from repro.eval import experiments
    from repro.perf import PERF

    recorder = None
    if args.trace_dir:
        tracer.install(worker_dir=args.trace_dir)
        recorder = tracer.RECORDER
    proto = sys.stdout
    artifact_store.configure(cache_dir=args.store)
    experiments.ExperimentContext.quick().prewarm()
    argv = [
        "experiment", args.experiment, "--jobs", str(args.jobs),
        "--no-cache", "--json",
    ]

    def one_pass() -> dict:
        buffer = io.StringIO()
        before = recorder.snapshot() if recorder else None
        perf_before = PERF.snapshot()["counters"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(argv)
        wall = time.perf_counter() - start
        reply = {"rc": rc, "wall_s": wall}
        try:
            reply["rows"] = json.loads(buffer.getvalue())["result"]["rows"]
        except (ValueError, KeyError):
            reply["rows"] = None
        if recorder is not None:
            parent = tracer.delta(recorder.snapshot(), before)
            workers = tracer.collect_worker_files(args.trace_dir)
            reply["trace"] = {
                "parent": parent,
                "workers": workers,
                "perf": _perf_delta(PERF.snapshot()["counters"], perf_before),
                "wall_s": wall,
            }
        return reply

    first = one_pass()
    first["ready"] = True
    first.pop("trace", None)
    proto.write(json.dumps(first) + "\n")
    proto.flush()
    for line in sys.stdin:
        command = line.strip()
        if command == "pass":
            reply = one_pass()
        elif command == "exit":
            proto.write(json.dumps({"bye": True, "rss_mb": _rss_mb()}) + "\n")
            proto.flush()
            return 0
        else:
            reply = {"error": f"unknown command {command!r}"}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


def run_build(args: argparse.Namespace) -> int:
    from repro import store as artifact_store
    from repro.baselines.jellyfish import get_bundle
    from repro.eval import experiments

    with open(os.path.join(HERE, "config.json")) as handle:
        config = json.load(handle)
    artifact_store.configure(cache_dir=args.store)
    get_bundle(
        config["tier"], seed=config["program_seed"],
        scale=config["upstream_scale"],
    ).ensure_patches()
    experiments.ExperimentContext.quick().prewarm()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    cli_mode = modes.add_parser("cli")
    cli_mode.add_argument("--meta", required=True)
    cli_mode.add_argument("--trace", default=None)
    cli_mode.add_argument("argv", nargs=argparse.REMAINDER)
    grid_mode = modes.add_parser("grid")
    grid_mode.add_argument("--store", required=True)
    grid_mode.add_argument("--experiment", default="table5")
    grid_mode.add_argument("--jobs", type=int, default=2)
    grid_mode.add_argument("--trace-dir", default=None)
    build_mode = modes.add_parser("build")
    build_mode.add_argument("store")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    if args.mode == "grid":
        return run_grid(args)
    return run_build(args)


if __name__ == "__main__":
    sys.exit(main())
