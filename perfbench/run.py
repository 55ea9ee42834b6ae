"""End-to-end benchmark of the KnowTrans reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Prints a human-readable report, a host record, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from a run that
wraps the program's public functions with the benchmark's timers.
Exits 0 when every correctness check passed, 1 when one failed, 2 when
the program sources are missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402


def _declared() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.check_sources()
        declared = _declared()
    except (common.BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; known: {workloads}",
              file=sys.stderr)
        return 2
    config = common.load_config()
    jobs = config["grid"]["jobs"] if args.workload == "grid" else 1
    common.apply_env(jobs)  # before numpy loads in this process
    sys.path.insert(0, common.SRC)

    import serve_load
    import workloads as wl

    runners = {
        "adapt_cold": wl.adapt_cold,
        "grid": wl.grid,
        "serve_mixed": serve_load.serve_mixed,
    }
    try:
        backbone = common.backbone_store()
        with common.RunDir() as run:
            ctx = wl.Context(args.seed, args.seconds, bool(args.trace), config,
                             run, backbone)
            outcome = runners[args.workload](ctx)
    except Exception:  # a crashed run is a failed run, never a result
        traceback.print_exc()
        return 1

    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print("host: " + json.dumps(common.host_record(args.workload, args.seed)))
    result = result_line(outcome, declared, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def result_line(outcome, declared: dict, trace: bool) -> dict:
    """The final JSON object; any failed check makes the run incorrect."""
    section = "per_layer" if trace else "end_to_end"
    values = outcome.layers if trace else outcome.metrics
    metrics = {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in declared[section]
    }
    return {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
