"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper by
calling the corresponding entry of :mod:`repro.eval.experiments` and
printing the rendered rows/series.  Results are also appended to
``benchmarks/results/`` so a full run leaves the regenerated paper
artifacts on disk.

Set ``REPRO_BENCH_PRESET=quick`` to run the whole harness at a reduced
scale (used by CI); the default ``paper`` preset regenerates the tables
at full benchmark scale.  Every artifact's first line names the preset
it was rendered at (``preset: quick``), since both presets write the
same file names.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.experiments import ExperimentContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_preset() -> str:
    """The preset the harness runs at: quick if ``REPRO_BENCH_PRESET=quick``."""
    return "quick" if os.environ.get("REPRO_BENCH_PRESET") == "quick" else "paper"


def write_result(
    name: str,
    text: str,
    preset: str,
    results_dir: pathlib.Path = RESULTS_DIR,
) -> pathlib.Path:
    """Write ``<name>.txt`` with ``preset: <preset>`` as its first line."""
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{name}.txt"
    path.write_text(f"preset: {preset}\n{text}\n")
    return path


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    if bench_preset() == "quick":
        return ExperimentContext.quick()
    return ExperimentContext.paper()


@pytest.fixture(scope="session")
def record_result():
    preset = bench_preset()

    def _record(name: str, text: str) -> None:
        print("\n" + text)
        write_result(name, text, preset)

    return _record


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
