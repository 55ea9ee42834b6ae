"""The benchmark harness labels each rendered artifact with its preset."""

import importlib.util
import pathlib

import pytest

CONFTEST = pathlib.Path(__file__).parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "env, preset", [("quick", "quick"), ("paper", "paper"), (None, "paper")]
)
def test_bench_preset_follows_env(harness, monkeypatch, env, preset):
    if env is None:
        monkeypatch.delenv("REPRO_BENCH_PRESET", raising=False)
    else:
        monkeypatch.setenv("REPRO_BENCH_PRESET", env)
    assert harness.bench_preset() == preset


def test_artifact_first_line_names_the_preset(harness, tmp_path):
    text = "Table II: open-source DP-LLMs\n  KnowTrans 68.85"
    for preset in ("quick", "paper"):
        path = harness.write_result("table2_main", text, preset, tmp_path)
        first, rest = path.read_text().split("\n", 1)
        assert first == f"preset: {preset}"
        assert rest == text + "\n"
