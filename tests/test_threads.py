"""The package's BLAS-thread policy, checked in a fresh interpreter.

The policy only works if it runs before numpy loads, so each check
starts its own process with a controlled environment.
"""

import os
import subprocess
import sys

import pytest

import repro

VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def thread_env_after_import(**overrides):
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env["PYTHONPATH"] = SRC
    env.update(overrides)
    script = (
        "import os, sys, repro; "
        "assert 'numpy' in sys.modules; "
        f"print(','.join(os.environ.get(n, '-') for n in {VARIABLES!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return dict(zip(VARIABLES, out.stdout.strip().split(",")))


def test_clean_environment_pins_one_thread():
    assert thread_env_after_import() == {name: "1" for name in VARIABLES}


@pytest.mark.parametrize("name", VARIABLES)
def test_user_setting_wins(name):
    got = thread_env_after_import(**{name: "3"})
    assert got[name] == "3"
    assert all(got[other] == "1" for other in VARIABLES if other != name)
