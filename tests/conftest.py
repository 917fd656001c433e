import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclecones

SRC = str(Path(cyclecones.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run_python():
    """Run `python <args>` from the repository root with the package
    importable."""

    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )

    return run


@pytest.fixture
def run_optimized(run_python):
    """Run `python -O <args>`, so that checks which must survive
    assert-stripping are exercised with asserts stripped."""

    def run(*args):
        return run_python("-O", *args)

    return run
