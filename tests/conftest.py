import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclecones

SRC = str(Path(cyclecones.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run_optimized():
    """Run `python -O <args>` from the repository root with the package
    importable, so that checks which must survive assert-stripping are
    exercised with asserts stripped."""

    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-O", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )

    return run
