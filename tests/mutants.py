"""Mutation gate: one small fault per row of MUTANTS, and the tests that
must fail once it is in the source.

usage: python tests/mutants.py

For each mutant the runner copies ``src`` to a temporary directory,
replaces the one occurrence of the row's snippet by its replacement,
and runs the row's tests on that copy with
``python -m pytest -x -q -p no:cacheprovider``; the mutant is killed when
pytest exits non-zero or runs past TIMEOUT seconds (a mutant may make the
simplex cycle).  The same tests are first run on an unchanged copy, and
must pass there.  The run fails (exit 1) when a snippet, here or in
EQUIVALENT, does not occur exactly once in its file, when the unchanged
copy fails, or when a mutant survives.  Only the standard library is
used, besides the pytest that runs the tests.  pytest does not collect
this file, as its name does not start with ``test_``.

A change to the source that removes or repeats a snippet must update or
retire its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600

# (name, file under src, snippet, replacement, tests that must fail,
#  the change whose tests the mutant checks)
MUTANTS = [
    (
        "bland-tie-break",
        "cyclecones/cones.py",
        "basis[i] > basis[leave]",
        "basis[i] < basis[leave]",
        ["tests/test_cones.py::"
         "test_integer_simplex_matches_the_fraction_tableau"],
        "the integer simplex: Bland's rule leaves by the smallest basic "
        "index on a ratio tie",
    ),
    (
        "signed-signature-scale",
        "cyclecones/linalg.py",
        "prev = abs(p)",
        "prev = p",
        ["tests/test_linalg.py"],
        "one fraction-free elimination: gram_signature divides by the "
        "previous pivot's absolute value",
    ),
    (
        "ray-distance-swapped-scales",
        "cyclecones/cones.py",
        "abs(x * b - y * a)",
        "abs(x * a - y * b)",
        ["tests/test_cones.py::test_ray_distance_examples"],
        "integer ray distance: each vector is scaled by the other's max",
    ),
    (
        "short-back-substitution",
        "cyclecones/qseries.py",
        "range(d - 2, -1, -1)",
        "range(d - 2, 0, -1)",
        ["tests/test_qseries.py"],
        "integer Miller bases: back-substitution clears row 0 too",
    ),
    (
        "primitive-terms-skip-squares",
        "cyclecones/classes.py",
        "if e > 1:",
        "if e > 2:",
        ["tests/test_classes.py"],
        "a class is its tuple of terms: P_m sums over every t with t^2 | m",
    ),
    (
        "unreduced-rhs",
        "cyclecones/classes.py",
        'f"{num * b // gb}/{den // gb}"',
        'f"{num * b}/{den}"',
        [
            "tests/test_classes.py::"
            "test_identity_scan_writes_an_unequal_rhs_in_lowest_terms"
        ],
        "the identity scan on one scale: an unequal rhs in lowest terms",
    ),
    (
        "unchecked-congruence",
        "cyclecones/lattice.py",
        "if moment_matrix(t, zip(*u)) != reduced:",
        "if False:",
        ["tests/test_lattice.py::"
         "test_gauss_reduce_rejects_a_wrong_congruence"],
        "a lattice is its half-integral form: Gauss reduction checks "
        "u^t T u through moment_matrix",
    ),
    (
        "half-cone-one-short",
        "cyclecones/cones.py",
        "j <= half_m",
        "j < half_m",
        ["tests/test_cones.py::"
         "test_cone_report_reads_the_cone_model_by_its_global_name"],
        "one cone report: the half cone holds generators 0..half_m",
    ),
    (
        "zero-vector-ray",
        "cyclecones/cones.py",
        '    if not (a and b):\n'
        '        raise ValueError("the zero vector spans no ray")\n',
        "",
        ["tests/test_cones.py::test_canonicalize_examples"],
        "a ray is its integer vector: ray_distance refuses a zero vector",
    ),
]

# (file under src, snippet, replacement, why no input can catch it)
EQUIVALENT = [
    (
        "cyclecones/linalg.py",
        "prev = abs(p)",
        "prev = 1",
        "gram_signature's division by the last pivot only removes a "
        "positive factor; without it every later Schur complement is a "
        "positive multiple of the true one, so every pivot keeps its sign "
        "and the inertia is unchanged, and a division by 1 is exact; only "
        "the size of the entries grows",
    ),
]


def _misplaced(rows) -> list[str]:
    """The names of the rows (name, file, snippet) whose snippet does not
    occur exactly once in its file, each printed with its count."""
    bad = []
    for name, rel, snippet in rows:
        count = (ROOT / "src" / rel).read_text(encoding="utf-8").count(snippet)
        if count != 1:
            print(f"FAIL {name}: snippet occurs {count} times in {rel}")
            bad.append(name)
    return bad


def _fails(rel: str, snippet: str, replacement: str, tests) -> bool:
    """Whether the tests fail on a copy of src with the snippet replaced."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / rel
        path.write_text(
            path.read_text(encoding="utf-8").replace(snippet, replacement),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        argv = [sys.executable, "-m", "pytest", "-x", "-q",
                "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, timeout=TIMEOUT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return True
        return proc.returncode != 0


def main() -> int:
    bad = _misplaced([m[:3] for m in MUTANTS])
    bad += _misplaced([(f"equivalent in {e[0]}", *e[:2]) for e in EQUIVALENT])
    tests = sorted({t for m in MUTANTS for t in m[4]})
    if _fails("cyclecones/__init__.py", "", "", tests):
        print("FAIL the tests fail on the unchanged source")
        return 1
    survived = 0
    for name, rel, snippet, replacement, tests, _ in MUTANTS:
        if name in bad:
            continue
        start = time.perf_counter()
        killed = _fails(rel, snippet, replacement, tests)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED'} {name} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if bad or survived else 0


if __name__ == "__main__":
    sys.exit(main())
