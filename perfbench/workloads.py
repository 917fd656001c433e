"""Seeded command lists for the benchmark workloads.

Every command is one invocation of the cyclecones CLI.  n is the signature
parameter of (n, 2) and k = 1 + n/2 the form weight; each command records
both so that a workload listing never mixes them up.

The seed changes parameters, formats and order, but each workload keeps
the same cost structure on every seed (fixed weight slots, small jitter on
--max-m), so that figures from different seeds are comparable.
"""

from __future__ import annotations

import random
from math import isqrt
from dataclasses import dataclass, field

WORKLOADS = ("scan", "cone-warm", "short-cmds")


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``argv`` omits --cache-dir; the runner appends
    it when ``cached`` is set, because the directory is per run."""

    argv: tuple[str, ...]
    n: int
    cached: bool = False
    check: dict = field(default_factory=dict, compare=False)

    @property
    def k(self) -> int:
        return 1 + self.n // 2

    def describe(self) -> str:
        cache = " --cache-dir <cache>" if self.cached else ""
        return f"n={self.n:<3d} k={self.k:<3d} {' '.join(self.argv)}{cache}"


def _n(k: int) -> int:
    return 2 * (k - 1)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so the stream is stable across runs
    # and independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _converge(k: int, max_m: int, *, full=False, fmt="csv") -> Command:
    argv = ["converge", "--n", str(_n(k)), "--max-m", str(max_m)]
    if full:
        argv.append("--full")
    if fmt != "csv":
        argv += ["--format", fmt]
    return Command(tuple(argv), _n(k), cached=True,
                   check={"max_m": max_m, "fmt": fmt})


def _cone(k: int, max_m: int) -> Command:
    argv = ("cone", "--n", str(_n(k)), "--max-m", str(max_m))
    return Command(argv, _n(k), cached=True, check={"max_m": max_m})


# scan: every other physical weight up to 98 (n = 18, 34, ..., 194), each
# at two --max-m levels, all against an empty cache, so every distinct
# (k, precision) builds a Miller basis.  A few --full and --format json
# repeats of an earlier (k, max-m) read the file the other one wrote.
SCAN_WEIGHTS = (10, 18, 26, 34, 42, 50, 58, 66, 74, 82, 90, 98)
SCAN_LEVELS = (25, 50)
SCAN_JITTER = 1
SCAN_FULL = 4
SCAN_JSON = 3


def scan(seed: int) -> list[Command]:
    rng = _rng("scan", seed)
    pairs = [
        (k, level + rng.randint(-SCAN_JITTER, SCAN_JITTER))
        for k in SCAN_WEIGHTS
        for level in SCAN_LEVELS
    ]
    cmds = [_converge(k, m) for k, m in pairs]
    for k, m in rng.sample(pairs, SCAN_FULL):
        cmds.append(_converge(k, m, full=True))
    for k, m in rng.sample(pairs, SCAN_JSON):
        cmds.append(_converge(k, m, fmt="json"))
    rng.shuffle(cmds)
    return cmds


# cone-warm: one cone per (weight, --max-m) slot; the cache holds each
# command's exact basis before timing.  One command's time varies by about
# 20% between runs of it on a shared host, so each percentile must fall
# inside a group of samples of similar size, not between two commands of
# distinct cost.  The (18, 200) slot, the size at which one cone report
# runs a known number of LPs, is the slowest command and runs twice per
# round, so the 90th percentile falls inside its samples.  The other four
# slots cost about the same (1.3-1.7 s), and the median falls among them.
CONE_SLOTS = (
    (18, 200, 0), (18, 200, 0),
    (26, 150, 3), (34, 100, 2), (42, 90, 2), (66, 62, 2),
)


def cone_warm(seed: int) -> list[Command]:
    rng = _rng("cone-warm", seed)
    cmds = [_cone(k, m + rng.randint(-j, j)) for k, m, j in CONE_SLOTS]
    rng.shuffle(cmds)
    return cmds


# short-cmds: the per-command floor (interpreter start and import) plus the
# numtheory, classes, lattice and formatting work; no Miller basis is built
# (every converge hits the cache filled in set-up) and no LP runs.
#
# Every command sits in a fixed slot, so the cost of a round is the same on
# every seed; the seed draws the lattice inputs, jitters identities' max-m
# by 1% and fixes the order.  identities run as a ladder of (max-m, n,
# format) slots dense enough at the top that the 90th percentile of
# command times falls among several commands of similar cost rather than
# between two.  The formats are fixed so that the largest command, and with
# it peak RSS, is the same on every seed.
IDENTITY_SLOTS = (
    (100, 10, "csv"), (150, 50, "json"), (200, 26, "csv"), (300, 42, "csv"),
    (400, 10, "json"), (500, 18, "csv"), (600, 34, "csv"),
    (800, 18, "json"), (1000, 26, "csv"), (1150, 34, "json"),
    (1300, 10, "csv"), (1500, 50, "json"), (1700, 26, "csv"),
    (2000, 42, "csv"), (2400, 50, "json"), (3000, 18, "json"),
)
SHORT_CONVERGE = ((6, 20), (6, 60), (10, 40), (14, 30), (18, 50), (18, 80))
# (--full, --format) variants run once for each (k, max-m) above
CONVERGE_VARIANTS = ((False, "csv"), (False, "json"), (True, "csv"))
LATTICE_SLOTS = (
    ("build", 10), ("build", 18), ("build", 26), ("build", 34), ("build", 42),
    ("moment", 10, 2), ("moment", 10, 3), ("moment", 10, 3),
    ("moment", 18, 2), ("moment", 18, 2), ("moment", 18, 3),
    *[("reduce", 10)] * 8,
    ("family", 10, 4), ("family", 10, 10), ("family", 18, 6),
    ("family", 18, 12), ("family", 26, 8),
)


def _identities(rng, max_m: int, n: int, fmt: str) -> Command:
    max_m += rng.randint(-max_m // 100, max_m // 100)
    argv = ["identities", "--n", str(n), "--max-m", str(max_m)]
    if fmt != "csv":
        argv += ["--format", fmt]
    return Command(tuple(argv), n, check={"max_m": max_m, "fmt": fmt})


def _lattice_vectors(rng, n: int, count: int) -> list[list[int]]:
    """Independent vectors inside the first E8 block, which is positive
    definite, so their moment matrix is positive definite: vector i has a
    nonzero entry at E8 position i and zeros at earlier E8 positions."""
    rank = n + 2
    out = []
    for i in range(count):
        v = [0] * rank
        v[4 + i] = rng.choice((-3, -2, -1, 1, 2, 3))
        for j in range(5 + i, 12):
            v[j] = rng.randint(-3, 3)
        out.append(v)
    return out


def _binary_form(rng) -> list[list[int]]:
    """Doubled positive definite binary [[2a, b], [b, 2c]]: 4ac > b^2."""
    a, c = rng.randint(1, 5000), rng.randint(1, 5000)
    r = isqrt(4 * a * c - 1)
    b = rng.randint(-r, r)
    return [[2 * a, b], [b, 2 * c]]


def _lattice(rng, sub: str, n: int, size: int = 0) -> Command:
    if sub == "build":
        return Command(("lattice", "build", "--n", str(n)), n)
    if sub == "moment":
        text = str(_lattice_vectors(rng, n, size)).replace(" ", "")
        return Command(("lattice", "moment", "--n", str(n), "--vectors", text), n)
    if sub == "reduce":
        text = str(_binary_form(rng)).replace(" ", "")
        return Command(("lattice", "reduce", "--n", str(n), "--doubled", text), n)
    m = rng.randint(1, 30)
    return Command(
        ("lattice", "family", "--n", str(n), "--m", str(m), "--jmax", str(size)), n
    )


def short_cmds(seed: int) -> list[Command]:
    rng = _rng("short-cmds", seed)
    cmds = [_identities(rng, m, n, f) for m, n, f in IDENTITY_SLOTS]
    cmds += [_lattice(rng, *slot) for slot in LATTICE_SLOTS]
    cmds += [_converge(k, m, full=full, fmt=fmt)
             for k, m in SHORT_CONVERGE for full, fmt in CONVERGE_VARIANTS]
    rng.shuffle(cmds)
    return cmds


def commands(workload: str, seed: int) -> list[Command]:
    return {"scan": scan, "cone-warm": cone_warm, "short-cmds": short_cmds}[
        workload
    ](seed)


def prewarm(workload: str, cmds: list[Command]) -> list[Command]:
    """Set-up commands that fill the cache with the exact (k, precision)
    each timed command requests; the cache keys files by exact precision.
    scan starts from an empty cache, so it has none."""
    if workload == "scan":
        return []
    if workload == "cone-warm":
        wanted = sorted({(c.k, c.check["max_m"]) for c in cmds})
    else:
        wanted = sorted(SHORT_CONVERGE)
    return [_converge(k, m) for k, m in wanted]
