"""Benchmark of the cyclecones CLI: seeded command lists run as child
processes, one at a time (a closed loop with one client).  The children
are started by spawner.py, so that each one's peak RSS is its own.

usage: python3 perfbench/run.py --workload {scan,cone-warm,short-cmds}
           --seed N --seconds S --trace {0,1} [--write-pins]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.

--trace 0 sets up the workload at least SETUP_REPEATS times, and more
while the set-ups took under SETUP_MIN_S in total (setup_s is the
median), then repeats the command list ("round") while another whole
round is predicted to end within --seconds, so that every command is run
equally often.  --trace 1 sets up once, runs one untraced round
and TRACED_ROUNDS rounds through traced_cli.py, and prints the per-layer
metrics; deterministic counters must repeat exactly between the traced
rounds.

Every command must exit 0 and pass the structural checks in checks.py;
repeated rounds and traced rounds must print the same bytes as the first
untraced round; with the pinned seed, every stdout digest must match
pins.json.  A command failing any of these counts in "failed".  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from workloads import Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"
PIN_SEED = 0
SETUP_REPEATS = 3  # at least; more while under SETUP_MIN_S in total
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
TRACED_ROUNDS = 2
COMMAND_TIMEOUT_S = 120
LAYERS = ("cli", "numtheory", "qseries", "linalg", "classes", "cones", "lattice")
NO_TRACE = {"layers": {}, "edges": {}, "lp_calls": 0, "lp_columns": 0,
            "main_s": 0.0, "post_s": 0.0, "missing": []}


@dataclass
class Outcome:
    cmd: Command
    wall_s: float
    returncode: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None
    cache_files: int = 0
    cache_bytes: int = 0
    errors: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    def counters(self) -> dict:
        """Counts of a traced run that must repeat exactly on a second
        run of one seed."""
        return {"stdout_bytes": len(self.stdout),
                "cache_files": self.cache_files,
                "cache_bytes": self.cache_bytes,
                "lp_calls": self.trace["lp_calls"],
                "lp_columns": self.trace["lp_columns"],
                "calls": {k: v["calls"] for k, v in self.trace["layers"].items()}}


class Runner:
    """Runs CLI commands one at a time, through spawner.py, so that each
    child's peak RSS is its own and not this process's."""

    def __init__(self, work: Path):
        self.work = work
        self.out = work / "stdout"
        self.err = work / "stderr"
        self.trace_file = work / "trace.json"
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=work)

    def close(self) -> None:
        """Stop the spawner (it exits when its stdin closes) and wait."""
        try:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except (OSError, subprocess.TimeoutExpired):
            self.spawner.kill()
            self.spawner.wait()

    def run(self, cmd: Command, cache: Path | None, traced: bool) -> Outcome:
        argv = list(cmd.argv)
        if cmd.cached:
            argv += ["--cache-dir", str(cache)]
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(self.trace_file)] + argv
        else:
            argv = [sys.executable, "-m", "cyclecones.cli"] + argv
        request = {"argv": argv, "cwd": str(self.work), "stdout": str(self.out),
                   "stderr": str(self.err), "timeout": COMMAND_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            sys.exit("the spawner process ended unexpectedly")
        r = json.loads(reply)
        outcome = Outcome(cmd, r["wall_s"], r["returncode"], r["maxrss_kb"],
                          self.out.read_bytes(), self.err.read_bytes())
        if traced and self.trace_file.exists():
            outcome.trace = json.loads(self.trace_file.read_text())
            self.trace_file.unlink()
        return outcome


def cache_snapshot(cache: Path) -> dict:
    if not cache.is_dir():
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns)
            for e in os.scandir(cache)}


def coeff_bits_max(cache: Path) -> int:
    """Largest numerator or denominator bit length in the cached bases."""
    best = 0
    for path in sorted(cache.glob("*.txt")):
        for line in path.read_text().splitlines()[1:]:
            for tok in line.split(" "):
                p, _, q = tok.partition("/")
                best = max(best, int(p).bit_length(), int(q).bit_length())
    return best


def run_round(runner: Runner, cmds, cache: Path, traced: bool,
              fresh_cache: bool):
    """One pass over the command list; returns (wall seconds, outcomes).

    The cache directory is observed around each traced command, so files
    a command writes are counted against it.
    """
    if fresh_cache:
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
    outcomes = []
    start = time.perf_counter()
    for cmd in cmds:
        before = cache_snapshot(cache) if traced else None
        outcome = runner.run(cmd, cache, traced)
        if traced:
            after = cache_snapshot(cache)
            written = [n for n, v in after.items() if before.get(n) != v]
            outcome.cache_files = len(written)
            outcome.cache_bytes = sum(after[n][0] for n in written)
        outcomes.append(outcome)
    return time.perf_counter() - start, outcomes


def check_round(outcomes, reference, pins) -> None:
    """Record in each outcome's errors why it is wrong, if it is."""
    for i, o in enumerate(outcomes):
        if o.returncode != 0:
            lines = o.stderr.decode(errors="replace").strip().splitlines()
            o.errors.append(f"exit {o.returncode}: {lines[-1] if lines else ''}")
            continue
        problem = checks.check_output(o.cmd, o.stdout.decode(errors="replace"))
        if problem:
            o.errors.append(problem)
        if reference is not None and o.stdout != reference[i].stdout:
            o.errors.append("stdout differs from the first untraced round")
        if pins is not None and (i >= len(pins) or pins[i] != [o.cmd.describe(), o.digest]):
            o.errors.append("stdout digest differs from the pinned one")


def setup(runner: Runner, workload: str, cmds, cache: Path) -> float:
    """Fresh cache directory, one import-only child, and the cache
    pre-warm; returns its wall seconds.  Exits if any step fails."""
    start = time.perf_counter()
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    warm = [Command(("lattice", "build", "--n", "10"), 10)]
    for cmd in warm + workloads.prewarm(workload, cmds):
        o = runner.run(cmd, cache, traced=False)
        if o.returncode != 0:
            sys.stderr.write(o.stderr.decode(errors="replace"))
            sys.exit(f"set-up command failed: {cmd.describe()}")
    return time.perf_counter() - start


def load_pins(workload: str, seed: int):
    if seed != PIN_SEED or not PINS.exists():
        return None
    return json.loads(PINS.read_text()).get(workload)


def write_pins(workload: str, outcomes) -> None:
    doc = json.loads(PINS.read_text()) if PINS.exists() else {}
    doc[workload] = [[o.cmd.describe(), o.digest] for o in outcomes]
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups, walls, outcomes) -> tuple[dict, list[str]]:
    times = [o.wall_s for o in outcomes]
    n = len(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    beyond = sum(t > p90 for t in times)
    failed = sum(bool(o.errors) for o in outcomes)
    m = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "cmd_p50_s": metric(statistics.median(times), "s"),
        "cmd_p90_s": metric(p90, "s"),
        "peak_rss_mb": metric(max(o.maxrss_kb for o in outcomes) / 1024, "MB"),
    }
    notes = [
        f"setup_s      {m['setup_s']['value']:.4f} s   median of {len(setups)} set-ups",
        f"wall_s       {m['wall_s']['value']:.4f} s   median of {len(walls)} rounds",
        f"cmd_p50_s    {m['cmd_p50_s']['value']:.4f} s   over {n} commands",
        f"cmd_p90_s    {p90:.4f} s   over {n} commands, {beyond} beyond p90",
        f"peak_rss_mb  {m['peak_rss_mb']['value']:.2f} MB  largest max-RSS of one timed child",
        f"failed_frac  {failed / n:.4f}      {failed} failed of {n} attempted",
    ]
    return m, notes


def per_layer(ref_wall, traced_rounds, cache_bits) -> tuple[dict, list[str]]:
    walls = [w for w, _ in traced_rounds]
    first = traced_rounds[0][1]
    totals = []
    for _, outs in traced_rounds:
        t = {layer: 0.0 for layer in LAYERS}
        for o in outs:
            for layer, v in o.trace["layers"].items():
                if layer in t:
                    t[layer] += v["self_s"]
        totals.append(t)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(
            statistics.median(t[layer] for t in totals), "s")
        m[f"{layer}.calls"] = metric(
            sum(o.trace["layers"].get(layer, {}).get("calls", 0) for o in first),
            "count")
    startup = [o.wall_s - o.trace["main_s"] - o.trace["post_s"]
               for _, outs in traced_rounds for o in outs]
    lp_calls = sum(o.trace["lp_calls"] for o in first)
    rays = sum(checks.extremal_ray_count(o.stdout) for o in first
               if o.cmd.argv[0] == "cone")
    m["cli.startup_s"] = metric(statistics.median(startup), "s")
    m["cli.stdout_bytes"] = metric(sum(len(o.stdout) for o in first), "bytes")
    m["cones.lp_calls"] = metric(lp_calls, "count")
    m["cones.lp_columns"] = metric(
        sum(o.trace["lp_columns"] for o in first), "count")
    m["cones.lp_useful_ratio"] = metric(rays / lp_calls if lp_calls else 0.0,
                                        "ratio")
    m["qseries.cache_files_written"] = metric(
        sum(o.cache_files for o in first), "count")
    m["qseries.cache_bytes_written"] = metric(
        sum(o.cache_bytes for o in first), "bytes")
    m["qseries.coeff_bits_max"] = metric(cache_bits, "bits")
    m["trace_overhead_frac"] = metric(
        (statistics.median(walls) - ref_wall) / ref_wall, "frac")
    missing = sorted({name for o in first for name in o.trace["missing"]})
    notes = [f"{k:28s} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    notes += [
        f"cli.startup_s is the median over {len(startup)} traced commands",
        f"cones.lp_useful_ratio = {rays} extremal rays / {lp_calls} LP calls",
        f"trace_overhead_frac: traced round {statistics.median(walls):.3f} s"
        f" vs untraced {ref_wall:.3f} s",
        "missing wrapped names: " + (", ".join(missing) if missing else "none"),
    ]
    return m, notes


def compare_counters(traced_rounds) -> None:
    """A counter that differs between two traced rounds fails the command."""
    base = traced_rounds[0][1]
    for _, outs in traced_rounds[1:]:
        for a, b in zip(base, outs):
            if a.counters() != b.counters():
                b.errors.append(f"counters differ: {a.counters()} vs {b.counters()}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="record this run's stdout digests as the pins")
    args = ap.parse_args()
    if not (SRC / "cyclecones" / "cli.py").is_file():
        print(f"error: no cyclecones sources under {SRC}", file=sys.stderr)
        return 2

    cmds = workloads.commands(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(cmds)} commands"
          " per round (n = signature parameter, k = 1 + n/2 = weight)")
    for cmd in cmds:
        print("  " + cmd.describe())
    pins = None if args.write_pins else load_pins(args.workload, args.seed)
    fresh = args.workload == "scan"

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner = Runner(work)
    try:
        cache = work / "cache"
        setups = [setup(runner, args.workload, cmds, cache)]
        while not args.trace and len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S
        ):
            setups.append(setup(runner, args.workload, cmds, cache))
        budget_start = time.perf_counter()
        walls, rounds = [], []
        while True:
            wall, outs = run_round(runner, cmds, cache, False, fresh)
            check_round(outs, rounds[0] if rounds else None, pins)
            walls.append(wall)
            rounds.append(outs)
            spent = time.perf_counter() - budget_start
            if args.trace or spent + statistics.median(walls) > args.seconds:
                break
        outcomes = [o for outs in rounds for o in outs]
        if args.trace:
            traced = []
            for _ in range(TRACED_ROUNDS):
                wall, outs = run_round(runner, cmds, cache, True, fresh)
                check_round(outs, rounds[0], pins)
                for o in outs:
                    if o.trace is None:
                        o.errors.append("no trace written")
                        o.trace = NO_TRACE
                traced.append((wall, outs, coeff_bits_max(cache)))
            bits = {b for _, _, b in traced}
            compare_counters([(w, o) for w, o, _ in traced])
            if len(bits) != 1:
                traced[-1][1][0].errors.append(f"coeff_bits_max differs: {bits}")
            metrics, notes = per_layer(walls[0], [(w, o) for w, o, _ in traced],
                                       traced[0][2])
            outcomes += [o for _, outs, _ in traced for o in outs]
            (WORK / f"trace-{args.workload}.json").write_text(json.dumps(
                [{"cmd": o.cmd.describe(), "trace": o.trace}
                 for _, outs, _ in traced for o in outs], sort_keys=True))
        else:
            metrics, notes = end_to_end(setups, walls, outcomes)
        if args.write_pins:
            write_pins(args.workload, rounds[0])
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if o.errors]
    for o in failed[:20]:
        print(f"FAILED {o.cmd.describe()}: {'; '.join(o.errors)}")
    print(f"{len(walls)} untraced round(s)" + (
        f", {TRACED_ROUNDS} traced rounds" if args.trace else ""))
    for line in notes:
        print("  " + line)
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
