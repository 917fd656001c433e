"""Start CLI commands one at a time on request and report each one's wall
time, exit status and peak RSS.

usage: python spawner.py   (requests on stdin, replies on stdout)

Each request is one JSON line {"argv", "cwd", "stdout", "stderr",
"timeout"}, and children inherit this process's environment.  Each reply
is one JSON line {"wall_s", "returncode", "maxrss_kb"}.  The spawner
exits when stdin closes.

A child's ru_maxrss counts the resident size of the process it was forked
from, because the kernel folds the forking process's memory high-water
mark into the child's at exec.  run.py holds every command's stdout and
grows past the size of a small CLI command, so it starts children through
this process, which stays smaller than any of them.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                cwd=req["cwd"])
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN
            # would fold in every earlier child too
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "returncode": proc.returncode,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
