"""Structural checks on CLI output that hold for every seed.

Each check returns None when the output is right, otherwise a one-line
reason.  They read only stdout, so they apply equally to traced and
untraced runs.
"""

from __future__ import annotations

import csv
import io
import json
from math import gcd

from workloads import Command


def _identities(cmd: Command, out: str):
    max_m = cmd.check["max_m"]
    if cmd.check["fmt"] == "json":
        doc = json.loads(out)
        records = doc["records"]
        if doc["all_equal"] is not True:
            return "all_equal is not true"
        equal = [r["equal"] is True for r in records]
    else:
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["check", "m", "n", "lhs", "rhs", "equal"]:
            return f"unexpected header {rows[0]}"
        records = rows[1:]
        equal = [r[5] == "true" for r in records]
    if len(records) != 2 * max_m:
        return f"{len(records)} identity rows, expected {2 * max_m}"
    if not all(equal):
        return "an identity row is not equal"
    return None


def _distance_ok(num: int, den: int) -> bool:
    return num >= 0 and den > 0 and gcd(num, den) == 1


def _converge(cmd: Command, out: str):
    max_m = cmd.check["max_m"]
    if cmd.check["fmt"] == "json":
        rows = [(r["m"], r["num"], r["den"]) for r in json.loads(out)["rows"]]
    else:
        lines = list(csv.reader(io.StringIO(out)))
        if lines[0] != ["m", "distance_num", "distance_den", "distance_float"]:
            return f"unexpected header {lines[0]}"
        rows = [(int(m), int(p), int(q)) for m, p, q, _ in lines[1:]]
    if [m for m, _, _ in rows] != list(range(1, max_m + 1)):
        return f"{len(rows)} distance rows, expected m = 1..{max_m}"
    if not all(_distance_ok(p, q) for _, p, q in rows):
        return "a distance is not a reduced p/q >= 0"
    return None


def _cone(cmd: Command, out: str):
    doc = json.loads(out)
    if doc["dim"] != doc["expected_dim"]:
        return f"dim {doc['dim']} != expected_dim {doc['expected_dim']}"
    if doc["pointed"] is not True:
        return "cone is not pointed"
    idx = doc["extremal_indices"]
    if idx != sorted(set(idx)):
        return "extremal_indices are not strictly ascending"
    if not idx or idx[0] < 0 or idx[-1] >= doc["generator_count"]:
        return "extremal_indices out of range"
    if doc["generator_count"] != cmd.check["max_m"] + 1:
        return f"generator_count {doc['generator_count']} != max-m + 1"
    return None


def _lattice_build(cmd: Command, doc):
    gram, rank = doc["gram"], cmd.n + 2
    if doc["rank"] != rank or len(gram) != rank:
        return f"rank {doc['rank']}, expected {rank}"
    if doc["signature"] != [cmd.n, 2]:
        return f"signature {doc['signature']}"
    if any(gram[i][j] != gram[j][i] for i in range(rank) for j in range(i)):
        return "gram matrix is not symmetric"
    return None


def _lattice_moment(cmd: Command, doc):
    # the benchmark's vectors are independent in a positive definite block
    if doc["positive_definite"] is not True:
        return "moment matrix is not positive definite"
    return None


def _lattice_reduce(cmd: Command, doc):
    (A, B), (_, C) = doc["reduced_rows"]
    if not 0 <= 2 * B <= A <= C:
        return f"reduced form {doc['reduced_rows']} is not Gauss reduced"
    u, rows = doc["u"], doc["rows"]
    if abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) != 1:
        return "transform is not unimodular"
    image = [
        [sum(u[a][i] * rows[a][b] * u[b][j] for a in range(2) for b in range(2))
         for j in range(2)]
        for i in range(2)
    ]
    if image != doc["reduced_rows"]:
        return "u^t T u differs from the reduced form"
    return None


def _lattice_family(cmd: Command, doc):
    if doc["dets_strictly_increasing"] is not True:
        return "family determinants do not increase strictly"
    for e in doc["entries"]:
        if not (e["moment_is_expected_diagonal"] and e["span_matches_base"]):
            return f"family entry j = {e['j']} fails its exactness checks"
    return None


_LATTICE = {
    "build": _lattice_build,
    "moment": _lattice_moment,
    "reduce": _lattice_reduce,
    "family": _lattice_family,
}


def check_output(cmd: Command, out: str):
    """None when stdout of a successful command is structurally right."""
    try:
        if cmd.argv[0] == "identities":
            return _identities(cmd, out)
        if cmd.argv[0] == "converge":
            return _converge(cmd, out)
        if cmd.argv[0] == "cone":
            return _cone(cmd, out)
        return _LATTICE[cmd.argv[1]](cmd, json.loads(out))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def extremal_ray_count(out: str) -> int:
    return len(json.loads(out).get("extremal_rays", []))
