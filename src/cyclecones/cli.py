"""Command-line front end: identity scans, ray-convergence tables, cone
reports, and lattice utilities, with deterministic machine-readable output.

All pass/fail decisions are exact; floats appear only in display columns.
Exit codes: 0 success, 1 an exact check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .classes import eisenstein_identity_scan, weight_for_signature
from .cones import (
    NotPointedError,
    accumulation_cone_model,
    convergence_scan,
    extremal_generators,
    extremal_rays,
    canonicalize,
    span_dimension,
)
from .lattice import (
    HalfIntegralMatrix,
    build_even_unimodular,
    common_component_family,
    gauss_reduce,
    gram_to_json,
    is_positive_definite,
    moment_matrix,
    norm_q,
)
from .numtheory import _Record
from .qseries import (
    MillerBasis,
    dim_mk,
    dump_miller_basis,
    load_miller_basis,
    miller_basis,
)

__all__ = ["main", "RunConfig"]


class UsageError(Exception):
    pass


class RunConfig(_Record):
    """Resolved invocation: weight and signature, truncation, precision,
    output format, cache directory.  Unlike the other value classes it is
    mutable, and therefore unhashable."""

    __slots__ = ("command", "weight", "n", "physical", "max_m", "precision",
                 "fmt", "cache_dir", "primitive")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        command: str,
        weight: int,
        n: int,
        physical: bool,
        max_m: int,
        precision: int,
        fmt: str,
        cache_dir: str | None,
        primitive: bool = True,
    ) -> None:
        self.command = command
        self.weight = weight
        self.n = n
        self.physical = physical
        self.max_m = max_m
        self.precision = precision
        self.fmt = fmt
        self.cache_dir = cache_dir
        self.primitive = primitive


def _resolve_weight(n, weight) -> tuple[int, int, bool]:
    """Exactly one of n (signature) or weight may be given; k = 1 + n/2."""
    if (n is None) == (weight is None):
        raise UsageError("give exactly one of --n or --weight")
    if n is not None:
        k = weight_for_signature(n)
    else:
        k = weight
        if k % 2 or k < 4:
            raise UsageError(f"--weight must be even and >= 4, got {k}")
        n = 2 * (k - 1)
    return k, n, n % 8 == 2


def _build_config(args) -> RunConfig:
    k, n, physical = _resolve_weight(args.n, args.weight)
    max_m = args.max_m
    if max_m < 0:
        raise UsageError(f"--max-m must be >= 0, got {max_m}")
    precision = args.precision
    if precision is None:
        precision = max_m + 1
    if precision < max_m + 1:
        raise UsageError(
            f"--precision {precision} too small: need at least max-m + 1 = "
            f"{max_m + 1}"
        )
    if args.command == "cone" and max_m < 1:
        raise UsageError("cone reports need --max-m >= 1")
    if args.cache_dir is not None:
        try:
            Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot use --cache-dir {args.cache_dir}: {exc}")
    return RunConfig(
        command=args.command,
        weight=k,
        n=n,
        physical=physical,
        max_m=max_m,
        precision=precision,
        fmt=args.format,
        cache_dir=args.cache_dir,
        primitive=args.primitive,
    )


def _warn(msg: str) -> None:
    print(msg, file=sys.stderr)


def _note_physicality(cfg: RunConfig) -> None:
    if not cfg.physical:
        _warn(
            f"note: weight {cfg.weight} is non-physical (signature "
            f"({cfg.n}, 2) carries no even unimodular lattice)"
        )


def _cached_basis(cfg: RunConfig) -> MillerBasis:
    """Miller basis of cfg.weight at cfg.precision, via the disk cache.

    A corrupt cache file is recomputed and overwritten with a warning;
    results are bit-identical either way.  The file is written to a
    temporary name in the same directory and renamed into place, so an
    interrupted or failed write never leaves a partial cache file.
    """
    k = cfg.weight
    n_prec = max(cfg.precision, dim_mk(k), 1)
    if cfg.cache_dir is None:
        return miller_basis(k, n_prec)
    path = Path(cfg.cache_dir) / f"miller_k{k}_N{n_prec}.txt"
    if path.exists():
        try:
            basis = load_miller_basis(path.read_text())
            if basis.weight == k and basis.precision == n_prec:
                return basis
            raise ValueError("header does not match requested basis")
        except (ValueError, ArithmeticError) as exc:
            _warn(f"warning: ignoring corrupt cache file {path}: {exc}")
    basis = miller_basis(k, n_prec)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(dump_miller_basis(basis))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return basis


def _print_csv(rows) -> None:
    """Print rows as comma-separated lines.  No field holds a comma, a quote
    or a line break, so none needs quoting."""
    print("\n".join(",".join(map(str, row)) for row in rows))


def _frac_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_identities(cfg: RunConfig) -> int:
    """Both Eisenstein identity checks for 1 <= m <= max_m; exit 0 iff all
    comparisons are exactly equal."""
    _note_physicality(cfg)
    records = eisenstein_identity_scan(cfg.n, cfg.max_m)
    first_failing = next((r.m for _, r in records if not r.equal), None)
    if cfg.fmt == "csv":
        _print_csv(
            [["check", "m", "n", "lhs", "rhs", "equal"]]
            + [[check] + rep.record().split(", ") for check, rep in records]
        )
    else:
        doc = {
            "all_equal": first_failing is None,
            "max_m": cfg.max_m,
            "n": cfg.n,
            "physical": cfg.physical,
            "records": [
                {
                    "check": check,
                    "equal": rep.equal,
                    "lhs": _frac_str(rep.lhs),
                    "m": rep.m,
                    "rhs": _frac_str(rep.rhs),
                }
                for check, rep in records
            ],
            "weight": cfg.weight,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    if first_failing is not None:
        _warn(f"identity check failed first at m = {first_failing}")
        return 1
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    """Exact ray distances toward the Kähler ray for m <= max_m."""
    _note_physicality(cfg)
    basis = _cached_basis(cfg)
    rows = convergence_scan(
        cfg.weight, range(1, cfg.max_m + 1), primitive=cfg.primitive, basis=basis
    )
    if cfg.fmt == "csv":
        _print_csv(
            [["m", "distance_num", "distance_den", "distance_float"]]
            + [
                [m, dist.numerator, dist.denominator, repr(float(dist))]
                for m, dist in rows
            ]
        )
    else:
        doc = {
            "max_m": cfg.max_m,
            "n": cfg.n,
            "physical": cfg.physical,
            "primitive": cfg.primitive,
            "rows": [
                {
                    "den": dist.denominator,
                    "float": float(dist),
                    "m": m,
                    "num": dist.numerator,
                }
                for m, dist in rows
            ],
            "weight": cfg.weight,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_cone(cfg: RunConfig) -> int:
    """Span dimension, pointedness, extremal rays, and a stabilization
    comparison at max_m/2 versus max_m for the truncated cone model."""
    basis = _cached_basis(cfg)
    cone = accumulation_cone_model(cfg.weight, cfg.max_m, basis)
    half_m = max(1, cfg.max_m // 2)
    half_cone = accumulation_cone_model(cfg.weight, half_m, basis)
    doc = {
        "dim": span_dimension(cone),
        "expected_dim": dim_mk(cfg.weight),
        "generator_count": len(cone.generators),
        "half_max_m": half_m,
        "max_m": cfg.max_m,
        "n": cfg.n,
        "physical": cfg.physical,
        "weight": cfg.weight,
    }
    try:
        idx = extremal_generators(cone)
    except NotPointedError:
        doc["pointed"] = False
    else:
        doc["pointed"] = True
        rays = sorted(
            {canonicalize(cone.generators[j]) for j in idx},
            key=lambda r: r.canonical,
        )
        doc["extremal_indices"] = idx
        doc["extremal_rays"] = [
            [_frac_str(c) for c in r.canonical] for r in rays
        ]
        doc["extremal_stable"] = extremal_rays(half_cone) == set(rays)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _parse_int_matrix(text: str, what: str):
    usage = f"{what} must be a JSON array of integer rows"
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{usage}: {exc}")
    if not (isinstance(rows, list) and rows) or not all(
        isinstance(row, list) and all(type(x) is int for x in row)
        for row in rows
    ):
        raise UsageError(f"{usage}, got {text}")
    return rows


def cmd_lattice(args) -> int:
    if args.n is None:
        raise UsageError("give the signature via --n")
    lattice = build_even_unimodular(args.n)
    if args.subcommand == "build":
        print(gram_to_json(lattice))
        return 0
    if args.subcommand == "moment":
        vectors = _parse_int_matrix(args.vectors, "--vectors")
        t = moment_matrix(lattice, [tuple(v) for v in vectors])
        doc = {
            "dimension": t.dimension,
            "doubled": True,
            "norms": [t.doubled[i][i] // 2 for i in range(t.dimension)],
            "positive_definite": is_positive_definite(t),
            "rows": [list(row) for row in t.doubled],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    if args.subcommand == "reduce":
        rows = _parse_int_matrix(args.doubled, "--doubled")
        try:
            t = HalfIntegralMatrix(tuple(tuple(r) for r in rows))
        except ValueError as exc:
            raise UsageError(str(exc))
        if t.dimension != 2 or not is_positive_definite(t):
            raise UsageError(
                "reduction needs a positive definite binary matrix"
            )
        reduced, u = gauss_reduce(t)
        doc = {
            "det": _frac_str(t.determinant()),
            "doubled": True,
            "reduced_rows": [list(row) for row in reduced.doubled],
            "rows": [list(row) for row in t.doubled],
            "u": [list(row) for row in u],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    if args.subcommand == "family":
        entries = common_component_family(lattice, args.m, args.jmax)
        dets = [e.determinant for e in entries]
        doc = {
            "base_norm": norm_q(lattice, entries[0].vectors[1]),
            "dets_strictly_increasing": all(
                a < b for a, b in zip(dets, dets[1:])
            ),
            "entries": [
                {
                    "det": _frac_str(e.determinant),
                    "j": e.j,
                    "moment_doubled": [list(r) for r in e.moment.doubled],
                    "moment_is_expected_diagonal": e.moment_is_expected_diagonal,
                    "span_matches_base": e.span_matches_base,
                    "vectors": [list(v) for v in e.vectors],
                }
                for e in entries
            ],
            "jmax": args.jmax,
            "m": args.m,
            "n": args.n,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    raise UsageError(f"unknown lattice subcommand {args.subcommand!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclecones",
        description="Exact identity scans, ray convergence tables, cone "
        "reports, and lattice utilities for special-cycle classes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_weight_args(p):
        p.add_argument("--n", type=int, help="signature parameter n of (n, 2)")
        p.add_argument(
            "--weight",
            type=int,
            help="form weight k directly (non-physical weights allowed)",
        )

    p_id = sub.add_parser(
        "identities", help="check both Eisenstein identities exactly"
    )
    add_weight_args(p_id)
    p_id.add_argument("--max-m", type=int, default=200)
    p_id.add_argument("--format", choices=("csv", "json"), default="csv")
    p_id.set_defaults(precision=None, cache_dir=None, primitive=True)

    p_conv = sub.add_parser(
        "converge", help="exact ray distances toward the Kähler ray"
    )
    add_weight_args(p_conv)
    p_conv.add_argument("--max-m", type=int, default=200)
    p_conv.add_argument("--precision", type=int)
    p_conv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_conv.add_argument("--cache-dir")
    flag = p_conv.add_mutually_exclusive_group()
    flag.add_argument(
        "--primitive", dest="primitive", action="store_true", default=True,
        help="scan primitive Heegner classes (default)",
    )
    flag.add_argument(
        "--full", dest="primitive", action="store_false",
        help="scan full Heegner classes instead",
    )

    p_cone = sub.add_parser(
        "cone", help="truncated accumulation-cone report (JSON)"
    )
    add_weight_args(p_cone)
    p_cone.add_argument("--max-m", type=int, default=200)
    p_cone.add_argument("--precision", type=int)
    p_cone.add_argument("--cache-dir")
    p_cone.set_defaults(format="json", primitive=True)

    p_lat = sub.add_parser("lattice", help="lattice utilities (JSON)")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    p_build = lat_sub.add_parser("build", help="Gram matrix of U+U+E8^j")
    p_build.add_argument("--n", type=int, required=True)
    p_mom = lat_sub.add_parser("moment", help="moment matrix of a tuple")
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument(
        "--vectors", required=True, help="JSON rows of lattice coordinates"
    )
    p_red = lat_sub.add_parser("reduce", help="Gauss-reduce a binary matrix")
    p_red.add_argument("--n", type=int, default=10)
    p_red.add_argument(
        "--doubled", required=True, help="doubled matrix as JSON integer rows"
    )
    p_fam = lat_sub.add_parser(
        "family", help="common-component family of moment matrices"
    )
    p_fam.add_argument("--n", type=int, required=True)
    p_fam.add_argument("--m", type=int, required=True)
    p_fam.add_argument("--jmax", type=int, required=True)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "lattice":
            return cmd_lattice(args)
        cfg = _build_config(args)
        if args.command == "identities":
            return cmd_identities(cfg)
        if args.command == "converge":
            return cmd_converge(cfg)
        if args.command == "cone":
            return cmd_cone(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as exc:
        _warn(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
