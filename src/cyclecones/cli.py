"""Command-line front end: identity scans, ray-convergence tables, cone
reports, and lattice utilities, with deterministic machine-readable output.

All pass/fail decisions are exact; floats appear only in display columns.
Exit codes: 0 success, 1 an exact check failed, 2 usage or input error,
a size too large to allocate, a cache file that cannot be read or
written, a temporary file that cannot be written, or a closed stdout,
141 (128 + SIGPIPE) when the reader closes stdout early, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain, islice
from pathlib import Path

# Each command imports the library modules it runs, and json only where
# JSON is read or written: without bytecode files every import compiles
# its module, so a command compiles only what it runs.

__all__ = ["main"]


# the largest --n of every command, so weight 502: the Gram matrix of
# U+U+E8^j has (n+2)^2 entries, about a million at n = 1002
_MAX_N = 1002


def _resolve_weight(n, weight) -> tuple[int, int, bool]:
    """Exactly one of n (signature) or weight may be given; k = 1 + n/2,
    and n is at most _MAX_N."""
    if (n is None) == (weight is None):
        raise ValueError("give exactly one of --n or --weight")
    if n is not None:
        if n > _MAX_N:
            raise ValueError(f"--n must be <= {_MAX_N}, got {n}")
        from .classes import weight_for_signature

        k = weight_for_signature(n)
    else:
        k = weight
        if k % 2 or k < 4:
            raise ValueError(f"--weight must be even and >= 4, got {k}")
        if k > 1 + _MAX_N // 2:
            raise ValueError(f"--weight must be <= {1 + _MAX_N // 2}, got {k}")
        n = 2 * (k - 1)
    return k, n, n % 8 == 2


def _build_config(args) -> None:
    """Check the options and write the resolved weight, n and physical
    flag onto args."""
    args.weight, args.n, args.physical = _resolve_weight(args.n, args.weight)
    max_m = args.max_m
    if max_m < 0:
        raise ValueError(f"--max-m must be >= 0, got {max_m}")
    if args.command == "cone" and max_m < 1:
        raise ValueError("cone reports need --max-m >= 1")
    if args.cache_dir is not None:
        try:
            Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use --cache-dir {args.cache_dir}: {exc}")


def _warn(msg: str) -> None:
    """Print msg to stderr; with no stderr (file descriptor 2 closed at
    start) print nothing, as print would fall back to stdout."""
    if sys.stderr is not None:
        print(msg, file=sys.stderr)


def _note_physicality(args) -> None:
    if not args.physical:
        _warn(
            f"note: weight {args.weight} is non-physical (signature "
            f"({args.n}, 2) carries no even unimodular lattice)"
        )


def _cached_basis(args):
    """The MillerBasis of args.weight, via the disk cache, at the precision
    max(max-m + 1, dim M_k) that indices up to max-m and the identity
    block need.

    A corrupt cache file is recomputed and overwritten with a warning;
    results are bit-identical either way.  The file is written to a
    temporary name in the same directory and renamed into place, so an
    interrupted or failed write never leaves a partial cache file.
    """
    from .qseries import (
        dim_mk,
        dump_miller_basis,
        load_miller_basis,
        miller_basis,
    )

    k = args.weight
    n_prec = max(args.max_m + 1, dim_mk(k))
    if args.cache_dir is None:
        return miller_basis(k, n_prec)
    path = Path(args.cache_dir) / f"miller_k{k}_N{n_prec}.txt"
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


_BLOCK_LINES = 1024


def _write_lines(lines) -> None:
    """Write each string of lines and a line break to stdout, at most
    1,024 strings per write call.  With PYTHONUNBUFFERED set, stdout is a
    raw file and each write a system call, so one call per line would make
    thousands; one string for the whole output would hold all of it in
    memory, and again encoded.  sys.stdout is read at call time, so output
    goes to whatever stdout is then (pytest's capsys replaces it)."""
    write = sys.stdout.write
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK_LINES)):
        block.append("")  # the line break after the last line
        text = "\n".join(block)
        del block  # before write makes its encoded copy
        write(text)


def _print_csv(header, rows) -> None:
    """Print the header and rows as comma-separated lines.  No field holds
    a comma, a quote or a line break, so none needs quoting."""
    _write_lines(",".join(map(str, row)) for row in chain([header], rows))


# One identities record as json.dumps(..., sort_keys=True, indent=2) lays
# it out in the record list, after the ",\n" that ends the record before
# it.  No field needs escaping: check is a literal, equal a bool, m an int,
# and lhs and rhs match -?\d+/\d+.
_RECORD = (
    ',\n    {\n      "check": "%s",\n      "equal": %s,\n      "lhs": "%s",\n'
    '      "m": %d,\n      "rhs": "%s"\n    }'
)
_SPOOL_CHUNK = 256 * 1024


def _frac_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_identities(args) -> int:
    """Both Eisenstein identity checks for 1 <= m <= max_m; exit 0 iff all
    comparisons are exactly equal.  Rows are written as the scan makes
    them.  JSON's all_equal comes before its records, so they wait in an
    anonymous temporary file and stdout gets no byte until the scan ends."""
    from .classes import eisenstein_identity_scan

    _note_physicality(args)
    failed = []  # the m of the first failed check, once it is written

    def noted(rows):
        for row in rows:
            if not (row[4] or failed):
                failed.append(row[1])
            yield row

    rows = noted(eisenstein_identity_scan(args.n, args.max_m))
    if args.format == "csv":
        _print_csv(
            ["check", "m", "n", "lhs", "rhs", "equal"],
            (
                (check, m, args.n, lhs, rhs, "true" if equal else "false")
                for check, m, lhs, rhs, equal in rows
            ),
        )
    else:
        import json
        import tempfile  # only JSON output spools

        with tempfile.TemporaryFile() as spool:
            for check, m, lhs, rhs, equal in rows:
                spool.write((_RECORD % (
                    check, "true" if equal else "false", lhs, m, rhs
                )).encode("ascii"))
            spooled = spool.tell()
            doc = {
                "all_equal": not failed,
                "max_m": args.max_m,
                "n": args.n,
                "physical": args.physical,
                "records": [None] if spooled else [],
                "weight": args.weight,
            }
            text = json.dumps(doc, sort_keys=True, indent=2)
            if not spooled:
                _write_lines([text])
            else:
                # the records go where the placeholder's line splits the
                # dump, without the first record's leading ",\n"
                head, tail = text.split("\n    null\n")
                write = sys.stdout.write
                write(head + "\n")
                spool.seek(2)
                while chunk := spool.read(_SPOOL_CHUNK).decode("ascii"):
                    write(chunk)
                    del chunk  # so that the next chunk is read in its place
                write(f"\n{tail}\n")
    if failed:
        _warn(f"identity check failed first at m = {failed[0]}")
        return 1
    return 0


def cmd_converge(args) -> int:
    """Exact ray distances toward the Kähler ray for m <= max_m."""
    from .cones import convergence_scan

    _note_physicality(args)
    basis = _cached_basis(args)
    rows = convergence_scan(
        basis, range(1, args.max_m + 1), primitive=args.primitive
    )
    if args.format == "csv":
        _print_csv(
            ["m", "distance_num", "distance_den", "distance_float"],
            (
                (m, dist.numerator, dist.denominator, repr(float(dist)))
                for m, dist in rows
            ),
        )
    else:
        import json

        doc = {
            "max_m": args.max_m,
            "n": args.n,
            "physical": args.physical,
            "primitive": args.primitive,
            "rows": [
                {
                    "den": dist.denominator,
                    "float": float(dist),
                    "m": m,
                    "num": dist.numerator,
                }
                for m, dist in rows
            ],
            "weight": args.weight,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_cone(args) -> int:
    """The library's cone report of the truncated cone model, with the
    command's n, weight and physical flag, every Fraction as p/q."""
    import json

    from .cones import cone_report

    doc = cone_report(_cached_basis(args), args.max_m)
    doc.update(n=args.n, physical=args.physical, weight=args.weight)
    if doc["pointed"]:
        doc["extremal_rays"] = [
            [_frac_str(c) for c in ray] for ray in doc["extremal_rays"]
        ]
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _parse_int_matrix(text: str, what: str):
    import json

    usage = f"{what} must be a JSON array of integer rows"
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{usage}: {exc}")
    if not (isinstance(rows, list) and rows) or not all(
        isinstance(row, list) and all(type(x) is int for x in row)
        for row in rows
    ):
        raise ValueError(f"{usage}, got {text}")
    return rows


def cmd_lattice(args) -> int:
    import json

    from .lattice import (
        HalfIntegralMatrix,
        build_even_unimodular,
        common_component_family,
        gauss_reduce,
        is_positive_definite,
        moment_matrix,
    )

    if args.subcommand == "reduce":  # a reduction reads no lattice
        rows = _parse_int_matrix(args.doubled, "--doubled")
        t = HalfIntegralMatrix(rows)
        reduced, u = gauss_reduce(t)
        doc = {
            "det": _frac_str(t.determinant()),
            "doubled": True,
            "reduced_rows": reduced.doubled,
            "rows": t.doubled,
            "u": u,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    if args.subcommand == "moment":  # bad input exits before any work
        vectors = _parse_int_matrix(args.vectors, "--vectors")
    if args.n > _MAX_N:
        raise ValueError(f"--n must be <= {_MAX_N}, got {args.n}")
    lattice = build_even_unimodular(args.n)
    if args.subcommand == "build":
        doc = {"gram": lattice.doubled, "rank": lattice.dimension,
               "signature": (args.n, 2)}
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.subcommand == "moment":
        t = moment_matrix(lattice, vectors)
        doc = {
            "dimension": t.dimension,
            "doubled": True,
            "norms": [t.doubled[i][i] // 2 for i in range(t.dimension)],
            "positive_definite": is_positive_definite(t),
            "rows": t.doubled,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    doc = common_component_family(lattice, args.m, args.jmax)
    doc["n"] = args.n
    for e in doc["entries"]:
        e["det"] = _frac_str(e["det"])
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


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
    p_id.set_defaults(run=cmd_identities, cache_dir=None)

    p_conv = sub.add_parser(
        "converge", help="exact ray distances toward the Kähler ray"
    )
    add_weight_args(p_conv)
    p_conv.add_argument("--max-m", type=int, default=200)
    p_conv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_conv.add_argument("--cache-dir")
    p_conv.add_argument(
        "--full", dest="primitive", action="store_false",
        help="scan full Heegner classes instead of primitive ones",
    )
    p_conv.set_defaults(run=cmd_converge)

    p_cone = sub.add_parser(
        "cone", help="truncated accumulation-cone report (JSON)"
    )
    add_weight_args(p_cone)
    p_cone.add_argument("--max-m", type=int, default=200)
    p_cone.add_argument("--cache-dir")
    p_cone.set_defaults(run=cmd_cone)

    p_lat = sub.add_parser("lattice", help="lattice utilities (JSON)")
    p_lat.set_defaults(run=cmd_lattice)
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    p_build = lat_sub.add_parser("build", help="Gram matrix of U+U+E8^j")
    p_build.add_argument("--n", type=int, required=True)
    p_mom = lat_sub.add_parser("moment", help="moment matrix of a tuple")
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument(
        "--vectors", required=True, help="JSON rows of lattice coordinates"
    )
    p_red = lat_sub.add_parser("reduce", help="Gauss-reduce a binary matrix")
    p_red.add_argument("--n", type=int, help="accepted and not read")
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
    """Run the command of argv, or of sys.argv when argv is None, and
    return its exit status."""
    try:
        if sys.stdout is None:  # started with file descriptor 1 closed
            _warn("error: stdout is closed")
            return 2
        parser = _build_parser()
        args = parser.parse_args(argv)
        try:
            if args.command != "lattice":
                _build_config(args)
            status = args.run(args)
            sys.stdout.flush()  # a reader gone early shows here at the latest
            return status
        except BrokenPipeError:
            # the reader closed stdout: say nothing, and point stdout at
            # os.devnull so that the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141  # 128 + SIGPIPE, the status of a writer SIGPIPE ends
        except (ValueError, OSError, OverflowError, MemoryError) as exc:
            _warn(f"error: {str(exc) or type(exc).__name__}")
            return 2
    finally:
        if argv is None:
            # main is the process's entry point (the console script and
            # python -m both call main()), and the process exits next.
            # Every object still reachable lives until then, so the full
            # collections that interpreter shutdown runs over them (about
            # 3.5 ms, most of it the site hook's objects) find nothing to
            # free.  gc.freeze() moves them where the cyclic collector
            # does not look.  Shutdown still flushes stdio, runs atexit
            # handlers and clears modules; and the command leaves no file
            # open for a collection to close.  A call main([...]) from a
            # program that goes on running never freezes its heap.
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
