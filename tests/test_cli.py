import errno
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ROOT, SRC
from cyclecones import classes, cli, cones, lattice, numtheory, qseries
from cyclecones.classes import eisenstein_identity_scan
from cyclecones.cli import main
from cyclecones.qseries import dim_mk, miller_basis
from oracles import (
    identities_csv_text,
    identities_json_text,
    print_csv_text,
    two_sweep_stable,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identities_small_scan(capsys):
    code, out, err = run(capsys, "identities", "--n", "10", "--max-m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,m,n,lhs,rhs,equal"
    assert lines[1] == "coefficient,1,10,-504/1,-504/1,true"
    assert lines[2] == "primitive,1,10,-504/1,-504/1,true"
    assert len(lines) == 1 + 2 * 3
    assert all(line.endswith("true") for line in lines[1:])


def test_identities_single_record(capsys):
    code, out, _ = run(capsys, "identities", "--n", "10", "--max-m", "1")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert all("-504/1,-504/1" in r for r in rows)


def test_identities_json(capsys):
    code, out, _ = run(
        capsys, "identities", "--n", "10", "--max-m", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_equal"] is True
    assert doc["weight"] == 6 and doc["physical"] is True
    assert len(doc["records"]) == 4
    assert list(doc) == sorted(doc)


def test_identities_report_a_failed_check(capsys, monkeypatch):
    # E_6 with c_4 off: its divisor sum sigma_5(4) is off by one, so c_4 is
    # off by -504.  Both checks at m = 4 read c_4 (P_4 = c_4 - c_1), and no
    # other index up to 6 does
    real = classes._divisor_sums

    def wrong_c4(s, precision):
        sums = real(s, precision)
        sums[4] += 1
        return sums

    monkeypatch.setattr(classes, "_divisor_sums", wrong_c4)
    scan = list(eisenstein_identity_scan(10, 6))
    code, out, err = run(capsys, "identities", "--n", "10", "--max-m", "6")
    assert code == 1
    assert out == identities_csv_text(10, scan)
    assert err.strip().splitlines()[-1] == "identity check failed first at m = 4"
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[1], r[-1]) for r in rows if r[-1] != "true"] == [
        ("coefficient", "4", "false"), ("primitive", "4", "false")
    ]
    assert len(rows) == 12

    code, out, err = run(
        capsys, "identities", "--n", "10", "--max-m", "6", "--format", "json"
    )
    assert code == 1
    assert out == identities_json_text(10, 6, scan)
    assert err.strip().splitlines()[-1] == "identity check failed first at m = 4"
    doc = json.loads(out)
    assert doc["all_equal"] is False
    assert [(r["check"], r["m"]) for r in doc["records"] if not r["equal"]] == [
        ("coefficient", 4), ("primitive", 4)
    ]


def test_identities_print_a_zero_side_as_0_over_1(capsys, monkeypatch):
    # E_6 with c_4 = c_1 makes P_4 = c_4 - c_1 vanish
    real = classes._divisor_sums

    def c4_is_c1(s, precision):
        sums = real(s, precision)
        sums[4] = sums[1]
        return sums

    monkeypatch.setattr(classes, "_divisor_sums", c4_is_c1)
    code, out, err = run(capsys, "identities", "--n", "10", "--max-m", "4")
    assert code == 1
    assert err.strip().splitlines()[-1] == "identity check failed first at m = 4"
    # the Euler product at 4 is 2^5 (2^5 + 1) = 1056
    assert out.splitlines()[-1] == "primitive,4,10,0/1,-532224/1,false"

    code, out, _ = run(
        capsys, "identities", "--n", "10", "--max-m", "4", "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["records"][-1] == {
        "check": "primitive", "equal": False, "lhs": "0/1", "m": 4,
        "rhs": "-532224/1",
    }


def test_identities_usage_errors(capsys):
    code, _, err = run(capsys, "identities", "--n", "11", "--max-m", "5")
    assert code == 2 and "error" in err
    code, _, err = run(
        capsys, "identities", "--n", "10", "--weight", "6", "--max-m", "2"
    )
    assert code == 2
    code, _, err = run(capsys, "identities", "--weight", "7", "--max-m", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("identities", "--n", "10", "--max-m", str(10**21)),
    ("converge", "--n", "10", "--max-m", str(10**21)),
    ("cone", "--n", "10", "--max-m", str(10**21)),
])
def test_size_too_large_to_allocate_exits_2(capsys, argv):
    # a list of that length cannot be asked for: it fails before allocating
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # what a size that fits an index but not memory raises, without
    # asking for that memory
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(classes, "_divisor_sums", out_of_memory)
    code, out, err = run(capsys, "identities", "--n", "10", "--max-m", "10")
    assert (code, out, err) == (2, "", "error: MemoryError\n")


class CountingSink(io.TextIOBase):
    """A stdout that counts write calls and characters; with keep=True it
    also keeps the text."""

    def __init__(self, keep=False):
        self.calls = self.chars = 0
        self.parts = [] if keep else None

    def write(self, text):
        self.calls += 1
        self.chars += len(text)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def text(self):
        return "".join(self.parts)


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2048, 3000])
def test_write_lines_sends_at_most_1024_lines_per_call(monkeypatch, count):
    lines = [f"line {i}" for i in range(count)]
    sink = CountingSink(keep=True)
    monkeypatch.setattr(sys, "stdout", sink)
    cli._write_lines(iter(lines))
    assert sink.text() == "".join(line + "\n" for line in lines)
    assert sink.calls == math.ceil(count / 1024)
    assert all(part.count("\n") <= 1024 for part in sink.parts)


# 2 max_m records: 0 is the empty list, 511 to 513 straddle the 1,024-line
# blocks; n = 22 is non-physical
@pytest.mark.parametrize("n", [10, 22, 50])
@pytest.mark.parametrize("max_m", [0, 1, 511, 512, 513, 3001])
def test_identities_output_is_the_former_printing(capsys, n, max_m):
    rows = list(eisenstein_identity_scan(n, max_m))
    argv = ("identities", "--n", str(n), "--max-m", str(max_m))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == identities_csv_text(n, rows)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == identities_json_text(n, max_m, rows)


@pytest.mark.parametrize("max_m", [0, 1, 1023, 1024])
def test_converge_csv_is_the_former_printing(capsys, max_m):
    code, out, _ = run(capsys, "converge", "--n", "34", "--max-m", str(max_m))
    assert code == 0
    assert out == print_csv_text(
        [["m", "distance_num", "distance_den", "distance_float"]]
        + [
            [m, d.numerator, d.denominator, repr(float(d))]
            for m, d in cones.convergence_scan(
                miller_basis(18, max(max_m + 1, 2)), range(1, max_m + 1)
            )
        ]
    )


def test_identities_json_is_written_in_blocks(monkeypatch):
    # a writer of one record per call would make about 6,000 calls; under
    # PYTHONUNBUFFERED each call is a system call
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    code = main(
        ["identities", "--n", "18", "--max-m", "3001", "--format", "json"]
    )
    assert code == 0
    records = 2 * 3001
    assert sink.calls <= math.ceil(records / 1024) + 2
    assert sink.chars == len(identities_json_text(
        18, 3001, list(eisenstein_identity_scan(18, 3001))
    ))


def _traced(function, *args):
    """Size of what function(*args) leaves allocated and its peak, both
    in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        kept = function(*args)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return size, peak


def _scan_rows(n, max_m):
    return list(eisenstein_identity_scan(n, max_m))


@pytest.mark.parametrize("argv", [
    ("identities", "--n", "18", "--max-m", "3001", "--format", "json"),
    ("identities", "--n", "42", "--max-m", "1999"),
])
def test_identities_output_needs_less_than_the_rows_again(monkeypatch, argv):
    # one json.dumps of the whole document peaked at 5.9 times the rows,
    # printing the CSV from one joined string at 2.7 times
    n, max_m = int(argv[2]), int(argv[4])
    rows_size, _ = _traced(_scan_rows, n, max_m)
    monkeypatch.setattr(sys, "stdout", CountingSink())
    _, peak = _traced(main, list(argv))
    assert peak < 2 * rows_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [18, 42])
def test_identities_memory_does_not_grow_with_the_rows(monkeypatch, n, fmt):
    # holding every row before writing, the peak grew by 0.84 to 1.05
    # times the rows' growth from max-m 1,500 to 3,000
    argv = ["identities", "--n", str(n), "--format", fmt, "--max-m"]
    monkeypatch.setattr(sys, "stdout", CountingSink())
    main(argv + ["1"])  # fills the caches that outlive a command
    rows = [_traced(_scan_rows, n, max_m)[0] for max_m in (1500, 3000)]
    peaks = [_traced(main, argv + [str(max_m)])[1] for max_m in (1500, 3000)]
    assert peaks[1] - peaks[0] < 0.4 * (rows[1] - rows[0])


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FillingSpool(io.BytesIO):
    """A temporary file on a disk that is full after 100 writes."""

    room = 100

    def write(self, data):
        if not self.room:
            _no_space()
        self.room -= 1
        return super().write(data)


@pytest.mark.parametrize("spool", [_no_space, FillingSpool])
def test_identities_spool_that_cannot_be_written_exits_2(
    capsys, monkeypatch, spool
):
    # the JSON head waits for the scan, so stdout has not had a byte yet
    monkeypatch.setattr(tempfile, "TemporaryFile", spool)
    code, out, err = run(
        capsys, "identities", "--n", "18", "--max-m", "500", "--format", "json"
    )
    assert (code, out) == (2, "")
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_converge_empty_table(capsys):
    code, out, _ = run(capsys, "converge", "--n", "10", "--max-m", "0")
    assert code == 0
    assert out == "m,distance_num,distance_den,distance_float\n"


def test_converge_weight_6_zeros(capsys):
    code, out, _ = run(capsys, "converge", "--n", "10", "--max-m", "4")
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows == [f"{m},0,1,0.0" for m in range(1, 5)]


@pytest.mark.parametrize("argv", [
    ("converge", "--precision", "10"),
    ("cone", "--precision", "10"),
    ("converge", "--primitive"),
], ids=["converge-precision", "cone-precision", "converge-primitive"])
def test_removed_options_are_usage_errors(capsys, argv):
    # the basis precision follows from --max-m, and primitive classes are
    # the default that --full turns off
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "10", "--max-m", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("max_m, name", [
    (0, "miller_k26_N2.txt"), (40, "miller_k26_N41.txt"),
])
def test_basis_precision_follows_max_m(tmp_path, capsys, max_m, name):
    # max(max-m + 1, dim M_26 = 2): indices up to max-m and the identity
    # block
    argv = ("converge", "--n", "50", "--max-m", str(max_m),
            "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    assert [f.name for f in tmp_path.iterdir()] == [name]


def test_converge_nonphysical_weight_notice(capsys):
    code, out, err = run(capsys, "converge", "--weight", "16", "--max-m", "2")
    assert code == 0
    assert "non-physical" in err


def test_converge_full_vs_primitive(capsys):
    code, full, _ = run(
        capsys, "converge", "--weight", "18", "--max-m", "4", "--full"
    )
    assert code == 0
    code, prim, _ = run(capsys, "converge", "--weight", "18", "--max-m", "4")
    assert code == 0
    assert full.splitlines()[:4] == prim.splitlines()[:4]  # header + 1..3
    assert full.splitlines()[4] != prim.splitlines()[4]  # m = 4 differs


def test_cone_report(capsys):
    code, out, _ = run(capsys, "cone", "--n", "10", "--max-m", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1 and doc["pointed"] is True
    assert doc["generator_count"] == 21
    assert doc["extremal_rays"] == [["-1/1"]]
    assert doc["extremal_stable"] is True
    assert list(doc) == sorted(doc)


def test_cone_dim_2(capsys):
    code, out, _ = run(capsys, "cone", "--n", "34", "--max-m", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 == doc["expected_dim"]
    assert doc["pointed"] is True and doc["extremal_stable"] is True


def test_cone_report_runs_the_pointedness_lp_once(capsys, monkeypatch):
    columns = []
    lp = cones.lp_feasible

    def counted(n_vars, *args, **kwargs):
        columns.append(n_vars)
        return lp(n_vars, *args, **kwargs)

    monkeypatch.setattr(cones, "lp_feasible", counted)
    code, _, _ = run(capsys, "cone", "--n", "34", "--max-m", "200")
    assert code == 0
    # one pointedness LP of 201 columns and one extremality sweep, of the
    # cone only: a second sweep of the half cone made 307 / 807, a
    # pointedness LP of 101 columns for it 308 / 908, and checking the
    # cone's pointedness twice 309 / 1,109
    assert (len(columns), sum(columns)) == (204, 604)
    assert columns.count(201) == 1 and 101 not in columns

    columns.clear()
    code, _, _ = run(capsys, "cone", "--n", "130", "--max-m", "63")
    assert code == 0
    # the two sweeps made 137 / 770
    assert (len(columns), sum(columns)) == (85, 513)

    columns.clear()
    code, out, _ = run(capsys, "cone", "--weight", "4", "--max-m", "30")
    assert code == 0
    assert len(columns) == 1
    assert out == (
        "{\n"
        '  "dim": 1,\n'
        '  "expected_dim": 1,\n'
        '  "generator_count": 31,\n'
        '  "half_max_m": 15,\n'
        '  "max_m": 30,\n'
        '  "n": 6,\n'
        '  "physical": false,\n'
        '  "pointed": false,\n'
        '  "weight": 4\n'
        "}\n"
    )


def test_cone_report_stability_matches_the_two_sweep_answer(capsys):
    tally = {True: 0, False: 0, None: 0}
    for k in range(4, 63, 2):
        for max_m in (1, 2, 3, 5, 8, 13, 30, 61):
            code, out, _ = run(
                capsys, "cone", "--weight", str(k), "--max-m", str(max_m)
            )
            assert code == 0
            doc = json.loads(out)
            stable = doc.get("extremal_stable")
            if doc["pointed"]:
                basis = miller_basis(k, max(max_m + 1, dim_mk(k)))
                cone = cones.accumulation_cone_model(basis, max_m)
                half_m = doc["half_max_m"]
                assert stable == two_sweep_stable(cone, half_m), (k, max_m)
            else:
                assert stable is None
            tally[stable] += 1
    assert tally == {True: 97, False: 83, None: 60}


@st.composite
def prefix_cones(draw):
    """A small integer cone, pointed by its positive first coordinates,
    whose few rays repeat on both sides of a random half_m."""
    dim = draw(st.integers(2, 3))
    coord = st.integers(-3, 3)
    rays = draw(st.lists(st.tuples(st.integers(1, 3), *[coord] * (dim - 1)),
                         min_size=1, max_size=5))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(rays) - 1), st.integers(1, 3)),
        min_size=2, max_size=10,
    ))
    gens = tuple(tuple(f * c for c in rays[i]) for i, f in picks)
    return cones.Cone(gens), draw(st.integers(1, len(gens) - 1))


def _cone_of(*gens):
    return cones.Cone(gens)


@settings(max_examples=150, deadline=None)
@given(prefix_cones())
# the extremal ray of (1, 1) has a generator on each side of half_m = 1
@example((_cone_of((1, 1), (1, -1), (2, 2), (3, -3), (1, 0)), 1))
@example((_cone_of((1, 1), (1, 0), (2, 2), (1, -1)), 1))
def test_cone_report_stability_on_random_prefixes(case):
    # the report on this cone, with max-m = 2 half_m so that its half
    # cone is generators 0..half_m
    cone, half_m = case
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        mp.setattr(cones, "accumulation_cone_model", lambda basis, m: cone)
        code = main(["cone", "--weight", "6", "--max-m", str(2 * half_m)])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["half_max_m"] == half_m and doc["pointed"] is True
    assert doc["extremal_stable"] == two_sweep_stable(cone, half_m)


def test_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ("converge", "--n", "34", "--max-m", "8", "--cache-dir", cache)
    code, cold, err_cold = run(capsys, *argv)
    assert code == 0
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].name == "miller_k18_N9.txt"
    code, warm, err_warm = run(capsys, *argv)
    assert code == 0
    assert warm == cold
    assert err_warm == ""

    # reuse across commands: cone at the same precision hits the same file
    code, _, err = run(
        capsys, "cone", "--n", "34", "--max-m", "8", "--cache-dir", cache
    )
    assert code == 0
    assert len(list((tmp_path / "cache").iterdir())) == 1

    # corrupt cache: warn, recompute and rewrite, byte-identical output;
    # "-4284/1" is f_1's q^3 coefficient, "0/1 1/1" starts row f_1
    good = files[0].read_text()
    assert good.count("-4284/1") == 1 and good.count("\n0/1 1/1 ") == 1
    for bad in (
        "truncated nonsense",
        good.replace("-4284/1", "-4284/5"),  # not an integer
        good.replace("\n0/1 1/1 ", "\n0/1 2/1 "),  # breaks the identity block
    ):
        files[0].write_text(bad)
        code, again, err = run(capsys, *argv)
        assert code == 0
        assert again == cold
        assert "corrupt" in err
        assert files[0].read_text() == good


# "-8568/2" equals -4284, but only "n/1" is the format of an integer
@pytest.mark.parametrize("token", ["-8568/2", "2/0"])
def test_cache_token_not_written_n_over_1_is_corrupt(tmp_path, capsys, token):
    cache = tmp_path / "cache"
    argv = ("converge", "--n", "34", "--max-m", "8", "--cache-dir", str(cache))
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    path = cache / "miller_k18_N9.txt"
    good = path.read_text()
    path.write_text(good.replace("-4284/1", token))
    code, again, err = run(capsys, *argv)
    assert code == 0
    assert again == cold
    assert "corrupt" in err and "not an integer" in err
    assert path.read_text() == good


def test_bad_cache_dir_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    def no_basis(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(qseries, "miller_basis", no_basis)
    regular_file = tmp_path / "file"
    regular_file.write_text("")
    for command in ("converge", "cone"):
        code, out, err = run(
            capsys, command, "--n", "10", "--max-m", "5",
            "--cache-dir", str(regular_file / "x"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--cache-dir" in err


def test_cache_write_failure_leaves_no_cache_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    argv = ("converge", "--n", "34", "--max-m", "8", "--cache-dir", str(cache))
    code, expected, _ = run(capsys, "converge", "--n", "34", "--max-m", "8")
    assert code == 0
    real_write_text = Path.write_text

    def write_half_then_fail(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(Path, "write_text", write_half_then_fail)
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "No space left" in err
    assert list(cache.iterdir()) == []

    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected
    assert [f.name for f in cache.iterdir()] == ["miller_k18_N9.txt"]


def _cli_process(*argv, stdout, **environ):
    env = dict(os.environ, **environ)
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout, as for any pipe
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "cyclecones.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


def test_closed_stdout_exits_141_quietly():
    # the reader takes one line and closes the pipe; the 0.4 MB of output
    # cannot fit in a pipe buffer, so the writer meets the closed end
    argv = ("identities", "--n", "10", "--max-m", "3000")
    with _cli_process(*argv, stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"check,m,n,lhs,rhs,equal\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=300) == 141
    # the JSON is about 1 MB, and any of its block writes may meet the
    # closed end
    with _cli_process(*argv, "--format", "json", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=300) == 141


def test_identities_leave_no_spool_file(tmp_path):
    # the JSON records wait in a temporary file; it must be gone whether
    # the command ends or the reader leaves early
    argv = ("identities", "--n", "18", "--max-m", "3000", "--format", "json")
    env = {"TMPDIR": str(tmp_path)}
    with _cli_process(*argv, stdout=subprocess.PIPE, **env) as proc:
        out, err = proc.communicate(timeout=300)
    assert (proc.returncode, err) == (0, b"")
    assert json.loads(out)["all_equal"] is True
    assert list(tmp_path.iterdir()) == []
    with _cli_process(*argv, stdout=subprocess.PIPE, **env) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=300) == 141
    assert list(tmp_path.iterdir()) == []


def test_unbuffered_stdout_gets_every_byte():
    # under PYTHONUNBUFFERED stdout is a raw file: each block is one write
    argv = ("identities", "--n", "18", "--max-m", "600", "--format", "json")
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecones.cli", *argv],
        capture_output=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == identities_json_text(
        18, 600, list(eisenstein_identity_scan(18, 600))
    )


def test_stdout_closed_before_a_short_output_exits_141_quietly():
    # a short output stays in the buffer until the flush at the end of main
    read_end, write_end = os.pipe()
    os.close(read_end)
    with _cli_process("lattice", "build", "--n", "10", stdout=write_end) as proc:
        os.close(write_end)
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=300) == 141


def _cli_with_fd_closed(fd, *argv):
    """Run the CLI in a process started with file descriptor fd closed,
    so that sys.stdout (fd 1) or sys.stderr (fd 2) is None; the
    trampoline closes fd and then execs the CLI in its place.  The other
    of stdout and stderr is captured."""
    close_and_run = (
        f"import os, sys; os.close({fd}); "
        "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    other = "stderr" if fd == 1 else "stdout"
    return subprocess.run(
        [sys.executable, "-c", close_and_run, "-m", "cyclecones.cli", *argv],
        env=env, timeout=300, **{other: subprocess.PIPE},
    )


def test_closed_stdout_at_start_exits_2_before_any_work(tmp_path):
    cache = tmp_path / "cache"
    for argv in (
        ("lattice", "build", "--n", "10"),
        ("identities", "--n", "10", "--max-m", "5"),
        ("identities", "--n", "10", "--max-m", "5", "--format", "json"),
        ("converge", "--n", "18", "--max-m", "5", "--cache-dir", str(cache)),
    ):
        proc = _cli_with_fd_closed(1, *argv)
        assert (proc.returncode, proc.stderr) == (
            2, b"error: stdout is closed\n"
        ), argv
    assert not cache.exists()  # the options were not even read


def test_closed_stderr_at_start_puts_no_message_on_stdout(capsys):
    # with sys.stderr None, print(msg, file=sys.stderr) writes to stdout
    proc = _cli_with_fd_closed(2, "identities", "--n", "11")
    assert (proc.returncode, proc.stdout) == (2, b"")
    argv = ("converge", "--weight", "16", "--max-m", "2")
    code, out, err = run(capsys, *argv)
    assert (code, err.startswith("note: ")) == (0, True)
    proc = _cli_with_fd_closed(2, *argv)
    assert (proc.returncode, proc.stdout) == (0, out.encode())


def test_unreadable_cache_file_exits_2(tmp_path, capsys):
    # a directory where the cache file belongs: reading it raises
    # IsADirectoryError, which is an input error, not a failed check
    (tmp_path / "miller_k6_N6.txt").mkdir()
    for command in ("converge", "cone"):
        code, out, err = run(
            capsys, command, "--n", "10", "--max-m", "5",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "miller_k6_N6.txt" in err


def test_readme_cli_examples_run(tmp_path, capsys):
    # the cyclecones lines of the README's CLI block, each run as written
    # but for its cache directory; a removed option would exit 2
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    lines = [shlex.split(line, comments=True)
             for line in block.splitlines() if line.startswith("cyclecones ")]
    assert len(lines) >= 9
    for argv in lines:
        argv = [str(tmp_path) if a == ".cache" else a for a in argv[1:]]
        assert run(capsys, *argv)[0] == 0, argv


def test_lattice_build(capsys):
    code, out, _ = run(capsys, "lattice", "build", "--n", "10")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["gram"]) == 12
    assert doc["signature"] == [10, 2]


def test_lattice_moment(capsys):
    code, out, _ = run(
        capsys,
        "lattice", "moment", "--n", "10",
        "--vectors", "[[1,1,0,0,0,0,0,0,0,0,0,0],[0,0,1,2,0,0,0,0,0,0,0,0]]",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[2, 0], [0, 4]]
    assert doc["norms"] == [1, 2]
    assert doc["positive_definite"] is True


def test_lattice_reduce(capsys):
    code, out, _ = run(
        capsys, "lattice", "reduce", "--n", "10", "--doubled", "[[4,3],[3,4]]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced_rows"] == [[2, 1], [1, 4]]
    assert doc["det"] == "7/4"

    # semidefinite, indefinite, and not binary
    for doubled in (
        "[[2,2],[2,2]]", "[[2,3],[3,2]]", "[[2,0,0],[0,2,0],[0,0,2]]"
    ):
        argv = ("lattice", "reduce", "--n", "10", "--doubled", doubled)
        assert run(capsys, *argv) == (
            2, "", "error: reduction needs a positive definite binary matrix\n"
        )

    # HalfIntegralMatrix's ValueError is an input error like any other
    for doubled, message in (
        ("[[4,3],[3]]", "matrix must be square"),
        ("[[4,3],[2,4]]", "matrix must be symmetric"),
        ("[[3,1],[1,4]]", "diagonal of T must be integral (doubled even)"),
    ):
        argv = ("lattice", "reduce", "--doubled", doubled)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_lattice_reduce_reads_no_lattice(capsys):
    # no even unimodular lattice has signature (11, 2), and a reduction
    # needs none: --n is accepted and not read
    argv = ("lattice", "reduce", "--doubled", "[[4,3],[3,4]]")
    code, out, err = run(capsys, *argv, "--n", "11")
    assert (code, err) == (0, "")
    assert (0, out, "") == run(capsys, *argv)
    code, _, err = run(capsys, "lattice", "build", "--n", "11")
    assert code == 2 and "no even unimodular lattice" in err


@pytest.mark.parametrize("argv", [
    ("lattice", "build", "--n", "1000002"),
    ("lattice", "moment", "--vectors", "[[1]]", "--n", "1000002"),
    ("lattice", "family", "--m", "1", "--jmax", "1", "--n", "1000002"),
    ("identities", "--max-m", "3", "--n", "1006"),
    ("converge", "--max-m", "3", "--n", "1000002"),
    ("cone", "--max-m", "3", "--n", "1006"),
    ("identities", "--max-m", "3", "--weight", "504"),
    ("converge", "--max-m", "3", "--weight", "504"),
    ("cone", "--max-m", "3", "--weight", "1000002"),
], ids=lambda argv: argv[1] if argv[0] == "lattice"
   else f"{argv[0]}-{argv[-2][2:]}")
def test_lattice_n_above_the_ceiling_exits_2_before_any_work(
    capsys, monkeypatch, argv
):
    # every command takes --n up to 1002, so --weight up to 502: the Gram
    # matrix of U+U+E8^j has (n+2)^2 entries, and a Miller basis or the
    # Bernoulli numbers of a weight without bound would run for minutes.
    # Building any of them fails the test
    def guard(name):
        def reached(*args):
            raise AssertionError(f"{name} reached with {args}")
        return reached

    monkeypatch.setattr(lattice, "build_even_unimodular", guard("lattice"))
    monkeypatch.setattr(qseries, "miller_basis", guard("miller_basis"))
    monkeypatch.setattr(numtheory, "bernoulli", guard("bernoulli"))
    flag, value = argv[-2:]
    limit = 1002 if flag == "--n" else 502
    assert run(capsys, *argv) == (
        2, "", f"error: {flag} must be <= {limit}, got {value}\n"
    )


def test_lattice_n_at_the_ceiling_runs(capsys):
    code, out, err = run(capsys, "lattice", "build", "--n", "1002")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["rank"] == 1004 and doc["signature"] == [1002, 2]
    # the other commands take the same ceiling, as --n or as its weight
    assert cli._resolve_weight(1002, None) == cli._resolve_weight(None, 502)
    # a reduction builds no lattice, so its --n has no ceiling
    argv = ("lattice", "reduce", "--doubled", "[[4,3],[3,4]]")
    assert run(capsys, *argv, "--n", "1000002") == run(capsys, *argv)


def test_lattice_family(capsys):
    code, out, _ = run(
        capsys, "lattice", "family", "--n", "10", "--m", "3", "--jmax", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dets_strictly_increasing"] is True
    assert [e["det"] for e in doc["entries"]] == [
        "3/1", "12/1", "27/1", "48/1", "75/1"
    ]
    assert all(e["span_matches_base"] for e in doc["entries"])


@pytest.mark.parametrize("n, m, jmax", [(10, 3, 5), (18, 7, 12), (26, 30, 8)])
def test_lattice_family_prints_the_library_report(capsys, n, m, jmax):
    # the command adds n and writes each det as p/q, and decides nothing
    report = lattice.common_component_family(n, m, jmax)
    report["n"] = n
    for e in report["entries"]:
        e["det"] = f"{e['det'].numerator}/{e['det'].denominator}"
    argv = ("lattice", "family", "--n", str(n), "--m", str(m),
            "--jmax", str(jmax))
    assert run(capsys, *argv) == (
        0, json.dumps(report, sort_keys=True, indent=2) + "\n", ""
    )


@pytest.mark.parametrize("m, jmax, message", [
    ("0", "5", "norm must be >= 1, got 0"),
    ("3", "1", "need j_max >= 2 for a family, got 1"),
], ids=["m-0", "jmax-1"])
def test_lattice_family_checks_its_arguments_before_any_work(
    capsys, monkeypatch, m, jmax, message
):
    def reached(*args):
        raise AssertionError(f"build_even_unimodular reached with {args}")

    monkeypatch.setattr(lattice, "build_even_unimodular", reached)
    argv = ("lattice", "family", "--n", "1002", "--m", m, "--jmax", jmax)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("vectors, message", [
    ("bad", "--vectors must be a JSON array of integer rows: Expecting value: "
            "line 1 column 1 (char 0)"),
    ("[[1.5]]", "--vectors must be a JSON array of integer rows, got [[1.5]]"),
    ("[]", "--vectors must be a JSON array of integer rows, got []"),
], ids=["not-json", "a-float", "no-rows"])
def test_lattice_moment_reads_its_vectors_before_any_work(
    capsys, monkeypatch, vectors, message
):
    def reached(*args):
        raise AssertionError(f"build_even_unimodular reached with {args}")

    monkeypatch.setattr(lattice, "build_even_unimodular", reached)
    for n in ("10", "1002", "1000002"):
        argv = ("lattice", "moment", "--n", n, "--vectors", vectors)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_determinism(capsys):
    runs = [
        run(capsys, "cone", "--n", "34", "--max-m", "12")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_cli_import_loads_no_dataclasses_inspect_or_csv(run_python):
    # -S keeps site-packages start-up hooks out of the module list
    proc = run_python(
        "-S", "-c",
        "import sys, cyclecones.cli; "
        "print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_IDENTITY_MODULES = ["classes", "cli", "numtheory"]
_LATTICE_MODULES = ["cli", "lattice", "linalg", "numtheory"]
_CONVERGE_MODULES = ["classes", "cli", "cones", "numtheory", "qseries"]
_CONE_MODULES = ["classes", "cli", "cones", "linalg", "numtheory", "qseries"]


@pytest.mark.parametrize("argv, modules, loads_json", [
    pytest.param("identities --n 18 --max-m 20", _IDENTITY_MODULES, False,
                 id="identities"),
    pytest.param("identities --n 18 --max-m 20 --format json",
                 _IDENTITY_MODULES, True, id="identities-json"),
    pytest.param("lattice build --n 10", _LATTICE_MODULES, True,
                 id="lattice-build"),
    pytest.param("lattice moment --n 10 --vectors [[1,1,0,0,0,0,0,0,0,0,0,0]]",
                 _LATTICE_MODULES, True, id="lattice-moment"),
    pytest.param("lattice reduce --doubled [[4,3],[3,4]]", _LATTICE_MODULES,
                 True, id="lattice-reduce"),
    pytest.param("lattice family --n 10 --m 3 --jmax 2", _LATTICE_MODULES,
                 True, id="lattice-family"),
    pytest.param("converge --n 34 --max-m 20", _CONVERGE_MODULES, False,
                 id="converge"),
    pytest.param("converge --n 34 --max-m 20 --format json",
                 _CONVERGE_MODULES, True, id="converge-json"),
    pytest.param("cone --n 34 --max-m 20", _CONE_MODULES, True, id="cone"),
])
def test_each_command_loads_only_the_modules_it_runs(
    run_python, argv, modules, loads_json
):
    # without bytecode files each module a command imports is compiled
    # again on every run; -S keeps site-packages hooks out of sys.modules
    proc = run_python(
        "-S", "-c",
        "import sys; from cyclecones.cli import main; "
        "code = main(sys.argv[1:]); sys.stdout.flush(); "
        "print(code, sorted(m.split('.')[1] for m in sys.modules "
        "if m.startswith('cyclecones.')), 'json' in sys.modules, "
        "file=sys.stderr)",
        *argv.split(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == f"0 {modules} {loads_json}"


# main() as the console script and python -m call it, with the arguments
# that -c leaves in sys.argv; the atexit hook is registered first, so it
# runs last, after any hook that main registers
_FREEZE_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
from cyclecones.cli import main
sys.exit(main())
"""


@pytest.mark.parametrize("argv, status", [
    ("identities --n 18 --max-m 20", 0),
    ("lattice build --n 10", 0),
    ("converge --n 34 --max-m 20", 0),
    ("identities --n 11", 2),  # a usage error that main reports
])
def test_process_entry_point_freezes_the_heap(run_python, argv, status):
    proc = run_python("-S", "-c", _FREEZE_PROBE, *argv.split())
    assert proc.returncode == status, proc.stderr
    word, count = proc.stderr.splitlines()[-1].split()
    assert word == "frozen" and int(count) > 0, proc.stderr


def test_in_process_main_does_not_freeze_the_heap(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "lattice", "build", "--n", "10")[0] == 0
    assert gc.get_freeze_count() == before


# after main returns, the open files other than the standard streams and
# the buffers and raw files under them, garbage cycles included
_OPEN_FILES_PROBE = """\
import gc, io, sys
from cyclecones.cli import main
code = main(sys.argv[1:])
std = set()
for f in (sys.stdin, sys.stdout, sys.stderr):
    while f is not None:
        std.add(id(f))
        f = getattr(f, "buffer", None) or getattr(f, "raw", None)
print(code, [repr(o) for o in gc.get_objects() if isinstance(o, io.IOBase)
             and id(o) not in std and not o.closed], file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    "lattice build --n 10",
    "identities --n 18 --max-m 200 --format json",  # spools its records
    "converge --n 34 --max-m 20 --cache-dir CACHE",  # writes the cache
    "cone --n 34 --max-m 20 --cache-dir CACHE",
])
def test_no_file_is_left_open_after_main(run_python, tmp_path, argv):
    # the process freezes its heap once main returns, so the collections
    # at exit would not close a file that a garbage cycle holds
    argv = [str(tmp_path) if a == "CACHE" else a for a in argv.split()]
    proc = run_python("-S", "-c", _OPEN_FILES_PROBE, *argv)
    assert (proc.returncode, proc.stderr) == (0, "0 []\n")
    assert proc.stdout
    if "--cache-dir" in argv:
        assert [f.name for f in tmp_path.iterdir()] == ["miller_k18_N21.txt"]


@pytest.mark.parametrize("argv", [
    "identities --n 18 --max-m 200 --format json",
    "converge --n 34 --max-m 20 --cache-dir CACHE",
])
def test_dev_mode_entry_point_warns_of_nothing(run_python, tmp_path, argv):
    # -X dev warns of each file that is never closed, and -W error makes
    # that an error; the output matches a plain run's
    runs = []
    for flags in (("-X", "dev", "-W", "error"), ()):
        cache = str(tmp_path / f"cache{len(runs)}")
        args = [cache if a == "CACHE" else a for a in argv.split()]
        proc = run_python(*flags, "-m", "cyclecones.cli", *args)
        assert (proc.returncode, proc.stderr) == (0, ""), flags
        runs.append(proc.stdout)
    assert runs[0] and runs[0] == runs[1]


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--n", "10", "--vectors", "[1,2]"],
        ["reduce", "--n", "10", "--doubled", '[[1,"a"]]'],
        ["moment", "--n", "10", "--vectors", "[[true,0,0,0,1,0,0,0,0,0,0,0]]"],
        ["reduce", "--n", "10", "--doubled", "[[2,false],[false,2]]"],
    ],
)
def test_matrix_input_rejected_with_asserts_stripped(run_optimized, argv):
    proc = run_optimized("-m", "cyclecones.cli", "lattice", *argv)
    assert proc.returncode == 2, proc.stderr
    assert "must be a JSON array of integer rows" in proc.stderr
    assert proc.stdout == ""
