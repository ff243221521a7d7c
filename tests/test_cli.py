import csv
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfrob import cli
from ellfrob.cli import _dumps, main
from ellfrob.forms import MAX_MULTINOMIAL_N
from ellfrob.psi import MAX_STREAM_ENTRIES
from ellfrob.verify import MAX_SWEEP_PAIRS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hasse_json(capsys):
    code, out = run_cli(capsys, "hasse", "--p", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == "5"
    assert doc["terms"] == [["1", "0", "2"]]


def test_hasse_rejects_composite(capsys):
    code, _ = run_cli(capsys, "hasse", "--p", "15")
    assert code == 1


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "--p", "13", "--a", "0", "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "ordinary"
    assert doc["delta_unit"] is True


def test_lift_mod1_ok(capsys):
    code, out = run_cli(capsys, "lift", "--p", "13", "--a", "0", "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True


def test_lift_not_ordinary_exits_1(capsys):
    code, _ = run_cli(capsys, "lift", "--p", "5", "--a", "0", "--b", "1")
    assert code == 1


def test_lift_mod2(capsys):
    code, out = run_cli(capsys, "lift", "--p", "13", "--a", "1", "--b", "1",
                        "--mod", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["branch"] == "general"


def test_eigen_numeric(capsys):
    code, out = run_cli(capsys, "eigen", "--p", "13", "--a", "1", "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"p", "a", "b", "v0", "theta", "det"}


def test_eigen_symbolic(capsys):
    code, out = run_cli(capsys, "eigen", "--p", "13")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["theta"]) == {"const", "z4prime", "z6prime"}
    assert "num" in doc["det"]


def test_scan_json_and_csv(capsys):
    code, out_json = run_cli(capsys, "scan", "--pmin", "11", "--pmax", "17")
    assert code == 0
    rows = json.loads(out_json)
    assert [r["p"] for r in rows] == ["11", "13", "17"]
    assert [r["constant_c"] for r in rows] == ["4", "2", "12"]
    code, out_csv = run_cli(capsys, "scan", "--pmin", "11", "--pmax", "17",
                            "--format", "csv")
    assert code == 0
    table = list(csv.reader(io.StringIO(out_csv)))
    assert table[0][0] == "p"
    assert len(table) == 4
    assert table[1][0] == "11" and table[1][7] == "4"


def test_scan_csv_inferred_from_out_suffix(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, "scan", "--pmin", "11", "--pmax", "13",
                      "--out", str(out))
    assert code == 0
    table = list(csv.reader(io.StringIO(out.read_text())))
    assert table[0][0] == "p" and len(table) == 3


def test_scan_deterministic_across_threads(capsys, monkeypatch):
    monkeypatch.setenv("HD_THREADS", "1")
    _, one = run_cli(capsys, "scan", "--pmin", "11", "--pmax", "31")
    monkeypatch.setenv("HD_THREADS", "4")
    _, four = run_cli(capsys, "scan", "--pmin", "11", "--pmax", "31")
    assert one == four


def test_verify_all_p5(capsys):
    code, out = run_cli(capsys, "verify-all", "--p", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == "0"
    assert doc["pairs"] == "25"


def test_verify_all_sampled_mod2(capsys):
    code, out = run_cli(capsys, "verify-all", "--p", "13", "--mod", "2",
                        "--samples", "12", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == "0"


def test_constants(capsys):
    code, out = run_cli(capsys, "constants", "--p", "13")
    assert code == 0
    doc = json.loads(out)
    # 13 = 1 mod 3 and 1 mod 4: both constant families present
    assert {"beta_1", "beta_4", "beta", "alpha_2", "alpha_4", "alpha"} <= set(doc)


def test_hasse_out_file(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _ = run_cli(capsys, "hasse", "--p", "11", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["terms"] == [["1", "1", "9"]]


@pytest.mark.parametrize("argv, error", [
    (("eigen", "--p", "5"), "PrimeTooSmall"),
    (("eigen", "--p", "7"), "PrimeTooSmall"),
    (("scan", "--pmin", "5", "--pmax", "7"), "PrimeTooSmall"),
    (("hasse", "--p", "11", "--mod", "0"), "InvalidModulus"),
    (("verify-all", "--p", "5", "--mod", "2"), "DomainError"),
    (("verify-all", "--p", "7", "--mod", "2"), "DomainError"),
    # 13^17 >= 2^62, past int64 coefficient storage
    (("hasse", "--p", "13", "--mod", "17"), "InvalidModulus"),
    # pivot-branch pairs: the pivot rows (p+5)/2, (p+7)/2 pass p - 1
    (("lift", "--p", "5", "--a", "1", "--b", "1", "--mod", "2"),
     "PrimeTooSmall"),
    (("lift", "--p", "7", "--a", "0", "--b", "1", "--mod", "2"),
     "PrimeTooSmall"),
    (("eigen", "--p", "5", "--a", "1", "--b", "2"), "PrimeTooSmall"),
    (("eigen", "--p", "7", "--a", "1", "--b", "1"), "PrimeTooSmall"),
])
def test_domain_edges_exit_1_with_one_typed_line(capsys, argv, error):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(error + ": ")


def test_b0_lift_at_p_5(capsys):
    """A b = 0 pair takes the b0 solve, which has no pivot rows, so it
    still constructs and verifies at p = 5."""
    code, out = run_cli(capsys, "lift", "--p", "5", "--a", "1", "--b", "0",
                        "--mod", "2")
    doc = json.loads(out)
    assert code == 0
    assert (doc["branch"], doc["verified"]) == ("b0", True)


def _refused_at_once(argv):
    """Run the CLI in a fresh process: exit 1 within a second, with one
    InputTooLarge line on stderr; returns the stderr lines."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ellfrob.cli", *argv],
                          capture_output=True, text=True)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("InputTooLarge: ")
    return lines


@pytest.mark.parametrize("argv", [
    ("hasse", "--p", "2147483647"),
    ("classify", "--p", "2147483647", "--a", "1", "--b", "1"),
])
def test_huge_prime_is_refused_before_the_table(argv):
    """At p = 2^31 - 1 the multinomial table of H would hold some 2^30
    ints; the command is refused with one line naming the size and the
    bound, at once."""
    lines = _refused_at_once(argv)
    assert "1073741823" in lines[0] and str(MAX_MULTINOMIAL_N) in lines[0]


# the stream tables of the largest prime, past MAX_STREAM_ENTRIES: scan
# builds alpha and beta, eigen these and G_1..G_4; a range is refused by its
# largest prime, 100003 here
@pytest.mark.parametrize("argv, streams, p", [
    (("eigen", "--p", "2147483647"), 6, 2 ** 31 - 1),
    (("scan", "--pmin", "2147483647", "--pmax", "2147483647"), 2, 2 ** 31 - 1),
    (("eigen", "--p", "1000003"), 6, 1000003),
    (("scan", "--pmin", "100000", "--pmax", "100010"), 2, 100003),
])
def test_stream_tables_past_the_bound_are_refused_at_once(argv, streams, p):
    nmax = (p + 7) // 2
    size = streams * (nmax + 1) * (nmax // 3 + 1)
    lines = _refused_at_once(argv)
    assert "%d stream tables" % streams in lines[0]
    assert str(size) in lines[0] and str(MAX_STREAM_ENTRIES) in lines[0]


# without --samples the p^2 tasks are past MAX_SWEEP_PAIRS; with one sample
# the pair's H is past the multinomial bound
@pytest.mark.parametrize("argv, size, bound", [
    (("verify-all", "--p", "2147483647"), (2 ** 31 - 1) ** 2, MAX_SWEEP_PAIRS),
    (("verify-all", "--p", "2147483647", "--samples", "1"), 2 ** 30 - 1,
     MAX_MULTINOMIAL_N),
])
def test_sweep_past_its_bounds_is_refused_before_the_task_list(argv, size,
                                                               bound):
    lines = _refused_at_once(argv)
    assert str(size) in lines[0] and str(bound) in lines[0]


def test_memory_error_is_one_typed_line(capsys, monkeypatch):
    """A MemoryError (numpy's, for a table past free memory) ends the run
    with exit 1 and one stderr line. The real allocation is not made: under
    overcommit a large table can be killed instead of raising."""
    def constants(p):
        raise MemoryError("Unable to allocate 3.03 TiB for an array with "
                          "shape (333335, 1000002, 5) and data type int64")

    monkeypatch.setattr(cli, "branch_constants", constants)
    code = main(["constants", "--p", "13"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("MemoryError: ")


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ellfrob.cli", "hasse",
                           "--p", "7"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == "7"


def test_verify_all_deterministic_across_threads(capsys, monkeypatch):
    argv = ("verify-all", "--p", "13", "--mod", "2")
    monkeypatch.setenv("HD_THREADS", "1")
    _, one = run_cli(capsys, *argv)
    monkeypatch.setenv("HD_THREADS", "2")
    _, two = run_cli(capsys, *argv)
    assert one == two


def test_scan_to_101_same_on_one_and_two_workers(capsys, monkeypatch):
    argv = ("scan", "--pmin", "11", "--pmax", "101")
    monkeypatch.setenv("HD_THREADS", "1")
    _, one = run_cli(capsys, *argv)
    monkeypatch.setenv("HD_THREADS", "2")
    _, two = run_cli(capsys, *argv)
    assert one == two and one.count("\n") > 20


@pytest.mark.parametrize("argv", [
    ("hasse", "--p", "x"),
    ("frobnicate",),
    ("eigen", "--p", "13", "--a", "1"),
    ("verify-all", "--p", "13", "--samples", "-3"),
    ("lift", "--p", "13", "--a", "0", "--b", "1", "--mod", "2",
     "--branch", "general"),
])
def test_usage_errors_exit_1_with_one_typed_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("UsageError: ")


def _matrix(p):
    """Every subcommand at the prime p, in the forms the CLI offers."""
    sp = str(p)
    return [
        ("hasse", "--p", sp),
        ("hasse", "--p", sp, "--mod", "2"),
        ("classify", "--p", sp, "--a", "1", "--b", "1"),
        ("lift", "--p", sp, "--a", "1", "--b", "1"),
        ("lift", "--p", sp, "--a", "1", "--b", "1", "--mod", "2"),
        ("lift", "--p", sp, "--a", "0", "--b", "1", "--mod", "2"),
        ("lift", "--p", sp, "--a", "1", "--b", "0", "--mod", "2"),
        ("eigen", "--p", sp),
        ("eigen", "--p", sp, "--a", "1", "--b", "1"),
        ("scan", "--pmin", sp, "--pmax", sp),
        ("scan", "--pmin", sp, "--pmax", sp, "--format", "csv"),
        ("verify-all", "--p", sp),
        ("verify-all", "--p", sp, "--mod", "2", "--samples", "4"),
        ("constants", "--p", sp),
    ]


@pytest.mark.parametrize("argv", [a for p in (5, 7, 11) for a in _matrix(p)],
                         ids=" ".join)
def test_cli_matrix_exits_0_or_1(capsys, argv):
    """Small primes reach the domain edges of every subcommand: each run
    succeeds or is refused with one typed stderr line, never a traceback
    and never exit 2."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and re.fullmatch(r"[A-Za-z]+: .+", lines[0])


@pytest.mark.parametrize("argv, name", [
    (("hasse", "--p", "13"), "h.json"),
    (("scan", "--pmin", "11", "--pmax", "11"), "rows.csv"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, name):
    out = tmp_path / "missing" / name
    code = main(list(argv) + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("UsageError: ")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "-4", "0"])
def test_bad_hd_threads_is_a_usage_error(capsys, monkeypatch, threads):
    monkeypatch.setenv("HD_THREADS", threads)
    code = main(["scan", "--pmin", "11", "--pmax", "11"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("UsageError: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: ellfrob" in capsys.readouterr().out


# SHA-256 of stdout, each recorded before a change it guards; the last two
# before the a = 0 class moved onto the general pivot solve
@pytest.mark.parametrize("argv, digest", [
    (("eigen", "--p", "37"),
     "99f6762bcddd7a41be46c383b9a21d3ea4de6d2a58c5885af59b4485c3c5c071"),
    (("scan", "--pmin", "11", "--pmax", "101", "--format", "csv"),
     "6cf3f0b3dc4e37f7af749b6125eee103d9c592e62e6d9e309f7d96b03686dd4a"),
    (("eigen", "--p", "127"),
     "a2d10358dd22e9f7919992dc308348ee58135ebaa8ef23c9ffb8de516d293f81"),
    (("lift", "--p", "13", "--a", "0", "--b", "1", "--mod", "2"),
     "a71032731da913c05f9a032c9d7925272d611e008a78793706cab4ec90240b49"),
    (("verify-all", "--p", "19", "--mod", "2"),
     "a8331d0eff90db2a14424aa27df30b3a459dd97203622bd645dd510afe8de714"),
    # recorded before WPoly moved onto coefficient arrays
    (("hasse", "--p", "499"),
     "447e97ab10535a78b7ecbce22b2c1fcf1b9d843ad070afd794cfa872f8fafa4c"),
    (("hasse", "--p", "13", "--mod", "3"),
     "a8742f17b36091882e2bab0a110e28c7ef1e5f4670da30c19a5abb91d3613032"),
    (("eigen", "--p", "151"),
     "42cfcec2fd9d13530bf1e5dad44a876c6504e5d79655484af93a7722c6399b18"),
    # recorded before the psi tower moved onto stream tables; primes past
    # the 499 ceiling of the perfbench references
    (("scan", "--pmin", "500", "--pmax", "700", "--format", "csv"),
     "7eab59368e1be5006343d1f774a852d80920f623e87f547116b9b46bed54691f"),
    # recorded before the structured product lane and balanced FFT limbs
    (("lift", "--p", "211", "--a", "5", "--b", "7", "--mod", "2"),
     "bf3ed699770cf3e3e9b941d92df1176c192fc886ffe525cc6d4fa2666b50b054"),
    # recorded before the JSON writer replaced json.dumps: the JSON shapes
    # with bools, nulls, nested lists and dicts of every other command
    (("scan", "--pmin", "11", "--pmax", "61", "--format", "json"),
     "929ee680c2d892e0d8cb4d1a474b9bee7085c553b3891fbb57b0eea4c7c30b36"),
    (("constants", "--p", "13"),
     "6dca2cf02bb6352cb67199aa5a64fa4d7aa53f09514297d5d535b50e120d015c"),
    (("classify", "--p", "13", "--a", "2", "--b", "3"),
     "3c2cbbe30836cf6ed86ef9f2f3d41351cf9fc9b6af8e71892854e5d22bc11c43"),
    (("eigen", "--p", "13", "--a", "2", "--b", "3"),
     "a197e0449a17668c1ce41435b27a52d0da9c6ca8e9faded4ffcfaa1924f2ef42"),
    (("verify-all", "--p", "13", "--mod", "1", "--samples", "5"),
     "0364e918c135e78642fa2a4376f5d83c30b02a2d41c8df1f3fde9f8873e16305"),
    # recorded while moduli past 2^31 had object-array storage: 13^16 just
    # below 2^62, and 101^9
    (("hasse", "--p", "13", "--mod", "16"),
     "68b8b7172f1d64b4cf979c029fc6769a4040e408bcb3c9c316b292cbbc90d301"),
    (("hasse", "--p", "101", "--mod", "9"),
     "f1e164fe0d8c06c3b875f0dced2aa59140a55fc2e3d50469df6febf070b7b305"),
    # recorded while mod-p sweeps ran pair by pair: every pair of p = 31, and
    # sampled pairs from [0, p^2) at p = 101
    (("verify-all", "--p", "31", "--mod", "1"),
     "1f61fca19c03e044a25196d02f6a3ee9cc2a3d320079e7e2a56f98b25e16d982"),
    (("verify-all", "--p", "101", "--mod", "1", "--samples", "100", "--seed",
      "3"),
     "fafbb0629e908b10eb8644de0ccdcd042dce5cd7c3ea386e076b7757c228753d"),
    # recorded while mod-p^2 sweeps ran pair by pair: every pair of p = 17
    # (b = 0 rows), and sampled pairs from [0, p^3) at p = 29
    (("verify-all", "--p", "17", "--mod", "2"),
     "00772b41542e70450db9882a8cd8dbc578a532398d7ac1394962d34c9236ec62"),
    (("verify-all", "--p", "29", "--mod", "2", "--samples", "40", "--seed",
      "3"),
     "b45fe748664ffae4e0ecac475bf7a0a37917ab722296b60aaf12e060edf59ccb"),
])
def test_stdout_golden(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("eigen", "--p", "37"),
    ("scan", "--pmin", "11", "--pmax", "31", "--format", "json"),
    ("verify-all", "--p", "13", "--mod", "1", "--samples", "5"),
    ("classify", "--p", "13", "--a", "2", "--b", "3"),
])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    out = tmp_path / "doc.json"
    _, printed = run_cli(capsys, *argv)
    code, rest = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0 and rest == ""
    assert out.read_bytes() == printed.encode()


def _stringify(obj):
    """The canonical form the writer replaces: every int a decimal string,
    every key str(key), recursively; bools stay bools."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def _oracle(obj):
    return json.dumps(_stringify(obj), sort_keys=True, indent=2)


_TEXT = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t\r", "\u00e9", "\u2028", "\U0001f600",
     "\ud800", "%d", "%s %%", ""])
_INTS = (st.integers() | st.integers(2 ** 64, 2 ** 200)
         | st.integers(-2 ** 200, -2 ** 64))
_SCALARS = (st.none() | st.booleans() | st.floats() | _INTS | _TEXT)
_CELLS = _INTS | _TEXT | st.booleans() | st.lists(_INTS, max_size=3)


def _row_lists(cells):
    """Rows of one length k, as lists or tuples, and rows of mixed lengths."""
    equal = st.integers(0, 4).flatmap(lambda k: st.lists(
        st.lists(cells, min_size=k, max_size=k) | st.tuples(*[cells] * k),
        max_size=6))
    return equal | st.lists(st.lists(cells, max_size=4), max_size=6)


_DOCS = st.recursive(
    _SCALARS | _row_lists(_INTS) | _row_lists(_INTS | _TEXT)
    | _row_lists(_CELLS),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_INTS | _TEXT | st.booleans(), kids,
                                    max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_DOCS)
def test_writer_matches_json_dumps_of_the_stringified_doc(doc):
    assert _dumps(doc) == _oracle(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), [[]], [(), ()], {1: "a", "1": "b"}, {"b": {}, "a": [[]]},
    [[1, 2, 3], [4, 5, 6]], [[1, "x"], (2, "y\n")], [[1, 2], [3]],
    [[1, True], [2, False]], [[1, [2]], [3, [4]]], [[-1, 2 ** 70]],
    [[1.5, 2]], [float("nan"), float("-inf"), -0.0], {None: None},
])
def test_writer_edge_shapes(doc):
    assert _dumps(doc) == _oracle(doc)


@pytest.mark.parametrize("doc", [
    {"x": object()}, [[1, Fraction(1, 2)]], [Fraction(1, 2)], {"s": {1, 2}},
])
def test_writer_raises_where_json_dumps_raises(doc):
    with pytest.raises(TypeError):
        _oracle(doc)
    with pytest.raises(TypeError):
        _dumps(doc)


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    """main builds its parser once per process. A run of calls whose options
    differ (--mod given, then defaulted; eigen with and without --a/--b)
    prints, call by call, the bytes that a freshly built parser prints."""
    from ellfrob import cli
    calls = [["lift", "--p", "13", "--a", "2", "--b", "3", "--mod", "2"],
             ["lift", "--p", "13", "--a", "2", "--b", "3"],
             ["eigen", "--p", "13", "--a", "2", "--b", "3"],
             ["eigen", "--p", "13"],
             ["lift", "--p", "13", "--a", "2", "--b", "3", "--mod", "2"],
             ["verify-all", "--p", "13", "--samples", "3"],
             ["verify-all", "--p", "13", "--mod", "2", "--samples", "3"]]
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0] * len(calls)


_FAULTS_PER_CALL = """
import contextlib, io, resource
from ellfrob.cli import main
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify-all", "--p", "31", "--mod", "1"])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
def test_repeated_sweeps_reuse_freed_memory():
    """main keeps freed blocks in the heap (cli module doc, Allocator): a
    second and a third sweep in one process fault in under a tenth of the
    pages of the first. Under glibc's defaults each call faults about as
    many as the first, since every product's temporaries are handed back
    to the kernel and faulted in again."""
    env = dict(os.environ, HD_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL], env=env,
                          capture_output=True, text=True, check=True)
    rows = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    assert [code for code, _ in rows] == [0, 0, 0]
    first, second, third = [faults for _, faults in rows]
    assert second * 10 < first and third * 10 < first, (first, second, third)


def test_no_mallopt_is_a_no_op(capsys, monkeypatch):
    """Where the C library has no mallopt, main runs as it does with one."""
    _, expected = run_cli(capsys, "constants", "--p", "13")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._recycle_freed_memory.cache_clear()
    try:
        code, out = run_cli(capsys, "constants", "--p", "13")
    finally:
        cli._recycle_freed_memory.cache_clear()
    assert code == 0 and out == expected
