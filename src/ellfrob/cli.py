"""Command-line surface: hasse, classify, lift, eigen, scan, verify-all,
constants. Exit codes: 0 success, 1 domain error (a usage error and an
input past a size bound included) or a MemoryError, 2 internal invariant
failure; each failure is one stderr line. HD_THREADS sets parallelism.

JSON output is canonical: keys str(key), sorted, indent 2, every int a
decimal string, bools, nulls and floats as json writes them, strings with
ASCII escapes; scan also writes CSV. These are the bytes of json.dumps(doc,
sort_keys=True, indent=2) with the ints of doc made strings, and _dumps
writes them itself: json runs its C encoder only when indent is None, so
with indent=2 every string of a long WPoly term list went through its
pure-Python generator. _dumps writes a list of equal-length rows of ints,
such as a term list, with one format string.

Allocator. ``main`` first calls ``_recycle_freed_memory``, which sets two
glibc malloc thresholds once per process: M_MMAP_THRESHOLD to 32 MiB, the
ceiling of glibc's own dynamic threshold on 64-bit hosts, and
M_TRIM_THRESHOLD to 64 MiB. By default glibc hands every freed block of
128 KiB or more back to the kernel, by munmap or by trimming the top of
the heap, and the product lanes of ``upoly`` and ``psi`` free such blocks
all the time: FFT spectra, limb sums, stacked rows. The next product then
faults the same pages in again. With the thresholds raised, a freed block
below 32 MiB stays in the heap and the next product reuses it; larger
arrays stay mmapped. In one process, three calls of
``main(["verify-all", "--p", "31", "--mod", "1"])`` took 9.7K, 10.1K and
10.1K minor faults under glibc's defaults and 1.5K, 4 and 2 under these
thresholds; ``verify-all --p 101 --mod 1`` in a fresh process went from
363K faults and 2.6 s to 7.5K and 2.1 s, at the same 42.7 MB peak RSS.
Thresholds of 8 and 16 MiB made ``lift --p 1999 --mod 2`` fault more
than glibc's defaults (about 300K against 145K faults, 3.1-3.3 s against
2.8 s); 32 and 64 MiB took it to 95K. The thresholds are set here and not
at import, so a library caller of ``verify_pair`` and the like keeps its
host's allocator policy; the forked workers of ``verify.parallel_map``
inherit them. Where ctypes finds no C library ``mallopt`` the helper
does nothing. No arithmetic changes, so every output stays
byte-identical.
"""

import argparse
import csv
import ctypes
import functools
import io
import itertools
import json
import os
import sys

from .errors import DomainError, InternalError, UsageError
from .forms import classify_pair, hasse_poly
from .liftp2 import (branch_constants, solve_eigen_numeric,
                     solve_eigen_symbolic)
from .liftp import CurveContext
from .psi import conjecture_scan
from .residue import PrimePower, is_prime
from .verify import exhaustive_verify, verify_pair

SCAN_COLUMNS = ["p", "class_mod_12", "psi_degree", "degree_ok", "golem_01",
                "golem_10", "proportional", "constant_c", "counterexample"]


_ESCAPE = json.encoder.encode_basestring_ascii


def _dumps(obj):
    """The text json.dumps(obj, sort_keys=True, indent=2) gives once every
    int in obj is a decimal string and every key is str(key) (module doc)."""
    parts = []
    _put(obj, "\n", parts)
    return "".join(parts)


def _put(obj, nl, parts):
    """Append the text of obj to parts; nl is a newline and the indent of
    the line obj starts on."""
    if isinstance(obj, (dict, list, tuple)) and obj:
        inner = nl + "  "
        if isinstance(obj, dict):
            sep = "{" + inner
            for k, v in sorted({str(k): v for k, v in obj.items()}.items()):
                parts.append(sep + _ESCAPE(k) + ": ")
                _put(v, inner, parts)
                sep = "," + inner
            parts.append(nl + "}")
            return
        rows = _rows(obj, inner)
        if rows is not None:
            parts.append("[" + inner + rows + nl + "]")
            return
        sep = "[" + inner
        for v in obj:
            parts.append(sep)
            _put(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(obj, dict):
        parts.append("{}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[]")
    elif isinstance(obj, int) and not isinstance(obj, bool):
        parts.append('"%d"' % obj)
    elif isinstance(obj, str):
        parts.append(_ESCAPE(obj))
    else:
        parts.append(json.dumps(obj))


def _rows(obj, nl):
    """The items of obj, each at the indent of nl, when obj is a list of
    equal-length nonempty rows of ints (a WPoly term list): one format
    string for all rows. None for any other list."""
    if not set(map(type, obj)) <= {list, tuple}:
        return None
    lengths = set(map(len, obj))
    if len(lengths) != 1 or 0 in lengths:
        return None
    flat = tuple(itertools.chain.from_iterable(obj))
    if set(map(type, flat)) != {int}:
        return None
    inner = nl + "  "
    row = "[" + inner + ("," + inner).join(['"%d"'] * lengths.pop())
    return ("," + nl).join([row + nl + "]"] * len(obj)) % flat


def _write(text, out):
    """text to the file out, or to stdout when out is None; a file that
    cannot be written is a usage error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write %s: %s" % (out, e.strerror or e)) from None


def _emit(obj, out=None):
    _write(_dumps(obj) + "\n", out)


def _workers():
    """HD_THREADS as a worker count: 1 when unset, else a positive decimal
    integer."""
    raw = os.environ.get("HD_THREADS", "1")
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise UsageError("HD_THREADS must be a positive integer, got %r" % raw)
    return int(raw)


def _require_prime(p):
    if not is_prime(p) or p in (2, 3):
        raise DomainError("p = %d is not a prime >= 5" % p)


def cmd_hasse(args):
    _require_prime(args.p)
    pm = PrimePower(args.p, args.mod)
    _emit({"p": args.p, "mod": args.mod,
           "terms": hasse_poly(args.p, pm).to_json()}, args.out)


def cmd_classify(args):
    _require_prime(args.p)
    _emit(classify_pair(args.a, args.b, args.p), args.out)


def cmd_lift(args):
    _require_prime(args.p)
    row = verify_pair(args.p, args.a, args.b, args.mod)
    _emit(row, args.out)
    return 0 if row["verified"] else 2


def cmd_eigen(args):
    if (args.a is None) != (args.b is None):
        raise UsageError("eigen takes both --a and --b, or neither")
    _require_prime(args.p)
    if args.a is not None:
        ctx = CurveContext(args.a, args.b, PrimePower(args.p, 2))
        v0, theta, det, _ = solve_eigen_numeric(ctx)
        _emit({"p": args.p, "a": args.a, "b": args.b,
               "v0": v0, "theta": theta, "det": det}, args.out)
        return 0
    theta, det = solve_eigen_symbolic(args.p)
    slots = {name: {"num": frac.num.to_json(), "den": dict(frac.den)}
             for name, frac in (("const", theta.gamma_k),
                                ("z4prime", theta.gamma_4),
                                ("z6prime", theta.gamma_6))}
    _emit({"p": args.p, "theta": slots,
           "det": {"num": det.num.to_json(), "den": dict(det.den)}},
          args.out)
    return 0


def cmd_scan(args):
    rows = conjecture_scan(args.pmin, args.pmax, workers=_workers())
    fmt = args.format
    if fmt is None:
        fmt = "csv" if (args.out or "").endswith(".csv") else "json"
    if fmt == "json":
        _emit(rows, args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow(["" if row[c] is None else row[c] for c in SCAN_COLUMNS])
    _write(buf.getvalue(), args.out)
    return 0


def cmd_verify_all(args):
    if args.samples is not None and args.samples < 1:
        raise UsageError("--samples must be positive, got %d" % args.samples)
    _require_prime(args.p)
    summary = exhaustive_verify(args.p, args.mod, samples=args.samples,
                                seed=args.seed, workers=_workers())
    _emit(summary, args.out)
    return 0 if summary["failed"] == 0 else 2


def cmd_constants(args):
    _require_prime(args.p)
    _emit(dict(branch_constants(args.p), p=args.p), args.out)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, not argparse's exit 2,
    which is the code for a broken invariant. Subcommand parsers inherit
    this class."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    top = _Parser(
        prog="ellfrob",
        description="Lie invariant Frobenius lifts on affine elliptic curves")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("hasse", help="Hasse polynomial mod p^m")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mod", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_hasse)

    sp = sub.add_parser("classify", help="unit-ness of Delta and H at a pair")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("lift", help="construct and verify a lift at a pair")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--mod", type=int, choices=(1, 2), default=1)
    common(sp)
    sp.set_defaults(fn=cmd_lift)

    sp = sub.add_parser("eigen", help="pivot solve: numeric at a pair, "
                                      "symbolic without one")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_eigen)

    sp = sub.add_parser("scan", help="Psi vs Delta*H proportionality scan")
    sp.add_argument("--pmin", type=int, default=11)
    sp.add_argument("--pmax", type=int, default=499)
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    common(sp)
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("verify-all", help="exhaustive or sampled verification")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mod", type=int, choices=(1, 2), default=1)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=2026)
    common(sp)
    sp.set_defaults(fn=cmd_verify_all)

    sp = sub.add_parser("constants", help="universal branch constants per prime")
    sp.add_argument("--p", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_constants)
    return top


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parse_args keeps no state between
    calls, since each call fills a fresh namespace from the defaults."""
    return build_parser()


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.lru_cache(maxsize=None)
def _recycle_freed_memory():
    """Keep freed blocks below 32 MiB in the heap, once per process (module
    doc, Allocator); a no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # Windows has no dlopen(NULL)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _recycle_freed_memory()
    try:
        args = _parser().parse_args(argv)
        return args.fn(args) or 0
    except DomainError as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1
    except InternalError as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2
    except MemoryError as e:  # a table past free memory, as numpy reports it
        print("MemoryError: %s" % (str(e) or "out of memory"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
