"""Span tracer that wraps ellfrob's public functions from outside the package.

Each probe replaces one function or method on the module that defines it and
on every other ``ellfrob`` module that imported it by name, so a call made
through any of those references opens a span. Spans (id, name, start, end,
parent id, op id) are kept in memory and written out when the run ends.

A span's self time is its duration minus the time covered by its child spans.
A name's total time counts only its outermost spans, so re-entry is not
counted twice. Per-coefficient accessors (``UPoly.coeff``, ``degree``,
``is_zero``) are deliberately not probed: the wrapper would cost more than
the call.
"""

import functools
import sys
from time import perf_counter


def _coeff_products(a, b):
    la, lb = len(a.coeffs), len(b.coeffs)
    return la * lb, max(la, lb)


def _term_products(a, b):
    la, lb = len(a.terms), len(b.terms)
    return la * lb, max(la, lb)


# (module, attribute, span name, operand-size function). Span names start
# with the module name; several attributes may share one span name.
PROBES = (
    ("residue", "inv_mod", "residue.inv_mod", None),
    ("residue", "delta_scalar", "residue.delta_scalar", None),
    ("residue", "is_prime", "residue.is_prime", None),
    ("residue", "PrimePower.__post_init__", "residue.prime_power", None),
    ("upoly", "UPoly.__mul__", "upoly.mul", _coeff_products),
    ("upoly", "UPoly.__add__", "upoly.addsub", None),
    ("upoly", "UPoly.__sub__", "upoly.addsub", None),
    ("upoly", "UPoly.__pow__", "upoly.pow", None),
    ("upoly", "UPoly.antiderivative", "upoly.antiderivative", None),
    ("upoly", "UPoly.divmod_monic", "upoly.divmod_monic", None),
    ("upoly", "UPoly.__neg__", "upoly.misc", None),
    ("upoly", "UPoly.scale", "upoly.misc", None),
    ("upoly", "UPoly.derivative", "upoly.misc", None),
    ("upoly", "UPoly.compose_xp", "upoly.misc", None),
    ("upoly", "UPoly.divexact_p", "upoly.misc", None),
    ("upoly", "FracPoly.__add__", "upoly.frac", None),
    ("upoly", "FracPoly.__sub__", "upoly.frac", None),
    ("upoly", "FracPoly.__mul__", "upoly.frac", None),
    ("upoly", "FracPoly.__eq__", "upoly.frac", None),
    ("upoly", "FracPoly.derivative", "upoly.frac", None),
    ("upoly", "FracPoly.scale", "upoly.misc", None),
    ("wpoly", "WPoly.__mul__", "wpoly.mul", _term_products),
    ("wpoly", "WPoly.divide_exact", "wpoly.divide_exact", None),
    ("wpoly", "WPoly.__add__", "wpoly.misc", None),
    ("wpoly", "WPoly.__sub__", "wpoly.misc", None),
    ("wpoly", "WPoly.__pow__", "wpoly.misc", None),
    ("wpoly", "WPoly.scale", "wpoly.misc", None),
    ("wpoly", "WPoly.specialize", "wpoly.misc", None),
    ("wpoly", "LocFrac.__add__", "wpoly.locfrac", None),
    ("wpoly", "LocFrac.__sub__", "wpoly.locfrac", None),
    ("wpoly", "LocFrac.__mul__", "wpoly.locfrac", None),
    ("wpoly", "LocFrac.__neg__", "wpoly.locfrac", None),
    ("wpoly", "LocFrac.__eq__", "wpoly.locfrac", None),
    ("wpoly", "LocFrac.scale", "wpoly.locfrac", None),
    ("wpoly", "LocFrac.reciprocal", "wpoly.reciprocal", None),
    ("forms", "hasse_poly", "forms.hasse_poly", None),
    ("liftp", "CurveContext.__init__", "liftp.curve_context", None),
    ("liftp", "k_poly", "liftp.k_poly", None),
    ("liftp", "k0_poly", "liftp.k_poly", None),
    ("liftp", "lie_verify", "liftp.lie_verify", None),
    ("liftp", "lie_verify_commutator", "liftp.lie_verify_commutator", None),
    ("liftp", "build_lift_mod_p", "liftp.build_lift_mod_p", None),
    ("liftp", "mu_correct", "liftp.mu_correct", None),
    ("liftp", "extendability_certificate", "liftp.extendability_certificate",
     None),
    ("liftp2", "d_values", "liftp2.d_values", None),
    ("liftp2", "solve_eigen_numeric", "liftp2.solve_eigen_numeric", None),
    ("liftp2", "assemble_lift", "liftp2.assemble_lift", None),
    ("liftp2", "build_lift_mod_p2", "liftp2.build_lift_mod_p2", None),
    ("liftp2", "solve_eigen_symbolic", "liftp2.solve_eigen_symbolic", None),
    ("liftp2", "sym_d_values", "liftp2.sym_d_values", None),
    ("psi", "conjecture_scan", "psi.conjecture_scan", None),
    ("psi", "scan_prime", "psi.scan_prime", None),
    ("psi", "psi_table", "psi.psi_table", None),
    ("psi", "laurent_stream", "psi.laurent_stream", None),
    ("psi", "psi_determinants", "psi.psi_determinants", None),
    ("psi", "psi_recurrence_check", "psi.psi_recurrence_check", None),
    ("verify", "exhaustive_verify", "verify.exhaustive_verify", None),
    ("verify", "verify_pair", "verify.verify_pair", None),
)

ROOT = "cli.main"


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "products", "max_len", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.products = 0
        self.max_len = 0
        self.depth = 0


class Tracer:
    """Collects spans while installed; ``run_op`` opens the root span."""

    def __init__(self):
        self.spans = []      # (id, name, start, end, parent id, op id)
        self.stats = {}      # span name -> Stat
        self._frames = []    # open spans as [id, seconds covered by children]
        self._next_id = 0
        self._op = -1
        self._undo = []

    def install(self):
        """Patch every probe; ``ellfrob.cli`` must already be imported."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and name.split(".")[0] == "ellfrob"]
        for modname, attr, span, size in PROBES:
            owner = sys.modules["ellfrob." + modname]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapped = self._wrap(span, original, size)
            self._patch(owner, path[-1], wrapped)
            if len(path) == 1:
                for mod in modules:
                    if mod is not owner and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, size):
        stat = self.stats.setdefault(name, Stat())
        span = self._span

        if size is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return span(name, stat, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                products, length = size(*args)
                stat.products += products
                if length > stat.max_len:
                    stat.max_len = length
                return span(name, stat, fn, args, kwargs)
        return traced

    def _span(self, name, stat, fn, args, kwargs):
        sid = self._next_id
        self._next_id = sid + 1
        frames = self._frames
        parent = frames[-1][0] if frames else -1
        frame = [sid, 0.0]
        frames.append(frame)
        stat.depth += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            frames.pop()
            stat.depth -= 1
            duration = end - start
            if frames:
                frames[-1][1] += duration
            stat.calls += 1
            stat.self_s += duration - frame[1]
            if stat.depth == 0:
                stat.total_s += duration
            self.spans.append((sid, name, start, end, parent, self._op))

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as the root span of op ``op_id``."""
        self._op = op_id
        stat = self.stats.setdefault(ROOT, Stat())
        try:
            return self._span(ROOT, stat, fn, args, {})
        finally:
            self._op = -1

    def write_spans(self, path):
        """Tab-separated spans, one per line, ordered by span id."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (sid, name, start, end, parent, op))
