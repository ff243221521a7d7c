"""Per-layer metrics of the traced run, and which end-to-end metric each one
should move on which workload.

A metric ``<span>.<field>`` reads the tracer's statistics for that span name
(see tracer.PROBES): ``calls``, ``self_s``, ``total_s``, ``coeff_products`` /
``term_products`` (sum of len(a) * len(b) over the products) and ``max_len``
(longest operand). ``<module>.self_s`` sums the self time of every span of
that module; ``cli.self_s`` is the root span's own time (argument parsing and
JSON emit). Metrics in unit ``count`` are exact counts: they repeat exactly
from run to run for the same seed.
"""

MODULES = ("residue", "upoly", "wpoly", "forms", "liftp", "liftp2", "psi",
           "verify", "cli")

# (metrics, end-to-end metrics they should move, workloads where they should
# move -- the self-test requires them nonzero there -- and workloads where
# they should not move). wall_s and max_op_s move together with their
# calibrated forms wall_cal and max_op_cal.
LAYER_MAP = (
    (("upoly.mul.calls", "upoly.mul.self_s", "upoly.mul.coeff_products",
      "upoly.mul.max_len"),
     ("wall_s", "max_op_s"), ("lift2",), ("scan", "eigen_symbolic")),
    (("upoly.addsub.calls", "upoly.addsub.self_s"),
     ("wall_s",), ("lift2", "verify_sweep"), ("scan",)),
    (("upoly.pow.calls", "upoly.pow.total_s", "upoly.frac.calls",
      "upoly.frac.self_s"),
     ("wall_s",), ("verify_sweep",), ("scan", "eigen_symbolic")),
    (("upoly.antiderivative.self_s", "upoly.divmod_monic.self_s"),
     ("wall_s",), ("verify_sweep",), ("scan",)),
    (("wpoly.mul.calls", "wpoly.mul.self_s", "wpoly.mul.term_products",
      "wpoly.locfrac.calls", "wpoly.locfrac.self_s", "wpoly.reciprocal.total_s",
      "wpoly.divide_exact.calls"),
     ("wall_s", "max_op_s"), ("eigen_symbolic",), ("lift2",)),
    (("forms.hasse_poly.calls", "forms.hasse_poly.self_s"),
     ("wall_s",), ("verify_sweep",), ("lift2",)),
    (("residue.inv_mod.calls", "residue.delta_scalar.calls", "residue.self_s"),
     ("wall_s",), ("verify_sweep",), ()),
    (("liftp.curve_context.calls", "liftp.curve_context.total_s",
      "liftp.k_poly.calls", "liftp.k_poly.total_s"),
     ("wall_s",), ("verify_sweep",), ("scan",)),
    (("liftp.lie_verify.total_s", "liftp.lie_verify_commutator.total_s"),
     ("max_op_s",), ("lift2",), ("scan", "eigen_symbolic")),
    (("liftp.build_lift_mod_p.total_s", "liftp.mu_correct.total_s",
      "liftp.extendability_certificate.total_s"),
     ("wall_s",), ("verify_sweep",), ("lift2",)),
    (("liftp2.d_values.calls", "liftp2.d_values.total_s"),
     ("wall_s",), ("lift2", "verify_sweep"), ("scan",)),
    (("liftp2.solve_eigen_numeric.total_s", "liftp2.assemble_lift.total_s",
      "liftp2.build_lift_mod_p2.total_s"),
     ("max_op_s",), ("lift2",), ("scan",)),
    (("liftp2.solve_eigen_symbolic.total_s", "liftp2.sym_d_values.total_s"),
     ("wall_s",), ("eigen_symbolic",), ("lift2",)),
    (("psi.scan_prime.total_s",),
     ("wall_s", "max_op_s"), ("scan",), ("lift2", "verify_sweep")),
    (("psi.laurent_stream.total_s", "psi.psi_determinants.self_s",
      "psi.psi_recurrence_check.self_s"),
     ("wall_s", "max_op_s"), ("scan", "eigen_symbolic"),
     ("lift2", "verify_sweep")),
    (("verify.verify_pair.calls", "verify.verify_pair.total_s",
      "verify.pairs.verified_ratio"),
     ("wall_s",), ("verify_sweep",), ("scan",)),
    (("verify.parallel_efficiency",), ("wall_s",), ("verify_sweep",), ()),
    # Pairs that failed: all from verify_sweep's --p 7 --mod 2 op at present.
    (("verify.pairs.failed",), (), (), ()),
    # Attribution only: where each workload's time went.
    (tuple(m + ".self_s" for m in MODULES if m not in ("residue", "cli")),
     (), (), ()),
    (("cli.self_s", "trace_overhead_ratio"),
     (), ("scan", "lift2", "verify_sweep", "eigen_symbolic"), ()),
)

PER_LAYER = tuple(name for row in LAYER_MAP for name in row[0])


def expected_nonzero(workload):
    return [name for metrics, _, on, _ in LAYER_MAP if workload in on
            for name in metrics]


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def better(name):
    return "higher" if name.endswith(("verified_ratio", "_efficiency")) \
        else "lower"


def per_layer(stats, pairs, walls, threads):
    """Per-layer metric values.

    stats: span name -> [calls, self_s, total_s, products, max_len] from the
    traced serial repetition. pairs: summed eligible/verified/failed counts
    of its ops. walls: untraced wall_s at the workload's HD_THREADS
    ("parallel") and at HD_THREADS=1 ("serial"), and traced ("traced").
    """
    overhead = walls["traced"] / walls["serial"]
    # Task time is the traced serial verify_pair time, brought back to the
    # untraced clock by the tracing overhead; 0 for a workload without a pool.
    task_s = stats.get("verify.verify_pair", [0, 0.0, 0.0])[2] / overhead
    out = {
        "verify.pairs.verified_ratio": (pairs["verified"] / pairs["eligible"]
                                        if pairs["eligible"] else 0.0),
        "verify.pairs.failed": pairs["failed"],
        "verify.parallel_efficiency": (task_s / (threads * walls["parallel"])
                                       if threads > 1 else 0.0),
        "trace_overhead_ratio": overhead,
    }
    fields = {"calls": 0, "self_s": 1, "total_s": 2, "coeff_products": 3,
              "term_products": 3, "max_len": 4}
    for name in PER_LAYER:
        if name in out:
            continue
        span, field = name.rsplit(".", 1)
        if span in MODULES:
            out[name] = sum(st[1] for n, st in stats.items()
                            if n.startswith(span + "."))
        else:
            out[name] = stats.get(span, [0, 0.0, 0.0, 0, 0])[fields[field]]
    return out
