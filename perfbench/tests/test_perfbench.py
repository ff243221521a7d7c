"""Self-test of the benchmark: tracing leaves stdout unchanged, every layer
metric expected on a workload reads nonzero there, span self times add up,
the checks catch a wrong output, and BENCHMARK.json matches the code.

Runs each workload at its reduced size (workloads.build(..., small=True)),
which goes through the same code paths in a few seconds.
"""

import json
import os
import sys
import time
from time import get_clock_info

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, build, threads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """Untraced (workload HD_THREADS) and traced (serial) repetitions."""
    out = {}
    deadline = time.monotonic() + 170
    for name in WORKLOADS:
        ops = build(name, SEED, small=True)
        spans = str(tmp_path_factory.mktemp(name) / "spans.tsv")
        plain = run.spawn(SRC, deadline, run.rep_spec(ops))
        traced = run.spawn(SRC, deadline,
                           run.rep_spec(run.with_threads(ops, 1), True, spans))
        out[name] = (ops, plain, traced, spans)
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_stdout_identical_and_checks_pass(reps, name):
    ops, plain, traced, _ = reps[name]
    assert len(plain["ops"]) == len(traced["ops"]) == len(ops)
    for op, a, b in zip(ops, plain["ops"], traced["ops"]):
        assert a["digest"] == b["digest"], op["argv"]
        assert a["ok"] and b["ok"], (op["argv"], a["msg"], b["msg"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_expected_layer_metrics_nonzero(reps, name):
    ops, plain, traced, _ = reps[name]
    _, _, _, pairs = run.tally([traced])
    walls = {"parallel": run.wall(plain), "serial": run.wall(plain),
             "traced": run.wall(traced)}
    values = layers.per_layer(traced["stats"], pairs, walls, threads(ops))
    assert set(values) == set(layers.PER_LAYER)
    zero = [m for m in layers.expected_nonzero(name) if not values[m]]
    assert not zero, zero


def _spans(path):
    with open(path) as fh:
        next(fh)
        for line in fh:
            sid, name, start, end, parent, op = line.split("\t")
            yield int(sid), name, float(start), float(end), int(parent)


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_sum_to_root(reps, name):
    """Self time = duration minus the union of child intervals; over each
    op's span tree the self times add up to the root span."""
    _, _, traced, path = reps[name]
    spans = {sid: (n, s, e, p) for sid, n, s, e, p in _spans(path)}
    children = {}
    for sid, (_, s, e, p) in spans.items():
        if p >= 0:
            ps, pe = spans[p][1], spans[p][2]
            assert ps <= s <= e <= pe, "child span outside its parent"
            children.setdefault(p, []).append((s, e))
    self_s, by_name = {}, {}
    for sid, (n, s, e, _) in spans.items():
        covered, reach = 0.0, s
        for cs, ce in sorted(children.get(sid, [])):
            cs = max(cs, reach)
            if ce > cs:
                covered += ce - cs
                reach = ce
        self_s[sid] = (e - s) - covered
        by_name[n] = by_name.get(n, 0.0) + self_s[sid]
    resolution = get_clock_info("perf_counter").resolution
    roots = [sid for sid, v in spans.items() if v[3] < 0]
    assert len(roots) == len(reps[name][0])
    subtree = dict.fromkeys(roots, 0.0)
    for sid in spans:
        top = sid
        while spans[top][3] >= 0:
            top = spans[top][3]
        subtree[top] += self_s[sid]
    for root in roots:
        duration = spans[root][2] - spans[root][1]
        assert abs(subtree[root] - duration) <= 1e-9 + resolution * len(spans)
    for n, total in by_name.items():
        assert traced["stats"][n][1] == pytest.approx(
            total, abs=1e-9 * len(spans))


def test_reference_check_catches_changed_value_and_allows_new_key():
    refs = checks.load_reference()
    op = build("scan", SEED, small=True)[0]
    ref = refs[" ".join(op["argv"])]
    row = {path.split("/")[-1]: json.loads(v)
           for path, v in ref["flat"].items()}
    good = json.dumps([dict(row, extra="new key")])
    assert checks.check(op, 0, good, "", refs)[0]
    bad = json.dumps([dict(row, psi_degree="0")])
    assert not checks.check(op, 0, bad, "", refs)[0]
    assert not checks.check(op, 2, good, "", refs)[0]


def test_hasse_oracle_matches_coefficient_of_power():
    """hasse_value against the x^(p-1) coefficient of the repeated product."""
    for p, a, b in ((5, 1, 1), (13, 3, 7), (29, 11, 2), (31, 0, 5)):
        poly = [1]
        for _ in range((p - 1) // 2):
            out = [0] * (len(poly) + 3)
            for i, c in enumerate(poly):
                out[i] += c * b
                out[i + 1] += c * a
                out[i + 3] += c
            poly = [c % p for c in out]
        assert checks.hasse_value(a, b, p) == poly[p - 1]


def test_seeds_keep_op_count_and_branches():
    for name in WORKLOADS:
        shapes = [[(op["argv"][:3], op["check"], op.get("branch"))
                   for op in build(name, seed)] for seed in (1, 2)]
        assert shapes[0] == shapes[1]


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m, layers.unit(m), layers.better(m)) for m in layers.PER_LAYER]
