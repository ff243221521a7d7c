"""Output checks for benchmark ops.

Fixed-input ops are compared with outputs recorded from the commit that
added the benchmark (``reference/seed_outputs.json``): every key printed
then must keep its value, new keys are allowed. Seeded ops are checked by
invariants, and lifts additionally by lambda * H(a, b) = 1 (mod p) with H
from the multinomial expansion below, which shares no code with
``ellfrob.forms.hasse_poly``.

Every check returns (ok, message, pairs); ``pairs`` holds the pair counts an
op reports (eligible, verified, failed) or None.
"""

import hashlib
import json
import os
from math import factorial

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "seed_outputs.json")

# Leaves whose canonical JSON is longer than this are stored as a digest.
INLINE_LIMIT = 200


def hasse_value(a, b, p):
    """H(a, b) mod p: the x^(p-1) coefficient of (x^3 + a x + b)^((p-1)/2).

    A term x^(3i) (a x)^j b^k with i + j + k = (p-1)/2 has x-degree 3i + j,
    so the coefficient sums the multinomials with 3i + j = p - 1.
    """
    n = (p - 1) // 2
    total = 0
    for i in range(n + 1):
        j = p - 1 - 3 * i
        k = n - i - j
        if j < 0 or k < 0:
            continue
        multinomial = factorial(n) // (factorial(i) * factorial(j) * factorial(k))
        total += multinomial * pow(a, j, p) * pow(b, k, p)
    return total % p


def flatten(doc, prefix=""):
    """Map key paths to canonical JSON leaves. Dicts, and lists of dicts, are
    descended into; any other value is a leaf. Long leaves become digests."""
    out = {}
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc and all(isinstance(v, dict) for v in doc):
        items = ((str(i), v) for i, v in enumerate(doc))
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        if len(text) > INLINE_LIMIT:
            text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
        return {prefix: text}
    for key, value in items:
        out.update(flatten(value, prefix + "/" + str(key)))
    return out


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _parse(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _pairs(doc, lift=False):
    if lift:
        ok = doc.get("verified") is True
        return {"eligible": 1, "verified": int(ok), "failed": int(not ok)}
    return {k: int(doc[k]) for k in ("eligible", "verified", "failed")}


def _matches_reference(ref, rc, doc):
    if rc != ref["exit"]:
        return "exit %r, recorded exit %r" % (rc, ref["exit"])
    if doc is None:
        return "stdout is not JSON"
    got = flatten(doc)
    for path, value in ref["flat"].items():
        if got.get(path) != value:
            return "%s is %s, recorded %s" % (path, got.get(path), value)
    return None


def check_reference(op, rc, stdout, stderr, refs):
    ref = refs.get(" ".join(op["argv"]))
    if ref is None:
        return False, "no reference recorded", None
    doc = _parse(stdout)
    msg = _matches_reference(ref, rc, doc)
    pairs = _pairs(doc) if msg is None and op["argv"][0] == "verify-all" else None
    return msg is None, msg, pairs


def _summary_consistent(doc):
    n = {k: int(doc[k]) for k in ("eligible", "constructed", "verified",
                                   "failed")}
    return (n["verified"] + n["failed"] == n["eligible"]
            and n["verified"] <= n["constructed"] <= n["eligible"]
            and len(doc["failures"]) == n["failed"])


def check_sampled(op, rc, stdout, stderr, refs):
    """Seeded verify-all: exit 0, failed 0, everything eligible verified."""
    doc = _parse(stdout)
    if rc != 0 or doc is None:
        return False, "exit %r" % (rc,), None
    if int(doc["pairs"]) != op["samples"] or int(doc["failed"]) != 0:
        return False, "pairs %s failed %s" % (doc["pairs"], doc["failed"]), None
    if not _summary_consistent(doc) or doc["verified"] != doc["eligible"]:
        return False, "inconsistent summary", None
    return True, None, _pairs(doc)


def check_lift(op, rc, stdout, stderr, refs):
    """Seeded lift: exit 0, verified, the requested branch, and
    lambda * H(a, b) = 1 mod p."""
    doc = _parse(stdout)
    if rc != 0 or doc is None:
        return False, "exit %r" % (rc,), None
    p, a, b = op["p"], op["a"], op["b"]
    if doc.get("verified") is not True or doc.get("branch") != op["branch"]:
        return False, "verified %r branch %r" % (doc.get("verified"),
                                                  doc.get("branch")), None
    if [doc["p"], doc["a"], doc["b"], doc["mod"]] != [str(p), str(a), str(b), "2"]:
        return False, "echoed input differs", None
    if int(doc["lambda"]) * hasse_value(a, b, p) % p != 1:
        return False, "lambda * H(a, b) != 1 mod p", None
    return True, None, _pairs(doc, lift=True)


def check_known_defect(op, rc, stdout, stderr, refs):
    """An op that fails where the outputs were recorded. It passes the check
    when it fails the way it did then (exit 2, same summary), with a one-line
    typed domain error (exit 1), or when it succeeds outright."""
    doc = _parse(stdout)
    if rc == 1:
        lines = stderr.strip().splitlines()
        ok = not stdout and len(lines) == 1 and "Error: " in lines[0]
        return ok, None if ok else "exit 1 without a typed error line", None
    if doc is None:
        return False, "exit %r, stdout is not JSON" % (rc,), None
    if rc == 0:
        ok = _summary_consistent(doc) and int(doc["failed"]) == 0
    else:
        ok = _matches_reference(refs[" ".join(op["argv"])], rc, doc) is None
    return ok, None if ok else "unexpected output, exit %r" % (rc,), _pairs(doc)


CHECKS = {
    "reference": check_reference,
    "sampled": check_sampled,
    "lift": check_lift,
    "known_defect": check_known_defect,
}


def check(op, rc, stdout, stderr, refs):
    return CHECKS[op["check"]](op, rc, stdout, stderr, refs)
