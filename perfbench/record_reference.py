"""Record the reference outputs of the benchmark's fixed-input ops.

    python3 perfbench/record_reference.py

Run from the root of a checkout. The committed reference/seed_outputs.json
was recorded from the commit this benchmark was first measured on; re-record
only on purpose, because the checks compare every later commit against it.
"""

import json
import os
import sys


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import ellfrob.cli
    from checks import REFERENCE, flatten
    from workloads import WORKLOADS, build
    from worker import run_ops

    ops = {}
    for name in WORKLOADS:
        for small in (False, True):
            for op in build(name, 0, small):
                if op["check"] in ("reference", "known_defect"):
                    ops[" ".join(op["argv"])] = op
    refs = {}
    for key, res in zip(ops, run_ops(ellfrob.cli.main, list(ops.values()), None)):
        refs[key] = {"exit": res["rc"], "flat": flatten(json.loads(res["stdout"]))}
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
