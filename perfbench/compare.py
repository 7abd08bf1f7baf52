#!/usr/bin/env python3
"""Compare two benchmark results written by run.py to perfbench/out/.

Usage:

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Prints each metric of A and B and the ratio B/A. Refuses (exit code 2)
to compare results whose kernel backend, workload or trace mode differ,
since their numbers do not measure the same thing.
"""

import json
import sys

MUST_MATCH = ("kernel_backend", "workload", "trace")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    sa, sb = a["info"]["stamp"], b["info"]["stamp"]
    differ = [key for key in MUST_MATCH if sa.get(key) != sb.get(key)]
    if differ:
        for key in differ:
            print(f"refusing to compare: {key} {sa.get(key)!r} != {sb.get(key)!r}", file=sys.stderr)
        return 2
    for key in ("cores", "python", "numpy", "scipy", "src_sha256", "seed"):
        if sa.get(key) != sb.get(key):
            print(f"note: {key} differs: {sa.get(key)} -> {sb.get(key)}")
    print(f"{'metric':<48} {'A':>12} {'B':>12} {'B/A':>8}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:<48} {va:12.6g} {vb:12.6g} {ratio} {ma['unit']}")
    for label, res in (("A", a), ("B", b)):
        print(f"{label}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
