#!/usr/bin/env python3
"""Compare two sets of benchmark records, refusing unlike environments.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files written by ``run.py`` (``perfbench/out/results``)
or directories of them.  Records are grouped by workload and trace flag, and
each metric's median in both sets is printed with the relative change.
Sets whose fingerprints differ in kernel backend or ``nproc`` measure
different machines or code paths: they are refused with exit code 2.  A
count that must repeat exactly and does not gives exit code 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("backend", "nproc")
EXACT_COUNTS = ("kernels.matmul_zero_products",)


def load(path) -> list[dict]:
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def fingerprint_mismatches(base: list[dict], new: list[dict]) -> list[str]:
    problems = []
    for key in MUST_MATCH:
        seen = {json.dumps(r["fingerprint"].get(key)) for r in base + new}
        if len(seen) > 1:
            problems.append(f"fingerprints differ in {key}: {sorted(seen)}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    problems = fingerprint_mismatches(base, new)
    if problems:
        for p in problems:
            print(f"refused: {p}", file=sys.stderr)
        return 2

    status = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        sides = [[r for r in rs if (r["workload"], r["trace"]) == (workload, trace)]
                 for rs in (base, new)]
        print(f"== {workload} trace={trace} runs={len(sides[0])}/{len(sides[1])}")
        names = sorted({m for rs in sides for r in rs for m in r["metrics"]})
        for name in names:
            values = [[r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                      for rs in sides]
            if not all(values):
                continue
            b, n = (statistics.median(v) for v in values)
            change = f"{n / b - 1:+.2%}" if b else "n/a"
            print(f"   {name:32s} {b:>14.6g} {n:>14.6g} {change:>9s}")
            if name in EXACT_COUNTS and len(set(values[0] + values[1])) > 1:
                print(f"   {name} does not repeat exactly: {values}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
