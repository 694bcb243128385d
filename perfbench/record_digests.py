#!/usr/bin/env python3
"""Record the `digitize` oracle's digests for every shape the generator can make.

Run from the repository root when the digitizer's output is meant to change
(otherwise a changed digest is a regression the benchmark should report):

    python3 perfbench/record_digests.py

Every shape is also checked against its mathematical topology; the script
refuses to record a table in which any shape fails that check.
"""

from __future__ import annotations

import json
import sys
import time

import digitize
from run import load_package


def main() -> int:
    dt = load_package()
    table = {}
    bad = []
    slowest = []
    for spec in digitize.all_specs():
        dt.kernels.clear_caches()
        dt.classify.clear_caches()
        t0 = time.perf_counter()
        report = digitize.run(dt, spec, None)
        elapsed = time.perf_counter() - t0
        table[spec["id"]] = digitize.digest(dt, report)
        problem = digitize.check(dt, spec, report, table)
        if problem:
            bad.append((spec["id"], problem))
        slowest.append((elapsed, spec["id"]))
    for elapsed, name in sorted(slowest, reverse=True)[:10]:
        print(f"{elapsed:8.3f}s  {name}")
    if bad:
        for name, problem in bad:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        return 1
    digitize.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} digests written to {digitize.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
