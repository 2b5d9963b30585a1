"""Set-up cost of one workload, measured in a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Times the import of ``qfock`` and the construction of every FockContext the
workload's grid needs, and prints the seconds and the number of contexts as
one JSON line.  ``run.py`` starts this script several times per run.
"""

import json
import sys
import time

started = time.perf_counter()

import paths  # noqa: E402

paths.use_checkout_src()

import qfock  # noqa: E402

from workloads import WORKLOADS, context_plan  # noqa: E402


def main() -> None:
    plan = context_plan(WORKLOADS[sys.argv[1]])
    for space, q, degree in plan:
        qfock.FockContext(space, q, degree)
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "contexts": len(plan)}))


if __name__ == "__main__":
    main()
