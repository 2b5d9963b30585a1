"""Write the stored reference of a workload.

Usage: python3 perfbench/make_reference.py WORKLOAD SEED [SEED ...]

Runs the workload's suites once per seed and writes
``perfbench/references/WORKLOAD.json``: the ordered (check, params) list,
and per seed the indices of the checks that fail and the sha256 of the
report as emitted without ``--timing``.  The list must be the same for every
seed.  Rerun it only in a change that redefines a workload.
"""

import json
import sys

import paths
from run import check_identity, report_sha256, run_pass
from workloads import WORKLOADS


def main() -> None:
    paths.use_checkout_src()
    workload = WORKLOADS[sys.argv[1]]
    checks, seeds = None, {}
    for seed in (int(s) for s in sys.argv[2:]):
        reports, seconds, _ = run_pass(workload, workload.config(seed))
        ids = [check_identity(r) for r in reports]
        if checks is not None and ids != checks:
            raise SystemExit(f"error: seed {seed} runs a different list of checks")
        checks = ids
        seeds[str(seed)] = {"failed": [i for i, r in enumerate(reports) if not r.passed],
                            "sha256": report_sha256(reports)}
        print(f"{workload.name} seed {seed}: {len(reports)} checks, "
              f"{len(seeds[str(seed)]['failed'])} failed, {seconds:.1f}s", file=sys.stderr)
    reference = {"workload": workload.describe(), "seeds": seeds, "checks": checks}
    paths.REFERENCES.mkdir(exist_ok=True)
    with open(paths.REFERENCES / f"{workload.name}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(f' "workload": {json.dumps(reference["workload"])},\n')
        fh.write(f' "seeds": {json.dumps(seeds)},\n')
        fh.write(' "checks": [\n')
        fh.write(",\n".join(f"  {json.dumps(c)}" for c in checks))
        fh.write("\n ]\n}\n")


if __name__ == "__main__":
    main()
