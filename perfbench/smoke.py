"""Smoke test of the benchmark itself, on a grid that runs in seconds.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs the ``smoke`` workload (N = 4, spectrum t1, one q) untraced and traced
and checks that every metric BENCHMARK.json names comes out with its unit,
then runs it against a corrupted reference and checks that the output check
fails the run.  Exits 0 when all of that holds.
"""

import json
import subprocess
import sys

import paths

RUN = [sys.executable, str(paths.BENCH_DIR / "run.py"), "--workload", "smoke",
       "--seed", "12345", "--seconds", "1"]
TIMEOUT_S = 170


def run(*extra):
    done = subprocess.run(RUN + list(extra), capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


def expect(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    with open(paths.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result, done = run("--trace", str(trace))
        expect(code == 0 and result is not None and result["correct"],
               f"--trace {trace} run is correct and exits 0", failures)
        if result is None:
            print(done.stderr)
            continue
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace} result has exactly the contract keys", failures)
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == wanted, f"--trace {trace} emits every {key} metric with its unit",
               failures)
        expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
               f"--trace {trace} metric values are numbers", failures)

    with open(paths.REFERENCES / "smoke.json", "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    # expect every check to pass: any check failing now is a regression
    for entry in reference["seeds"].values():
        entry["failed"] = []
    paths.OUT.mkdir(exist_ok=True)
    corrupted = paths.OUT / "smoke.corrupted-reference.json"
    with open(corrupted, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    code, result, _ = run("--trace", "0", "--reference", str(corrupted))
    expect(code != 0 and result is not None and not result["correct"]
           and result["failed"] > 0,
           "a corrupted reference makes the output check fail", failures)

    reference["checks"] = reference["checks"][1:]
    with open(corrupted, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    code, result, _ = run("--trace", "0", "--reference", str(corrupted))
    expect(code != 0 and result is not None and not result["correct"],
           "a reference with a different check list fails the run", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
