"""qfock benchmark: verification sweeps end to end, and an outside-in layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload default_sweep --seed 12345 --seconds 37 --trace 0
    python3 perfbench/run.py --workload all --runs 3

One client runs the workload's suites back to back in this process (a closed
loop), single-threaded: BLAS and OpenMP threads are pinned to 1 through this
process's environment before numpy loads.  A pass calls
``qfock.reports.run_suite`` once per suite; passes repeat while another one
fits in ``--seconds``.  Every pass's reports are checked against the stored
reference of the workload.  The last line of standard output is one JSON
object: with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics, from one traced pass run between two
untraced ones.  Everything else the run measured (samples,
percentiles, environment, report sha256, spans) goes to
``perfbench/out/``.  The exit code is 1 when a check regressed against the
reference.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import paths  # noqa: E402
from workloads import ALL_SUITES, BENCHMARKED, WORKLOADS  # noqa: E402

DEFAULT_SEED = 12345
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 600


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summarize(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are fewer than 20 samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "p_high": None, "p_high_value": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(round(p * n / 100, 6))  # nearest-rank percentile
        if n - rank >= 10:
            out["p_high"], out["p_high_value"] = p, ordered[rank - 1]
            break
    return out


# ---------------------------------------------------------------------------
# reference check
# ---------------------------------------------------------------------------


def check_identity(report) -> list:
    return [report.check, {k: report.params[k] for k in sorted(report.params)}]


def compare(reports, reference: dict, seed: int) -> dict:
    """Check a pass against the reference: the same ordered (check, params)
    list, and no check failing that the reference expects to pass.  For a
    seed with its own entry the expected failures are that seed's; for any
    other seed they are the union over the stored seeds."""
    ids = [check_identity(r) for r in reports]
    if ids != reference["checks"]:
        return {"same_checks": False, "regressions": len(reports), "regressed": []}
    seeds = reference["seeds"]
    if str(seed) in seeds:
        expected = set(seeds[str(seed)]["failed"])
    else:
        expected = set().union(*(set(s["failed"]) for s in seeds.values()))
    regressed = [i for i, r in enumerate(reports) if not r.passed and i not in expected]
    return {"same_checks": True, "regressions": len(regressed),
            "regressed": [ids[i] for i in regressed]}


def report_sha256(reports) -> str:
    from qfock.reports import render
    return hashlib.sha256(render(reports, "json").encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str) -> list:
    """Set-up seconds from fresh processes; the first probe is discarded so
    that byte-compiling the sources (a one-off per checkout) is not counted."""
    probe = str(paths.BENCH_DIR / "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, probe, workload], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples[1:]


def run_pass(workload, config, tracer=None):
    """One pass: ``run_suite`` once per suite.  Returns (reports, seconds,
    per-suite seconds)."""
    from qfock.reports import run_suite
    reports, per_suite = [], {}
    started = time.perf_counter()
    for suite in workload.suites:
        t0 = time.perf_counter()
        if tracer is None:
            reports.extend(run_suite(config, suite))
        else:
            with tracer.span(f"reports.{suite}"):
                reports.extend(run_suite(config, suite))
        per_suite[suite] = time.perf_counter() - t0
    return reports, time.perf_counter() - started, per_suite


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "seed": seed,
        "workloads": {name: WORKLOADS[name].describe() for name in BENCHMARKED},
    }


def layer_metrics(tracer, traced_s: float, untraced_s: float, suites: dict) -> dict:
    """Per-layer values of the traced pass, plus the trace's coverage of that
    pass and its overhead over the untraced passes' median."""
    stats = tracer.stats()
    values = {}
    for name, row in stats.items():
        for field, value in row.items():
            values[f"{name}.{field}"] = value
    for name in ("fock.metric_inv", "fock.metric_sqrt", "fock.metric_invsqrt",
                 "haagerup.degree_norms"):
        values[f"{name}.reuse_ratio"] = tracer.reuse_ratio(name, stats)
    for name, flops in tracer.flops.items():
        values[f"{name}.gflop"] = flops / 1e9
    for suite in ALL_SUITES:
        values[f"reports.{suite}_s"] = suites.get(suite, 0.0)
    values["trace.coverage"] = tracer.covered_s() / traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return values


def run_workload(args) -> int:
    paths.use_checkout_src()
    import qfock
    from layers import LayerTrace

    workload = WORKLOADS[args.workload]
    with open(paths.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(args.reference or paths.REFERENCES / f"{workload.name}.json", "r",
              encoding="utf-8") as fh:
        reference = json.load(fh)
    config = workload.config(args.seed)

    setup = measure_setup(workload.name)

    untraced, checks = [], []
    tracer, traced, suite_times = None, [], {}
    if args.trace:
        # untraced, traced, untraced: comparing the traced pass with the
        # median of the passes around it cancels a steady drift in machine
        # speed and the first pass's warm-up
        for trace_this in (False, True, False):
            if trace_this:
                tracer = LayerTrace(qfock)
                with tracer:
                    reports, seconds, suite_times = run_pass(workload, config, tracer)
                traced.append(seconds)
            else:
                reports, seconds, _ = run_pass(workload, config)
                untraced.append(seconds)
            checks.append(compare(reports, reference, args.seed))
    else:
        started = time.perf_counter()
        while True:
            reports, seconds, _ = run_pass(workload, config)
            untraced.append(seconds)
            checks.append(compare(reports, reference, args.seed))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(untraced) > args.seconds:
                break
    rss = peak_rss_mb()

    n_checks = len(reports)
    n_failed = sum(1 for r in reports if not r.passed)
    regressions = sum(c["regressions"] for c in checks)
    correct = regressions == 0
    end_to_end = {
        "sweep_s": summarize(untraced),
        "setup_s": summarize(setup),
        "peak_rss_mb": summarize([rss]),
        "checks_run": summarize([n_checks]),
        "checks_failed": summarize([n_failed]),
    }
    values = {name: row["median"] for name, row in end_to_end.items()}
    if args.trace:
        values.update(layer_metrics(tracer, traced[0], statistics.median(untraced),
                                    suite_times))
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        raise SystemExit(f"error: BENCHMARK.json names unknown metrics {unknown}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    paths.OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}.seed{args.seed}.trace{args.trace}"
    result = {
        "workload": workload.name, "seconds": args.seconds,
        "environment": environment(args.seed),
        "end_to_end": end_to_end,
        "samples": {"sweep_s": untraced, "setup_s": setup, "traced_sweep_s": traced},
        "report_sha256": report_sha256(reports),
        "output_check": checks,
        "layers": values if args.trace else None,
    }
    if tracer is not None:
        tracer.save(paths.OUT / f"{stem}.spans.npz")
    with open(paths.OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    stored = reference["seeds"].get(str(args.seed), {}).get("sha256")
    identical = "no reference for this seed" if stored is None else \
        ("byte-identical to the reference" if stored == result["report_sha256"]
         else "differs from the reference")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    env = result["environment"]
    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} pass(es); "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']} with "
          f"{BLAS_THREADS} thread(s), nproc {env['nproc']}")
    print(f"  report sha256 {result['report_sha256'][:16]}: {identical}")
    for name, row in end_to_end.items():
        high = "-" if row["p_high"] is None else f"p{row['p_high']:g}={row['p_high_value']:.6g}"
        print(f"  {name:14s} {row['median']:.6g} {units.get(name, '')} "
              f"(median; {high}; n={row['n']})")
    for check in checks:
        if not check["same_checks"]:
            print("  output check: the list of (check, params) differs from the reference")
        for ident in check["regressed"]:
            print(f"  output check: regressed {ident[0]} {json.dumps(ident[1])}")
    print(json.dumps({"correct": correct, "attempted": n_checks * len(checks),
                      "failed": regressions, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every benchmarked workload ``--runs`` times (seeds seed, seed+1,
    ...), each run in its own process, and print each metric's median, high
    percentile, sample count and quartile spread over the runs."""
    script = str(paths.BENCH_DIR / "run.py")
    status = 0
    for name in BENCHMARKED:
        runs = []
        for i in range(args.runs):
            cmd = [sys.executable, script, "--workload", name, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name}: run {i} exited {done.returncode}", file=sys.stderr)
                print(done.stdout + done.stderr, file=sys.stderr)
                status = 1
            if lines:
                runs.append(json.loads(lines[-1]))
        print(f"{name}: {len(runs)} run(s), correct={all(r['correct'] for r in runs)}")
        if not runs:
            continue
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            row = summarize(values)
            high = "-" if row["p_high"] is None else f"p{row['p_high']:g}={row['p_high_value']:.6g}"
            spread = "-"
            if len(values) > 1 and row["median"]:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / row['median']:.3f}"
            print(f"  {metric:40s} {row['median']:.6g} {first['unit']} "
                  f"(median; {high}; n={row['n']}; quartile spread {spread})")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=37.0,
                        help="measuring time; passes repeat while another fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", help="reference file to check the reports "
                        "against (default: perfbench/references/<workload>.json)")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: runs per workload")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
