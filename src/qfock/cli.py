"""Command line entry point for the verification sweeps.

Reads an optional JSON config, applies flag overrides, runs the selected
suite, writes the report file, prints a one-line-per-check summary, and exits
1 if any check failed.  Config and IO errors exit 2 with one line on stderr;
the config and the output directory are checked before any check runs.  The
output directory can also be set through the ``QFOCK_OUT_DIR`` environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from .reports import (SUITES, SweepConfig, all_passed, emit, run_suite)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="Run q-deformed Fock space verification sweeps.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file with sweep parameters")
    parser.add_argument("--suite", default="all",
                        choices=list(SUITES) + ["all"],
                        help="which check suite to run (default: all)")
    parser.add_argument("--q", type=float, action="append", dest="q_values",
                        metavar="Q", help="deformation parameter in (-1, 1); "
                        "repeat the flag for a grid (overrides config)")
    parser.add_argument("--dim-spec", action="append", dest="spectra",
                        metavar="SPEC", help="generator spectrum such as "
                        "'t2', 'b2' or 'b2x2+t1'; repeatable (overrides config)")
    parser.add_argument("--degree", type=int, help="Fock truncation degree")
    parser.add_argument("--seed", type=int, help="root seed for sampled checks")
    parser.add_argument("--format", default="json", choices=["json", "csv"],
                        help="report file format (default: json)")
    parser.add_argument("--out", metavar="PATH",
                        help="report file path, or a directory to place "
                        "reports.<fmt> in (default: $QFOCK_OUT_DIR or cwd)")
    parser.add_argument("--timing", action="store_true",
                        help="include wall times in the emitted report "
                        "(breaks byte-for-byte determinism)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-check summary lines")
    return parser


def resolve_config(args) -> SweepConfig:
    config = SweepConfig.from_file(args.config) if args.config else SweepConfig()
    overrides = {name: getattr(args, name) for name in ("q_values", "spectra", "degree", "seed")
                 if getattr(args, name) is not None}
    return dataclasses.replace(config, **overrides)


def resolve_out_path(args) -> str:
    """The report path; raises OSError, before any check runs, when its
    directory does not exist or cannot be written."""
    out = args.out
    if not out or os.path.isdir(out):
        out = os.path.join(out or os.environ.get("QFOCK_OUT_DIR") or os.getcwd(),
                           f"reports.{args.format}")
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise OSError(f"output directory {directory} does not exist")
    if not os.access(directory, os.W_OK):
        raise OSError(f"output directory {directory} is not writable")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        path = resolve_out_path(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    reports = run_suite(config, args.suite)
    elapsed = time.perf_counter() - started
    try:
        emit(reports, args.format, path, include_timing=args.timing)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            grid = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            print(f"{status} {r.check} [{grid}] residual={r.residual:.3e} "
                  f"bound={r.bound:.3e}")
        n_fail = sum(1 for r in reports if not r.passed)
        print(f"{len(reports) - n_fail}/{len(reports)} checks passed "
              f"in {elapsed:.1f}s; report written to {path}")
    return 0 if all_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
