"""Workload definitions of the qfock benchmark.

A workload is a set of suites run with ``reports.run_suite`` over one
(q, spectrum, degree) grid.  The benchmark seed becomes the sweep's root
seed, which draws every sampled test vector, contraction and Wick tensor.
Each workload is a slice sized so that one pass fits in a run of the
benchmark; the comment on each says which full sweep it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_SUITES = ("symmetrizer", "wick", "quantization", "toeplitz", "haagerup")
CHANNEL_SUITES = ("quantization", "haagerup")


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple
    q_values: tuple
    spectra: tuple
    degree: int

    def config(self, seed: int):
        from qfock.reports import SweepConfig
        return SweepConfig(q_values=self.q_values, spectra=self.spectra,
                           degree=self.degree, seed=seed)

    def describe(self) -> dict:
        return {"suites": list(self.suites), "q_values": list(self.q_values),
                "spectra": list(self.spectra), "degree": self.degree}


def _q_scan_values():
    return tuple(round(-0.95 + 0.05 * i, 2) for i in range(39))


WORKLOADS = {w.name: w for w in (
    # One q of the default grid, every spectrum and every suite: the per-point
    # work of `qfock --suite all` (a sixth of the default sweep), dominated by
    # the quantization suite's operator algebra on blocks up to 256 wide.
    Workload("default_sweep", ALL_SUITES, (0.5,), ("t1", "t2", "b2", "b2+t1"), 5),
    # The deep point of the dense workload (729-wide top block, 1093-wide
    # space, q = 0.9 where P_q is ill-conditioned) with the symmetrizer and
    # toeplitz suites, whose dense LAPACK work (SVD norms, eigvalsh, R* norms)
    # dominates; the wick and haagerup suites are left out so a pass fits a run.
    Workload("deep_dense", ("symmetrizer", "toeplitz"), (0.9,), ("b2+t1",), 6),
    # The fine q-scan towards |q| -> 1: many cold small contexts, each used
    # by few checks, so per-context and per-check overheads dominate.
    Workload("q_scan", ("symmetrizer", "wick", "toeplitz", "haagerup"), _q_scan_values(),
             ("t1", "t2", "b2"), 5),
    # Seconds-long grid for the benchmark's own smoke test; not benchmarked.
    Workload("smoke", ALL_SUITES, (0.5,), ("t1",), 4),
)}

BENCHMARKED = ("default_sweep", "deep_dense", "q_scan")


def context_plan(workload: Workload):
    """Every (space, q, degree) the workload's suites build a FockContext
    for, each once: the grid contexts, the conjugation-invariant subspace
    contexts of the toeplitz suite and the source and combined channel
    contexts of the quantization and haagerup suites."""
    from qfock import build_space, direct_sum, subspace
    from qfock.reports import channel_degree, parse_spectrum

    plan = []
    channel = any(s in CHANNEL_SUITES for s in workload.suites)
    for spectrum in workload.spectra:
        space = build_space(parse_spectrum(spectrum))
        n_ch = channel_degree(2 * space.dim, workload.degree)
        sub_space = None
        if "toeplitz" in workload.suites:
            indices = [0] if space.dim == 1 else sorted({0, int(space.partner[0])})
            sub_space = subspace(space, indices)
        comb_space = direct_sum(space, space) if channel else None
        for q in workload.q_values:
            plan.append((space, q, workload.degree))
            if sub_space is not None:
                plan.append((sub_space, q, workload.degree))
            if channel:
                if n_ch != workload.degree:
                    plan.append((space, q, n_ch))
                plan.append((comb_space, q, n_ch))
    return plan
