"""Approximant families and quantitative approximation diagnostics.

The family ``exp(-t) T_k`` of damped conjugation-compatible contractions is
quantised on the Hilbert-space level by first quantisation; the diagnostics
below measure the tail of its degree profile (compactness surrogate), its
strong convergence to the identity along the double limit, and vacuum-state
preservation of the induced channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spaces
from .fock import FockContext, GradedVector, first_quantization
from .spaces import DeformedContraction, DeformedSpace


def admissible_profile(lam: float, k: int) -> float:
    """Symmetric spectral profile with value ``(1+1/k)^{-1}`` at lam = 1.

    Geometric mean of ``x/(x+1/k)`` at ``lam`` and ``1/lam``; symmetry under
    ``lam <-> 1/lam`` makes the resulting map commute with the conjugation.
    """
    return 1.0 / np.sqrt((1.0 + 1.0 / (k * lam)) * (1.0 + lam / k))


def generate_admissible(space: DeformedSpace, k: int) -> DeformedContraction:
    """Functional-calculus contraction of the generator: commutes with the
    one-parameter group and with the conjugation, tends to the identity as
    ``k`` grows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    M = np.diag(np.array([admissible_profile(lam, k) for lam in space.a]))
    return DeformedContraction(space, space, M)


@dataclass(frozen=True)
class ApproximantFamily:
    """Grid of damped contractions ``exp(-t) T_k`` on a fixed space."""

    space: DeformedSpace
    ks: tuple
    ts: tuple

    @classmethod
    def default(cls, space: DeformedSpace, levels: int = 7) -> "ApproximantFamily":
        ks = tuple(2 ** i for i in range(levels))
        ts = tuple(1.0 / (2 ** i) for i in range(levels))
        return cls(space, ks, ts)

    def base_map(self, k: int) -> DeformedContraction:
        return generate_admissible(self.space, k)

    def damped_matrix(self, k: int, t: float) -> np.ndarray:
        return np.exp(-t) * self.base_map(k).matrix


def degree_norms(ctx: FockContext, T) -> np.ndarray:
    """q-deformed operator norms of the tensor powers ``T^{(x)d}``, d = 0..N."""
    T = np.asarray(T, dtype=complex)
    fq = first_quantization(ctx, ctx, T)
    return np.array([ctx.block_norm(fq.block(d, d), d, d) for d in range(ctx.degree + 1)])


def tail_norm(ctx: FockContext, T, t: float, n: int,
              per_degree: np.ndarray | None = None) -> float:
    """Norm of the high-degree part ``P_n^perp F_q(exp(-t) T)`` on the
    truncated space; bounded by ``exp(-t (n+1))`` for admissible T."""
    if n >= ctx.degree:
        raise ValueError("n must be below the truncation degree")
    if per_degree is None:
        per_degree = degree_norms(ctx, T)
    damp = np.exp(-t * np.arange(ctx.degree + 1))
    return float(np.max(per_degree[n + 1:] * damp[n + 1:]))


def free_degree_norms(ctx: FockContext, T) -> np.ndarray:
    """Same per-degree norms computed with the q = 0 metric over the same
    deformed base space."""
    T = np.asarray(T, dtype=complex)
    norms = [1.0]
    power = np.eye(1, dtype=complex)
    for d in range(1, ctx.degree + 1):
        power = np.kron(T, power)
        gt = ctx.metric_diag_free(d)
        gauged = np.sqrt(gt)[:, None] * power / np.sqrt(gt)[None, :]
        norms.append(float(np.linalg.norm(gauged, ord=2)))
    return np.array(norms)


def free_reduction_crosscheck(ctx: FockContext, T, t: float, n: int,
                              per_degree: np.ndarray | None = None) -> float:
    """Gap between the tail norm in the q-metric and in the free metric;
    ``per_degree`` is passed on to ``tail_norm``."""
    q_tail = tail_norm(ctx, T, t, n, per_degree=per_degree)
    free_per_degree = free_degree_norms(ctx, T)
    damp = np.exp(-t * np.arange(ctx.degree + 1))
    free_tail = float(np.max(free_per_degree[n + 1:] * damp[n + 1:]))
    return abs(q_tail - free_tail)


def compactness_profile(ctx: FockContext, T, t: float, n_max: int,
                        slack: float = 1e-10) -> dict:
    """Tail norms against the geometric bound ``exp(-t (n+1))`` for n <= n_max."""
    per_degree = degree_norms(ctx, T)
    rows = []
    for n in range(min(n_max, ctx.degree - 1) + 1):
        tail = tail_norm(ctx, T, t, n, per_degree=per_degree)
        bound = float(np.exp(-t * (n + 1)))
        rows.append({"n": n, "tail": tail, "bound": bound,
                     "within_bound": tail <= bound + slack})
    tails = np.array([r["tail"] for r in rows])
    ratios = tails[1:] / np.where(tails[:-1] > 0, tails[:-1], np.inf)
    return {
        "rows": rows,
        "all_within_bound": all(r["within_bound"] for r in rows),
        "decay_ratios": ratios.tolist(),
    }


def convergence_distance(ctx: FockContext, M, vec: GradedVector) -> float:
    """q-norm of ``F_q(M) xi - xi``."""
    fq = first_quantization(ctx, ctx, M)
    return (fq.apply(vec) - vec).norm()


def strong_convergence_sweep(family: ApproximantFamily, ctx: FockContext,
                             test_vectors, final_tol: float = 1e-6,
                             monotone_slack: float = 1e-12) -> dict:
    """Distances to the identity along the diagonal (k up, t down) grid."""
    if not test_vectors:
        raise ValueError("need at least one test vector")
    diag = list(zip(family.ks, family.ts))
    distances = [[] for _ in test_vectors]
    for k, t in diag:
        fq = first_quantization(ctx, ctx, family.damped_matrix(k, t))
        for dists, vec in zip(distances, test_vectors):
            dists.append((fq.apply(vec) - vec).norm())
    rows = []
    all_monotone = True
    all_converged = True
    for i, dists in enumerate(distances):
        monotone = all(b <= a + monotone_slack for a, b in zip(dists, dists[1:]))
        converged = dists[-1] <= final_tol
        all_monotone &= monotone
        all_converged &= converged
        rows.append({"vector": i, "distances": dists,
                     "monotone": monotone, "converged": converged})
    return {"rows": rows, "all_monotone": all_monotone, "all_converged": all_converged,
            "grid": diag}


def state_preservation_residual(channel, words) -> float:
    """Sup over sampled Wick words of the vacuum expectation gap of a channel."""
    src_ops = [w.op for w in words]
    img_ops = [channel.apply_word(w) for w in words]
    return channel.vacuum_state_residual(src_ops, img_ops)


def admissible_residuals(space: DeformedSpace, k: int) -> dict:
    """Conjugation and group-intertwining residuals of a generated base map."""
    T = generate_admissible(space, k)
    return {
        "iti_residual": T.iti_residual(),
        "intertwiner_residual": spaces.intertwiner_residual(T.matrix, space, space),
    }
