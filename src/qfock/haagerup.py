"""Approximant families and quantitative approximation diagnostics.

The family ``exp(-t) T_k`` of damped conjugation-compatible contractions is
quantised by its tensor powers alone.  The diagnostics read the degree
profile of a base map (``degree_norms``), whose damped tail bounds the
high-degree part of ``F_q(exp(-t) T_k)`` by ``exp(-t (n+1))`` (compactness
surrogate), and measure its strong convergence along the double limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spaces
from .fock import FockContext, _apply, _graded_norm, _tensor_powers, first_quantization
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
    return DeformedContraction(space, space,
                               spaces.spectral_map(space, lambda lam: admissible_profile(lam, k)))


@dataclass(frozen=True)
class ApproximantFamily:
    """Grid of damped contractions ``exp(-t) T_k`` on a fixed space.

    ``maps`` holds each base map ``T_k`` by k, generated once with the family."""

    space: DeformedSpace
    ks: tuple
    ts: tuple
    maps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "maps", {k: generate_admissible(self.space, k) for k in self.ks})

    @classmethod
    def default(cls, space: DeformedSpace, levels: int = 7) -> "ApproximantFamily":
        if levels < 1:
            raise ValueError("levels must be >= 1")
        ks = tuple(2 ** i for i in range(levels))
        ts = tuple(1.0 / (2 ** i) for i in range(levels))
        return cls(space, ks, ts)

    def damped_matrix(self, k: int, t: float) -> np.ndarray:
        return np.exp(-t) * self.maps[k].matrix


def degree_norms(ctx: FockContext, T) -> np.ndarray:
    """q-deformed operator norms of the tensor powers ``T^{(x)d}``, d = 0..N."""
    T = np.asarray(T, dtype=complex)
    fq = first_quantization(ctx, ctx, T)
    return np.array([ctx.block_norm(fq.block(d, d), d, d) for d in range(ctx.degree + 1)])


def tail_norms(per_degree, ts) -> np.ndarray:
    """Norms of the high-degree parts ``P_n^perp F_q(exp(-t) T)``, one row per
    damping t of ``ts`` and one column per n = 0..N-1, from the degree profile
    ``per_degree`` of ``T`` (``degree_norms``, d = 0..N): the largest damped
    profile entry ``exp(-t d) ||T^{(x)d}||`` over d > n, a reverse running
    maximum; bounded by ``exp(-t (n+1))`` for admissible T."""
    per_degree = np.asarray(per_degree)
    damped = per_degree * np.exp(-np.multiply.outer(ts, np.arange(len(per_degree))))
    return np.maximum.accumulate(damped[:, :0:-1], axis=1)[:, ::-1]


def _tail_bounds(ts, top: int) -> np.ndarray:
    """The geometric bounds ``exp(-t (n+1))`` of ``tail_norms``, n = 0..top-1."""
    return np.exp(-np.multiply.outer(ts, np.arange(1, top + 1)))


def tail_norm(per_degree, t: float, n: int) -> float:
    """Norm of the high-degree part ``P_n^perp F_q(exp(-t) T)`` on the
    truncated space: one entry of ``tail_norms``."""
    if not 0 <= n < len(per_degree) - 1:
        raise ValueError("n must be in 0..N-1 for a profile of degrees 0..N")
    return float(tail_norms(per_degree, [t])[0, n])


def free_reduction_crosscheck(T: DeformedContraction, per_degree) -> float:
    """Largest relative gap, over d = 0..N, between the degree profile
    ``per_degree = degree_norms(ctx, T)`` and its closed form ``||T||_G^d``:
    ``T^{(x)d}`` commutes with ``P_q``, so its q-norm is its free norm
    (Bozejko-Speicher 1991).  A zero closed form is compared absolutely."""
    ref = T.norm ** np.arange(len(per_degree))
    return float(np.max(np.abs(per_degree - ref) / np.where(ref > 0, ref, 1.0)))


def compactness_profile(per_degree, t: float, n_max: int) -> dict:
    """Tail norms, from the degree profile ``per_degree`` of ``T``
    (``degree_norms``, d = 0..N), against the geometric bound
    ``exp(-t (n+1))`` for n = 0..n_max, up to a slack of 1e-10."""
    if not 0 <= n_max < len(per_degree) - 1:
        raise ValueError("n_max must be in 0..N-1 for a profile of degrees 0..N")
    tails = tail_norms(per_degree, [t])[0, :n_max + 1]
    bounds = _tail_bounds([t], n_max + 1)[0]
    rows = [{"n": n, "tail": tail, "bound": bound, "within_bound": tail <= bound + 1e-10}
            for n, (tail, bound) in enumerate(zip(tails.tolist(), bounds.tolist()))]
    ratios = tails[1:] / np.where(tails[:-1] > 0, tails[:-1], np.inf)
    return {
        "rows": rows,
        "all_within_bound": all(r["within_bound"] for r in rows),
        "decay_ratios": ratios.tolist(),
    }


# Bytes of the top-degree blocks of one stack of levels in the strong-convergence
# sweep.  At N = 5 on a 3-dimensional space all seven levels are one stack (6.6
# MB); at N = 6 there a level's top block is 8.5 MB, and the seven as one stack
# raised the row's traced peak from 18.6 to 72.4 MiB, so the levels go one by one.
_LEVELS_STACK_BYTES = 16 * 2**20


def strong_convergence_sweep(family: ApproximantFamily, ctx: FockContext,
                             test_vectors, final_tol: float = 1e-6) -> dict:
    """Distances to the identity along the diagonal (k up, t down) grid;
    monotone means no step grows by more than 1e-12.  The tensor powers of
    the damped maps of the levels are one stack, as many levels at a time as
    ``_LEVELS_STACK_BYTES`` holds, applied to each vector at once: one
    distance per level, each bit for bit as the level's
    ``first_quantization`` applied alone."""
    if not test_vectors:
        raise ValueError("need at least one test vector")
    if any(vec.ctx is not ctx for vec in test_vectors):
        raise ValueError("context mismatch in operator application")
    diag = list(zip(family.ks, family.ts))
    top = ctx.block_size(ctx.degree)
    per_stack = max(1, _LEVELS_STACK_BYTES // (16 * top * top))
    distances = [[] for _ in test_vectors]
    for start in range(0, len(diag), per_stack):
        levels = diag[start:start + per_stack]
        powers = _tensor_powers(np.stack([family.damped_matrix(k, t) for k, t in levels]),
                                ctx.degree)
        for dists, vec in zip(distances, test_vectors):
            image = _apply(ctx, powers, vec.blocks)
            dists.extend(_graded_norm(ctx, [a - b for a, b in zip(image, vec.blocks)]).tolist())
    rows = []
    all_monotone = True
    all_converged = True
    for i, dists in enumerate(distances):
        monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        converged = dists[-1] <= final_tol
        all_monotone &= monotone
        all_converged &= converged
        rows.append({"vector": i, "distances": dists,
                     "monotone": monotone, "converged": converged})
    return {"rows": rows, "all_monotone": all_monotone, "all_converged": all_converged,
            "grid": diag}


def admissible_residuals(T: DeformedContraction) -> dict:
    """Conjugation and group-intertwining residuals of a base map such as
    ``generate_admissible(space, k)``."""
    return {
        "iti_residual": T.iti_residual(),
        "intertwiner_residual": spaces.intertwiner_residual(T.matrix, T.source, T.target),
    }
