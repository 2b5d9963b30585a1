"""Finite-dimensional deformed Hilbert spaces.

A space is modelled in an eigenbasis of its positive generator ``A``, so the
deformed metric ``G = 2A(1+A)^{-1}`` is diagonal and the antilinear
conjugation acts by entrywise complex conjugation followed by the basis
permutation pairing each eigenvalue ``lam`` with its partner ``1/lam``.
All adjoints and operator norms below are taken with respect to the
deformed metrics unless explicitly stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-10


def _spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a 2-D array: ``np.linalg.norm(M, ord=2)``
    without its axis handling."""
    return float(np.linalg.svd(M, compute_uv=False)[0])


class BlockSpectrum:
    """Spectral recipe for the generator.

    ``blocks`` is a sequence of ``(lam, mult)`` pairs with ``lam > 1``; each
    pair contributes ``mult`` two-dimensional rotation blocks, i.e. eigenvalue
    pairs ``(lam, 1/lam)``.  ``trivial`` counts fixed directions (``lam = 1``).
    """

    def __init__(self, blocks=(), trivial=0):
        blocks = [(float(lam), int(mult)) for lam, mult in blocks]
        for lam, mult in blocks:
            if lam <= 0.0:
                raise ValueError("generator eigenvalues must be positive")
            if lam < 1.0:
                raise ValueError("blocks are normalized to lam >= 1; pass the larger partner")
            if lam == 1.0:
                raise ValueError("lam = 1 directions go in `trivial`")
            if mult < 1:
                raise ValueError("block multiplicity must be >= 1")
        if trivial < 0:
            raise ValueError("trivial count must be >= 0")
        self.blocks = blocks
        self.trivial = int(trivial)

    @property
    def dim(self) -> int:
        return self.trivial + 2 * sum(m for _, m in self.blocks)

    def __repr__(self):
        return f"BlockSpectrum(blocks={self.blocks!r}, trivial={self.trivial})"


class DeformedSpace:
    """Complexified space in an eigenbasis of the generator.

    Attributes
    ----------
    dim : complex dimension.
    a : 1-d array of generator eigenvalues (diagonal of ``A``).
    g : 1-d array ``2a/(1+a)`` (diagonal of the deformed metric ``G``).
    partner : involutive index permutation sending the ``lam`` eigenvector
        to the ``1/lam`` one; together with entrywise conjugation it
        represents the conjugation ``I``.
    """

    def __init__(self, a, partner):
        a = np.asarray(a, dtype=float)
        partner = np.asarray(partner, dtype=int)
        if a.ndim != 1 or a.shape != partner.shape:
            raise ValueError("eigenvalue and partner arrays must be 1-d of equal length")
        if np.any(a <= 0):
            raise ValueError("generator must be positive definite")
        if np.any(partner[partner] != np.arange(a.size)):
            raise ValueError("partner map must be an involution")
        if not np.allclose(a[partner], 1.0 / a, rtol=0, atol=1e-12):
            raise ValueError("spectrum must be closed under lam <-> 1/lam via the partner map")
        self.a = a
        self.partner = partner
        self.g = 2.0 * a / (1.0 + a)
        self.dim = int(a.size)

    def conjugate(self, x) -> np.ndarray:
        """Apply the antilinear conjugation ``I`` to a vector."""
        x = np.asarray(x)
        return np.conj(x)[self.partner]

    def __repr__(self):
        return f"DeformedSpace(dim={self.dim}, a={self.a!r})"


def build_space(spec: BlockSpectrum) -> DeformedSpace:
    """Realize a block spectrum as a deformed space in the paired eigenbasis."""
    eigs, partner = [], []
    for lam, mult in spec.blocks:
        for _ in range(mult):
            k = len(eigs)
            eigs.extend((lam, 1.0 / lam))
            partner.extend((k + 1, k))
    for _ in range(spec.trivial):
        partner.append(len(eigs))
        eigs.append(1.0)
    if not eigs:
        raise ValueError("empty spectrum")
    return DeformedSpace(np.array(eigs), np.array(partner))


def direct_sum(left: DeformedSpace, right: DeformedSpace) -> DeformedSpace:
    a = np.concatenate([left.a, right.a])
    partner = np.concatenate([left.partner, right.partner + left.dim])
    return DeformedSpace(a, partner)


def inclusion_matrix(src: DeformedSpace, tgt: DeformedSpace) -> np.ndarray:
    """Inclusion of ``src`` onto the first summand of ``src (+) tgt``."""
    m = np.zeros((src.dim + tgt.dim, src.dim))
    m[: src.dim] = np.eye(src.dim)
    return m


def projection_matrix(src: DeformedSpace, tgt: DeformedSpace) -> np.ndarray:
    """Projection of ``src (+) tgt`` onto the second summand."""
    m = np.zeros((tgt.dim, src.dim + tgt.dim))
    m[:, src.dim:] = np.eye(tgt.dim)
    return m


def deformed_inner(space: DeformedSpace, x, y) -> complex:
    """Deformed inner product, conjugate-linear in the first argument."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != (space.dim,) or y.shape != (space.dim,):
        raise ValueError("vector dimension mismatch")
    return complex(np.sum(np.conj(x) * space.g * y))


def deformed_op_norm(src: DeformedSpace, tgt: DeformedSpace, M) -> float:
    """Operator norm of ``M: src -> tgt`` w.r.t. the deformed metrics."""
    M = np.asarray(M)
    gauged = np.sqrt(tgt.g)[:, None] * M / np.sqrt(src.g)[None, :]
    return _spectral_norm(gauged)


def deformed_adjoint(src: DeformedSpace, tgt: DeformedSpace, M) -> np.ndarray:
    """Adjoint of ``M: src -> tgt`` w.r.t. the deformed inner products."""
    M = np.asarray(M)
    return (np.conj(M).T * tgt.g[None, :]) / src.g[:, None]


def jti_map(src: DeformedSpace, tgt: DeformedSpace, M) -> np.ndarray:
    """The linear map ``J M I`` (both conjugations applied antilinearly)."""
    M = np.asarray(M)
    return np.conj(M)[np.ix_(tgt.partner, src.partner)]


def iti_residual(src: DeformedSpace, tgt: DeformedSpace, M) -> float:
    """Deformed operator norm of ``J M I - M``; zero iff M admits second
    quantisation between these spaces."""
    M = np.asarray(M)
    if M.shape != (tgt.dim, src.dim):
        raise ValueError("matrix shape does not match the spaces")
    return deformed_op_norm(src, tgt, jti_map(src, tgt, M) - M)


def intertwiner_residual(M, src: DeformedSpace, tgt: DeformedSpace) -> float:
    """Residual of the group-intertwining condition, on the generator and at
    the group times 0.5, 1 and 2."""
    M = np.asarray(M)
    res = _spectral_norm(M * src.a[None, :] - tgt.a[:, None] * M)
    for t in (0.5, 1.0, 2.0):
        ut_src = src.a ** (1j * t)
        ut_tgt = tgt.a ** (1j * t)
        res = max(res, _spectral_norm(M * ut_src[None, :] - ut_tgt[:, None] * M))
    return res


def spectral_map(space: DeformedSpace, f) -> np.ndarray:
    """Functional calculus ``f(A)`` as a matrix.

    For the result to commute with the conjugation, ``f`` must be symmetric
    under ``lam <-> 1/lam`` on the spectrum.
    """
    return np.diag(np.asarray([f(lam) for lam in space.a], dtype=float))


@dataclass(frozen=True)
class DeformedContraction:
    """A matrix between deformed spaces with deformed operator norm <= 1."""

    source: DeformedSpace
    target: DeformedSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        if M.shape != (self.target.dim, self.source.dim):
            raise ValueError("matrix shape does not match source/target dimensions")
        if deformed_op_norm(self.source, self.target, M) > 1.0 + NORM_TOL:
            raise ValueError("not a contraction w.r.t. the deformed metrics")
        object.__setattr__(self, "matrix", M)

    @property
    def norm(self) -> float:
        return deformed_op_norm(self.source, self.target, self.matrix)

    def iti_residual(self) -> float:
        return iti_residual(self.source, self.target, self.matrix)


def dilate(contraction: DeformedContraction) -> np.ndarray:
    """Unitary dilation on ``source (+) target`` (deformed metrics).

    Returns the block matrix with entries ``(1-T#T)^{1/2}, T#, T,
    -(1-TT#)^{1/2}`` where ``#`` is the deformed adjoint; it is unitary for
    the direct-sum deformed metric and satisfies ``P U iota = T``.
    """
    src, tgt = contraction.source, contraction.target
    T = contraction.matrix
    # work in the orthonormal gauge, where adjoints are conjugate transposes
    Tg = np.sqrt(tgt.g)[:, None] * T / np.sqrt(src.g)[None, :]
    if _spectral_norm(Tg) > 1.0 + NORM_TOL:
        raise ValueError("cannot dilate: norm exceeds 1")
    dk = _psd_sqrt(np.eye(src.dim) - np.conj(Tg).T @ Tg)
    dh = _psd_sqrt(np.eye(tgt.dim) - Tg @ np.conj(Tg).T)
    Ug = np.block([[dk, np.conj(Tg).T], [Tg, -dh]])
    scale_out = np.concatenate([1.0 / np.sqrt(src.g), 1.0 / np.sqrt(tgt.g)])
    scale_in = np.concatenate([np.sqrt(src.g), np.sqrt(tgt.g)])
    return scale_out[:, None] * Ug * scale_in[None, :]


def _psd_sqrt(M) -> np.ndarray:
    w, v = np.linalg.eigh((M + np.conj(M).T) / 2.0)
    if w.min() < -1e-8:
        raise ValueError("operator is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ np.conj(v).T


def random_contraction(rng, src: DeformedSpace, tgt: DeformedSpace,
                       norm: float = 0.5) -> DeformedContraction:
    """Random matrix rescaled to a prescribed deformed operator norm."""
    M = rng.standard_normal((tgt.dim, src.dim)) + 1j * rng.standard_normal((tgt.dim, src.dim))
    M *= norm / deformed_op_norm(src, tgt, M)
    return DeformedContraction(src, tgt, M)


def random_jti_contraction(rng, src: DeformedSpace, tgt: DeformedSpace,
                           norm: float = 0.5) -> DeformedContraction:
    """Random contraction satisfying ``J T I = T``.

    Produced by averaging a random matrix with its ``J (.) I`` conjugate and
    rescaling by a positive real, which preserves the symmetry.
    """
    M = rng.standard_normal((tgt.dim, src.dim)) + 1j * rng.standard_normal((tgt.dim, src.dim))
    M = (M + jti_map(src, tgt, M)) / 2.0
    nrm = deformed_op_norm(src, tgt, M)
    if nrm < 1e-12:
        raise ValueError("degenerate sample; retry with another seed")
    M *= norm / nrm
    return DeformedContraction(src, tgt, M)
