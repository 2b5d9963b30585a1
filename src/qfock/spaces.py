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


# Smaller side from which ``_spectral_norm`` takes a matrix's norm from its
# Gram matrix instead of an SVD.  Random matrices, CPU time, median over 8
# rounds of the best of 5, one BLAS thread on a 2-vCPU Xeon VM, SVD -> Gram.
# Complex squares: 16 0.050 -> 0.68 ms, 128 3.0 -> 3.8 ms, 243 12.9 -> 16.0
# ms, 324 19.2 -> 20.8 ms, 352 23.8 -> 24.6 ms, 384 32.8 -> 28.8 ms, 512 91
# -> 69 ms, 729 287 -> 193 ms.  Complex 81 x 243 2.6 -> 3.5 ms, 243 x 729
# 26 -> 17 ms.  Real squares: 128 1.17 -> 1.19 ms, 243 4.9 -> 3.8 ms, 729
# 115 -> 51 ms.  The crossover is the complex square one, between 352 and
# 384; real and longer blocks cross lower, near 128 and 243.
_GRAM_MIN_WIDTH = 384


def _spectral_norm(M: np.ndarray):
    """Largest singular value of a 2-D array, ``np.linalg.norm(M, ord=2)``
    without its axis handling, or one per matrix of a stack along leading
    axes, each as that matrix alone.

    Below ``_GRAM_MIN_WIDTH`` on its smaller side a matrix takes the first
    value of an SVD.  From it on it takes ``sqrt(lambda_max)`` of the Gram
    matrix of its smaller side (``M^H M`` or ``M M^H``), from one
    ``eigvalsh``, which is accurate to round-off for the largest singular
    value (not the smallest).  The matrix is first scaled by the power of
    two ``2^-e`` that brings its largest real or imaginary part into
    [1/2, 1), so the Gram entries lie within a factor of its size of 1 and
    neither overflow nor underflow; the scale is exact and is undone on the
    result.  The Gram matrix is the one block-sized temporary: the
    conjugate is taken a panel of rows at a time, and only the lower half of
    the Gram matrix is formed, which halves the product's work.  An argument
    made for the call (``_spectral_norm(gauge_block(...))``) is released
    before ``eigvalsh`` (from Python 3.11, where a call hands its arguments
    over), so the eigensolve holds no more than an SVD would.
    A matrix with a non-finite entry, or with its largest beyond 2^1000 or
    below 2^-1000, takes the SVD, so a nan raises ``LinAlgError`` and an
    inf gives nan, without a warning, as they did."""
    M = np.asarray(M)
    if min(M.shape[-2:]) < _GRAM_MIN_WIDTH:
        s = np.linalg.svd(M, compute_uv=False)
        return float(s[0]) if s.ndim == 1 else s[..., 0]
    parts = (M.real, M.imag) if np.iscomplexobj(M) else (M,)
    peak = np.max([np.maximum(np.max(X, axis=(-2, -1)), -np.min(X, axis=(-2, -1)))
                   for X in parts], axis=0)
    del parts
    e = np.frexp(peak)[1]
    by_svd = ~np.isfinite(peak) | (np.abs(e) > 1000)
    if by_svd.any():
        if M.ndim == 2:
            return float(np.linalg.svd(M, compute_uv=False)[0])
        norms = np.empty(peak.shape)
        norms[by_svd] = np.linalg.svd(M[by_svd], compute_uv=False)[..., 0]
        norms[~by_svd] = _spectral_norm(M[~by_svd])
        return norms
    scale = np.ldexp(1.0, -e)[..., None, None]
    # G = A^H A over the smaller side: M^H M, or for a wide M the conjugate
    # of M M^H, which has its eigenvalues.  The rows of A are conjugated an
    # eighth of G's width at a time, and G is formed in column panels as
    # wide, on and below its diagonal only: all that eigvalsh reads
    A = M if M.shape[-2] >= M.shape[-1] else M.swapaxes(-1, -2)
    rows, side = A.shape[-2:]
    step = -(-side // 8)
    gram = np.zeros(A.shape[:-2] + (side, side), dtype=np.result_type(A, 1.0))
    for top in range(0, rows, step):
        # 2^-e conj(A) times A, then 2^-e again below: the bits of scaling
        # both factors, as no product nears 2^1024 or the denormals
        panel = np.conj(A[..., top:top + step, :]).astype(gram.dtype, copy=False)
        panel *= scale
        for j in range(0, side, step):
            gram[..., j:, j:j + step] += (panel[..., :, j:].swapaxes(-1, -2)
                                          @ A[..., top:top + step, j:j + step])
    del panel, A, M
    gram *= scale
    norms = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[..., -1]), e)
    return float(norms) if norms.ndim == 0 else norms


def _gauge(g_out, M, g_in) -> np.ndarray:
    """A matrix between spaces of diagonal metrics ``g_in`` and ``g_out`` in
    coordinates orthonormal for them: its plain spectral norm is the
    deformed one."""
    return np.sqrt(g_out)[:, None] * M / np.sqrt(g_in)[None, :]


def _gaussian(rng, shape):
    """Complex standard Gaussian draw of the given shape: the real parts are
    drawn first, then the imaginary parts; ``shape = ()`` draws one scalar."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class BlockSpectrum:
    """Spectral recipe for the generator.

    ``blocks`` is a sequence of ``(lam, mult)`` pairs with ``lam > 1``; each
    pair contributes ``mult`` two-dimensional rotation blocks, i.e. eigenvalue
    pairs ``(lam, 1/lam)``.  ``trivial`` counts fixed directions (``lam = 1``).
    """

    def __init__(self, blocks=(), trivial=0):
        blocks = [(float(lam), int(mult)) for lam, mult in blocks]
        for lam, mult in blocks:
            if not np.isfinite(lam):
                raise ValueError("generator eigenvalues must be finite")
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

    @property
    def min_metric(self) -> float:
        """Smallest entry of the deformed metric ``2a/(1+a)``: ``2/(lam+1)``
        at ``a = 1/lam`` for the largest ``lam``, computed without the entry
        at ``a = lam``, whose ``2 lam`` overflows near the float maximum."""
        return 2.0 / (1.0 + max((lam for lam, _ in self.blocks), default=1.0))

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
        if np.any(a > np.finfo(float).max / 2.0):
            raise ValueError("generator eigenvalues above half the float maximum overflow 2a")
        if np.any(partner[partner] != np.arange(a.size)):
            raise ValueError("partner map must be an involution")
        if not np.allclose(a[partner] * a, 1.0, rtol=0, atol=1e-12):  # relative: any lam
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
    return _spectral_norm(_gauge(tgt.g, np.asarray(M), src.g))


def deformed_adjoint(src: DeformedSpace, tgt: DeformedSpace, M) -> np.ndarray:
    """Adjoint of ``M: src -> tgt`` w.r.t. the deformed inner products, per
    matrix of a stack."""
    M = np.asarray(M)
    return (np.conj(M).swapaxes(-1, -2) * tgt.g[None, :]) / src.g[:, None]


def jti_map(src: DeformedSpace, tgt: DeformedSpace, M) -> np.ndarray:
    """The map ``J M I`` (conjugations applied antilinearly), per matrix of a stack."""
    M = np.asarray(M)
    return np.conj(M)[..., tgt.partner[:, None], src.partner]


def iti_residual(src: DeformedSpace, tgt: DeformedSpace, M):
    """Deformed operator norm of ``J M I - M``; zero iff M admits second
    quantisation between these spaces.  One per matrix of a stack."""
    M = np.asarray(M)
    if M.shape[-2:] != (tgt.dim, src.dim):
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


def dilate(src: DeformedSpace, tgt: DeformedSpace, T) -> np.ndarray:
    """Unitary dilation on ``src (+) tgt`` (deformed metrics) of a matrix
    ``T: src -> tgt`` of deformed norm at most 1, or of each matrix of a
    stack along a leading axis, bit for bit as alone; a norm above 1 raises.

    Returns the block matrix with entries ``(1-T#T)^{1/2}, T#, T,
    -(1-TT#)^{1/2}`` where ``#`` is the deformed adjoint; it is unitary for
    the direct-sum deformed metric and satisfies ``P U iota = T``.
    """
    # work in the orthonormal gauge, where adjoints are conjugate transposes
    Tg = _gauge(tgt.g, T, src.g)
    if np.max(_spectral_norm(Tg)) > 1.0 + NORM_TOL:
        raise ValueError("cannot dilate: norm exceeds 1")
    Tg_adj = np.conj(Tg).swapaxes(-1, -2)
    dk = _psd_sqrt(np.eye(src.dim) - Tg_adj @ Tg)
    dh = _psd_sqrt(np.eye(tgt.dim) - Tg @ Tg_adj)
    Ug = np.block([[dk, Tg_adj], [Tg, -dh]])
    scale_out = np.concatenate([1.0 / np.sqrt(src.g), 1.0 / np.sqrt(tgt.g)])
    scale_in = np.concatenate([np.sqrt(src.g), np.sqrt(tgt.g)])
    return scale_out[:, None] * Ug * scale_in[None, :]


def _psd_sqrt(M) -> np.ndarray:
    """Square root of a PSD matrix, or of each of a stack (raises below -1e-8)."""
    w, v = np.linalg.eigh((M + np.conj(M).swapaxes(-1, -2)) / 2.0)
    if w.min() < -1e-8:
        raise ValueError("operator is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.conj(v).swapaxes(-1, -2)


def random_contraction(rng, src: DeformedSpace, tgt: DeformedSpace,
                       norm: float = 0.5) -> DeformedContraction:
    """Random matrix rescaled to a prescribed deformed operator norm."""
    M = _gaussian(rng, (tgt.dim, src.dim))
    M *= norm / deformed_op_norm(src, tgt, M)
    return DeformedContraction(src, tgt, M)


def random_jti_contraction(rng, src: DeformedSpace, tgt: DeformedSpace,
                           norm: float = 0.5) -> DeformedContraction:
    """Random contraction satisfying ``J T I = T``.

    Produced by averaging a random matrix with its ``J (.) I`` conjugate and
    rescaling by a positive real, which preserves the symmetry.
    """
    M = _gaussian(rng, (tgt.dim, src.dim))
    M = (M + jti_map(src, tgt, M)) / 2.0
    nrm = deformed_op_norm(src, tgt, M)
    if nrm < 1e-12:
        raise ValueError("degenerate sample; retry with another seed")
    M *= norm / nrm
    return DeformedContraction(src, tgt, M)
