"""Second quantisation of conjugation-compatible contractions.

A channel is the three-factor composition: embed the source Wick word into
the Fock space over source (+) target, then conjugate by the first
quantisation of (projection onto target) x (unitary dilation).  Its defining
property, checked rather than assumed throughout, is Wick covariance:
simple-tensor Wick words map to Wick words of the image tensors.
"""

from __future__ import annotations

import numpy as np

from . import spaces
from .fock import FockContext, GradedOperator, GradedVector, first_quantization
from .spaces import DeformedContraction
from .wick import WickWord, wick_word

ITI_TOL = 1e-10


def conjugation_channel(ctx_in: FockContext, ctx_out: FockContext, V):
    """Operator map ``x -> F_q(V) x F_q(V)#`` for a base-space matrix ``V``."""
    F = first_quantization(ctx_in, ctx_out, V)
    Fadj = F.adjoint()

    def channel(x: GradedOperator) -> GradedOperator:
        return F @ x @ Fadj

    return channel


def embed_tensor(src_ctx: FockContext, comb_ctx: FockContext, xi, degree: int) -> np.ndarray:
    """Push a degree-n coefficient tensor along the inclusion of base spaces.

    Assumes the source space sits as the leading coordinates of the combined
    space, which is how ``spaces.direct_sum`` lays it out.
    """
    if degree == 0:
        return np.asarray(xi, dtype=complex).reshape(1).copy()
    xi_nd = np.asarray(xi, dtype=complex).reshape((src_ctx.dim,) * degree)
    out = np.zeros((comb_ctx.dim,) * degree, dtype=complex)
    out[np.ix_(*([range(src_ctx.dim)] * degree))] = xi_nd
    return out.ravel()


def embed_wick(src_ctx: FockContext, comb_ctx: FockContext, word: WickWord,
               inputs=None) -> WickWord:
    """Wick word over the combined space with the included coefficient tensor,
    built on the input degrees ``inputs`` only when they are given."""
    if word.degree > comb_ctx.degree:
        raise ValueError("degree overflow in embedding")
    return wick_word(comb_ctx, embed_tensor(src_ctx, comb_ctx, word.tensor, word.degree),
                     word.degree, inputs=inputs)


class QuantizationChannel:
    """Second quantisation of a contraction with ``J T I = T``.

    Acts on the span of source Wick words (and on products of them inside
    the safe window) by embedding and conjugating with ``F_q(P U_T)``.
    """

    def __init__(self, contraction: DeformedContraction,
                 src_ctx: FockContext, tgt_ctx: FockContext,
                 comb_ctx: FockContext, tol: float = ITI_TOL):
        if contraction.iti_residual() > tol:
            raise ValueError("contraction does not satisfy J T I = T; "
                             "second quantisation is undefined")
        if src_ctx.space is not contraction.source or tgt_ctx.space is not contraction.target:
            raise ValueError("contexts do not match the contraction's spaces")
        if comb_ctx.dim != src_ctx.dim + tgt_ctx.dim:
            raise ValueError("combined context has wrong base dimension")
        if comb_ctx.degree != tgt_ctx.degree or comb_ctx.q != tgt_ctx.q:
            raise ValueError("combined and target contexts must share q and degree")
        self.contraction = contraction
        self.src_ctx = src_ctx
        self.tgt_ctx = tgt_ctx
        self.comb_ctx = comb_ctx
        U = spaces.dilate(contraction)
        PU = spaces.projection_matrix(contraction.source, contraction.target) @ U
        self._front = first_quantization(comb_ctx, tgt_ctx, PU)
        self._front_adj = self._front.adjoint()

    @property
    def matrix(self) -> np.ndarray:
        return self.contraction.matrix

    def conjugate(self, x: GradedOperator) -> GradedOperator:
        """The channel's conjugation step on an operator over the combined space."""
        return self._front @ x @ self._front_adj

    def _safe_window(self, degree: int) -> range:
        """Input degrees ``0..N-degree`` on which a degree-n image is exact."""
        return range(self.tgt_ctx.degree - degree + 1)

    def apply_word(self, word: WickWord) -> GradedOperator:
        """Channel image of a source Wick word on its safe window only.

        The image holds the blocks of input degree ``0..N-degree``; blocks on
        higher input degrees feel the truncation and are not computed, so
        ``block`` reads them as zero.  A caller that needs them must build
        the full image itself.
        """
        return self.conjugate(embed_wick(self.src_ctx, self.comb_ctx, word,
                                         inputs=self._safe_window(word.degree)).op)

    def apply_product(self, words) -> GradedOperator:
        """Channel applied to a product of source Wick words; trustworthy on
        input degrees within the safe window for the total degree."""
        emb = None
        for w in words:
            e = embed_wick(self.src_ctx, self.comb_ctx, w).op
            emb = e if emb is None else emb @ e
        if emb is None:
            emb = GradedOperator.identity(self.comb_ctx)
        return self.conjugate(emb)

    def image_tensor(self, word: WickWord) -> np.ndarray:
        """Coefficient tensor of the expected image word ``T^{(x)n} xi``."""
        if word.degree == 0:
            return word.tensor.copy()
        power = np.eye(1, dtype=complex)
        for _ in range(word.degree):
            power = np.kron(self.matrix, power)
        return power @ word.tensor

    def covariance_residual(self, word: WickWord, image: GradedOperator) -> float:
        """Deformed-norm gap between ``image``, the channel image of a Wick
        word from ``apply_word``, and the Wick word of the image tensor, on
        the safe window."""
        window = self._safe_window(word.degree)
        expected = wick_word(self.tgt_ctx, self.image_tensor(word), word.degree,
                             inputs=window).op
        res = 0.0
        for p in window:
            for m in range(self.tgt_ctx.degree + 1):
                diff = image.block(m, p) - expected.block(m, p)
                res = max(res, self.tgt_ctx.block_norm(diff, m, p))
        return res

    def unitality_residual(self) -> float:
        image = self.conjugate(GradedOperator.identity(self.comb_ctx))
        return image.max_diff(GradedOperator.identity(self.tgt_ctx))

    def vacuum_state_residual(self, ops_src, ops_img) -> float:
        """Sup over provided (source op, channel image) pairs of the vacuum
        expectation gap."""
        vac_src = GradedVector.vacuum(self.src_ctx)
        vac_tgt = GradedVector.vacuum(self.tgt_ctx)
        res = 0.0
        for x, y in zip(ops_src, ops_img):
            lhs = self.tgt_ctx.q_inner(vac_tgt.blocks[0], y.apply(vac_tgt).blocks[0], 0)
            rhs = self.src_ctx.q_inner(vac_src.blocks[0], x.apply(vac_src).blocks[0], 0)
            res = max(res, abs(lhs - rhs))
        return res


def second_quantization(contraction: DeformedContraction,
                        src_ctx: FockContext, tgt_ctx: FockContext,
                        comb_ctx: FockContext | None = None,
                        tol: float = ITI_TOL) -> QuantizationChannel:
    if comb_ctx is None:
        comb_space = spaces.direct_sum(contraction.source, contraction.target)
        comb_ctx = FockContext(comb_space, tgt_ctx.q, tgt_ctx.degree)
    return QuantizationChannel(contraction, src_ctx, tgt_ctx, comb_ctx, tol=tol)


def gns_residual(channel: QuantizationChannel, word: WickWord,
                 image: GradedOperator) -> float:
    """Gap between the GNS action of ``image``, the channel image of ``word``
    from ``apply_word``, on the vacuum and the first quantisation of the
    contraction."""
    vector = image.apply(GradedVector.vacuum(channel.tgt_ctx))
    expected = GradedVector.from_degree(channel.tgt_ctx, word.degree,
                                        channel.image_tensor(word))
    return (vector - expected).norm()


def _combination(src_ctx, comb_ctx, coeffs, words, window) -> GradedOperator:
    """Embedded ``sum_i c_i W(xi_i)`` on the input degrees of ``window``."""
    total = None
    for c, w in zip(coeffs, words):
        term = c * embed_wick(src_ctx, comb_ctx, w, inputs=window).op
        total = term if total is None else total + term
    if total is None:
        raise ValueError("empty combination")
    return total


def _hermitian_min_eig(full: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a dense matrix."""
    return float(np.linalg.eigvalsh((full + np.conj(full).T) / 2.0)[0])


def kadison_schwarz_margin(channel: QuantizationChannel, coeffs, words,
                           window=None) -> float:
    """Smallest eigenvalue of ``Phi(x# x) - Phi(x)# Phi(x)`` compressed to the
    safe window, for ``x = sum_i c_i W(xi_i)``; nonnegative up to numerics."""
    ctx = channel.tgt_ctx
    if window is None:
        dmax = max(w.degree for w in words)
        window = range(max(ctx.degree - 2 * dmax, 0) + 1)
    # every block the window reads has input and output degree in it, so the
    # embedded word is needed on those input degrees only
    emb = _combination(channel.src_ctx, channel.comb_ctx, coeffs, words, window)
    lhs = channel.conjugate(emb.adjoint() @ emb)
    img = channel.conjugate(emb)
    rhs = img.adjoint() @ img
    return _hermitian_min_eig((lhs - rhs).to_dense(gauge=True, window=window))


def two_positivity_margin(channel: QuantizationChannel, samples, window=None) -> float:
    """Min eigenvalue of the entrywise channel image of a PSD 2x2 operator
    matrix ``X# X`` with Wick-word entries, compressed to the safe window."""
    ctx = channel.tgt_ctx
    dmax = max(w.degree for row in samples for (_, w) in row)
    if window is None:
        window = range(max(ctx.degree - 2 * dmax, 0) + 1)
    embedded = [[_combination(channel.src_ctx, channel.comb_ctx, [c], [w], window)
                 for (c, w) in row] for row in samples]
    adjoints = [[x.adjoint() for x in row] for row in embedded]
    # Y = X# X as a 2x2 operator matrix over the combined space
    images = {}
    for i in range(2):
        for j in range(2):
            y = None
            for r in range(2):
                term = adjoints[r][i] @ embedded[r][j]
                y = term if y is None else y + term
            images[(i, j)] = channel.conjugate(y)
    return _hermitian_min_eig(np.block(
        [[images[(i, j)].to_dense(gauge=True, window=window) for j in range(2)]
         for i in range(2)]))


def positivity_probe(channel: QuantizationChannel, rng, n_samples: int,
                     degree_max: int = 1, terms: int = 2) -> dict:
    """Random sweep of Kadison-Schwarz and 2-positivity margins."""
    if n_samples < 1:
        raise ValueError("sample budget must be >= 1")
    src = channel.src_ctx
    ks_margins, two_pos_margins = [], []
    for s in range(n_samples):
        coeffs, words = _random_words(src, rng, terms, degree_max)
        ks_margins.append(kadison_schwarz_margin(channel, coeffs, words))
        if s % 4 == 0:
            rows = []
            for _ in range(2):
                cs, ws = _random_words(src, rng, 2, degree_max)
                rows.append(list(zip(cs, ws)))
            two_pos_margins.append(two_positivity_margin(channel, rows))
    return {
        "samples": n_samples,
        "kadison_schwarz_min": min(ks_margins),
        "two_positivity_min": min(two_pos_margins),
    }


def _random_words(ctx: FockContext, rng, terms: int, degree_max: int):
    coeffs, words = [], []
    for _ in range(terms):
        deg = int(rng.integers(0, degree_max + 1))
        size = ctx.block_size(deg)
        xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coeffs.append(complex(rng.standard_normal() + 1j * rng.standard_normal()))
        words.append(wick_word(ctx, xi, deg))
    return coeffs, words
