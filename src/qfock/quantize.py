"""Second quantisation of conjugation-compatible contractions.

A channel is the three-factor composition: embed the source Wick word into
the Fock space over source (+) target, then conjugate by the first
quantisation of (projection onto target) x (unitary dilation).  Its defining
property, checked rather than assumed throughout, is Wick covariance:
simple-tensor Wick words map to Wick words of the image tensors.

The positivity margins use the intrinsic image instead: on the Wick algebra
of one context, ``Gamma_q(T): W(xi) -> W(T^{(x)n} xi)`` (``intrinsic_image``)
needs neither the combined space nor the dilation, only the tensor powers of
``T`` (``tensor_powers``, which also holds the one guard: ``J T I = T``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import spaces
from .fock import (FockContext, GradedOperator, GradedVector, blockwise_gap,
                   coordinate_index, first_quantization, hermitian_min_eig)
from .spaces import DeformedContraction, _gaussian
from .wick import WickWord, wick_word

ITI_TOL = 1e-10


def _conjugate(F: GradedOperator, F_adj: GradedOperator, x: GradedOperator) -> GradedOperator:
    return F @ x @ F_adj


def conjugation_channel(ctx_in: FockContext, ctx_out: FockContext, V):
    """Operator map ``x -> F_q(V) x F_q(V)#`` for a base-space matrix ``V``."""
    F = first_quantization(ctx_in, ctx_out, V)
    return partial(_conjugate, F, F.adjoint())


def embed_tensor(src_ctx: FockContext, comb_ctx: FockContext, xi, degree: int) -> np.ndarray:
    """Push a degree-n coefficient tensor along the inclusion of base spaces.

    Assumes the source space sits as the leading coordinates of the combined
    space, which is how ``spaces.direct_sum`` lays it out.
    """
    out = np.zeros(comb_ctx.block_size(degree), dtype=complex)
    out[coordinate_index(comb_ctx.dim, range(src_ctx.dim), degree)] = \
        np.asarray(xi, dtype=complex).reshape(src_ctx.block_size(degree))
    return out


def embed_wick(src_ctx: FockContext, comb_ctx: FockContext, word: WickWord,
               inputs=None) -> WickWord:
    """Wick word over the combined space with the included coefficient tensor,
    built on the input degrees ``inputs`` only when they are given."""
    if word.degree > comb_ctx.degree:
        raise ValueError("degree overflow in embedding")
    return wick_word(comb_ctx, embed_tensor(src_ctx, comb_ctx, word.tensor, word.degree),
                     word.degree, inputs=inputs)


def tensor_powers(contraction: DeformedContraction, src_ctx: FockContext,
                  tgt_ctx: FockContext) -> GradedOperator:
    """``first_quantization(src_ctx, tgt_ctx, T)`` of a contraction ``T`` between
    the contexts' spaces, behind the one guard of second quantisation."""
    if contraction.iti_residual() > ITI_TOL:
        raise ValueError("contraction does not satisfy J T I = T; "
                         "second quantisation is undefined")
    if src_ctx.space is not contraction.source or tgt_ctx.space is not contraction.target:
        raise ValueError("contexts do not match the contraction's spaces")
    return first_quantization(src_ctx, tgt_ctx, contraction.matrix)


class QuantizationChannel:
    """Second quantisation of a contraction with ``J T I = T``.

    Acts on source Wick words by embedding them in the combined space and
    conjugating with ``F = F_q(P U_T)``; ``conjugate`` is that last step
    alone.  The channel holds ``F``, ``F#`` and the tensor powers of ``T``
    (``tensor_powers``) for ``image_tensor``.
    """

    def __init__(self, contraction: DeformedContraction,
                 src_ctx: FockContext, tgt_ctx: FockContext,
                 comb_ctx: FockContext):
        self._powers = tensor_powers(contraction, src_ctx, tgt_ctx)
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
        self._F = first_quantization(comb_ctx, tgt_ctx, PU)
        self._F_adj = self._F.adjoint()

    @property
    def matrix(self) -> np.ndarray:
        return self.contraction.matrix

    def conjugate(self, x: GradedOperator) -> GradedOperator:
        """The channel's conjugation step on an operator over the combined space."""
        return _conjugate(self._F, self._F_adj, x)

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

    def image_tensor(self, word: WickWord) -> np.ndarray:
        """Coefficient tensor of the expected image word ``T^{(x)n} xi``."""
        return self._powers.block(word.degree, word.degree) @ word.tensor

    def covariance_residual(self, word: WickWord, image: GradedOperator) -> float:
        """Deformed-norm gap between ``image``, the channel image of a Wick
        word from ``apply_word``, and the Wick word of the image tensor, on
        the safe window."""
        window = self._safe_window(word.degree)
        expected = wick_word(self.tgt_ctx, self.image_tensor(word), word.degree,
                             inputs=window).op
        return blockwise_gap(self.tgt_ctx, image, expected, window)

    def unitality_residual(self) -> float:
        """Gap between the image ``F 1 F# = F F#`` of the identity and the
        identity."""
        return (self._F @ self._F_adj).max_diff(GradedOperator.identity(self.tgt_ctx))


def second_quantization(contraction: DeformedContraction,
                        src_ctx: FockContext, tgt_ctx: FockContext) -> QuantizationChannel:
    """The channel of ``contraction`` with a combined context built for it."""
    comb_space = spaces.direct_sum(contraction.source, contraction.target)
    comb_ctx = FockContext(comb_space, tgt_ctx.q, tgt_ctx.degree)
    return QuantizationChannel(contraction, src_ctx, tgt_ctx, comb_ctx)


def gns_residual(channel: QuantizationChannel, word: WickWord,
                 image: GradedOperator) -> float:
    """Gap between the GNS action of ``image``, the channel image of ``word``
    from ``apply_word``, on the vacuum and the first quantisation of the
    contraction."""
    vector = image.apply(GradedVector.vacuum(channel.tgt_ctx))
    expected = GradedVector.from_degree(channel.tgt_ctx, word.degree,
                                        channel.image_tensor(word))
    return (vector - expected).norm()


def _positivity_window(ctx: FockContext, words) -> range:
    """Degrees ``0..N-2 dmax`` on which ``x# x`` is exact for words of degree
    at most ``dmax``."""
    dmax = max(w.degree for w in words)
    return range(max(ctx.degree - 2 * dmax, 0) + 1)


def _on_inputs(op: GradedOperator, degrees) -> GradedOperator:
    """The blocks of ``op`` whose input degree is in ``degrees``."""
    return GradedOperator(op.ctx_out, op.ctx_in,
                          {key: B for key, B in op.blocks.items() if key[1] in degrees})


def _element(coeffs, words, degrees) -> GradedOperator:
    """``x = sum_i c_i W(xi_i)`` on the input degrees ``degrees``."""
    total = GradedOperator(words[0].ctx, words[0].ctx, {})
    for c, w in zip(coeffs, words):
        total = total + c * _on_inputs(w.op, degrees)
    return total


def intrinsic_image(powers: GradedOperator, y: GradedOperator, window) -> GradedOperator:
    """``Gamma_q(T) y`` on the input degrees of ``window``.

    On the safe window an element of the Wick algebra is
    ``y = sum_d W((y Omega)_d)``, so its image is
    ``sum_d W(T^{(x)d} (y Omega)_d)``: ``(y Omega)_d`` is the vacuum column
    of the ``(d, 0)`` block of ``y`` and ``T^{(x)d}`` the degree-d block of
    ``powers``, the first quantisation of ``T``.  No dilation and no
    combined space are involved."""
    ctx = powers.ctx_out
    total = GradedOperator(ctx, ctx, {})
    for d in sorted(m for (m, p) in y.blocks if p == 0):
        xi = powers.block(d, d) @ y.blocks[(d, 0)][:, 0]
        total = total + wick_word(ctx, xi, d, inputs=window).op
    return total


def _span(ctx: FockContext, words) -> range:
    """Input degrees ``0..2 dmax`` that ``x# x`` needs of ``x`` to have an
    exact vacuum column, for words of degree at most ``dmax``."""
    return range(min(2 * max(w.degree for w in words), ctx.degree) + 1)


def kadison_schwarz_margin(powers: GradedOperator, coeffs, words) -> float:
    """Smallest eigenvalue of ``Gamma(x# x) - Gamma(x)# Gamma(x)`` compressed
    to the safe window, for ``x = sum_i c_i W(xi_i)`` and ``Gamma`` the
    intrinsic image ``Gamma_q(T)`` of a base-space matrix ``T``, given by its
    tensor powers ``powers = first_quantization(ctx, ctx, T)`` on the words'
    context; nonnegative up to numerics when ``T`` is a contraction with
    ``J T I = T``."""
    ctx = powers.ctx_out
    window = _positivity_window(ctx, words)
    x = _element(coeffs, words, _span(ctx, words))
    # the vacuum column of x# x, exact since x holds the inputs 0..2 dmax
    lhs = intrinsic_image(powers, x.adjoint() @ _on_inputs(x, (0,)), window)
    img = intrinsic_image(powers, x, window)
    rhs = img.adjoint() @ img
    return hermitian_min_eig([(lhs - rhs).to_dense(gauge=True, window=window)[None]])


def two_positivity_margin(powers: GradedOperator, samples) -> float:
    """Min eigenvalue of the entrywise image ``Gamma_q(T)`` of a PSD 2x2
    operator matrix ``X# X`` with Wick-word entries, compressed to the safe
    window; ``powers`` is ``first_quantization(ctx, ctx, T)``."""
    ctx = powers.ctx_out
    words = [w for row in samples for (_, w) in row]
    window = _positivity_window(ctx, words)
    span = _span(ctx, words)
    entries = [[_element([c], [w], span) for (c, w) in row] for row in samples]
    adjoints = [[x.adjoint() for x in row] for row in entries]
    columns = [[_on_inputs(x, (0,)) for x in row] for row in entries]
    # (X# X)_{ij} = sum_r X_{ri}# X_{rj}, needed on its vacuum column only
    images = [[intrinsic_image(powers, adjoints[0][i] @ columns[0][j]
                               + adjoints[1][i] @ columns[1][j], window)
               for j in range(2)] for i in range(2)]
    return hermitian_min_eig([np.block(
        [[images[i][j].to_dense(gauge=True, window=window) for j in range(2)]
         for i in range(2)])[None]])


def positivity_probe(contraction: DeformedContraction, ctx: FockContext, rng,
                     n_samples: int) -> dict:
    """Random sweep of the Kadison-Schwarz and 2-positivity margins of
    ``Gamma_q(T)`` on ``ctx``, on combinations of two Wick words of degree at
    most 1."""
    if n_samples < 1:
        raise ValueError("sample budget must be >= 1")
    powers = tensor_powers(contraction, ctx, ctx)
    ks_margins, two_pos_margins = [], []
    for s in range(n_samples):
        coeffs, words = _random_words(ctx, rng)
        ks_margins.append(kadison_schwarz_margin(powers, coeffs, words))
        if s % 4 == 0:
            rows = []
            for _ in range(2):
                cs, ws = _random_words(ctx, rng)
                rows.append(list(zip(cs, ws)))
            two_pos_margins.append(two_positivity_margin(powers, rows))
    return {
        "samples": n_samples,
        "kadison_schwarz_min": min(ks_margins),
        "two_positivity_min": min(two_pos_margins),
    }


def _random_words(ctx: FockContext, rng):
    """Two random Wick words of degree 0 or 1 and their coefficients, built
    on the input degrees ``0..2``: all that the margins read of them."""
    coeffs, words = [], []
    for _ in range(2):
        deg = int(rng.integers(0, 2))
        xi = _gaussian(rng, ctx.block_size(deg))
        coeffs.append(complex(_gaussian(rng, ())))
        words.append(wick_word(ctx, xi, deg, inputs=range(min(2, ctx.degree) + 1)))
    return coeffs, words
