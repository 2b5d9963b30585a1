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
A sweep of random draws (``positivity_margins``) evaluates all draws that
share their word degrees as one stack, on the block algebra of ``fock``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import spaces
from .fock import (FockContext, GradedOperator, GradedVector, OperatorStack, _add, _adjoint,
                   _assemble, _compose, _min_eigs, _on_inputs, _scale, blockwise_gap,
                   coordinate_index, first_quantization)
from .spaces import DeformedContraction, _gaussian
from .wick import WickWord, _word_blocks, wick_word

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


def _positivity_window(ctx: FockContext, degrees) -> range:
    """Degrees ``0..N-2 dmax`` on which ``x# x`` is exact for words of the
    given degrees, ``dmax`` the largest."""
    return range(max(ctx.degree - 2 * max(degrees), 0) + 1)


def _span(ctx: FockContext, degrees) -> range:
    """Input degrees ``0..2 dmax`` that ``x# x`` needs of ``x`` to have an
    exact vacuum column, for words of the given degrees."""
    return range(min(2 * max(degrees), ctx.degree) + 1)


def _image_blocks(ctx: FockContext, powers: dict, y: dict, window) -> dict:
    """Blocks of ``Gamma_q(T) y`` on the input degrees of ``window``
    (``intrinsic_image``), for the blocks ``powers`` of the tensor powers of
    ``T`` and ``y`` of one operator, or of stacks of both."""
    total = {}
    for d in sorted(m for (m, p) in y if p == 0):
        # the vacuum column kept as a one-column matrix: the product is then
        # the same matrix-vector product for one operator and for a stack
        xi = (powers[(d, d)] @ y[(d, 0)][..., :1])[..., 0]
        total = _add(total, _word_blocks(ctx, xi, d, window))
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
    return GradedOperator._trusted(ctx, ctx, _image_blocks(ctx, powers.blocks, y.blocks, window))


def _coefficient(c) -> np.ndarray:
    """A coefficient, or a (draws,) array of them, shaped to scale blocks."""
    c = np.asarray(c, dtype=complex)
    return c.reshape(c.shape + (1, 1))


def _per_draw(margins: np.ndarray):
    """A float for one draw, the array of margins for a stack of draws."""
    return float(margins) if margins.ndim == 0 else margins


def kadison_schwarz_margin(powers, coeffs, words):
    """Smallest eigenvalue of ``Gamma(x# x) - Gamma(x)# Gamma(x)`` compressed
    to the safe window, for ``x = sum_i c_i W(xi_i)`` and ``Gamma`` the
    intrinsic image ``Gamma_q(T)`` of a base-space matrix ``T``, given by its
    tensor powers ``powers = first_quantization(ctx, ctx, T)`` on the words'
    context; nonnegative up to numerics when ``T`` is a contraction with
    ``J T I = T``.

    Draws that share their word degrees are evaluated as one stack:
    ``powers`` and each word's ``op`` are then ``OperatorStack``s, each
    coefficient a (draws,) array, and the result one margin per draw."""
    ctx = powers.ctx_out
    degrees = [w.degree for w in words]
    window, span = _positivity_window(ctx, degrees), _span(ctx, degrees)
    x = {}
    for c, w in zip(coeffs, words):
        x = _add(x, _scale(_coefficient(c), _on_inputs(w.op.blocks, span)))
    # the vacuum column of x# x, exact since x holds the inputs 0..2 dmax
    lhs = _image_blocks(ctx, powers.blocks,
                        _compose(_adjoint(ctx, ctx, x), _on_inputs(x, (0,))), window)
    img = _image_blocks(ctx, powers.blocks, x, window)
    rhs = _compose(_adjoint(ctx, ctx, img), img)
    gap = _add(lhs, _scale(complex(-1.0), rhs))
    return _per_draw(_min_eigs(_assemble(ctx, ctx, gap, window, window, gauge=True)))


def two_positivity_margin(powers, samples):
    """Min eigenvalue of the entrywise image ``Gamma_q(T)`` of a PSD 2x2
    operator matrix ``X# X`` with entries ``X_rj = c W(xi)`` given as the
    (c, word) pairs of two rows ``samples``, compressed to the safe window;
    ``powers`` is ``first_quantization(ctx, ctx, T)``.  Stacks of draws as
    in ``kadison_schwarz_margin``."""
    ctx = powers.ctx_out
    degrees = [w.degree for row in samples for (_, w) in row]
    window, span = _positivity_window(ctx, degrees), _span(ctx, degrees)
    entries = [[_scale(_coefficient(c), _on_inputs(w.op.blocks, span)) for (c, w) in row]
               for row in samples]
    adjoints = [[_adjoint(ctx, ctx, x) for x in row] for row in entries]
    columns = [[_on_inputs(x, (0,)) for x in row] for row in entries]
    # (X# X)_{ij} = sum_r X_{ri}# X_{rj}, needed on its vacuum column only
    images = [[_image_blocks(ctx, powers.blocks,
                             _add(_compose(adjoints[0][i], columns[0][j]),
                                  _compose(adjoints[1][i], columns[1][j])), window)
               for j in range(2)] for i in range(2)]
    return _per_draw(_min_eigs(np.block(
        [[_assemble(ctx, ctx, images[i][j], window, window, gauge=True) for j in range(2)]
         for i in range(2)])))


def positivity_draws(ctx: FockContext, rng, n_samples: int) -> tuple:
    """The random words of a probe with ``n_samples`` Kadison-Schwarz draws,
    in the order they are drawn: a list of Kadison-Schwarz draws of two words
    each, and a list of 2-positivity draws, one at every fourth
    Kadison-Schwarz draw, of four words (two rows of two, row by row).  A
    word is a (coefficient, degree, tensor) triple of degree 0 or 1."""
    ks_draws, two_pos_draws = [], []
    for s in range(n_samples):
        ks_draws.append(_random_words(ctx, rng))
        if s % 4 == 0:
            two_pos_draws.append(_random_words(ctx, rng) + _random_words(ctx, rng))
    return ks_draws, two_pos_draws


def _random_words(ctx: FockContext, rng) -> list:
    """Two random words of degree 0 or 1, each drawn as its degree, its
    tensor and its coefficient."""
    words = []
    for _ in range(2):
        deg = int(rng.integers(0, 2))
        xi = _gaussian(rng, ctx.block_size(deg))
        words.append((complex(_gaussian(rng, ())), deg, xi))
    return words


def _two_positivity_of_words(powers, coeffs, words):
    """``two_positivity_margin`` of four words given row by row."""
    return two_positivity_margin(powers, [list(zip(coeffs[:2], words[:2])),
                                          list(zip(coeffs[2:], words[2:]))])


def positivity_margins(probes) -> list:
    """Margins of probes on one context, each probe a pair of the tensor
    powers ``tensor_powers(T, ctx, ctx)`` and the ``positivity_draws`` made
    for it: per probe, the arrays of its Kadison-Schwarz and 2-positivity
    margins in draw order.

    The word degrees of a draw fix its blocks and its window, so the draws
    of all probes that share them are evaluated as one stack, each with the
    tensor powers of its own probe."""
    powers = [p for p, _ in probes]
    return list(zip(
        _stacked_margins(powers, [ks for _, (ks, _) in probes], kadison_schwarz_margin),
        _stacked_margins(powers, [two for _, (_, two) in probes], _two_positivity_of_words)))


def _stacked_margins(powers: list, draws: list, margin) -> list:
    """``margin(powers, coeffs, words)`` of each draw in ``draws[i]``, with
    the tensor powers ``powers[i]``: one array per i, in draw order.  The
    draws of one pattern of word degrees are evaluated as one stack."""
    ctx = powers[0].ctx_out
    flat = [(owner, words) for owner, found in enumerate(draws) for words in found]
    groups = {}
    for index, (_, words) in enumerate(flat):
        groups.setdefault(tuple(deg for _, deg, _ in words), []).append(index)
    margins = np.empty(len(flat))
    for degrees, members in groups.items():
        span = _span(ctx, degrees)
        owners = [flat[i][0] for i in members]
        stacked_powers = OperatorStack(ctx, ctx, {
            (d, d): np.stack([powers[o].block(d, d) for o in owners]) for d in span})
        coeffs, words = [], []
        # the j-th words of the member draws, as one stack per j
        for deg, column in zip(degrees, zip(*(flat[i][1] for i in members))):
            coeffs.append(np.array([c for c, _, _ in column]))
            tensors = np.stack([xi for _, _, xi in column])
            words.append(WickWord(ctx, deg, tensors, OperatorStack(
                ctx, ctx, _word_blocks(ctx, tensors, deg, span))))
        margins[members] = margin(stacked_powers, coeffs, words)
    return np.split(margins, np.cumsum([len(found) for found in draws])[:-1])


def positivity_probe(contraction: DeformedContraction, ctx: FockContext, rng,
                     n_samples: int) -> dict:
    """Random sweep of the Kadison-Schwarz and 2-positivity margins of
    ``Gamma_q(T)`` on ``ctx``, on combinations of two Wick words of degree at
    most 1.  A nan margin makes its minimum nan."""
    if n_samples < 1:
        raise ValueError("sample budget must be >= 1")
    powers = tensor_powers(contraction, ctx, ctx)
    [(ks_margins, two_pos_margins)] = positivity_margins(
        [(powers, positivity_draws(ctx, rng, n_samples))])
    return {
        "samples": n_samples,
        "kadison_schwarz_min": float(np.min(ks_margins)),
        "two_positivity_min": float(np.min(two_pos_margins)),
    }
