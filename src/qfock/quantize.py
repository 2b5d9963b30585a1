"""Second quantisation of conjugation-compatible contractions.

A channel is the three-factor composition: embed the source Wick word into
the Fock space over source (+) target, then conjugate by the first
quantisation of (projection onto target) x (unitary dilation).  Its defining
property, checked rather than assumed throughout, is Wick covariance:
simple-tensor Wick words map to Wick words of the image tensors.

The positivity margins use the intrinsic image instead: on the Wick algebra
of one context, ``Gamma_q(T): W(xi) -> W(T^{(x)n} xi)`` (``intrinsic_image``)
needs neither the combined space nor the dilation, only the tensor powers of
``T``, which the margins build from ``T`` and their (c, degree, xi) words.

Random draws are evaluated as stacks on the block algebra of ``fock``, all
draws that share their word degrees at once, bit for bit as one at a time:
the margins by ``positivity_margins``, the channel's Wick covariance,
unitality, vacuum state and GNS residuals by ``channel_residuals``, whose
one-draw case is ``QuantizationChannel``.  A stack is a leading draw axis on
matrices, tensors and dicts of blocks, never an operator object; each driver
runs the one guard (``_guard``: spaces, then ``J T I = T``) once, on its
stacked matrices.
"""

from __future__ import annotations

from functools import partial, reduce

import numpy as np

from . import spaces
from .fock import (FockContext, GradedOperator, GradedVector, _add, _adjoint, _apply,
                   _assemble, _block_gaps, _compose, _graded_norm, _min_eigs, _on_inputs,
                   _per_draw, _scale, _tensor_powers, coordinate_index, first_quantization)
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
    """Push a flat degree-n coefficient tensor, or a stack, along the inclusion of base spaces.

    Assumes the source space sits as the leading coordinates of the combined
    space, which is how ``spaces.direct_sum`` lays it out.
    """
    xi = np.asarray(xi, dtype=complex)
    out = np.zeros(xi.shape[:-1] + (comb_ctx.block_size(degree),), dtype=complex)
    out[..., coordinate_index(comb_ctx.dim, range(src_ctx.dim), degree)] = xi
    return out


def embed_wick(src_ctx: FockContext, comb_ctx: FockContext, word: WickWord,
               inputs=None) -> WickWord:
    """Wick word over the combined space with the included coefficient tensor,
    built on the input degrees ``inputs`` only when they are given."""
    if word.degree > comb_ctx.degree:
        raise ValueError("degree overflow in embedding")
    return wick_word(comb_ctx, embed_tensor(src_ctx, comb_ctx, word.tensor, word.degree),
                     word.degree, inputs=inputs)


def _guard(contractions, matrix, src_ctx: FockContext, tgt_ctx: FockContext) -> None:
    """The one guard of second quantisation on contractions whose matrix (or
    stack) is ``matrix``: each maps between the contexts' spaces, J T I = T."""
    if any(T.source is not src_ctx.space or T.target is not tgt_ctx.space for T in contractions):
        raise ValueError("contexts do not match the contraction's spaces")
    if np.max(spaces.iti_residual(src_ctx.space, tgt_ctx.space, matrix)) > ITI_TOL:
        raise ValueError("contraction does not satisfy J T I = T; "
                         "second quantisation is undefined")


def tensor_powers(contraction: DeformedContraction, src_ctx: FockContext,
                  tgt_ctx: FockContext) -> GradedOperator:
    """``first_quantization(src_ctx, tgt_ctx, T)`` of a contraction ``T`` between
    the contexts' spaces, behind the one guard of second quantisation."""
    _guard([contraction], contraction.matrix, src_ctx, tgt_ctx)
    return first_quantization(src_ctx, tgt_ctx, contraction.matrix)


def _dilation_powers(matrix, src_ctx, tgt_ctx, comb_ctx) -> dict:
    """Blocks of ``F = F_q(P U)``, ``U`` the unitary dilation of a contraction
    matrix between the contexts' spaces, or of each matrix of a stack."""
    if comb_ctx.dim != src_ctx.dim + tgt_ctx.dim:
        raise ValueError("combined context has wrong base dimension")
    if comb_ctx.degree != tgt_ctx.degree or comb_ctx.q != tgt_ctx.q:
        raise ValueError("combined and target contexts must share q and degree")
    U = spaces._dilate(src_ctx.space, tgt_ctx.space, matrix)
    return _tensor_powers(spaces.projection_matrix(src_ctx.space, tgt_ctx.space) @ U,
                          tgt_ctx.degree)


def _safe_window(ctx: FockContext, degree: int) -> range:
    """Input degrees ``0..N-degree`` on which a degree-n image is exact."""
    return range(ctx.degree - degree + 1)


class QuantizationChannel:
    """Second quantisation of a contraction with ``J T I = T``.

    Acts on source Wick words by embedding them in the combined space and
    conjugating with ``F = F_q(P U_T)``; ``conjugate`` is that last step
    alone.  The channel holds ``F``, ``F#`` and the tensor powers of ``T``
    (``tensor_powers``) for ``image_tensor``.  It is the one-draw case of
    the helpers ``channel_residuals`` runs on stacks of draws.
    """

    def __init__(self, contraction: DeformedContraction,
                 src_ctx: FockContext, tgt_ctx: FockContext,
                 comb_ctx: FockContext):
        self._powers = tensor_powers(contraction, src_ctx, tgt_ctx)
        F = _dilation_powers(contraction.matrix, src_ctx, tgt_ctx, comb_ctx)
        self.contraction = contraction
        self.src_ctx = src_ctx
        self.tgt_ctx = tgt_ctx
        self.comb_ctx = comb_ctx
        self._F = GradedOperator._trusted(tgt_ctx, comb_ctx, F)
        self._F_adj = self._F.adjoint()

    @property
    def matrix(self) -> np.ndarray:
        return self.contraction.matrix

    def conjugate(self, x: GradedOperator) -> GradedOperator:
        """The channel's conjugation step on an operator over the combined space."""
        return _conjugate(self._F, self._F_adj, x)

    def apply_word(self, word: WickWord) -> GradedOperator:
        """Channel image of a source Wick word on its safe window only.

        The image holds the blocks of input degree ``0..N-degree``; blocks on
        higher input degrees feel the truncation and are not computed, so
        ``block`` reads them as zero.  A caller that needs them must build
        the full image itself.
        """
        return self.conjugate(embed_wick(self.src_ctx, self.comb_ctx, word,
                                         inputs=_safe_window(self.tgt_ctx, word.degree)).op)

    def image_tensor(self, word: WickWord) -> np.ndarray:
        """Coefficient tensor of the expected image word ``T^{(x)n} xi``."""
        return _image_tensor(self._powers.blocks, word.tensor, word.degree)

    def covariance_residual(self, word: WickWord, image: GradedOperator) -> float:
        """Deformed-norm gap between ``image``, the channel image of a Wick
        word from ``apply_word``, and the Wick word of the image tensor, on
        the safe window."""
        return _covariance_gaps(self.tgt_ctx, image.blocks, self.image_tensor(word), word.degree)

    def unitality_residual(self) -> float:
        """Gap between ``F 1 F# = F F#``, the image of the identity, and 1."""
        return _unitality_gaps(self.tgt_ctx, self._F.blocks, self._F_adj.blocks)


def second_quantization(contraction: DeformedContraction,
                        src_ctx: FockContext, tgt_ctx: FockContext) -> QuantizationChannel:
    """The channel of ``contraction`` with a combined context built for it."""
    comb_space = spaces.direct_sum(contraction.source, contraction.target)
    comb_ctx = FockContext(comb_space, tgt_ctx.q, tgt_ctx.degree)
    return QuantizationChannel(contraction, src_ctx, tgt_ctx, comb_ctx)


def gns_residual(channel: QuantizationChannel, word: WickWord,
                 image: GradedOperator) -> float:
    """Gap between the GNS action of ``image``, the channel image of ``word``
    from ``apply_word``, on the vacuum and ``T^{(x)n} xi``."""
    return _gns_gaps(channel.tgt_ctx, image.blocks, channel.image_tensor(word), word.degree)


# The channel's formulas on dicts of blocks, one value per draw of stacks.

def _image_tensor(powers: dict, xi, degree: int) -> np.ndarray:
    """``T^{(x)n} xi`` for the blocks ``powers`` of the tensor powers of ``T``."""
    return (powers[(degree, degree)] @ xi[..., None])[..., 0]


def _covariance_gaps(ctx: FockContext, image: dict, image_tensor, degree: int):
    window = _safe_window(ctx, degree)
    return _block_gaps(ctx, image, _word_blocks(ctx, image_tensor, degree, window), window)


def _unitality_gaps(ctx: FockContext, F: dict, F_adj: dict):
    """Norm of ``F F# - 1``, one SVD per block: ``F`` keeps degrees, so the
    gap has diagonal blocks only, which is checked."""
    gap = _add(_compose(F, F_adj), _scale(complex(-1.0), GradedOperator.identity(ctx).blocks))
    if any(m != n for m, n in gap):
        raise ValueError("F F# has blocks off the degree diagonal")
    return _per_draw(np.max([ctx.block_norm(B, n, n) for (n, _), B in gap.items()], axis=0))


def _vacuum_gaps(x: dict, image: dict):
    """``|<Omega, image Omega> - <Omega, x Omega>|`` for an image of ``x``."""
    entries = [b[(0, 0)][..., 0, 0] if (0, 0) in b else 0j for b in (image, x)]
    return _per_draw(np.abs(entries[0] - entries[1]))


def _gns_gaps(ctx: FockContext, image: dict, image_tensor, degree: int):
    """q-norm of ``image Omega - T^{(x)n} xi``."""
    vector = _apply(ctx, image, GradedVector.vacuum(ctx).blocks)
    vector[degree] = vector[degree] - image_tensor
    return _graded_norm(ctx, vector)


def channel_residuals(draws, src_ctx: FockContext, tgt_ctx: FockContext,
                      comb_ctx: FockContext) -> np.ndarray:
    """Wick covariance, unitality, vacuum-state and GNS residuals of the channel
    of each (contraction, degree, tensor) draw on the Wick word of its tensor:
    one row per draw, in draw order, bit for bit as a lone ``QuantizationChannel``
    measures it.  The draws of one degree are evaluated as one stack at a time."""
    groups = {}
    for index, (_, n, _) in enumerate(draws):
        groups.setdefault(n, []).append(index)
    residuals = np.empty((len(draws), 4))
    for members in groups.values():
        residuals[members] = _stacked_residuals([draws[i] for i in members],
                                                src_ctx, tgt_ctx, comb_ctx)
    return residuals


def _stacked_residuals(draws, src_ctx, tgt_ctx, comb_ctx) -> np.ndarray:
    """``channel_residuals`` of draws of one word degree n, as one stack."""
    contractions, (n, *_), tensors = zip(*draws)
    matrices, tensors = np.stack([T.matrix for T in contractions]), np.stack(tensors)
    _guard(contractions, matrices, src_ctx, tgt_ctx)
    F = _dilation_powers(matrices, src_ctx, tgt_ctx, comb_ctx)
    embedded = embed_tensor(src_ctx, comb_ctx, tensors, n)
    # F x is formed before F# is built, so the word's wide blocks are freed first
    Fx = _compose(F, _word_blocks(comb_ctx, embedded, n, _safe_window(tgt_ctx, n)))
    F_adj = _adjoint(tgt_ctx, comb_ctx, F)
    image = _compose(Fx, F_adj)
    image_tensor = _image_tensor(_tensor_powers(matrices, n), tensors, n)
    return np.stack(np.broadcast_arrays(
        _covariance_gaps(tgt_ctx, image, image_tensor, n), _unitality_gaps(tgt_ctx, F, F_adj),
        _vacuum_gaps(_word_blocks(src_ctx, tensors, n, (0,)), image),
        _gns_gaps(tgt_ctx, image, image_tensor, n)), axis=-1)


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


def _meeting(x: dict, column: dict) -> dict:
    """The blocks of ``x`` whose adjoints meet ``column``, a vacuum column:
    those whose output degree is an output degree of ``column``."""
    return {(m, n): B for (m, n), B in x.items() if (m, 0) in column}


def _entry(ctx: FockContext, word, span) -> dict:
    """Blocks of ``c W(xi)`` on the input degrees ``span``, for a word given as
    its (c, degree, xi) triple."""
    c, degree, xi = word
    return _scale(c, _word_blocks(ctx, np.asarray(xi, dtype=complex), degree, span))


def kadison_schwarz_margin(ctx: FockContext, T, words):
    """Smallest eigenvalue of ``Gamma(x# x) - Gamma(x)# Gamma(x)`` compressed
    to the safe window, for ``x = sum_i c_i W(xi_i)`` over the (c, degree, xi)
    triples ``words`` and ``Gamma`` the intrinsic image ``Gamma_q(T)`` on
    ``ctx`` of a base-space matrix ``T``; nonnegative up to numerics when
    ``T`` is a contraction with ``J T I = T``, which is not checked here.

    Draws that share their word degrees are evaluated as one stack: ``T``,
    each tensor and each coefficient then carry a leading draw axis (the
    coefficients shaped (draws, 1, 1)), and the result is one margin per
    draw."""
    degrees = [degree for _, degree, _ in words]
    window, span = _positivity_window(ctx, degrees), _span(ctx, degrees)
    powers = _tensor_powers(T, span[-1])
    x = reduce(_add, (_entry(ctx, word, span) for word in words), {})
    # the vacuum column of x# x, exact since x holds the inputs 0..2 dmax
    column = _on_inputs(x, (0,))
    lhs = _image_blocks(ctx, powers, _compose(_adjoint(ctx, ctx, _meeting(x, column)), column),
                        window)
    img = _image_blocks(ctx, powers, x, window)
    rhs = _compose(_adjoint(ctx, ctx, img), img)
    gap = _add(lhs, _scale(complex(-1.0), rhs))
    return _per_draw(_min_eigs(_assemble(ctx, ctx, gap, window, window, gauge=True)))


def two_positivity_margin(ctx: FockContext, T, words):
    """Min eigenvalue of the entrywise image ``Gamma_q(T)`` of a PSD 2x2
    operator matrix ``X# X`` with entries ``X_rj = c W(xi)``, given as four
    (c, degree, xi) triples ``words`` row by row, compressed to the safe
    window.  Unchecked and stacked as ``kadison_schwarz_margin``."""
    degrees = [degree for _, degree, _ in words]
    window, span = _positivity_window(ctx, degrees), _span(ctx, degrees)
    powers = _tensor_powers(T, span[-1])
    entries = [[_entry(ctx, word, span) for word in row] for row in (words[:2], words[2:])]
    columns = [[_on_inputs(x, (0,)) for x in row] for row in entries]
    adjoints = [[_adjoint(ctx, ctx, _meeting(x, {**columns[r][0], **columns[r][1]})) for x in row]
                for r, row in enumerate(entries)]
    # (X# X)_{ij} = sum_r X_{ri}# X_{rj}, needed on its vacuum column only
    images = [[_image_blocks(ctx, powers,
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


def positivity_margins(ctx: FockContext, probes) -> list:
    """Margins of probes on ``ctx``, each probe a pair of a contraction and
    the ``positivity_draws`` made for it: per probe, the arrays of its
    Kadison-Schwarz and 2-positivity margins in draw order.

    The one guard of second quantisation runs once, on the stack of all the
    probes' matrices.  The word degrees of a draw fix its blocks and its
    window, so the draws of all probes that share them are evaluated as one
    stack, each with the matrix of its own probe."""
    contractions, draws = zip(*probes)
    matrices = np.stack([T.matrix for T in contractions])
    _guard(contractions, matrices, ctx, ctx)
    ks_draws, two_pos_draws = zip(*draws)
    return list(zip(_stacked_margins(ctx, matrices, ks_draws, kadison_schwarz_margin),
                    _stacked_margins(ctx, matrices, two_pos_draws, two_positivity_margin)))


def _stacked_margins(ctx: FockContext, matrices, draws: list, margin) -> list:
    """``margin(ctx, matrices[i], words)`` of each draw ``words`` in
    ``draws[i]``: one array per i, in draw order.  The draws of one pattern
    of word degrees are evaluated as one stack."""
    flat = [(owner, words) for owner, found in enumerate(draws) for words in found]
    groups = {}
    for index, (_, words) in enumerate(flat):
        groups.setdefault(tuple(deg for _, deg, _ in words), []).append(index)
    margins = np.empty(len(flat))
    for degrees, members in groups.items():
        # the j-th words of the member draws, as one stack per j
        words = [(np.array([c for c, _, _ in column])[:, None, None], deg,
                  np.stack([xi for _, _, xi in column]))
                 for deg, column in zip(degrees, zip(*(flat[i][1] for i in members)))]
        margins[members] = margin(ctx, matrices[[flat[i][0] for i in members]], words)
    return np.split(margins, np.cumsum([len(found) for found in draws])[:-1])


def positivity_probe(contraction: DeformedContraction, ctx: FockContext, rng,
                     n_samples: int) -> dict:
    """Random sweep of the Kadison-Schwarz and 2-positivity margins of
    ``Gamma_q(T)`` on ``ctx``, on combinations of two Wick words of degree at
    most 1.  A nan margin makes its minimum nan."""
    if n_samples < 1:
        raise ValueError("sample budget must be >= 1")
    [(ks_margins, two_pos_margins)] = positivity_margins(
        ctx, [(contraction, positivity_draws(ctx, rng, n_samples))])
    return {
        "samples": n_samples,
        "kadison_schwarz_min": float(np.min(ks_margins)),
        "two_positivity_min": float(np.min(two_pos_margins)),
    }
