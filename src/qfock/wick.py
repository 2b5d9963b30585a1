"""Crossing-weighted Wick words.

``wick_word`` realizes a degree-n tensor as the operator whose vacuum image
is that tensor: a sum over ordered partitions of the index set into a
creation part and an annihilation part, each partition weighted by
``q**crossings``, with the conjugation applied to annihilation arguments.
For a fixed split that partition sum is the coproduct ``R*`` of ``fock``
applied to the tensor.  A ``WickWord`` holds one draw; ``quantize`` builds
the blocks of a stack of tensors as one dict (``_word_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockContext, GradedOperator, _apply_r_star


@dataclass
class WickWord:
    """A degree-n tensor together with its realized graded operator."""

    ctx: FockContext
    degree: int
    tensor: np.ndarray = field(repr=False)
    op: GradedOperator = field(repr=False)


def wick_word(ctx: FockContext, xi, degree: int, inputs=None) -> WickWord:
    """Realize a coefficient tensor of the given degree as a Wick word.

    For each split into k creation and m = n - k annihilation indices, the
    crossing-weighted sum over partitions is the coproduct ``R*_{k,m}``
    applied to the coefficient tensor; its annihilation indices are pushed
    through the conjugation's basis permutation, and one mixed word is built
    per input degree.

    ``inputs``, when given, is the set of input degrees to build: blocks on
    any other input degree are left out, a split with no kept block is
    skipped, and every kept block equals, bit for bit, the same block of the
    full word.
    """
    xi = np.asarray(xi, dtype=complex).ravel()
    if degree > ctx.degree:
        raise ValueError("degree overflow")
    if xi.size != ctx.block_size(degree):
        raise ValueError("coefficient block has wrong length")
    degrees = range(ctx.degree + 1) if inputs is None else set(inputs)
    return WickWord(ctx, degree, xi.copy(),
                    GradedOperator(ctx, ctx, _word_blocks(ctx, xi, degree, degrees)))


def _word_blocks(ctx: FockContext, xi, degree: int, degrees) -> dict:
    """Blocks, on the input degrees ``degrees``, of the Wick word of a
    degree-n tensor ``xi`` (``wick_word``), or the (draws, rows, cols) stacks
    of the blocks of the words of a (draws, dim**n) stack of tensors."""
    n = degree
    dim = ctx.dim
    lead, tensor_first = xi.shape[:-1], xi.T
    if n == 0:  # a scalar: no annihilation-word tensors to build and cache
        scalar = xi[..., :1, None]
        return {(p, p): scalar * np.eye(ctx.block_size(p), dtype=complex)
                for p in range(ctx.degree + 1) if p in degrees}
    blocks = {}
    for k in range(n + 1):
        m = n - k
        inputs_kept = [p for p in range(m, ctx.degree + 1)
                       if p - m + k <= ctx.degree and p in degrees]
        if not inputs_kept:
            continue
        # the crossing-weighted sum over partitions is R*_{k,m} xi, the tensor
        # axis first; the annihilation arguments are conjugated basis vectors
        Z = _apply_r_star(ctx.q, dim, k, m, tensor_first).T.reshape(
            lead + (dim ** k, dim ** m))[..., ctx.partner_map(m)]
        for p in inputs_kept:
            blocks[(p - m + k, p)] = ctx.mixed_word_block(Z, k, m, p)
    return blocks


def adjoint_tensor(ctx: FockContext, xi, degree: int) -> np.ndarray:
    """Coefficient tensor of ``W(xi)*``: factor order reversed and the
    conjugation applied entrywise."""
    xi = np.asarray(xi, dtype=complex).ravel()
    return np.conj(xi)[ctx.partner_map(degree)][ctx.reverse_map(degree)]


def vacuum_residual(ctx: FockContext, xi, degree: int) -> float:
    """q-norm of ``W(xi) Omega - xi``; only the word's blocks on the vacuum
    degree are built, and ``W(xi) Omega`` is the vacuum column of the
    (n, 0) block."""
    word = wick_word(ctx, xi, degree, inputs=(0,))
    return ctx.q_norm(word.op.block(degree, 0)[:, 0] - word.tensor, degree)


def self_adjoint_residual(ctx: FockContext, word: WickWord) -> float:
    return word.op.max_diff(word.op.adjoint())
