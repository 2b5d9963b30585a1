"""Crossing-weighted Wick words.

``wick_word`` realizes a degree-n tensor as the operator whose vacuum image
is that tensor: a sum over ordered partitions of the index set into a
creation part and an annihilation part, each partition weighted by
``q**crossings``, with the conjugation applied to annihilation arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import (FockContext, GradedOperator, GradedVector,
                   crossing_weighted_partitions)


def crossing_number(i1, i2) -> int:
    """Number of crossings ``sum_l (i_l - l)`` of a two-block partition."""
    i1 = tuple(i1)
    i2 = tuple(i2)
    n = len(i1) + len(i2)
    if sorted(i1 + i2) != list(range(1, n + 1)):
        raise ValueError("blocks must partition {1..n}")
    if list(i1) != sorted(i1) or list(i2) != sorted(i2):
        raise ValueError("blocks must be increasing")
    return sum(i - (l + 1) for l, i in enumerate(i1))


@dataclass
class WickWord:
    """A degree-n tensor together with its realized graded operator."""

    ctx: FockContext
    degree: int
    tensor: np.ndarray = field(repr=False)
    op: GradedOperator = field(repr=False)


def wick_word(ctx: FockContext, xi, degree: int | None = None,
              inputs=None) -> WickWord:
    """Realize a coefficient tensor of the given degree as a Wick word.

    The operator is assembled partition by partition: the coefficient tensor
    is reordered so that creation indices come first, the annihilation indices
    are pushed through the conjugation's basis permutation, and the resulting
    mixed words are accumulated with weight ``q**crossings``.

    ``inputs``, when given, is the set of input degrees to build: blocks on
    any other input degree are left out, and every kept block equals, bit for
    bit, the same block of the full word.
    """
    xi = np.asarray(xi, dtype=complex).ravel()
    if degree is None:
        degree = _infer_degree(ctx, xi.size)
    if degree > ctx.degree:
        raise ValueError("degree overflow")
    if xi.size != ctx.block_size(degree):
        raise ValueError("coefficient block has wrong length")
    n = degree
    dim = ctx.dim
    degrees = range(ctx.degree + 1) if inputs is None else set(inputs)
    if n == 0:
        op = GradedOperator(ctx, ctx, {(p, p): xi[0] * np.eye(ctx.block_size(p), dtype=complex)
                                       for p in range(ctx.degree + 1) if p in degrees})
        return WickWord(ctx, 0, xi.copy(), op)

    xi_nd = xi.reshape((dim,) * n)
    blocks = {}
    for k in range(n + 1):
        m = n - k
        for i1, i2, cross in crossing_weighted_partitions(n, k):
            axes = tuple(p - 1 for p in i1) + tuple(p - 1 for p in i2)
            Z = xi_nd.transpose(axes).reshape(dim ** k, dim ** m)
            if m > 0:
                # annihilation arguments are conjugated basis vectors
                Z = Z[:, ctx.partner_map(m)]
            weight = ctx.q ** cross
            for p in range(m, ctx.degree + 1):
                out = p - m + k
                if out > ctx.degree or p not in degrees:
                    continue
                B = weight * ctx.mixed_word_block(Z, k, m, p)
                key = (out, p)
                blocks[key] = blocks[key] + B if key in blocks else B
    op = GradedOperator(ctx, ctx, blocks)
    return WickWord(ctx, n, xi.copy(), op)


def _infer_degree(ctx: FockContext, size: int) -> int:
    for n in range(ctx.degree + 1):
        if ctx.block_size(n) == size:
            return n
    raise ValueError("block length matches no degree <= N")


def adjoint_tensor(ctx: FockContext, xi, degree: int) -> np.ndarray:
    """Coefficient tensor of ``W(xi)*``: factor order reversed and the
    conjugation applied entrywise."""
    xi = np.asarray(xi, dtype=complex).ravel()
    if degree == 0:
        return np.conj(xi)
    return np.conj(xi)[ctx.partner_map(degree)][ctx._reverse_map(degree)]


def vacuum_residual(ctx: FockContext, xi, degree: int | None = None) -> float:
    """q-norm of ``W(xi) Omega - xi``."""
    word = wick_word(ctx, xi, degree)
    image = word.op.apply(GradedVector.vacuum(ctx))
    target = GradedVector.from_degree(ctx, word.degree, word.tensor)
    return (image - target).norm()


def self_adjoint_residual(ctx: FockContext, word: WickWord) -> float:
    return word.op.max_diff(word.op.adjoint())
