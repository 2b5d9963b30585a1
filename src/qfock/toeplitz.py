"""Length-graded machinery for the algebra generated by creation operators.

Elements are realized as graded operators on the truncated Fock space:
mixed creation/annihilation elements, the circle-action conditional
expectation (implemented as the exact block-diagonal projection),
compressions to conjugation-invariant subspaces (index restrictions), and the
quantitative norm comparisons between an element and its lowest nonvanishing
corner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .fock import (FockContext, GradedOperator, _kron, _min_eigs, _mixed_word_blocks,
                   _per_draw, c_constant, coordinate_index, r_star)
from .spaces import DeformedSpace, _gaussian, _spectral_norm


@dataclass
class LengthElement:
    """A mixed creation/annihilation element with its realized operator.

    ``n_create`` and ``n_annihilate`` count the tensor degrees of the two
    legs; the total length is their sum.  Elements used in the corner-norm
    comparisons are the balanced ones (equal legs).
    """

    ctx: FockContext
    n_create: int
    n_annihilate: int
    coeff: np.ndarray = field(repr=False)
    op: GradedOperator = field(repr=False)

    @property
    def balanced(self) -> bool:
        return self.n_create == self.n_annihilate


def realize(ctx: FockContext, coeff, n_create: int, n_annihilate: int,
            inputs=None) -> LengthElement:
    """Realize a coefficient tensor on (creation leg) x (conjugate
    annihilation leg) as a graded operator.

    ``inputs``, when given, is the set of input degrees to build: blocks on
    any other input degree are left out, and every kept block equals, bit for
    bit, the same block of the full operator."""
    if n_create + n_annihilate > ctx.degree:
        raise ValueError("length overflow for this truncation")
    Z = np.asarray(coeff, dtype=complex).reshape(ctx.block_size(n_create),
                                                 ctx.block_size(n_annihilate))
    degrees = range(ctx.degree + 1) if inputs is None else set(inputs)
    op = GradedOperator(ctx, ctx, _mixed_word_blocks(ctx, Z, n_create, n_annihilate, degrees))
    return LengthElement(ctx, n_create, n_annihilate, Z, op)


def monomial(ctx: FockContext, v_list, w_list, inputs=None) -> LengthElement:
    """Product of creations then annihilations in the given order, on the
    input degrees ``inputs`` when given (``realize``)."""
    k, m = len(v_list), len(w_list)
    if k + m > ctx.degree:
        raise ValueError("length overflow for this truncation")
    v = np.ones(1, dtype=complex)
    for vec in v_list:
        v = _kron(v, np.asarray(vec, dtype=complex).reshape(ctx.dim))
    w = np.ones(1, dtype=complex)
    for vec in w_list:
        w = _kron(w, np.asarray(vec, dtype=complex).reshape(ctx.dim))
    coeff = np.outer(v, np.conj(w))
    return realize(ctx, coeff, k, m, inputs)


def random_balanced(ctx: FockContext, rng, n: int) -> LengthElement:
    size = ctx.block_size(n)
    return realize(ctx, _gaussian(rng, (size, size)), n, n)


def degree_expectation(op: GradedOperator) -> GradedOperator:
    """Circle-action average: exact projection onto the degree-diagonal blocks."""
    return GradedOperator(op.ctx_out, op.ctx_in,
                          {key: B for key, B in op.blocks.items() if key[0] == key[1]})


def flip_pairing_residual(ctx: FockContext, v_tensor, w_tensor, e_tensor, n: int) -> float:
    """Residual of ``a*_q(v) a_q(w-bar) e = <flip(w), e> v`` on degree-n input.

    The flip reverses the tensor order, ``flip(w) = w[ctx.reverse_map(n)]``.
    At q = 0 the pairing is the plain (free) one; for q != 0 the identity
    holds with the q-deformed pairing, which is what is checked here.
    """
    v = np.asarray(v_tensor, dtype=complex).reshape(ctx.block_size(n))
    w = np.asarray(w_tensor, dtype=complex).reshape(ctx.block_size(n))
    e = np.asarray(e_tensor, dtype=complex).reshape(ctx.block_size(n))
    elem = realize(ctx, np.outer(v, np.conj(w)), n, n)
    lhs = elem.op.block(n, n) @ e
    pairing = ctx.q_inner(w[ctx.reverse_map(n)], e, n)
    rhs = pairing * v
    return ctx.q_norm(lhs - rhs, n)


def subspace(space: DeformedSpace, indices) -> DeformedSpace:
    """Deformed subspace spanned by the given basis indices.

    The index set must be closed under the conjugation pairing, which also
    makes it invariant under the generator (diagonal in this basis).
    """
    indices = sorted(set(int(i) for i in indices))
    pos = {i: r for r, i in enumerate(indices)}
    for i in indices:
        if space.partner[i] not in pos:
            raise ValueError("subspace is not invariant under the conjugation")
    partner = np.array([pos[space.partner[i]] for i in indices])
    return DeformedSpace(space.a[indices], partner)


def compression(ctx_big: FockContext, ctx_small: FockContext, indices,
                op: GradedOperator) -> GradedOperator:
    """Compress an operator to the Fock space over a basis-index subspace:
    ``F_q(iota*) x F_q(iota)``, a *-homomorphism on operators leaving the
    small Fock space invariant.  ``F_q(iota)`` sends basis tensors to basis
    tensors, so each block is restricted to the indices of
    ``coordinate_index``."""
    if ctx_big.degree != ctx_small.degree or ctx_big.q != ctx_small.q:
        raise ValueError("contexts must share q and truncation degree")
    index = [coordinate_index(ctx_big.dim, indices, n) for n in range(ctx_big.degree + 1)]
    return GradedOperator(ctx_small, ctx_small, {(m, n): B[np.ix_(index[m], index[n])]
                                                 for (m, n), B in op.blocks.items()})


def finkernel_rank(ctx: FockContext, indices, max_length: int) -> dict:
    """Numerical column rank, relative threshold 1e-8, of the realization map
    on the truncated monomial basis over a subspace; full rank certifies
    injectivity at this scale.  Columns are scaled to unit norm first (a zero
    column stays zero), so the rank does not follow the spread of the metric
    and the singular values returned are those of the normalised columns.

    A column holds a monomial's blocks on the input degrees up to
    ``N - max_length``.  A monomial with k creations and m annihilations has
    the blocks ``(p + k - m, p)`` only, so the matrix is block diagonal over
    the shifts ``k - m``: its singular values are those of the shift groups
    together, each group built and decomposed alone."""
    if max_length > ctx.degree // 2:
        raise ValueError("max_length must be at most N/2")
    svals = _realization_singular_values(ctx, indices, max_length)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    return {
        "n_columns": len(svals),
        "rank": rank,
        "full_rank": rank == len(svals),
        "smallest_singular_value": float(svals[-1]),
        "largest_singular_value": float(svals[0]),
    }


def _realization_singular_values(ctx: FockContext, indices, max_length: int) -> np.ndarray:
    """Singular values, largest first, of ``finkernel_rank``'s normalised
    matrix: one row per monomial of a shift group, over the group's blocks,
    and zeros where a group has fewer entries than monomials."""
    basis_vecs = [np.eye(ctx.dim, dtype=complex)[i] for i in sorted(set(int(i) for i in indices))]
    p_max = ctx.degree - max_length
    inputs = range(p_max + 1)  # the blocks on higher input degrees are never read
    svals = []
    for shift in range(-max_length, max_length + 1):
        words = [(vs, ws) for k in range(max(shift, 0), max_length + 1)
                 if 2 * k - shift <= max_length
                 for vs in itertools.product(basis_vecs, repeat=k)
                 for ws in itertools.product(basis_vecs, repeat=k - shift)]
        keys = [(p + shift, p) for p in range(max(-shift, 0), p_max + 1)]
        offsets = list(itertools.accumulate(
            (ctx.block_size(m) * ctx.block_size(p) for m, p in keys), initial=0))
        matrix = np.zeros((len(words), offsets[-1]), dtype=complex)
        for row, (vs, ws) in zip(matrix, words):
            blocks = monomial(ctx, list(vs), list(ws), inputs).op.blocks
            for key, start, stop in zip(keys, offsets, offsets[1:]):
                if key in blocks:
                    row[start:stop] = blocks[key].ravel()
            row /= np.linalg.norm(row) or 1.0  # a zero column stays zero
        group = np.linalg.svd(matrix, compute_uv=False)
        svals.append(np.pad(group, (0, len(words) - len(group))))
    return np.sort(np.concatenate(svals))[::-1]


def _check_context(ctx: FockContext, elem: LengthElement) -> None:
    """Refuse an element of another context: its blocks would be measured in
    ``ctx``'s metric."""
    if elem.ctx is not ctx:
        raise ValueError("context mismatch: the element belongs to another context")


def compression_identity_residual(ctx: FockContext, elem: LengthElement, k: int) -> float:
    """Residual of the corner propagation identity
    ``P_{n+k} x P_{n+k} = (P_n x P_n (x) Id_k) R*`` for balanced x."""
    _check_context(ctx, elem)
    if not elem.balanced:
        raise ValueError("identity applies to balanced elements")
    n = elem.n_create
    if n + k > ctx.degree:
        raise ValueError("degree overflow")
    lhs = elem.op.block(n + k, n + k)
    rhs = _kron(elem.op.block(n, n), np.eye(ctx.block_size(k))) @ r_star(ctx, n, k)
    return ctx.block_norm(lhs - rhs, n + k, n + k)


def norm_bound_margin(ctx: FockContext, elem: LengthElement) -> float:
    """``C(q) ||P_n x P_n|| - sup_k ||P_{n+k} x P_{n+k}||`` for balanced x of
    leg degree n; nonnegative up to numerics."""
    _check_context(ctx, elem)
    if not elem.balanced:
        raise ValueError("bound applies to balanced elements")
    n = elem.n_create
    norms = [ctx.block_norm(elem.op.block(m, m), m, m) for m in range(n, ctx.degree + 1)]
    return c_constant(ctx.q) * norms[0] - max(norms)


def low_degree_residual(ctx: FockContext, elem: LengthElement) -> float:
    """Max norm of corners ``P_m x P_m`` below the annihilation leg degree;
    zero for pure-length elements.  A corner without a block has norm
    exactly 0 and is skipped."""
    _check_context(ctx, elem)
    res = 0.0
    for m in range(min(elem.n_annihilate, ctx.degree + 1)):
        if (m, m) in elem.op.blocks:
            res = max(res, ctx.block_norm(elem.op.blocks[(m, m)], m, m))
    return res


def majorisation_check(A, B, T) -> dict:
    """Check ``A = B T`` (to 1e-12 relative) with A, B PSD implies
    ``A <= ||T|| B``.

    A, B and T are dense matrices, or lists of (count, b, b) stacks of their
    type blocks (``FockContext.type_stacks``) with matching shapes.  For
    stacks every norm is the largest over the blocks and every eigenvalue the
    smallest, so ``||T||`` is the global norm and the margin is the dense one;
    a dense matrix is the one-block case.  Lists of (splits, count, b, b) stacks
    check one triple per split, each bit for bit as alone, and give one value per
    split in every entry; an A without the split axis is every split's."""
    A, B, T = (_as_stacks(X) for X in (A, B, T))
    if not [S.shape[-3:] for S in A] == [S.shape[-3:] for S in B] == [S.shape[-3:] for S in T]:
        raise ValueError("A, B and T must have stacks of matching shapes")
    lead = np.broadcast_shapes(*(S.shape[:-3] for S in (*A, *B, *T)))
    A, B, T = ([S if S.shape[:-3] == lead else np.broadcast_to(S, lead + S.shape[-3:])
                for S in X] for X in (A, B, T))
    # one norm call per block size for A, A - B T and T together, then one
    # eigvalsh call for the Hermitian parts of A, B and ||T|| B - A
    norm_a, consistency, t_norm = np.moveaxis(np.max(
        [_spectral_norm(np.concatenate([a, a - b @ t, t], axis=-3))
         .reshape(lead + (3, -1)).max(axis=-1) for a, b, t in zip(A, B, T)], axis=0), -1, 0)
    scale = np.reshape(t_norm, lead + (1, 1, 1))
    min_a, min_b, margin = np.moveaxis(np.min(
        [_min_eigs(S).reshape(lead + (3, -1)).min(axis=-1)
         for S in (np.concatenate([a, b, scale * b - a], axis=-3) for a, b in zip(A, B))],
        axis=0), -1, 0)
    return {
        "consistent": _per_draw(consistency <= 1e-12 * np.maximum(norm_a, 1.0)),
        "consistency_residual": _per_draw(consistency),
        "min_eig_A": _per_draw(min_a),
        "min_eig_B": _per_draw(min_b),
        "t_norm": _per_draw(t_norm),
        "margin": _per_draw(margin),
    }


def _as_stacks(X) -> list:
    """A list of 3-D stacks, or of 4-D ones with a leading split axis, as it
    is; any other array-like as a square matrix, the one-block case."""
    if isinstance(X, list) and X and all(np.ndim(S) in (3, 4) for S in X):
        return [np.asarray(S) for S in X]
    M = np.asarray(X)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix or a list of (count, b, b) stacks, "
                         f"got shape {M.shape}")
    return [M[None]]
