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

from .fock import (FockContext, GradedOperator, _assemble, _kron, c_constant, coordinate_index,
                   r_star)
from .spaces import DeformedSpace, _gaussian


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


def realize(ctx: FockContext, coeff, n_create: int, n_annihilate: int) -> LengthElement:
    """Realize a coefficient tensor on (creation leg) x (conjugate
    annihilation leg) as a graded operator."""
    if n_create + n_annihilate > ctx.degree:
        raise ValueError("length overflow for this truncation")
    Z = np.asarray(coeff, dtype=complex).reshape(ctx.block_size(n_create),
                                                 ctx.block_size(n_annihilate))
    op = ctx.mixed_word_operator(Z, n_create, n_annihilate)
    return LengthElement(ctx, n_create, n_annihilate, Z, op)


def monomial(ctx: FockContext, v_list, w_list) -> LengthElement:
    """Product of creations then annihilations in the given order."""
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
    return realize(ctx, coeff, k, m)


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
    and the singular values returned are those of the normalised columns."""
    if max_length > ctx.degree // 2:
        raise ValueError("max_length must be at most N/2")
    indices = sorted(set(int(i) for i in indices))
    p_max = ctx.degree - max_length
    basis_vecs = []
    for i in indices:
        e = np.zeros(ctx.dim, dtype=complex)
        e[i] = 1.0
        basis_vecs.append(e)
    columns = []
    for k in range(max_length + 1):
        for m in range(max_length + 1 - k):
            for vs in itertools.product(basis_vecs, repeat=k):
                for ws in itertools.product(basis_vecs, repeat=m):
                    elem = monomial(ctx, list(vs), list(ws))
                    # every output degree, the input degrees 0..p_max only
                    dense = _assemble(ctx, ctx, elem.op.blocks, range(ctx.degree + 1),
                                      range(p_max + 1), gauge=False)
                    columns.append(dense.ravel())
    matrix = np.stack(columns, axis=1)
    scale = np.linalg.norm(matrix, axis=0)
    matrix /= np.where(scale > 0, scale, 1.0)
    svals = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    return {
        "n_columns": matrix.shape[1],
        "rank": rank,
        "full_rank": rank == matrix.shape[1],
        "smallest_singular_value": float(svals[-1]),
        "largest_singular_value": float(svals[0]),
    }


def compression_identity_residual(ctx: FockContext, elem: LengthElement, k: int) -> float:
    """Residual of the corner propagation identity
    ``P_{n+k} x P_{n+k} = (P_n x P_n (x) Id_k) R*`` for balanced x."""
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
    if not elem.balanced:
        raise ValueError("bound applies to balanced elements")
    n = elem.n_create
    corner = ctx.block_norm(elem.op.block(n, n), n, n)
    sup = 0.0
    for k in range(ctx.degree - n + 1):
        sup = max(sup, ctx.block_norm(elem.op.block(n + k, n + k), n + k, n + k))
    return c_constant(ctx.q) * corner - sup


def low_degree_residual(ctx: FockContext, elem: LengthElement) -> float:
    """Max norm of corners ``P_m x P_m`` below the annihilation leg degree;
    zero for pure-length elements.  A corner without a block has norm
    exactly 0 and is skipped."""
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
    a dense matrix is the one-block case."""
    A, B, T = (_as_stacks(X) for X in (A, B, T))
    if not [S.shape for S in A] == [S.shape for S in B] == [S.shape for S in T]:
        raise ValueError("A, B and T must have stacks of matching shapes")
    # one svd call per block size for A, A - B T and T together, then one
    # eigvalsh call for the Hermitian parts of A, B and ||T|| B - A
    norm_a, consistency, t_norm = np.max(
        [np.linalg.svd(np.concatenate([a, a - b @ t, t]), compute_uv=False)[:, 0]
         .reshape(3, -1).max(axis=1) for a, b, t in zip(A, B, T)], axis=0)
    min_a, min_b, margin = np.min(
        [np.linalg.eigvalsh((S + np.conj(S).swapaxes(1, 2)) / 2.0)[:, 0].reshape(3, -1).min(axis=1)
         for S in (np.concatenate([a, b, t_norm * b - a]) for a, b in zip(A, B))], axis=0)
    return {
        "consistent": bool(consistency <= 1e-12 * max(norm_a, 1.0)),
        "consistency_residual": float(consistency),
        "min_eig_A": float(min_a),
        "min_eig_B": float(min_b),
        "t_norm": float(t_norm),
        "margin": float(margin),
    }


def _as_stacks(X) -> list:
    """A list of 3-D stacks as it is; any other array-like as a square matrix,
    the one-block case."""
    if isinstance(X, list) and X and all(np.ndim(S) == 3 for S in X):
        return [np.asarray(S) for S in X]
    M = np.asarray(X)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix or a list of (count, b, b) stacks, "
                         f"got shape {M.shape}")
    return [M[None]]
