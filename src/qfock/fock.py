"""Truncated q-deformed Fock space over a deformed base space.

Degree-n tensors are stored as dense coordinate blocks of length ``dim**n``
with the first tensor factor most significant (np.kron ordering).  Every
object of the layer comes from the crossing-weighted coproduct ``R*_{n,k}``:
the q-symmetrizer ``P_q^(n) = sum_sigma q^inv(sigma) sigma`` by the
Bozejko-Speicher recursion ``P_n = (1 (x) P_{n-1}) R*_{1,n-1}``, the m-fold
annihilation words by ``P_p = (P_m (x) P_{p-m}) R*_{m,p-m}``, and the Wick
words of ``wick`` by ``R*`` applied to their coefficient tensor.  The degree-n
inner product is the quadratic form of ``G^{(x)n} P_q^(n)``; both matrices
commute because the base metric is diagonal in the chosen basis.

Every one of these matrices commutes with the permutations of tensor
positions, so it keeps the multiset of digits of a basis index, its *type*,
and is block-diagonal over the types.  Their dense linear algebra (eigen-pairs,
spectral norms, solves) runs on stacks of type blocks, gathered by
``FockContext.type_stacks``; a degree-6 block 729 wide on a 3-dimensional
base space splits into 28 type blocks, the widest 90 wide.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .spaces import DeformedSpace, _spectral_norm

# c_constant by q, and the partition orders of R*_{n,k} by (n + k, n): plain
# numbers and index tuples, so no cache here holds a context or an array
_C_CONSTANT = {}
_R_STAR_ORDERS = {}


def c_constant(q: float) -> float:
    """The norm-equivalence constant ``prod_k (1-|q|^k)^{-1}``.

    Partial products are accumulated until the multiplicative increment
    falls below 1e-14.  Memoised per q.
    """
    if not -1.0 < q < 1.0:
        raise ValueError("|q| must be < 1")
    if q not in _C_CONSTANT:
        aq = abs(q)
        prod = 1.0
        k = 1
        while aq != 0.0:
            factor = 1.0 / (1.0 - aq ** k)
            prod *= factor
            if factor - 1.0 < 1e-14:
                break
            k += 1
        _C_CONSTANT[q] = prod
    return _C_CONSTANT[q]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 1-D or two 2-D arrays: the same broadcast product
    and reshape, without its generic axis handling."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(a.size * b.size)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


class FockContext:
    """Truncated q-Fock space: cached symmetrizers and degree metrics.

    Every degree is built from the crossing-weighted coproduct ``R*`` alone:
    the symmetrizer by the recursion ``P_n = (1 (x) P_{n-1}) R*_{1,n-1}`` and
    the annihilation words by ``R*_{m,p-m}``, so no matrix is ever inverted.
    Immutable after construction; the lazy caches (metric eigen-pairs,
    metric functions, ``R*`` type stacks and annihilation-word tensors) are
    never mutated once filled, and every array they return is read-only, so
    contexts stay safe to share across parameter sweeps.
    """

    def __init__(self, space: DeformedSpace, q: float, degree: int):
        if not -1.0 < q < 1.0:
            raise ValueError("|q| must be < 1")
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.space = space
        self.q = float(q)
        self.degree = int(degree)
        self.dim = space.dim
        self._gt = {0: np.ones(1)}
        self._sym = {0: np.eye(1)}
        for n in range(1, degree + 1):
            self._gt[n] = _kron(self._gt[n - 1], space.g)
            # (1 (x) P_{n-1}) R*_{1,n-1}: P_{n-1} acts on all but the first factor
            size = self.dim ** n
            rstar = _apply_r_star(self.q, self.dim, 1, n - 1, np.eye(size))
            self._sym[n] = (self._sym[n - 1]
                            @ rstar.reshape(self.dim, size // self.dim, size)).reshape(size, size)
        self._metric = {n: self._gt[n][:, None] * self._sym[n] for n in range(degree + 1)}
        for cache in (self._gt, self._sym, self._metric):
            for arr in cache.values():
                arr.flags.writeable = False
        self._metric_eig = {}
        self._metric_fn = {}
        self._type_index = {}
        self._rstar = {}
        self._ann = {}
        self._index_maps = {}

    # -- cached accessors ------------------------------------------------------

    def block_size(self, n: int) -> int:
        return self.dim ** n

    def sym(self, n: int) -> np.ndarray:
        """q-symmetrizer on degree-n tensors."""
        if not 0 <= n <= self.degree:
            raise ValueError("degree out of range")
        return self._sym[n]

    def metric(self, n: int) -> np.ndarray:
        """Positive matrix of the degree-n q-inner product."""
        if not 0 <= n <= self.degree:
            raise ValueError("degree out of range")
        return self._metric[n]

    def metric_diag_free(self, n: int) -> np.ndarray:
        """Diagonal of the free (q = 0) degree-n metric."""
        return self._gt[n]

    # -- digit types ------------------------------------------------------------

    def _types(self, n: int) -> list:
        """The degree-n indices grouped by type, and the types by their size b:
        one (count, b) array per size, each row the increasing indices of one
        type.  Built on first use."""
        if n not in self._type_index:
            size = self.block_size(n)
            # the digit counts of an index, read in base n + 1, name its type
            digit_keys = (n + 1) ** np.arange(self.dim, dtype=np.int64)
            key = np.zeros(1, dtype=np.int64)
            for _ in range(n):
                key = (key[:, None] + digit_keys).ravel()
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            first = np.ones(size, dtype=bool)
            first[1:] = sorted_key[1:] != sorted_key[:-1]
            starts = np.flatnonzero(first)
            sizes = np.empty_like(starts)
            sizes[:-1] = starts[1:] - starts[:-1]
            sizes[-1] = size - starts[-1]
            self._type_index[n] = [order[starts[sizes == b][:, None] + np.arange(b)]
                                   for b in np.unique(sizes)]
        return self._type_index[n]

    def type_stacks(self, n: int, M) -> list:
        """The type blocks of a degree-n matrix that keeps digit types, as one
        (count, b, b) stack per block size b.

        Raises ``ValueError`` if ``M`` has a non-zero entry between two
        different types: such a matrix has no type blocks, and nothing here
        falls back to the dense route."""
        M = np.asarray(M)
        size = self.block_size(n)
        if M.shape != (size, size):
            raise ValueError(f"expected a degree-{n} matrix of shape {(size, size)}, "
                             f"got {M.shape}")
        stacks = [M[idx[:, :, None], idx[:, None, :]] for idx in self._types(n)]
        if np.count_nonzero(M) != sum(np.count_nonzero(S) for S in stacks):
            raise ValueError(f"degree-{n} matrix has non-zero entries between different "
                             "digit types")
        return stacks

    def rstar_stacks(self, n: int, k: int) -> list:
        """Type stacks of ``R*_{n,k}`` (see ``r_star``), read-only and cached per
        (n, k): the norm and residual checks of every pair read them."""
        key = (n, k)
        if key not in self._rstar:
            stacks = self.type_stacks(n + k, r_star(self, n, k))
            for S in stacks:
                S.flags.writeable = False
            self._rstar[key] = stacks
        return self._rstar[key]

    # -- metric functions -------------------------------------------------------

    def _eig(self, n: int) -> list:
        """Eigen-pairs (w, v) of the degree-n metric, one per type stack."""
        if n not in self._metric_eig:
            pairs = []
            for S in self.type_stacks(n, self._metric[n]):
                w, v = np.linalg.eigh((S + S.swapaxes(1, 2)) / 2.0)
                if w.min() <= 0:
                    raise ValueError(f"degree-{n} metric is not positive definite")
                pairs.append((w, v))
            self._metric_eig[n] = pairs
        return self._metric_eig[n]

    def _metric_function(self, n: int, name: str, scale) -> np.ndarray:
        """``v diag(scale(w)) v^T`` over the type blocks, scattered once into a
        dense read-only degree-n matrix."""
        key = (name, n)
        if key not in self._metric_fn:
            size = self.block_size(n)
            out = np.zeros((size, size))
            for idx, (w, v) in zip(self._types(n), self._eig(n)):
                block = (v * scale(w)[:, None, :]) @ v.swapaxes(1, 2)
                out[idx[:, :, None], idx[:, None, :]] = block
            out.flags.writeable = False
            self._metric_fn[key] = out
        return self._metric_fn[key]

    def metric_sqrt(self, n: int) -> np.ndarray:
        return self._metric_function(n, "sqrt", np.sqrt)

    def metric_invsqrt(self, n: int) -> np.ndarray:
        return self._metric_function(n, "invsqrt", lambda w: 1.0 / np.sqrt(w))

    def metric_inv(self, n: int) -> np.ndarray:
        return self._metric_function(n, "inv", lambda w: 1.0 / w)

    # -- inner products and norms ----------------------------------------------

    def q_inner(self, x, y, n: int) -> complex:
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != (self.block_size(n),) or y.shape != (self.block_size(n),):
            raise ValueError("degree-n block length mismatch")
        return complex(np.conj(x) @ self.metric(n) @ y)

    def q_norm(self, x, n: int) -> float:
        return float(np.sqrt(max(self.q_inner(x, x, n).real, 0.0)))

    def block_norm(self, B, m: int, n: int) -> float:
        """Operator norm of a degree-n -> degree-m block w.r.t. the q-inner products."""
        return _spectral_norm(gauge_block(self, self, B, m, n))

    # -- annihilation-word tensors ----------------------------------------------

    def ann_words(self, m: int, p: int) -> np.ndarray:
        """Tensor of shape (dim**m, dim**(p-m), dim**p).

        Entry ``[t]`` is the matrix of the m-fold annihilation word
        ``a_q(e_{t_1}) ... a_q(e_{t_m})`` restricted to degree-p input:
        ``(e_{t_m..t_1}^* M_m (x) 1) R*_{m,p-m}`` with ``M_m`` the degree-m
        metric, by the factorization ``P_p = (P_m (x) P_{p-m}) R*_{m,p-m}``.
        """
        if m > p or p > self.degree:
            raise ValueError("degree out of range")
        key = (m, p)
        if key not in self._ann:
            size = self.dim ** p
            rstar = _apply_r_star(self.q, self.dim, m, p - m, np.eye(size))
            picked = self._metric[m][self._reverse_map(m)]
            words = (picked @ rstar.reshape(self.dim ** m, -1)).reshape(
                self.dim ** m, self.dim ** (p - m), size)
            words.flags.writeable = False
            self._ann[key] = words
        return self._ann[key]

    def _index_map(self, name: str, m: int, build) -> np.ndarray:
        """The degree-m index map ``build(index)`` of the array of flat
        indices in tensor shape, read-only and cached per (name, m)."""
        key = (name, m)
        if key not in self._index_maps:
            flat = build(np.arange(self.dim ** m).reshape((self.dim,) * m)).ravel()
            flat.flags.writeable = False
            self._index_maps[key] = flat
        return self._index_maps[key]

    def _reverse_map(self, m: int) -> np.ndarray:
        """Flat index map reversing the order of the m tensor factors."""
        return self._index_map("reverse", m, np.transpose)

    def partner_map(self, m: int) -> np.ndarray:
        """Flat index map of the conjugation's basis permutation on degree m."""
        return self._index_map("partner", m,
                               lambda index: index[np.ix_(*[self.space.partner] * m)])

    def mixed_word_block(self, Z, k: int, m: int, p: int) -> np.ndarray:
        """Block (degree p -> degree p-m+k) of ``sum_{s,t} Z[s,t] a*_q(e_s) a_q(e_t)``
        with ``e_s``/``e_t`` running over degree-k/degree-m basis tensors."""
        Z = np.asarray(Z).reshape(self.dim ** k, self.dim ** m)
        arr = np.einsum("st,tij->sij", Z, self.ann_words(m, p))
        return arr.reshape(self.dim ** (k + p - m), self.dim ** p)

    def mixed_word_operator(self, Z, k: int, m: int) -> "GradedOperator":
        blocks = {}
        for p in range(m, self.degree + 1):
            out = p - m + k
            if out > self.degree:
                continue
            blocks[(out, p)] = self.mixed_word_block(Z, k, m, p)
        return GradedOperator(self, self, blocks)


class GradedVector:
    """Element of the truncated Fock space: one dense block per degree."""

    def __init__(self, ctx: FockContext, blocks):
        if len(blocks) != ctx.degree + 1:
            raise ValueError("expected one block per degree 0..N")
        self.ctx = ctx
        self.blocks = [np.asarray(b, dtype=complex).reshape(ctx.block_size(n))
                       for n, b in enumerate(blocks)]

    @classmethod
    def vacuum(cls, ctx: FockContext) -> "GradedVector":
        blocks = [np.zeros(ctx.block_size(n), dtype=complex) for n in range(ctx.degree + 1)]
        blocks[0][0] = 1.0
        return cls(ctx, blocks)

    @classmethod
    def from_degree(cls, ctx: FockContext, n: int, coeffs) -> "GradedVector":
        vec = cls.vacuum(ctx)
        vec.blocks[0][0] = 0.0
        vec.blocks[n] = np.asarray(coeffs, dtype=complex).reshape(ctx.block_size(n))
        return vec

    @classmethod
    def random(cls, ctx: FockContext, rng) -> "GradedVector":
        vec = cls.vacuum(ctx)
        vec.blocks[0][0] = 0.0
        for n in range(ctx.degree + 1):
            size = ctx.block_size(n)
            vec.blocks[n] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return vec

    def __add__(self, other):
        return GradedVector(self.ctx, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return GradedVector(self.ctx, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __rmul__(self, scalar):
        return GradedVector(self.ctx, [scalar * b for b in self.blocks])

    def norm(self) -> float:
        total = sum(self.ctx.q_inner(b, b, n).real for n, b in enumerate(self.blocks))
        return float(np.sqrt(max(total, 0.0)))


def gauge_block(ctx_out: FockContext, ctx_in: FockContext, B, m: int, n: int) -> np.ndarray:
    """A degree-n -> degree-m block in coordinates orthonormal for the
    q-inner products, ``metric_sqrt(m) @ B @ metric_invsqrt(n)``: its plain
    spectral norm and eigenvalues are the q-geometric ones."""
    return ctx_out.metric_sqrt(m) @ B @ ctx_in.metric_invsqrt(n)


def _degree_slices(ctx: FockContext, degrees):
    """Place of each listed degree's block in the dense direct sum, and its size."""
    slices, start = {}, 0
    for n in degrees:
        slices[n] = slice(start, start + ctx.block_size(n))
        start += ctx.block_size(n)
    return slices, start


def _block_components(edges) -> list:
    """Connected components of the bipartite graph on out and in degrees
    whose edges are the (out, in) pairs ``edges``, as (out set, in set)."""
    components = []
    for m, n in edges:
        outs, ins = {m}, {n}
        for comp in [c for c in components if m in c[0] or n in c[1]]:
            components.remove(comp)
            outs |= comp[0]
            ins |= comp[1]
        components.append((outs, ins))
    return components


class GradedOperator:
    """Block operator between truncated Fock spaces, indexed (out degree, in degree)."""

    def __init__(self, ctx_out: FockContext, ctx_in: FockContext, blocks):
        self.ctx_out = ctx_out
        self.ctx_in = ctx_in
        self.blocks = {}
        for (m, n), B in blocks.items():
            B = np.asarray(B, dtype=complex)
            expect = (ctx_out.block_size(m), ctx_in.block_size(n))
            if B.shape != expect:
                raise ValueError(f"block ({m},{n}) has shape {B.shape}, expected {expect}")
            self.blocks[(m, n)] = B

    @classmethod
    def _trusted(cls, ctx_out: FockContext, ctx_in: FockContext, blocks) -> "GradedOperator":
        """An operator on blocks that are already complex arrays of the right
        shapes: the results of ``@``, ``+``, scalar ``*`` and ``adjoint``,
        built from operators that hold only such blocks."""
        op = cls.__new__(cls)
        op.ctx_out = ctx_out
        op.ctx_in = ctx_in
        op.blocks = blocks
        return op

    @classmethod
    def identity(cls, ctx: FockContext) -> "GradedOperator":
        return cls(ctx, ctx, {(n, n): np.eye(ctx.block_size(n)) for n in range(ctx.degree + 1)})

    def block(self, m: int, n: int) -> np.ndarray:
        if (m, n) in self.blocks:
            return self.blocks[(m, n)]
        return np.zeros((self.ctx_out.block_size(m), self.ctx_in.block_size(n)), dtype=complex)

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        if other.ctx_out is not self.ctx_in:
            raise ValueError("context mismatch in operator composition")
        blocks = {}
        for (m, p), A in self.blocks.items():
            for (p2, n), B in other.blocks.items():
                if p != p2:
                    continue
                key = (m, n)
                C = A @ B
                blocks[key] = blocks[key] + C if key in blocks else C
        return GradedOperator._trusted(self.ctx_out, other.ctx_in, blocks)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        if other.ctx_out.dim != self.ctx_out.dim or other.ctx_in.dim != self.ctx_in.dim:
            raise ValueError("base dimension mismatch in operator sum")
        blocks = dict(self.blocks)
        for key, B in other.blocks.items():
            blocks[key] = blocks[key] + B if key in blocks else B
        return GradedOperator._trusted(self.ctx_out, self.ctx_in, blocks)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "GradedOperator":
        scalar = complex(scalar)  # a complex128 product, as numpy casts it anyway
        return GradedOperator._trusted(self.ctx_out, self.ctx_in,
                                       {key: scalar * B for key, B in self.blocks.items()})

    def adjoint(self) -> "GradedOperator":
        """Adjoint w.r.t. the q-inner products of both contexts."""
        blocks = {}
        for (m, n), B in self.blocks.items():
            blocks[(n, m)] = self.ctx_in.metric_inv(n) @ np.conj(B).T @ self.ctx_out.metric(m)
        return GradedOperator._trusted(self.ctx_in, self.ctx_out, blocks)

    def apply(self, vec: GradedVector) -> GradedVector:
        out = [np.zeros(self.ctx_out.block_size(n), dtype=complex)
               for n in range(self.ctx_out.degree + 1)]
        for (m, n), B in self.blocks.items():
            out[m] = out[m] + B @ vec.blocks[n]
        return GradedVector(self.ctx_out, out)

    def vacuum_expectation(self) -> complex:
        """``<Omega, x Omega>``: the degree-0 metric is 1, so it is the
        vacuum entry of the (0, 0) block."""
        return complex(self.block(0, 0)[0, 0])

    def to_dense(self, gauge: bool = False, window=None) -> np.ndarray:
        """Full matrix over the direct sum of degree blocks.

        With ``gauge=True`` the matrix is conjugated by the metric square
        roots (``gauge_block``), so plain spectral norms/eigenvalues refer to
        the q-inner product geometry.  ``window`` keeps only the listed
        degrees, on both sides and in increasing order; blocks outside it are
        ignored.
        """
        if window is None:
            return self._assemble(range(self.ctx_out.degree + 1),
                                  range(self.ctx_in.degree + 1), gauge)
        return self._assemble(sorted(window), sorted(window), gauge)

    def _assemble(self, out_degrees, in_degrees, gauge: bool) -> np.ndarray:
        """Matrix over the direct sums of the listed out and in degrees."""
        rows, n_rows = _degree_slices(self.ctx_out, out_degrees)
        cols, n_cols = _degree_slices(self.ctx_in, in_degrees)
        full = np.zeros((n_rows, n_cols), dtype=complex)
        for (m, n), B in self.blocks.items():
            if m not in rows or n not in cols:
                continue
            if gauge:
                B = gauge_block(self.ctx_out, self.ctx_in, B, m, n)
            full[rows[m], cols[n]] = B
        return full

    def op_norm(self) -> float:
        """Operator norm w.r.t. the q-inner products of the truncated spaces.

        The out and in degrees are the nodes of a graph whose edges are the
        non-zero blocks.  The operator is the direct sum of its restrictions
        to the connected components, so its norm is the largest component
        norm, each one SVD of the gauged blocks between the component's
        degrees.  A degree-diagonal operator thus costs one SVD per block,
        and the direct sum is assembled only when all blocks connect.
        """
        norm = 0.0
        for out_degrees, in_degrees in _block_components(
                [key for key, B in self.blocks.items() if B.any()]):
            dense = self._assemble(sorted(out_degrees), sorted(in_degrees), gauge=True)
            norm = max(norm, _spectral_norm(dense))
        return norm

    def max_diff(self, other: "GradedOperator") -> float:
        return (self - other).op_norm()


def blockwise_gap(ctx: FockContext, A: GradedOperator, B: GradedOperator, inputs) -> float:
    """Largest q-norm of the block gaps ``A_{m,p} - B_{m,p}`` over the input
    degrees ``inputs`` and every output degree of ``ctx``.  A pair where
    neither operator has a block has gap exactly 0 and is skipped."""
    res = 0.0
    for p in inputs:
        for m in range(ctx.degree + 1):
            if (m, p) in A.blocks or (m, p) in B.blocks:
                res = max(res, ctx.block_norm(A.block(m, p) - B.block(m, p), m, p))
    return res


# -- canonical operators -------------------------------------------------------


def creation(ctx: FockContext, v) -> GradedOperator:
    """Creation operator: left tensoring by ``v``; degree N maps to zero."""
    v = np.asarray(v, dtype=complex).reshape(ctx.dim)
    blocks = {}
    for n in range(ctx.degree):
        blocks[(n + 1, n)] = _kron(v[:, None], np.eye(ctx.block_size(n)))
    return GradedOperator(ctx, ctx, blocks)


def annihilation(ctx: FockContext, v) -> GradedOperator:
    """Annihilation operator; the q-adjoint of creation, realized as the
    symmetrizer conjugate of the free annihilation."""
    v = np.asarray(v, dtype=complex).reshape(ctx.dim)
    return ctx.mixed_word_operator(np.conj(v)[None, :], 0, 1)


def s_q(ctx: FockContext, h) -> GradedOperator:
    """Field operator ``a*_q(h) + a_q(h)`` for ``h`` in the I-fixed real subspace."""
    h = np.asarray(h, dtype=complex).reshape(ctx.dim)
    if np.linalg.norm(ctx.space.conjugate(h) - h) > 1e-10:
        warnings.warn("argument is not fixed by the conjugation; s_q will not be self-adjoint",
                      stacklevel=2)
    return creation(ctx, h) + annihilation(ctx, h)


def first_quantization(ctx_src: FockContext, ctx_tgt: FockContext, T) -> GradedOperator:
    """Degree-wise tensor powers of ``T``; fixes the vacuum."""
    if ctx_src.degree != ctx_tgt.degree or ctx_src.q != ctx_tgt.q:
        raise ValueError("contexts must share q and truncation degree")
    T = np.asarray(T, dtype=complex)
    if T.shape != (ctx_tgt.dim, ctx_src.dim):
        raise ValueError("matrix shape does not match the base spaces")
    blocks = {(0, 0): np.eye(1, dtype=complex)}
    power = np.eye(1, dtype=complex)
    for n in range(1, ctx_src.degree + 1):
        power = _kron(T, power)
        blocks[(n, n)] = power
    return GradedOperator(ctx_tgt, ctx_src, blocks)


def coordinate_index(dim: int, indices, n: int) -> np.ndarray:
    """Flat degree-n indices, over a ``dim``-dimensional base space, of the
    basis tensors whose digits all lie in ``indices``, in the order of the
    degree-n basis over the coordinate subspace they span.

    A coordinate inclusion sends basis tensors to basis tensors, so its
    first quantisation is this index map and a compression to the sub-Fock
    space is an index restriction."""
    digits = np.array(sorted(set(int(i) for i in indices)), dtype=np.intp)
    flat = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        flat = (flat[:, None] * dim + digits).ravel()
    return flat


def crossing_weighted_partitions(n: int, k: int):
    """All partitions of {1..n} into I1 of size k and its complement, with the
    crossing number sum(i_l - l)."""
    for i1 in itertools.combinations(range(1, n + 1), k):
        i2 = tuple(sorted(set(range(1, n + 1)) - set(i1)))
        cross = sum(i - (l + 1) for l, i in enumerate(i1))
        yield i1, i2, cross


def _r_star_orders(total: int, n: int) -> tuple:
    """(axis order, crossings) of each partition of ``total`` tensor positions
    into the first n and the rest, in ``crossing_weighted_partitions`` order;
    cached per (total, n)."""
    key = (total, n)
    if key not in _R_STAR_ORDERS:
        _R_STAR_ORDERS[key] = tuple(
            (tuple(p - 1 for p in i1) + tuple(p - 1 for p in i2), cross)
            for i1, i2, cross in crossing_weighted_partitions(total, n))
    return _R_STAR_ORDERS[key]


def _apply_r_star(q: float, dim: int, n: int, k: int, x) -> np.ndarray:
    """``R*_{n,k}`` applied to ``x`` of shape (dim**(n+k), ...): the sum over
    the partitions (I1, I2) of q**crossings times ``x`` with the tensor
    factors at the positions I1 moved in front of those at I2."""
    total = n + k
    x = np.asarray(x)
    x_nd = x.reshape((dim,) * total + x.shape[1:])
    rest = tuple(range(total, x_nd.ndim))
    out = np.zeros(x_nd.shape, dtype=np.result_type(x_nd, q))
    for order, cross in _r_star_orders(total, n):
        out += q ** cross * x_nd.transpose(order + rest)
    return out.reshape(x.shape)


def r_star(ctx: FockContext, n: int, k: int) -> np.ndarray:
    """Crossing-weighted coproduct from degree n+k to degree-n (x) degree-k
    coordinates, acting on simple tensors by partition reordering."""
    if n < 0 or k < 0 or n + k > ctx.degree:
        raise ValueError("degree overflow")
    return _apply_r_star(ctx.q, ctx.dim, n, k, np.eye(ctx.block_size(n + k)))


def stack_norm(stacks) -> float:
    """Spectral norm of a block-diagonal matrix given as a list of (count, b, b)
    stacks of its blocks (``FockContext.type_stacks``): the largest block norm."""
    return max(float(np.linalg.svd(S, compute_uv=False)[:, 0].max()) for S in stacks)


def hermitian_min_eig(stacks) -> float:
    """Smallest eigenvalue of the Hermitian part of a block-diagonal matrix
    given as a list of (count, b, b) stacks; ``[M[None]]`` is a dense ``M``."""
    return min(float(np.linalg.eigvalsh((S + np.conj(S).swapaxes(1, 2)) / 2.0)[:, 0].min())
               for S in stacks)


def factorization_residual(ctx: FockContext, n: int, k: int) -> float:
    """Spectral-norm residual of ``P_q^(n+k) = (P_q^(n) (x) P_q^(k)) R*``."""
    total = n + k
    groups = zip(ctx.type_stacks(total, ctx.sym(total)),
                 ctx.type_stacks(total, _kron(ctx.sym(n), ctx.sym(k))), ctx.rstar_stacks(n, k))
    return stack_norm([lhs - pair @ rstar for lhs, pair, rstar in groups])


def rstar_free_norm(ctx: FockContext, n: int, k: int) -> float:
    """Norm of R* between undeformed tensor powers (plain spectral norm; the
    base metric commutes with position permutations)."""
    return stack_norm(ctx.rstar_stacks(n, k))


def id_embedding_norm(ctx: FockContext, n: int, k: int) -> float:
    """Deformed norm of the coordinate identity from degree-n (x) degree-k to
    degree n+k."""
    total = n + k
    groups = zip(ctx.type_stacks(total, ctx.metric_sqrt(total)),
                 ctx.type_stacks(total, _kron(ctx.metric_invsqrt(n), ctx.metric_invsqrt(k))))
    return stack_norm([sqrt @ pair_invsqrt for sqrt, pair_invsqrt in groups])


def rstar_deformed_norm(ctx: FockContext, n: int, k: int) -> float:
    total = n + k
    groups = zip(ctx.type_stacks(total, _kron(ctx.metric_sqrt(n), ctx.metric_sqrt(k))),
                 ctx.rstar_stacks(n, k), ctx.type_stacks(total, ctx.metric_invsqrt(total)))
    return stack_norm([pair_sqrt @ rstar @ invsqrt for pair_sqrt, rstar, invsqrt in groups])


def rstar_adjoint_residual(ctx: FockContext, n: int, k: int) -> float:
    """Residual of ``(Id_{n,k})* = R*`` w.r.t. the deformed q-inner products."""
    total = n + k
    groups = zip(ctx.type_stacks(total, _kron(ctx.metric(n), ctx.metric(k))),
                 ctx.type_stacks(total, ctx.metric(total)), ctx.rstar_stacks(n, k))
    return stack_norm([np.linalg.solve(pair, metric) - rstar for pair, metric, rstar in groups])
