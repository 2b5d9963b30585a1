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
spectral norms, solves) runs on stacks of type blocks, each gathered once per
context by ``FockContext.stacks``; a degree-6 block 729 wide on a
3-dimensional base space splits into 28 type blocks, the widest 90 wide.  So
do the products of wide blocks by the metric and its functions, in the gauge
(``gauge_block``) and the q-adjoint (``GradedOperator.adjoint``).

The block algebra under ``GradedOperator`` (product, sum, scaling, q-adjoint,
gauged assembly, application to a vector, block gaps, tensor powers) is
written once, on blocks that may carry a leading draw axis: ``quantize``
evaluates many random draws in one pass, each bit for bit as it comes out
alone.  Such stacks stay dicts of blocks; every ``GradedOperator`` holds one
draw.
"""

from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np

from .spaces import DeformedSpace, _gaussian, _spectral_norm

def _per_draw(values):
    """A float for one draw (a scalar), the array itself for a stack of draws."""
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


# c_constant by q, and the partition orders of R*_{n,k} by (n + k, n): plain
# numbers and index tuples, so no cache here holds a context or an array
_C_CONSTANT = {}
_R_STAR_ORDERS = {}


def c_constant(q: float) -> float:
    """The norm-equivalence constant ``prod_k (1-|q|^k)^{-1}``.

    Partial products are accumulated until the multiplicative increment
    falls below 1e-14.  Memoised per q.  Raises ``ValueError`` once a partial
    product overflows a float, from |q| = 0.998 on (k = 793 there; k = 29 at
    1 - 1e-12), which also bounds the ~1/(1-|q|) iterations for q near 1.
    """
    if not -1.0 < q < 1.0:
        raise ValueError("|q| must be < 1")
    if q not in _C_CONSTANT:
        aq = abs(float(q))  # a Python float overflows to inf without a RuntimeWarning
        prod = 1.0
        k = 1
        while aq != 0.0:
            factor = 1.0 / (1.0 - aq ** k)
            prod *= factor
            if prod == np.inf:
                raise ValueError(f"C(q) = prod_k (1-|q|^k)^-1 overflows a float at q={q}")
            if factor - 1.0 < 1e-14:
                break
            k += 1
        _C_CONSTANT[q] = prod
    return _C_CONSTANT[q]


# The degree-n metric's smallest entry is min(g)^n, its eigenvalues lie below
# that by the spread of P_q, and the inverse metric takes their reciprocals.
# So min(g)^n must clear the smallest normal float by 1/eps: 2^-970, about
# 1.0e-292.  Measured on b<lam> over the default q grid, the first power of
# ten whose inverse metric overflows is lam = 1e154 at N = 2, 1e103 at 3,
# 1e77 at 4, 1e62 at 5 and 1e52 at 6; this floor admits lam up to 2.0e146,
# 4.3e97, 2.0e73, 5.0e58 and 9.3e48.
_METRIC_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def check_metric_floor(g_min: float, degree: int) -> None:
    """Raise ``ValueError`` when a base metric whose smallest entry is
    ``g_min`` leaves the degree-``degree`` metric no float headroom."""
    if g_min ** degree < _METRIC_FLOOR:
        raise ValueError(f"metric entry {g_min:.3g} to the power {degree} is below "
                         f"{_METRIC_FLOOR:.3g}: the degree-{degree} metric underflows")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 1-D or two 2-D arrays: the same broadcast product
    and reshape, without its generic axis handling; matrices may carry
    leading axes, which broadcast."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(a.size * b.size)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _read_only(value):
    """``value``, every array in it (also in lists and tuples) made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (list, tuple)):
        for item in value:
            _read_only(item)
    return value


def _memo(method):
    """Memoise a ``FockContext`` method in the context's own ``_cache``, keyed
    by its name and positional arguments with the defaults filled in (so
    ``f(n)`` and ``f(n, 0)`` share an entry when k defaults to 0), and make
    every array of a result read-only."""
    name = method.__name__
    n_params = method.__code__.co_argcount - 1
    defaults = method.__defaults__ or ()

    @functools.wraps(method)
    def cached(self, *args):
        if len(args) < n_params:
            args += defaults[len(args) - n_params:]
        key = (name, *args)
        if key not in self._cache:
            self._cache[key] = _read_only(method(self, *args))
        return self._cache[key]

    return cached


# the metric's square root, inverse square root and inverse, as eigenvalue maps
_METRIC_FUNCTIONS = {"metric_sqrt": np.sqrt, "metric_invsqrt": lambda w: 1.0 / np.sqrt(w),
                     "metric_inv": lambda w: 1.0 / w}


class FockContext:
    """Truncated q-Fock space: cached symmetrizers and degree metrics.

    Every degree is built from the crossing-weighted coproduct ``R*`` alone:
    the symmetrizer by the recursion ``P_n = (1 (x) P_{n-1}) R*_{1,n-1}`` and
    the annihilation words by ``R*_{m,p-m}``, so no matrix is ever inverted.
    Immutable after construction: whatever is derived lazily lives in the one
    cache ``_cache`` of the ``_memo`` methods, whose entries are never
    mutated and whose arrays are read-only, so contexts stay safe to share.
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
        gt = {0: np.ones(1)}
        self._sym = {0: np.eye(1)}
        for n in range(1, degree + 1):
            gt[n] = _kron(gt[n - 1], space.g)
            # (1 (x) P_{n-1}) R*_{1,n-1}: P_{n-1} acts on all but the first factor
            size = self.dim ** n
            rstar = _apply_r_star(self.q, self.dim, 1, n - 1, np.eye(size))
            self._sym[n] = (self._sym[n - 1]
                            @ rstar.reshape(self.dim, size // self.dim, size)).reshape(size, size)
        self._metric = {n: gt[n][:, None] * self._sym[n] for n in range(degree + 1)}
        _read_only([*self._sym.values(), *self._metric.values()])
        self._cache = {}

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

    # -- digit types ------------------------------------------------------------

    @_memo
    def _types(self, n: int) -> list:
        """The degree-n indices grouped by type, and the types by their size b:
        one (count, b) array per size, each row the increasing indices of one
        type."""
        size = self.block_size(n)
        # the digit counts of an index, read in base n + 1, name its type
        digit_keys = (n + 1) ** np.arange(self.dim, dtype=np.int64)
        key = np.zeros(1, dtype=np.int64)
        for _ in range(n):
            key = (key[:, None] + digit_keys).ravel()
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        sizes = np.diff(np.r_[starts, size])
        return [order[starts[sizes == b][:, None] + np.arange(b)] for b in np.unique(sizes)]

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

    @_memo
    def stacks(self, name: str, n: int, k: int = 0) -> list:
        """Type stacks (``type_stacks``), cached per (name, n, k), of
        ``R*_{n,k}`` for name ``rstar``, else of ``X(n) (x) X(k)`` for X the
        method ``sym``, ``metric``, ``metric_sqrt``, ``metric_invsqrt`` or
        ``metric_inv``; ``X(0) = 1``, so (0, k) shares (k, 0), and the metric
        functions' ``X(n)`` come from the eigen-pairs of the type blocks."""
        if name == "rstar":
            return self.type_stacks(n + k, r_star(self, n, k))
        if name not in ("sym", "metric", *_METRIC_FUNCTIONS):
            raise ValueError(f"unknown matrix name {name!r}")
        if n == 0 and k > 0:
            return self.stacks(name, k)
        if k == 0 and name in _METRIC_FUNCTIONS:
            scale = _METRIC_FUNCTIONS[name]
            return [(v * scale(w)[:, None, :]) @ v.swapaxes(1, 2) for w, v in self._eig(n)]
        X = getattr(self, name)
        return self.type_stacks(n + k, X(n) if k == 0 else _kron(X(n), X(k)))

    # -- metric functions -------------------------------------------------------

    @_memo
    def _eig(self, n: int) -> list:
        """Eigen-pairs (w, v) of the degree-n metric, one per type stack."""
        pairs = [np.linalg.eigh((S + S.swapaxes(1, 2)) / 2.0) for S in self.stacks("metric", n)]
        if min(w.min() for w, _ in pairs) <= 0:
            raise ValueError(f"degree-{n} metric is not positive definite")
        return pairs

    @_memo
    def _type_layout(self, n: int) -> tuple:
        """The degree-n indices in the order of the type stacks (``_types``
        concatenated), the inverse of that order, and the (start, stop, count,
        b) rows of each stack of ``stacks(name, n)`` within it."""
        idx_by_size = self._types(n)
        perm = np.concatenate([idx.ravel() for idx in idx_by_size])
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        spans, start = [], 0
        for idx in idx_by_size:
            count, b = idx.shape
            spans.append((start, start + count * b, count, b))
            start += count * b
        return perm, inverse, spans

    @_memo
    def _scatter(self, name: str, n: int) -> np.ndarray:
        """The dense degree-n matrix of the type stacks ``stacks(name, n)``."""
        size = self.block_size(n)
        out = np.zeros((size, size))
        for idx, S in zip(self._types(n), self.stacks(name, n)):
            out[idx[:, :, None], idx[:, None, :]] = S
        return out

    def metric_sqrt(self, n: int) -> np.ndarray:
        return self._scatter("metric_sqrt", n)

    def metric_invsqrt(self, n: int) -> np.ndarray:
        return self._scatter("metric_invsqrt", n)

    def metric_inv(self, n: int) -> np.ndarray:
        return self._scatter("metric_inv", n)

    # -- inner products and norms ----------------------------------------------

    def q_inner(self, x, y, n: int) -> complex:
        """Degree-n q-inner product, or one per pair of stacked tensors."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[-1:] != (self.block_size(n),) or y.shape[-1:] != (self.block_size(n),):
            raise ValueError("degree-n block length mismatch")
        inner = np.conj(x)[..., None, :] @ self.metric(n) @ y[..., :, None]
        return complex(inner[0, 0]) if inner.ndim == 2 else inner[..., 0, 0]

    def q_norm(self, x, n: int) -> float:
        return float(np.sqrt(max(self.q_inner(x, x, n).real, 0.0)))

    def block_norm(self, B, m: int, n: int) -> float:
        """Operator norm of a degree-n -> degree-m block w.r.t. the q-inner products."""
        return _spectral_norm(gauge_block(self, self, B, m, n))

    # -- annihilation-word tensors ----------------------------------------------

    @_memo
    def ann_words(self, m: int, p: int) -> np.ndarray:
        """Tensor of shape (dim**m, dim**(p-m), dim**p).

        Entry ``[t]`` is the matrix of the m-fold annihilation word
        ``a_q(e_{t_1}) ... a_q(e_{t_m})`` restricted to degree-p input:
        ``(e_{t_m..t_1}^* M_m (x) 1) R*_{m,p-m}`` with ``M_m`` the degree-m
        metric, by the factorization ``P_p = (P_m (x) P_{p-m}) R*_{m,p-m}``.
        """
        if m > p or p > self.degree:
            raise ValueError("degree out of range")
        size = self.dim ** p
        rstar = _apply_r_star(self.q, self.dim, m, p - m, np.eye(size))
        picked = self._metric[m][self.reverse_map(m)]
        return (picked @ rstar.reshape(self.dim ** m, -1)).reshape(
            self.dim ** m, self.dim ** (p - m), size)

    @_memo
    def reverse_map(self, m: int) -> np.ndarray:
        """Flat index map reversing the order of the m tensor factors."""
        return np.arange(self.dim ** m).reshape((self.dim,) * m).T.ravel()

    @_memo
    def partner_map(self, m: int) -> np.ndarray:
        """Flat index map of the conjugation's basis permutation on degree m."""
        index = np.arange(self.dim ** m).reshape((self.dim,) * m)
        return index[np.ix_(*[self.space.partner] * m)].ravel()

    def mixed_word_block(self, Z, k: int, m: int, p: int) -> np.ndarray:
        """Block (degree p -> degree p-m+k) of ``sum_{s,t} Z[s,t] a*_q(e_s) a_q(e_t)``
        with ``e_s``/``e_t`` running over degree-k/degree-m basis tensors, for
        ``Z`` of shape (dim**k, dim**m), or the stack of blocks of a stack of
        such ``Z`` along leading axes."""
        Z = np.asarray(Z)
        arr = Z @ self.ann_words(m, p).reshape(self.dim ** m, -1)
        return arr.reshape(Z.shape[:-2] + (self.dim ** (k + p - m), self.dim ** p))

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
        return cls(ctx, [_gaussian(rng, ctx.block_size(n)) for n in range(ctx.degree + 1)])

    def __add__(self, other):
        return GradedVector(self.ctx, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return GradedVector(self.ctx, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __rmul__(self, scalar):
        return GradedVector(self.ctx, [scalar * b for b in self.blocks])

    def norm(self) -> float:
        return _graded_norm(self.ctx, self.blocks)


def _graded_norm(ctx: FockContext, blocks):
    """q-norm of a vector's degree blocks 0..N, one per draw of stacked blocks."""
    total = sum(ctx.q_inner(b, b, n).real for n, b in enumerate(blocks))
    return _per_draw(np.sqrt(np.maximum(total, 0.0)))


# Width from which a metric function multiplies a block stack by stack
# (``_metric_product``) instead of as one dense matrix.  The gauge of a square
# complex block on b2+t1 at q = 0.9, best of 5, one BLAS thread on a 2-vCPU
# Xeon VM, dense -> typed: width 27 23 -> 50 us, 81 229 -> 95 us, 243 4.7 ->
# 0.63 ms, 729 111 -> 22 ms; the crossover lies between 27 and 81.
_TYPED_MIN_WIDTH = 64


def _metric_product(ctx: FockContext, name: str, n: int, M, right: bool = False) -> np.ndarray:
    """``X(n) @ M``, or ``M @ X(n)`` when ``right``, for X the method
    ``name`` of ``ctx`` (``metric`` or a metric function) and ``M`` a matrix
    or a stack of them along leading axes.

    Below ``_TYPED_MIN_WIDTH`` this is the dense product.  From it on, the
    rows of ``M`` (the columns when ``right``) are gathered in type order and
    each real stack of ``ctx.stacks(name, n)`` multiplies its rows as one real
    GEMM per matrix, a complex row read as (real, imaginary) float64 pairs."""
    if ctx.block_size(n) < _TYPED_MIN_WIDTH:
        X = getattr(ctx, name)(n)
        return M @ X if right else X @ M
    M = np.asarray(M)
    perm, inverse, spans = ctx._type_layout(n)
    rows = (M.swapaxes(-1, -2) if right else M)[..., perm, :]
    rows = np.ascontiguousarray(rows, dtype=np.result_type(rows.dtype, np.float64))
    pairs = rows.view(np.float64)
    lead, width = pairs.shape[:-2], pairs.shape[-1]
    for S, (start, stop, count, b) in zip(ctx.stacks(name, n), spans):
        # the gathered rows are a copy, and splitting their row axis keeps a
        # view, so matmul writes each product over the rows it reads (numpy
        # copies an overlapping input first); no second full-size buffer
        view = pairs[..., start:stop, :].reshape(lead + (count, b, width))
        np.matmul(S.swapaxes(1, 2) if right else S, view, out=view)
    out = rows[..., inverse, :]
    return out.swapaxes(-1, -2) if right else out


def gauge_block(ctx_out: FockContext, ctx_in: FockContext, B, m: int, n: int) -> np.ndarray:
    """A degree-n -> degree-m block in coordinates orthonormal for the
    q-inner products, ``metric_sqrt(m) @ B @ metric_invsqrt(n)``: its plain
    spectral norm and eigenvalues are the q-geometric ones.  ``B`` may be a
    stack of blocks along leading axes."""
    return _metric_product(ctx_in, "metric_invsqrt", n,
                           _metric_product(ctx_out, "metric_sqrt", m, B), right=True)


# -- block algebra ---------------------------------------------------------------
# An operator is a dict of blocks keyed (out degree, in degree).  The helpers
# below act on blocks of shape (..., rows, cols), every block of one dict with
# the same leading axes: ``GradedOperator`` holds 2-D blocks, a stack of draws
# one leading draw axis.  Each slice of a stack goes through the same BLAS and
# LAPACK calls as a lone block, so it comes out bit for bit the same.


def _compose(left: dict, right: dict) -> dict:
    """Blocks of the product of two operators."""
    blocks = {}
    for (m, p), A in left.items():
        for (p2, n), B in right.items():
            if p != p2:
                continue
            key = (m, n)
            C = A @ B
            blocks[key] = blocks[key] + C if key in blocks else C
    return blocks


def _add(left: dict, right: dict) -> dict:
    """Blocks of the sum of two operators."""
    blocks = dict(left)
    for key, B in right.items():
        blocks[key] = blocks[key] + B if key in blocks else B
    return blocks


def _scale(scalar, blocks: dict) -> dict:
    """Blocks times a complex scalar, or times a stack of them shaped to
    broadcast against the blocks."""
    return {key: scalar * B for key, B in blocks.items()}


def _on_inputs(blocks: dict, degrees) -> dict:
    """The blocks whose input degree is in ``degrees``."""
    return {key: B for key, B in blocks.items() if key[1] in degrees}


def _adjoint(ctx_out: FockContext, ctx_in: FockContext, blocks: dict) -> dict:
    """Blocks of the adjoint w.r.t. the q-inner products of both contexts,
    ``metric_inv(n) @ B^H @ metric(m)`` for the block (m, n)."""
    adjoint = {}
    for (m, n), B in blocks.items():
        left = _metric_product(ctx_in, "metric_inv", n, np.conj(B).swapaxes(-1, -2))
        adjoint[(n, m)] = _metric_product(ctx_out, "metric", m, left, right=True)
    return adjoint


def _assemble(ctx_out: FockContext, ctx_in: FockContext, blocks: dict, out_degrees,
              in_degrees, gauge: bool) -> np.ndarray:
    """Matrix over the direct sums of the listed out and in degrees, gauged
    block by block (``gauge_block``) when ``gauge``."""
    rows, n_rows = _degree_slices(ctx_out, out_degrees)
    cols, n_cols = _degree_slices(ctx_in, in_degrees)
    lead = next(iter(blocks.values())).shape[:-2] if blocks else ()
    full = np.zeros(lead + (n_rows, n_cols), dtype=complex)
    for (m, n), B in blocks.items():
        if m not in rows or n not in cols:
            continue
        if gauge:
            B = gauge_block(ctx_out, ctx_in, B, m, n)
        full[..., rows[m], cols[n]] = B
    return full


def _apply(ctx_out: FockContext, blocks: dict, vector) -> list:
    """Degree blocks of an operator's blocks applied to a vector's blocks."""
    out = [np.zeros(ctx_out.block_size(n), dtype=complex) for n in range(ctx_out.degree + 1)]
    for (m, n), B in blocks.items():
        out[m] = out[m] + B @ vector[n]
    return out


def _block_gaps(ctx: FockContext, A: dict, B: dict, inputs):
    """``blockwise_gap`` of two operators' blocks, one per draw of stacks."""
    res = 0.0
    for p, m in itertools.product(inputs, range(ctx.degree + 1)):
        if (m, p) in A or (m, p) in B:
            res = np.maximum(res, ctx.block_norm(A.get((m, p), 0) - B.get((m, p), 0), m, p))
    return _per_draw(res)


def _min_eigs(M) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of a matrix, one per matrix
    of a stack along leading axes."""
    return np.linalg.eigvalsh((M + np.conj(M).swapaxes(-1, -2)) / 2.0)[..., 0]


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
        return GradedOperator._trusted(self.ctx_out, other.ctx_in,
                                       _compose(self.blocks, other.blocks))

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        if other.ctx_out is not self.ctx_out or other.ctx_in is not self.ctx_in:
            raise ValueError("context mismatch in operator sum (base dimension, q or degree)")
        return GradedOperator._trusted(self.ctx_out, self.ctx_in, _add(self.blocks, other.blocks))

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "GradedOperator":
        scalar = complex(scalar)  # a complex128 product, as numpy casts it anyway
        return GradedOperator._trusted(self.ctx_out, self.ctx_in, _scale(scalar, self.blocks))

    def adjoint(self) -> "GradedOperator":
        """Adjoint w.r.t. the q-inner products of both contexts."""
        return GradedOperator._trusted(self.ctx_in, self.ctx_out,
                                       _adjoint(self.ctx_out, self.ctx_in, self.blocks))

    def apply(self, vec: GradedVector) -> GradedVector:
        return GradedVector(self.ctx_out, _apply(self.ctx_out, self.blocks, vec.blocks))

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
        degrees = ((range(self.ctx_out.degree + 1), range(self.ctx_in.degree + 1))
                   if window is None else (sorted(window),) * 2)
        return _assemble(self.ctx_out, self.ctx_in, self.blocks, *degrees, gauge)

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
            dense = _assemble(self.ctx_out, self.ctx_in, self.blocks, sorted(out_degrees),
                              sorted(in_degrees), gauge=True)
            norm = max(norm, _spectral_norm(dense))
        return norm

    def max_diff(self, other: "GradedOperator") -> float:
        return (self - other).op_norm()


def blockwise_gap(ctx: FockContext, A: GradedOperator, B: GradedOperator, inputs) -> float:
    """Largest q-norm of the block gaps ``A_{m,p} - B_{m,p}`` over the input
    degrees ``inputs`` and every output degree of ``ctx``.  A pair where
    neither operator has a block has gap exactly 0 and is skipped; a nan
    gap makes it nan."""
    return _block_gaps(ctx, A.blocks, B.blocks, inputs)


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
    return GradedOperator(ctx_tgt, ctx_src, _tensor_powers(T, ctx_src.degree))


def _tensor_powers(T, degree: int) -> dict:
    """Blocks ``T^{(x)n}``, n = 0..degree, of a matrix or of a stack of them."""
    T = np.asarray(T, dtype=complex)
    power = np.ones(T.shape[:-2] + (1, 1), dtype=complex)
    blocks = {(0, 0): power}
    for n in range(1, degree + 1):
        power = _kron(T, power)
        blocks[(n, n)] = power
    return blocks


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
    return min(float(_min_eigs(S).min()) for S in stacks)


def factorization_residual(ctx: FockContext, n: int, k: int) -> float:
    """Spectral-norm residual of ``P_q^(n+k) = (P_q^(n) (x) P_q^(k)) R*``."""
    groups = zip(ctx.stacks("sym", n + k), ctx.stacks("sym", n, k), ctx.stacks("rstar", n, k))
    return stack_norm([lhs - pair @ rstar for lhs, pair, rstar in groups])


def rstar_free_norm(ctx: FockContext, n: int, k: int) -> float:
    """Norm of R* between undeformed tensor powers (plain spectral norm; the
    base metric commutes with position permutations)."""
    return stack_norm(ctx.stacks("rstar", n, k))


def id_embedding_norm(ctx: FockContext, n: int, k: int) -> float:
    """Deformed norm of the coordinate identity from degree-n (x) degree-k to
    degree n+k."""
    groups = zip(ctx.stacks("metric_sqrt", n + k), ctx.stacks("metric_invsqrt", n, k))
    return stack_norm([sqrt @ pair_invsqrt for sqrt, pair_invsqrt in groups])


def rstar_deformed_norm(ctx: FockContext, n: int, k: int) -> float:
    groups = zip(ctx.stacks("metric_sqrt", n, k), ctx.stacks("rstar", n, k),
                 ctx.stacks("metric_invsqrt", n + k))
    return stack_norm([pair_sqrt @ rstar @ invsqrt for pair_sqrt, rstar, invsqrt in groups])


def rstar_adjoint_residual(ctx: FockContext, n: int, k: int) -> float:
    """Residual of ``(Id_{n,k})* = R*`` w.r.t. the deformed q-inner products."""
    groups = zip(ctx.stacks("metric", n, k), ctx.stacks("metric", n + k),
                 ctx.stacks("rstar", n, k))
    return stack_norm([np.linalg.solve(pair, metric) - rstar for pair, metric, rstar in groups])
