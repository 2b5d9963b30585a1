import dataclasses
import itertools

import numpy as np
import pytest

from qfock import fock, reports, toeplitz
from qfock import spaces as sp
from qfock.fock import (FockContext, GradedOperator, GradedVector, annihilation, c_constant,
                        creation, first_quantization, r_star)
from conftest import Q_GRID, allocation_peak, make_ctx


def test_monomial_free_action_on_vacuum(ctx_free, rng):
    # a*(v)a(w) kills the vacuum; a*(v) creates v
    ctx = ctx_free
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    w = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    vac = GradedVector.vacuum(ctx)
    assert toeplitz.monomial(ctx, [v], [w]).op.apply(vac).norm() < 1e-12
    created = toeplitz.monomial(ctx, [v], []).op.apply(vac)
    assert np.allclose(created.blocks[1], v)


def test_monomial_matches_word_product(ctx_half, rng):
    ctx = ctx_half
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    w = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    combined = toeplitz.monomial(ctx, [v], [w]).op
    split = creation(ctx, v) @ annihilation(ctx, w)
    assert combined.max_diff(split) < 1e-10


def test_degree_expectation_properties(ctx_half, rng):
    ctx = ctx_half
    blocks = {(m, n): rng.standard_normal((ctx.block_size(m), ctx.block_size(n)))
              for m in range(3) for n in range(3)}
    op = GradedOperator(ctx, ctx, blocks)
    ex = toeplitz.degree_expectation(op)
    assert toeplitz.degree_expectation(ex).max_diff(ex) < 1e-14  # idempotent
    ident = GradedOperator.identity(ctx)
    assert toeplitz.degree_expectation(ident).max_diff(ident) < 1e-14  # unital
    # vacuum-state compatible
    vac = GradedVector.vacuum(ctx)
    lhs = ex.apply(vac).blocks[0][0]
    rhs = op.apply(vac).blocks[0][0]
    assert abs(lhs - rhs) < 1e-14


def test_degree_expectation_positive(ctx_half, rng):
    ctx = ctx_half
    op = GradedOperator(ctx, ctx, {(1, 2): rng.standard_normal((3, 9)),
                                   (2, 2): rng.standard_normal((9, 9))})
    psd = op.adjoint() @ op
    ex = toeplitz.degree_expectation(psd)
    for n in range(3):
        gauged = ctx.metric_sqrt(n) @ ex.block(n, n) @ ctx.metric_invsqrt(n)
        w = np.linalg.eigvalsh((gauged + np.conj(gauged).T) / 2.0)
        assert w.min() > -1e-10 * max(1.0, w.max())


def test_flip_reverses_tensor_order(ctx_half, rng):
    ctx = ctx_half
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    w = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    flip = ctx.reverse_map(2)
    assert np.allclose(np.kron(v, w)[flip], np.kron(w, v))
    assert np.array_equal(flip[flip], np.arange(ctx.block_size(2)))


def test_flip_pairing_free_case(ctx_free, rng):
    ctx = ctx_free
    for n in (1, 2):
        size = ctx.block_size(n)
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        e = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert toeplitz.flip_pairing_residual(ctx, v, w, e, n) < 1e-10


def test_flip_pairing_q_deformed(rng):
    for q in Q_GRID:
        ctx = make_ctx("b2", q, 4)
        size = ctx.block_size(2)
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        e = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert toeplitz.flip_pairing_residual(ctx, v, w, e, 2) < 1e-10


def test_flip_pairing_has_teeth(monkeypatch):
    ctx = make_ctx("b2", 0.5, 4)
    gen = np.random.default_rng(41)
    v, w, e = (sp._gaussian(gen, ctx.block_size(2)) for _ in range(3))
    # the first call also caches the annihilation words, so the patch below
    # reaches the flip of the pairing alone
    assert toeplitz.flip_pairing_residual(ctx, v, w, e, 2) < 1e-10
    monkeypatch.setattr(FockContext, "reverse_map", lambda self, m: np.arange(self.block_size(m)))
    assert toeplitz.flip_pairing_residual(ctx, v, w, e, 2) > 1e-10


def test_subspace_requires_conjugation_closure(space_b2t1):
    with pytest.raises(ValueError):
        toeplitz.subspace(space_b2t1, [0])  # lambda = 2 without its 1/2 partner
    sub = toeplitz.subspace(space_b2t1, [0, 1])
    assert sub.dim == 2
    assert np.allclose(sorted(sub.a), [0.5, 2.0])


def test_compression_is_multiplicative(rng):
    ctx = make_ctx("b2+t1", 0.5, 4)
    sub = toeplitz.subspace(ctx.space, [0, 1])
    ctx_small = FockContext(sub, 0.5, 4)
    v = np.array([1.0, 2.0j, 0.0])
    w = np.array([0.5, -1.0, 0.0])
    x = toeplitz.monomial(ctx, [v], [w]).op
    y = toeplitz.monomial(ctx, [w], []).op
    lhs = toeplitz.compression(ctx, ctx_small, [0, 1], x @ y)
    rhs = toeplitz.compression(ctx, ctx_small, [0, 1], x) \
        @ toeplitz.compression(ctx, ctx_small, [0, 1], y)
    for p in range(ctx.degree - 1):
        for m in range(ctx.degree + 1):
            assert ctx_small.block_norm(lhs.block(m, p) - rhs.block(m, p), m, p) < 1e-9


def test_finkernel_full_rank_examples():
    for q in (0.0, 0.5, -0.9):
        ctx = make_ctx("b2", q, 4)
        report = toeplitz.finkernel_rank(ctx, [0, 1], max_length=2)
        assert report["full_rank"]
        assert report["n_columns"] == 1 + 2 + 2 + 4 + 4 + 4  # lengths 0..2


@pytest.mark.parametrize("spectrum", ["b12345.678", "b1e30"])
def test_finkernel_full_rank_under_a_wide_metric_spread(spectrum):
    # the column scales follow the metric, which spans 1e-30..2 on b1e30
    space = sp.build_space(reports.parse_spectrum(spectrum))
    ctx = FockContext(space, 0.5, 4)
    report = toeplitz.finkernel_rank(ctx, reports._subspace_indices(space), max_length=2)
    assert report["full_rank"]


@pytest.mark.parametrize("scale", [1e-12, 0.0])
def test_finkernel_sees_a_dependent_column_whatever_its_scale(monkeypatch, scale):
    # the monomial a^*(e_1) is replaced by scale * a^*(e_0): normalising the
    # columns must not lift a (nearly) parallel or a zero column to full rank
    ctx = make_ctx("b2", 0.5, 4)
    monomial = toeplitz.monomial

    def dependent(ctx, vs, ws, inputs=None):
        if len(vs) == 1 and not ws and vs[0][1] == 1.0:
            elem = monomial(ctx, [np.eye(ctx.dim)[0]], [], inputs)
            return dataclasses.replace(elem, op=scale * elem.op)
        return monomial(ctx, vs, ws, inputs)

    monkeypatch.setattr(toeplitz, "monomial", dependent)
    report = toeplitz.finkernel_rank(ctx, [0, 1], max_length=2)
    assert report["rank"] == report["n_columns"] - 1
    assert not report["full_rank"]


def _dense_singular_values(ctx, indices, max_length):
    """Singular values, largest first, of the realization matrix assembled
    whole: one unit-norm column per monomial, over every output degree and
    the input degrees 0..N - max_length."""
    basis = [np.eye(ctx.dim)[i] for i in indices]
    columns = []
    for k in range(max_length + 1):
        for m in range(max_length + 1 - k):
            for vs in itertools.product(basis, repeat=k):
                for ws in itertools.product(basis, repeat=m):
                    blocks = toeplitz.monomial(ctx, list(vs), list(ws)).op.blocks
                    columns.append(fock._assemble(
                        ctx, ctx, blocks, range(ctx.degree + 1),
                        range(ctx.degree - max_length + 1), gauge=False).ravel())
    matrix = np.stack(columns, axis=1)
    matrix /= np.linalg.norm(matrix, axis=0)
    return np.linalg.svd(matrix, compute_uv=False)


@pytest.mark.parametrize("spectrum, degree, q", [
    *itertools.product(["t1", "t2", "b2", "b2+t1", "b2x2"], [4, 5], [0.5, -0.9, 0.9]),
    ("b2+t1", 6, 0.9)])
def test_finkernel_shift_groups_match_the_whole_matrix(spectrum, degree, q):
    # the matrix is block diagonal over the shifts k - m, so the groups'
    # singular values together are the whole matrix's
    ctx = make_ctx(spectrum, q, degree)
    index_sets = [reports._subspace_indices(ctx.space)]
    if ctx.dim <= 3 and degree < 6:
        index_sets.append(list(range(ctx.dim)))
    for indices in index_sets:
        dense = _dense_singular_values(ctx, indices, 2)
        grouped = toeplitz._realization_singular_values(ctx, indices, 2)
        report = toeplitz.finkernel_rank(ctx, indices, max_length=2)
        assert report["n_columns"] == len(dense)
        assert report["rank"] == np.sum(dense > 1e-8 * dense[0])
        np.testing.assert_allclose(grouped, dense, rtol=1e-12, atol=0)
        assert report["smallest_singular_value"] == grouped[-1]
        assert report["largest_singular_value"] == grouped[0]


def test_finkernel_allocates_one_shift_group_at_a_time():
    # assembled whole, the matrix at (b2+t1, 0.9, N = 5) is 3.8 MiB, and its
    # column list, the matrix and the SVD's copy peak at 11.5 MiB; one shift
    # group at a time, with its monomials and its SVD, stays below 4 MiB
    ctx = make_ctx("b2+t1", 0.9, 5)
    indices = reports._subspace_indices(ctx.space)
    toeplitz.finkernel_rank(ctx, indices, max_length=2)  # warm the context's caches
    assert allocation_peak(lambda: toeplitz.finkernel_rank(ctx, indices, max_length=2)) < 4.0


def test_finkernel_rejects_deep_lengths(ctx_half):
    with pytest.raises(ValueError):
        toeplitz.finkernel_rank(ctx_half, [0, 1], max_length=3)


def test_compression_identity_pure_length(rng):
    for q in Q_GRID:
        ctx = make_ctx("t2", q, 5)
        for n in (1, 2):
            elem = toeplitz.random_balanced(ctx, rng, n)
            for k in range(ctx.degree - 2 * n + 1):
                assert toeplitz.compression_identity_residual(ctx, elem, k) < 1e-10


def test_low_degree_corners_vanish(ctx_half, rng):
    elem = toeplitz.random_balanced(ctx_half, rng, 2)
    assert toeplitz.low_degree_residual(ctx_half, elem) < 1e-14


def test_norm_bound_margin_nonnegative(rng):
    for q in Q_GRID:
        ctx = make_ctx("b2", q, 4)
        for n in (1, 2):
            elem = toeplitz.random_balanced(ctx, rng, n)
            assert toeplitz.norm_bound_margin(ctx, elem) > -1e-8


def _element_and_another_context():
    """A balanced element of leg degree 1 on (b2, q = 0.5, N = 4), its
    context, and the q = 0.9 context of the same space and degree."""
    ctx = make_ctx("b2", 0.5, 4)
    elem = toeplitz.random_balanced(ctx, np.random.default_rng(931), 1)
    return elem, ctx, FockContext(ctx.space, 0.9, 4)


def test_compression_identity_refuses_an_element_of_another_context():
    # read in the q = 0.9 metric, this element's residual was 5.1 (6e-16 on
    # its own context)
    elem, ctx, other = _element_and_another_context()
    assert toeplitz.compression_identity_residual(ctx, elem, 2) < 1e-10
    with pytest.raises(ValueError, match="context"):
        toeplitz.compression_identity_residual(other, elem, 2)


def test_norm_bound_margin_refuses_an_element_of_another_context():
    # read in the q = 0.9 metric, this element's margin was 1.8e6 (4.27 on
    # its own context)
    elem, ctx, other = _element_and_another_context()
    assert toeplitz.norm_bound_margin(ctx, elem) > -1e-8
    with pytest.raises(ValueError, match="context"):
        toeplitz.norm_bound_margin(other, elem)


def test_low_degree_residual_refuses_an_element_of_another_context():
    elem, ctx, other = _element_and_another_context()
    assert toeplitz.low_degree_residual(ctx, elem) == 0.0
    with pytest.raises(ValueError, match="context"):
        toeplitz.low_degree_residual(other, elem)


def test_norm_bound_uses_frozen_constant():
    assert abs(c_constant(0.5) - 3.46275) < 1e-5


def test_majorisation_on_symmetrizer_factorization(rng):
    for q in (0.3, -0.5, 0.9):
        ctx = make_ctx("b2", q, 4)
        for n, k in ((1, 1), (2, 1), (1, 2), (2, 2)):
            check = toeplitz.majorisation_check(
                ctx.sym(n + k), np.kron(ctx.sym(n), ctx.sym(k)), r_star(ctx, n, k))
            assert check["consistent"]
            assert check["min_eig_A"] > 0
            assert check["min_eig_B"] > 0
            assert check["margin"] > -1e-10


def test_majorisation_detects_inconsistency(rng):
    A = np.eye(2)
    B = np.eye(2)
    T = np.diag([1.0, 0.5])
    check = toeplitz.majorisation_check(A, B, T)
    assert not check["consistent"]


def test_unbalanced_elements_rejected(ctx_half, rng):
    elem = toeplitz.realize(ctx_half, rng.standard_normal((9, 3)), 2, 1)
    with pytest.raises(ValueError):
        toeplitz.compression_identity_residual(ctx_half, elem, 0)
    with pytest.raises(ValueError):
        toeplitz.norm_bound_margin(ctx_half, elem)


def test_majorisation_check_stacked_matches_dense():
    gen = np.random.default_rng(63)
    for q in (0.9, -0.5):
        ctx = make_ctx("b2+t1", q, 4)
        for n, k in ((1, 1), (2, 1), (1, 3), (2, 2)):
            mats = [ctx.sym(n + k), np.kron(ctx.sym(n), ctx.sym(k)), r_star(ctx, n, k)]
            dense = toeplitz.majorisation_check(*mats)
            stacked = toeplitz.majorisation_check(*(ctx.type_stacks(n + k, M) for M in mats))
            assert stacked["consistent"] == dense["consistent"]
            for key in ("min_eig_A", "min_eig_B", "t_norm", "margin"):
                assert abs(stacked[key] - dense[key]) <= 1e-12 * dense["t_norm"], key
        # an inconsistent triple is flagged by both routes: T scaled on one block
        mats = [ctx.sym(2), ctx.sym(2), np.eye(ctx.block_size(2))]
        stacks = [ctx.type_stacks(2, M) for M in mats]
        block = int(gen.integers(len(stacks[2])))
        stacks[2][block] = stacks[2][block] * 0.5
        assert not toeplitz.majorisation_check(*stacks)["consistent"]


def test_majorisation_check_input_forms():
    gen = np.random.default_rng(64)
    X = gen.standard_normal((4, 4))
    A, B = X @ X.T, np.eye(4)
    # a nested-list matrix is the dense one-block case
    assert toeplitz.majorisation_check(A.tolist(), B.tolist(), A.tolist()) == \
        toeplitz.majorisation_check(A, B, A)
    # stack lists must agree in count and shape: none is cut short
    stacks = [gen.standard_normal((2, 3, 3)), gen.standard_normal((1, 1, 1))]
    with pytest.raises(ValueError, match="matching shapes"):
        toeplitz.majorisation_check(stacks, stacks, stacks[:1])
    with pytest.raises(ValueError, match="matching shapes"):
        toeplitz.majorisation_check(stacks, stacks, [stacks[0][:1], stacks[1]])
    with pytest.raises(ValueError, match="square matrix"):
        toeplitz.majorisation_check(A[:3], B[:3], A[:3])


def test_compression_is_the_first_quantisation_sandwich():
    # oracle: F_q(iota^T) x F_q(iota) with dense first quantisations of the
    # 0/1 inclusion matrix
    gen = np.random.default_rng(903)
    ctx = make_ctx("b2+t1", 0.5, 4)
    for indices in ([0, 1], [2], [2, 0, 1]):
        small = FockContext(toeplitz.subspace(ctx.space, indices), ctx.q, ctx.degree)
        iota = np.zeros((ctx.dim, small.dim))
        iota[sorted(indices), np.arange(small.dim)] = 1.0
        blocks = {}
        for _ in range(6):
            m, n = (int(d) for d in gen.integers(0, ctx.degree + 1, size=2))
            shape = (ctx.block_size(m), ctx.block_size(n))
            blocks[(m, n)] = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        op = GradedOperator(ctx, ctx, blocks)
        fproj = first_quantization(ctx, small, iota.T)
        expected = fproj @ op @ first_quantization(small, ctx, iota)
        got = toeplitz.compression(ctx, small, indices, op)
        assert set(got.blocks) == set(expected.blocks)
        assert all(np.array_equal(got.blocks[key], expected.blocks[key]) for key in got.blocks)
    sub = toeplitz.subspace(ctx.space, [0, 1])
    for q, degree in ((ctx.q, ctx.degree - 1), (-ctx.q, ctx.degree)):
        with pytest.raises(ValueError):
            toeplitz.compression(ctx, FockContext(sub, q, degree), [0, 1], op)


@pytest.mark.parametrize("degree", [2, 4, 5])
def test_realize_keeps_exactly_the_blocks_of_the_truncation_rule(degree):
    # a word of k creations and m annihilations maps degree p to p - m + k,
    # and has a block wherever both degrees lie in 0..N
    ctx = make_ctx("t2", 0.5, degree)
    gen = np.random.default_rng(933)
    for k, m in itertools.product(range(degree + 1), repeat=2):
        if k + m > degree:
            continue
        Z = sp._gaussian(gen, (ctx.block_size(k), ctx.block_size(m)))
        blocks = toeplitz.realize(ctx, Z, k, m).op.blocks
        expected = {(out, p) for p in range(degree + 1) for out in range(degree + 1)
                    if p >= m and out == p - m + k}
        assert set(blocks) == expected
        for (_, p), B in blocks.items():
            assert np.array_equal(B, ctx.mixed_word_block(Z, k, m, p))


@pytest.mark.parametrize("spectrum, degree", [("t1", 5), ("t2", 5), ("b2", 5), ("b2+t1", 5),
                                              ("b2+t1", 6)])
def test_grouped_majorisation_equals_its_pairs_bit_for_bit(spectrum, degree):
    ctx = make_ctx(spectrum, 0.9, degree)
    for p in range(degree + 1):
        grouped = toeplitz.majorisation_check(ctx.stacks("sym", p), ctx.splits("sym", p),
                                              ctx.splits("rstar", p))
        for n in range(p + 1):
            alone = toeplitz.majorisation_check(
                ctx.stacks("sym", p), ctx.type_stacks(p, np.kron(ctx.sym(n), ctx.sym(p - n))),
                ctx.type_stacks(p, fock.r_star(ctx, n, p - n)))
            assert {key: value[n].item() for key, value in grouped.items()} == alone
            assert type(alone["consistent"]) is bool and type(alone["margin"]) is float


@pytest.mark.parametrize("spectrum, degree", [("t2", 4), ("b2+t1", 5)])
def test_realize_on_inputs_keeps_the_blocks_of_the_full_operator_bit_for_bit(spectrum, degree):
    ctx = make_ctx(spectrum, 0.9, degree)
    gen = np.random.default_rng(314)
    for k, m in itertools.product(range(3), repeat=2):
        Z = sp._gaussian(gen, (ctx.block_size(k), ctx.block_size(m)))
        full = toeplitz.realize(ctx, Z, k, m).op.blocks
        for inputs in (range(degree - 1), {0, degree}, ()):
            kept = toeplitz.realize(ctx, Z, k, m, inputs).op.blocks
            assert set(kept) == {key for key in full if key[1] in inputs}
            assert all(np.array_equal(B, full[key]) for key, B in kept.items())
    vs, ws = [np.eye(ctx.dim)[0]], [np.eye(ctx.dim)[1]]
    full = toeplitz.monomial(ctx, vs, ws).op.blocks
    kept = toeplitz.monomial(ctx, vs, ws, range(2)).op.blocks
    assert set(kept) == {(1, 1)} and set(full) == {(p, p) for p in range(1, degree + 1)}
    assert all(np.array_equal(B, full[key]) for key, B in kept.items())


def test_finkernel_builds_no_block_it_never_reads():
    # each monomial is built on the input degrees 0..N - max_length only; built
    # on every input degree, a warm call at (b2+t1, 0.9, N = 6) peaks at 26.9 MiB
    ctx = make_ctx("b2+t1", 0.9, 6)
    indices = reports._subspace_indices(ctx.space)
    toeplitz.finkernel_rank(ctx, indices, max_length=2)  # warm the context's caches
    assert allocation_peak(lambda: toeplitz.finkernel_rank(ctx, indices, max_length=2)) < 8.0
