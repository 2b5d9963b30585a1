import itertools

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import fock, reports, toeplitz
from qfock import spaces as sp
from qfock.fock import FockContext, GradedVector, annihilation, c_constant, creation, s_q
from conftest import Q_GRID, SPECTRA, make_ctx


def brute_symmetrizer(dim, q, n):
    """Independent oracle: act with every permutation on an nd-array."""
    size = dim ** n
    P = np.zeros((size, size))
    for sigma in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        for col in range(size):
            digits = []
            c = col
            for _ in range(n):
                digits.append(c % dim)
                c //= dim
            digits = digits[::-1]
            moved = [digits[sigma[i]] for i in range(n)]
            row = 0
            for d in moved:
                row = row * dim + d
            P[row, col] += q ** inv
    return P


def test_symmetrizer_matches_bruteforce(ctx_half):
    for n in range(4):
        oracle = brute_symmetrizer(ctx_half.dim, ctx_half.q, n)
        assert np.allclose(ctx_half.sym(n), oracle, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(spectrum=st.sampled_from(SPECTRA), q=st.floats(min_value=-0.95, max_value=0.95),
       degree=st.integers(min_value=0, max_value=4))
def test_symmetrizer_matches_bruteforce_property(spectrum, q, degree):
    ctx = make_ctx(spectrum, q, degree)
    for n in range(degree + 1):
        oracle = brute_symmetrizer(ctx.dim, q, n)
        assert np.max(np.abs(ctx.sym(n) - oracle)) <= 1e-12


def q_factorial(q, n):
    """``[n]_q! = prod_{k=1}^n (1 + q + ... + q^{k-1})``."""
    return math.prod(sum(q ** j for j in range(k)) for k in range(1, n + 1))


def test_dim1_metric_is_q_factorial():
    # on a one-dimensional space g = 1 and <e^{(x)n}, e^{(x)n}>_q = g^n [n]_q!
    for q in Q_GRID:
        ctx = make_ctx("t1", q, 6)
        g = ctx.space.g[0]
        for n in range(7):
            assert abs(ctx.metric(n)[0, 0] - g ** n * q_factorial(q, n)) <= 1e-12


def test_dim1_metric_is_q_factorial_at_degree_8():
    for q in Q_GRID + (0.97,):
        ctx = make_ctx("t1", q, 8)
        expect = ctx.space.g[0] ** 8 * q_factorial(q, 8)
        assert abs(ctx.metric(8)[0, 0] - expect) <= 1e-14 * abs(expect)


def test_zagier_determinant():
    # on tensors whose n digits are all distinct, P_q^(n) is the regular
    # representation of sum_sigma q^inv(sigma) sigma, whose determinant is
    # prod_{k=1}^{n-1} (1 - q^{k^2+k})^{(n-k) n! / (k^2+k)} (Zagier 1992)
    for q in (0.5, -0.7, 0.9):
        for n in range(2, 6):
            ctx = make_ctx(f"t{n}", q, n)
            distinct = [int("".join(map(str, sigma)), n)
                        for sigma in itertools.permutations(range(n))]
            sign, logdet = np.linalg.slogdet(ctx.sym(n)[np.ix_(distinct, distinct)])
            expect = sum((n - k) * math.factorial(n) // (k * k + k) * math.log1p(-q ** (k * k + k))
                         for k in range(1, n))
            assert sign == 1.0
            assert abs(logdet - expect) <= 1e-10 * abs(expect)


def test_degree2_symmetrizer_eigenvalues():
    for q in (-0.9, 0.3, 0.9):
        ctx = make_ctx("t2", q, 2)
        eigs = np.unique(np.round(np.linalg.eigvalsh(ctx.sym(2)), 10))
        assert np.allclose(eigs, sorted({1.0 - q, 1.0 + q}))


def test_symmetrizer_positive_definite_across_grid():
    for spectrum in SPECTRA:
        for q in Q_GRID:
            ctx = make_ctx(spectrum, q, 3)
            for n in range(4):
                assert np.linalg.eigvalsh(ctx.sym(n)).min() > 0.0


def test_pair_inner_product_value(ctx_half):
    # <e (x) e, e (x) e>_q = (1 + q) <e, e>_U^2 for an eigenvector e
    ctx = ctx_half
    e = np.zeros(ctx.dim, dtype=complex)
    e[0] = 1.0
    ee = np.kron(e, e)
    base = sp.deformed_inner(ctx.space, e, e)
    assert abs(ctx.q_inner(ee, ee, 2) - (1.0 + ctx.q) * base ** 2) < 1e-12


def test_metric_is_product_of_commuting_factors(ctx_half):
    gt_diag = np.ones(1)
    for n in range(3):
        gt = np.diag(gt_diag)
        gt_diag = np.kron(gt_diag, ctx_half.space.g)
        P = ctx_half.sym(n)
        assert np.allclose(gt @ P, P @ gt, atol=1e-13)
        assert np.allclose(ctx_half.metric(n), gt @ P, atol=1e-13)


def test_annihilation_direct_formula(ctx_half, rng):
    # a_q(v)(w_1 (x) ... (x) w_p) = sum_k q^{k-1} <v, w_k>_U (w's without w_k)
    ctx = ctx_half
    for p in (1, 2, 3):
        ws = [rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
              for _ in range(p)]
        v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
        tensor = np.ones(1, dtype=complex)
        for w in ws:
            tensor = np.kron(tensor, w)
        got = annihilation(ctx, v).block(p - 1, p) @ tensor
        expect = np.zeros(ctx.block_size(p - 1), dtype=complex)
        for k in range(p):
            rest = np.ones(1, dtype=complex)
            for j, w in enumerate(ws):
                if j != k:
                    rest = np.kron(rest, w)
            expect += ctx.q ** k * sp.deformed_inner(ctx.space, v, ws[k]) * rest
        assert np.linalg.norm(got - expect) < 1e-10


def test_q_commutation_relation(rng):
    for spectrum in ("t2", "b2+t1"):
        for q in Q_GRID:
            ctx = make_ctx(spectrum, q, 3)
            v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
            w = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
            comm = annihilation(ctx, v) @ creation(ctx, w) \
                - q * (creation(ctx, w) @ annihilation(ctx, v))
            scalar = sp.deformed_inner(ctx.space, v, w)
            for n in range(ctx.degree):
                gap = comm.block(n, n) - scalar * np.eye(ctx.block_size(n))
                assert ctx.block_norm(gap, n, n) < 1e-10


def test_creation_annihilation_adjoint(ctx_half, rng):
    v = rng.standard_normal(ctx_half.dim) + 1j * rng.standard_normal(ctx_half.dim)
    assert creation(ctx_half, v).adjoint().max_diff(annihilation(ctx_half, v)) < 1e-10


def test_field_operator_moments_free_case():
    # free semicircular moments: <Omega, s^2 Omega> = 1, <Omega, s^4 Omega> = 2
    space = sp.build_space(sp.BlockSpectrum([], trivial=1))
    ctx = FockContext(space, 0.0, 4)
    s = s_q(ctx, np.ones(1))
    vac = GradedVector.vacuum(ctx)
    s2 = (s @ s).apply(vac)
    s4 = (s @ s @ s @ s).apply(vac)
    assert abs(ctx.q_inner(vac.blocks[0], s2.blocks[0], 0) - 1.0) < 1e-12
    assert abs(ctx.q_inner(vac.blocks[0], s4.blocks[0], 0) - 2.0) < 1e-12


def test_field_operator_fourth_moment_q_deformed():
    # pair partitions of 4 points weighted by crossings: 2 + q
    space = sp.build_space(sp.BlockSpectrum([], trivial=1))
    for q in (-0.5, 0.3, 0.9):
        ctx = FockContext(space, q, 4)
        s = s_q(ctx, np.ones(1))
        vac = GradedVector.vacuum(ctx)
        s4 = (s @ s @ s @ s).apply(vac)
        assert abs(ctx.q_inner(vac.blocks[0], s4.blocks[0], 0) - (2.0 + q)) < 1e-12


def test_field_operator_warns_off_real_subspace(ctx_half):
    h = np.zeros(ctx_half.dim, dtype=complex)
    h[0] = 1.0  # lambda = 2 eigenvector, not I-fixed
    with pytest.warns(UserWarning):
        s_q(ctx_half, h)


def test_c_constant_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for q in (0.3, 0.5, 0.9, -0.5):
        oracle = float(1 / mpmath.qp(abs(q), abs(q)))
        assert abs(c_constant(q) - oracle) < 1e-12 * oracle
    assert c_constant(0.0) == 1.0
    # frozen high-precision value for the norm-bound criterion
    assert abs(c_constant(0.5) - 3.4627466194550636) < 1e-12


def brute_r_star(ctx, n, k, x):
    """Oracle: explicit partition loop on an nd coefficient array."""
    total = n + k
    if total == 0:
        return x.copy()
    x_nd = x.reshape((ctx.dim,) * total)
    out = np.zeros_like(x_nd)
    for i1 in itertools.combinations(range(total), n):
        i2 = tuple(j for j in range(total) if j not in i1)
        cross = sum(i - l for l, i in enumerate(i1))
        # output tensor lists the I1 factors first, then the I2 factors
        out += ctx.q ** cross * x_nd.transpose(i1 + i2)
    return out.ravel()


def test_r_star_matches_bruteforce(ctx_half, rng):
    for n, k in ((0, 2), (1, 1), (2, 1), (1, 3)):
        x = rng.standard_normal(ctx_half.block_size(n + k))
        got = fock.r_star(ctx_half, n, k) @ x
        assert np.allclose(got, brute_r_star(ctx_half, n, k, x), atol=1e-12)


def test_r_star_dim1_pair_value():
    space = sp.build_space(sp.BlockSpectrum([], trivial=1))
    for q in (0.0, 0.5, -0.9):
        ctx = FockContext(space, q, 2)
        assert np.allclose(fock.r_star(ctx, 1, 1), [[1.0 + q]])


def test_symmetrizer_factorization_across_grid():
    for spectrum in SPECTRA:
        for q in Q_GRID:
            ctx = make_ctx(spectrum, q, 4)
            for n in range(5):
                for k in range(5 - n):
                    assert fock.factorization_residual(ctx, n + k)[n] < 1e-10


def test_r_star_free_norm_bounded_by_c(ctx_half):
    cq = c_constant(ctx_half.q)
    for n in range(5):
        for k in range(5 - n):
            assert fock.rstar_free_norm(ctx_half, n + k)[n] <= cq + 1e-10


def test_deformed_norm_invariants(ctx_half):
    bound = np.sqrt(c_constant(ctx_half.q))
    for n in range(5):
        for k in range(5 - n):
            assert fock.id_embedding_norm(ctx_half, n + k)[n] <= bound + 1e-10
            assert fock.rstar_deformed_norm(ctx_half, n + k)[n] <= bound + 1e-10
            assert fock.rstar_adjoint_residual(ctx_half, n + k)[n] < 1e-10


def test_first_quantization_functorial(ctx_half, rng):
    ctx = ctx_half
    S = rng.standard_normal((3, 3))
    T = rng.standard_normal((3, 3))
    lhs = fock.first_quantization(ctx, ctx, S) @ fock.first_quantization(ctx, ctx, T)
    rhs = fock.first_quantization(ctx, ctx, S @ T)
    assert lhs.max_diff(rhs) < 1e-10


def test_graded_operator_adjoint_pairing(ctx_half, rng):
    ctx = ctx_half
    op = fock.GradedOperator(ctx, ctx, {(2, 1): rng.standard_normal((9, 3))})
    x = GradedVector.random(ctx, rng)
    y = GradedVector.random(ctx, rng)
    lhs = sum(ctx.q_inner(x.blocks[n], op.apply(y).blocks[n], n)
              for n in range(ctx.degree + 1))
    rhs = sum(ctx.q_inner(op.adjoint().apply(x).blocks[n], y.blocks[n], n)
              for n in range(ctx.degree + 1))
    assert abs(lhs - rhs) < 1e-9


def test_gauged_dense_window_matches_block_norms(ctx_half):
    """The gauged dense matrix of a block-diagonal operator has the largest
    q-norm of its blocks as spectral norm, over all degrees and over a degree
    window; blocks outside the window are ignored."""
    ctx = ctx_half
    rng = np.random.default_rng(31)
    blocks = {}
    for n in (0, 1, 2, 4):
        size = ctx.block_size(n)
        blocks[(n, n)] = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    blocks[(2, 2)] *= 100.0  # the largest block; left out of the window below
    op = fock.GradedOperator(ctx, ctx, blocks)
    norms = {n: ctx.block_norm(B, n, n) for (n, _), B in blocks.items()}
    full = op.to_dense(gauge=True)
    top = max(norms.values())
    assert top == norms[2]
    assert abs(np.linalg.norm(full, ord=2) - top) <= 1e-10 * top
    assert abs(op.op_norm() - top) <= 1e-10 * top
    window = [4, 0, 3, 1]  # unordered, and degree 3 has no block
    sizes = [ctx.block_size(n) for n in sorted(window)]
    win = op.to_dense(gauge=True, window=window)
    assert win.shape == (sum(sizes), sum(sizes))
    expect = max(norms[n] for n in (0, 1, 4))
    assert abs(np.linalg.norm(win, ord=2) - expect) <= 1e-10 * expect
    # degrees sit in increasing order: degree 0 first, degree 4 last
    assert np.array_equal(win[:1, :1], full[:1, :1])
    assert np.array_equal(win[-81:, -81:], full[-81:, -81:])


def test_op_norm_by_components_matches_dense(ctx_half):
    """``op_norm`` splits over the components of the block graph; the dense
    oracle is the spectral norm of the whole gauged direct sum."""
    ctx = ctx_half
    rng = np.random.default_rng(47)

    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def operator(*keys):
        return fock.GradedOperator(ctx, ctx, {(m, n): gaussian(
            (ctx.block_size(m), ctx.block_size(n))) for m, n in keys})

    v = gaussian(ctx.dim)
    # one component (1,1)-(1,2)-(2,2), whose norm no single block reaches
    chain = operator((1, 1), (1, 2), (2, 2))
    top_block = max(ctx.block_norm(B, m, n) for (m, n), B in chain.blocks.items())
    assert chain.op_norm() > 1.01 * top_block
    with_zero = fock.GradedOperator(ctx, ctx, {
        (2, 2): gaussian((ctx.block_size(2),) * 2),
        (2, 3): np.zeros((ctx.block_size(2), ctx.block_size(3)))})
    ctx_small = make_ctx("t2", ctx.q, ctx.degree)
    quantized = fock.first_quantization(ctx_small, ctx, gaussian((ctx.dim, ctx_small.dim)))
    cases = {
        "diagonal": operator((0, 0), (1, 1), (3, 3), (4, 4)),
        "single shift": annihilation(ctx, v),
        "two components": operator((0, 1), (1, 0)),
        "chain": chain,
        "zero block": with_zero,
        "cross-context diagonal": quantized,
        "cross-context chain": quantized + creation(ctx, v) @ quantized,
    }
    for name, op in cases.items():
        dense = np.linalg.norm(op.to_dense(gauge=True), ord=2)
        assert abs(op.op_norm() - dense) <= 1e-12 * dense, name
    empty = fock.GradedOperator(ctx, ctx, {})
    assert empty.op_norm() == 0.0 == np.linalg.norm(empty.to_dense(gauge=True), ord=2)


def test_op_norm_never_assembles_the_direct_sum(monkeypatch):
    """At N = 6 on b2+t1 the direct sum is 1093 wide; single-shift and
    degree-diagonal norms take their norms on single blocks, at most 729
    wide.  The spy sits on the norm kernel, which picks the SVD or the Gram
    route by width, so it sees every norm of either route."""
    ctx = make_ctx("b2+t1", 0.9, 6)
    rng = np.random.default_rng(53)
    widths = []
    real_norm = fock._spectral_norm

    def spy(M):
        widths.append(max(np.shape(M)[-2:]))
        return real_norm(M)

    monkeypatch.setattr(fock, "_spectral_norm", spy)
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    assert creation(ctx, v).adjoint().max_diff(annihilation(ctx, v)) < 1e-8
    blocks = {(n, n): rng.standard_normal((ctx.block_size(n),) * 2)
              for n in range(ctx.degree + 1)}
    blocks[(2, 5)] = rng.standard_normal((ctx.block_size(2), ctx.block_size(5)))
    ex = toeplitz.degree_expectation(fock.GradedOperator(ctx, ctx, blocks))
    assert toeplitz.degree_expectation(ex).max_diff(ex) == 0.0
    ident = fock.GradedOperator.identity(ctx)
    assert toeplitz.degree_expectation(ident).max_diff(ident) == 0.0
    assert ex.op_norm() > 0.0
    assert widths and max(widths) == ctx.block_size(ctx.degree)


def test_ann_words_are_products_of_single_annihilations():
    # a_q(e_{t_1}) ... a_q(e_{t_m}) on degree p, one factor at a time
    for q in (0.9, 0.97):
        ctx = make_ctx("t2", q, 6)
        for m in (2, 3):
            for p in range(m, 7):
                words = ctx.ann_words(m, p)
                for t in range(ctx.block_size(m)):
                    digits = np.unravel_index(t, (ctx.dim,) * m)
                    prod = np.eye(ctx.block_size(p))
                    for j, digit in enumerate(digits[::-1]):
                        prod = ctx.ann_words(1, p - j)[digit] @ prod
                    gap = np.linalg.norm(words[t] - prod)
                    assert gap <= 1e-13 * np.linalg.norm(prod)


# -- digit-type blocks ----------------------------------------------------------


def digit_types(dim, n):
    """Oracle: the sorted digit tuple of every degree-n basis index."""
    return [tuple(sorted(np.unravel_index(i, (dim,) * n))) if n else ()
            for i in range(dim ** n)]


def same_type_mask(dim, n):
    types = digit_types(dim, n)
    return np.array([[a == b for b in types] for a in types])


def test_type_blocks_are_multinomial():
    for spectrum in SPECTRA:
        ctx = make_ctx(spectrum, 0.3, 5)
        for n in range(6):
            stacks = ctx.type_stacks(n, np.eye(ctx.block_size(n)))
            sizes = sorted(S.shape[1] for S in stacks for _ in range(S.shape[0]))
            expect = sorted(math.factorial(n) // math.prod(math.factorial(c) for c in counts)
                            for counts in itertools.product(range(n + 1), repeat=ctx.dim)
                            if sum(counts) == n)
            assert sizes == expect
            assert sum(sizes) == ctx.dim ** n
            for S in stacks:  # the identity gathers into identity blocks
                assert np.array_equal(S, np.broadcast_to(np.eye(S.shape[1]), S.shape))


def test_symmetrizer_metric_and_r_star_vanish_off_type():
    for spectrum in ("t2", "b2", "b2+t1"):
        for q in (-0.9, 0.5, 0.9):
            ctx = make_ctx(spectrum, q, 5)
            for total in range(6):
                off = ~same_type_mask(ctx.dim, total)
                mats = [ctx.sym(total), ctx.metric(total)]
                mats += [fock.r_star(ctx, n, total - n) for n in range(total + 1)]
                for M in mats:
                    assert not np.any(M[off])


def dense_metric_functions(ctx, n):
    """Reference route: one dense eigendecomposition of the whole metric."""
    M = ctx.metric(n)
    w, v = np.linalg.eigh((M + M.T) / 2.0)
    return {"sqrt": (v * np.sqrt(w)) @ v.T, "invsqrt": (v / np.sqrt(w)) @ v.T,
            "inv": (v / w) @ v.T}


def test_typed_metric_functions_match_dense_route():
    for q in (0.3, -0.5):
        ctx = make_ctx("b2+t1", q, 4)
        for n in range(5):
            dense = dense_metric_functions(ctx, n)
            typed = {"sqrt": ctx.metric_sqrt(n), "invsqrt": ctx.metric_invsqrt(n),
                     "inv": ctx.metric_inv(n)}
            for name, ref in dense.items():
                gap = np.linalg.norm(typed[name] - ref)
                assert gap <= 1e-12 * np.linalg.norm(ref), (q, n, name)


def test_stack_norm_and_min_eig_match_dense_route():
    gen = np.random.default_rng(61)
    ctx = make_ctx("b2+t1", 0.5, 4)
    for n in range(5):  # degrees 0 and 1 have 1 x 1 type blocks only
        mask = same_type_mask(ctx.dim, n)
        size = ctx.block_size(n)
        entries = gen.standard_normal((size, size)) + 1j * gen.standard_normal((size, size))
        M = np.where(mask, entries, 0.0)
        dense = np.linalg.norm(M, ord=2)
        assert abs(fock.stack_norm(ctx.type_stacks(n, M)) - dense) <= 1e-12 * dense
        low = np.linalg.eigvalsh((M + np.conj(M).T) / 2.0)[0]
        assert abs(fock.hermitian_min_eig(ctx.type_stacks(n, M)) - low) <= 1e-12 * dense


def test_type_stacks_reject_off_type_entries():
    gen = np.random.default_rng(62)
    ctx = make_ctx("b2", 0.5, 3)
    off = np.argwhere(~same_type_mask(ctx.dim, 3))
    i, j = off[gen.integers(len(off))]
    M = np.array(ctx.sym(3))
    M[i, j] = 1e-300
    with pytest.raises(ValueError, match="different digit types"):
        ctx.type_stacks(3, M)
    with pytest.raises(ValueError, match="shape"):
        ctx.type_stacks(2, M)


STACK_NAMES = ("rstar", "sym", "metric", "metric_sqrt", "metric_invsqrt", "metric_inv")


def _dense_split(ctx, name, n, p):
    """The dense degree-p matrix of the split (n, p - n) that ``ctx.splits``
    holds: ``R*_{n,p-n}``, or ``X(n) (x) X(p - n)`` by ``np.kron``."""
    if name == "rstar":
        return fock.r_star(ctx, n, p - n)
    X = getattr(ctx, name)
    return np.kron(X(n), X(p - n))


def test_stacks_are_the_type_stacks_of_the_dense_route():
    for spectrum in ("t2", "b2+t1"):
        for q in (0.5, -0.9):
            ctx = make_ctx(spectrum, q, 4)
            for name in STACK_NAMES[1:]:
                for n in range(ctx.degree + 1):
                    got = ctx.stacks(name, n)
                    expected = ctx.type_stacks(n, getattr(ctx, name)(n))
                    assert len(got) == len(expected)
                    assert all(np.array_equal(S, E) for S, E in zip(got, expected))
                    assert not any(S.flags.writeable for S in got)
                    assert ctx.stacks(name, n) is got
    for unknown in ("metric_diag_free", "rstar"):  # R* has splits, no one-degree stacks
        with pytest.raises(ValueError, match="unknown"):
            ctx.stacks(unknown, 1)
    with pytest.raises(ValueError, match="unknown"):
        ctx.splits("metric_diag_free", 1)


@pytest.mark.parametrize("spectrum, degree", [("t1", 5), ("t2", 5), ("b2", 5), ("b2+t1", 5),
                                              ("b2+t1", 6)])
def test_splits_are_the_type_stacks_of_the_dense_route_bit_for_bit(spectrum, degree):
    # split n of splits(name, p) is the type stacks of the dense matrix of
    # (n, p - n), built by np.kron or by r_star and gathered alone
    ctx = make_ctx(spectrum, 0.9, degree)
    for name in STACK_NAMES:
        for p in range(degree + 1):
            got = ctx.splits(name, p)
            for n in range(p + 1):
                expected = ctx.type_stacks(p, _dense_split(ctx, name, n, p))
                assert [S.shape for S in got] == [(p + 1,) + E.shape for E in expected]
                assert all(np.array_equal(S[n], E) for S, E in zip(got, expected))
            assert not any(S.flags.writeable for S in got)
            assert ctx.splits(name, p) is got


def test_degree_zero_left_factor_shares_the_entry_of_the_right_one():
    # X(0) = 1, so the splits n = 0 and n = p of X are stacks(name, p),
    # whichever of the two is asked for first
    for splits_first in (True, False):
        ctx = make_ctx("b2+t1", 0.5, 4)
        for name in STACK_NAMES[1:]:
            for p in range(1, ctx.degree + 1):
                if splits_first:
                    splits = ctx.splits(name, p)
                    ends = ctx.stacks(name, p)
                else:
                    ends = ctx.stacks(name, p)
                    splits = ctx.splits(name, p)
                assert ctx.stacks(name, p) is ends
                for S, E in zip(splits, ends):
                    assert np.array_equal(S[0], E) and np.array_equal(S[p], E)


def test_a_context_builds_each_degree_on_first_use():
    ctx = make_ctx("b2+t1", 0.5, 6)
    assert ctx._cache == {}
    metric = ctx.metric(3)
    assert set(ctx._cache) == {("metric", 3), *(("sym", n) for n in range(4))}
    gt = np.ones(1)
    for _ in range(3):
        gt = np.kron(gt, ctx.space.g)
    assert np.array_equal(metric, gt[:, None] * ctx.sym(3))
    for method in (ctx.sym, ctx.metric, lambda n: ctx.splits("rstar", n),
                   lambda n: ctx.splits("sym", n)):
        for n in (-1, 7):
            with pytest.raises(ValueError, match="out of range"):
                method(n)
    assert len(ctx._cache) == 5


def test_second_round_of_residuals_gathers_nothing(monkeypatch):
    calls = []
    gather = FockContext.type_stacks

    def counted(self, n, M):
        calls.append(n)
        return gather(self, n, M)

    monkeypatch.setattr(FockContext, "type_stacks", counted)
    pt = reports._Point(reports.SweepConfig(q_values=(0.5,), spectra=("b2+t1",), degree=4),
                        "b2+t1", 0.5)
    residuals = (fock.factorization_residual, fock.rstar_free_norm, fock.id_embedding_norm,
                 fock.rstar_deformed_norm, fock.rstar_adjoint_residual)

    def one_round():
        return [f(pt.ctx, p).tolist() for f in residuals for p in range(pt.ctx.degree + 1)]

    first = one_round()
    assert calls
    calls.clear()
    assert one_round() == first
    assert list(reports._majorisation(pt))  # a generator runs only when consumed
    assert calls == []


def test_cached_arrays_are_read_only():
    ctx = make_ctx("b2+t1", 0.5, 3)
    arrays = [ctx.sym(2), ctx.metric(2), ctx.metric_sqrt(2), ctx.metric_invsqrt(2),
              ctx.metric_inv(2), ctx.ann_words(1, 2),
              *ctx.splits("rstar", 2), *ctx.splits("metric_sqrt", 2),
              *ctx.stacks("metric_invsqrt", 2)]
    before = [np.array(arr) for arr in arrays]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1.0
    assert all(np.array_equal(arr, copy) for arr, copy in zip(arrays, before))


def test_coordinate_index_matches_product_enumeration():
    # oracle: the degree-n basis over the subspace, enumerated digit by digit
    gen = np.random.default_rng(901)
    for dim in (1, 3, 5):
        for n in range(4):
            for _ in range(3):
                indices = gen.choice(dim, size=int(gen.integers(1, dim + 1)), replace=False)
                expected = [sum(d * dim ** (n - 1 - pos) for pos, d in enumerate(digits))
                            for digits in itertools.product(sorted(indices), repeat=n)]
                assert np.array_equal(fock.coordinate_index(dim, indices, n), expected)


def _read_only(arr):
    arr = np.array(arr)
    arr.flags.writeable = False
    return arr


def test_kron_is_np_kron_bit_for_bit():
    gen = np.random.default_rng(911)
    real = gen.standard_normal((3, 2))
    real[0, 0] = -0.0
    cplx = gen.standard_normal((2, 4)) + 1j * gen.standard_normal((2, 4))
    vec = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    pairs = [
        (real, cplx), (cplx, real), (cplx, cplx), (real, real),
        (_read_only(cplx), _read_only(real)), (real.T, cplx),
        (vec, gen.standard_normal(4)), (gen.standard_normal(2), vec),
        (np.ones(1), vec), (_read_only(vec), _read_only(vec)),
        (vec[:, None], np.eye(4)), (np.eye(1), cplx), (np.ones((1, 1)), np.eye(3)),
    ]
    for a, b in pairs:
        expected = np.kron(a, b)
        got = fock._kron(a, b)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.flags.c_contiguous == expected.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


def test_spectral_norm_is_np_linalg_norm_ord_2():
    gen = np.random.default_rng(912)
    for shape in ((1, 1), (3, 1), (1, 4), (5, 5), (4, 7), (9, 3)):
        real = gen.standard_normal(shape)
        cplx = real + 1j * gen.standard_normal(shape)
        for M in (real, cplx, np.zeros(shape), _read_only(cplx), cplx.T):
            value = sp._spectral_norm(M)
            assert type(value) is float
            assert value == float(np.linalg.norm(M, ord=2))


def _r_star_from_partitions(q, dim, n, k, x):
    """``R*_{n,k} x`` summed straight from ``crossing_weighted_partitions``."""
    total = n + k
    x_nd = x.reshape((dim,) * total + x.shape[1:])
    rest = tuple(range(total, x_nd.ndim))
    out = np.zeros(x_nd.shape, dtype=np.result_type(x_nd, q))
    for i1, i2, cross in fock.crossing_weighted_partitions(total, n):
        order = tuple(p - 1 for p in i1) + tuple(p - 1 for p in i2) + rest
        out += q ** cross * x_nd.transpose(order)
    return out.reshape(x.shape)


def test_cached_r_star_orders_keep_the_partition_sum():
    gen = np.random.default_rng(913)
    for dim, n, k in ((1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1), (2, 0, 3), (3, 2, 0),
                      (2, 3, 2), (3, 2, 2)):
        size = dim ** (n + k)
        for q in (0.5, -0.9, 0.0):
            for x in (gen.standard_normal(size) + 1j * gen.standard_normal(size),
                      np.eye(size), gen.standard_normal((size, 2))):
                expected = _r_star_from_partitions(q, dim, n, k, x)
                for _ in range(2):  # first call fills the cache, second reads it
                    got = fock._apply_r_star(q, dim, n, k, x)
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected)


def test_c_constant_memo_returns_the_computed_value():
    fock._C_CONSTANT.pop(0.37, None)
    first = c_constant(0.37)
    assert fock._C_CONSTANT[0.37] == first and c_constant(0.37) == first
    assert c_constant(-0.37) == first and c_constant(0.0) == 1.0
    with pytest.raises(ValueError):
        c_constant(1.0)


def test_c_constant_raises_where_it_overflows():
    # a finite C(q) stops at |q| = 0.997; past it the product once read inf,
    # so its norm bounds passed vacuously, and q near 1 looped ~1/(1-|q|) times
    assert np.isfinite(c_constant(0.997))
    for q in (0.998, 1 - 1e-12):
        with pytest.raises(ValueError, match="overflows"):
            c_constant(q)
        assert q not in fock._C_CONSTANT


def test_index_maps_are_cached_and_read_only():
    ctx = make_ctx("b2+t1", 0.5, 3)
    for m in range(ctx.degree + 1):
        for index_map in (ctx.partner_map, ctx.reverse_map):
            flat = index_map(m)
            assert flat is index_map(m) and not flat.flags.writeable
            assert sorted(flat) == list(range(ctx.block_size(m)))
            with pytest.raises(ValueError, match="read-only"):
                flat[0] = 0
    digits = np.array(list(itertools.product(range(3), repeat=3)))
    flat = (digits * [9, 3, 1]).sum(axis=1)
    assert np.array_equal(ctx.reverse_map(3)[flat], (digits[:, ::-1] * [9, 3, 1]).sum(axis=1))
    assert np.array_equal(ctx.partner_map(3)[flat],
                          (ctx.space.partner[digits] * [9, 3, 1]).sum(axis=1))


def _random_operator(ctx, gen, keys):
    return fock.GradedOperator(ctx, ctx, {
        (m, n): gen.standard_normal((ctx.block_size(m), ctx.block_size(n)))
        + 1j * gen.standard_normal((ctx.block_size(m), ctx.block_size(n))) for m, n in keys})


@pytest.mark.parametrize("spectrum", ["t2", "b2+t1"])
def test_operator_algebra_keeps_complex_blocks_of_the_right_shapes(spectrum):
    gen = np.random.default_rng(914)
    ctx = make_ctx(spectrum, 0.5, 3)
    A = _random_operator(ctx, gen, [(0, 0), (1, 2), (3, 1)])
    B = _random_operator(ctx, gen, [(1, 2), (2, 0), (2, 2)])
    results = [A @ B, B @ A, A + B, A - B, A.adjoint(), B.adjoint(),
               2 * A, 0.5 * A, np.float64(-1.5) * A, (0.5 - 2j) * A, -0.0 * A]
    for op in results:
        assert op.blocks
        for (m, n), blk in op.blocks.items():
            assert blk.dtype == np.complex128
            assert blk.shape == (ctx.block_size(m), ctx.block_size(n))
    for scalar in (2, 0.5, np.float64(-1.5), 0.5 - 2j, -0.0):
        for key, blk in (scalar * A).blocks.items():
            assert blk.tobytes() == (scalar * A.blocks[key]).tobytes()
    # the public constructor still checks every block
    with pytest.raises(ValueError, match="shape"):
        fock.GradedOperator(ctx, ctx, {(1, 2): np.zeros((ctx.block_size(2), ctx.block_size(1)))})
    small = make_ctx("t1", 0.5, 3)
    with pytest.raises(ValueError, match="dimension"):
        A + _random_operator(small, gen, [(1, 1)])
    with pytest.raises(ValueError, match="context"):
        A @ _random_operator(small, gen, [(1, 1)])


@pytest.mark.parametrize("q, degree", [(0.9, 3), (0.5, 4)])
def test_operator_sum_refuses_another_context_of_the_same_dimension(q, degree):
    # another q or degree is another metric: a sum would mix the two, and its
    # adjoint would read the first operator's metric only
    ctx = make_ctx("b2", 0.5, 3)
    other = make_ctx("b2", q, degree)
    assert other.dim == ctx.dim
    v = np.array([1.0, 0.5j])
    A, B = fock.creation(ctx, v), fock.creation(other, v)
    for combine in (lambda: A + B, lambda: A - B, lambda: A.max_diff(B), lambda: B + A):
        with pytest.raises(ValueError, match="context"):
            combine()


def test_blockwise_gap_equals_the_gap_over_every_block_pair():
    gen = np.random.default_rng(917)
    ctx = make_ctx("b2+t1", 0.5, 3)
    A = _random_operator(ctx, gen, [(0, 0), (1, 2), (3, 1)])
    B = _random_operator(ctx, gen, [(1, 2), (2, 0), (2, 2)])
    empty = fock.GradedOperator(ctx, ctx, {})
    for X, Y in ((A, B), (B, A), (A, empty), (empty, B), (empty, empty)):
        for inputs in (range(ctx.degree + 1), (0,), (2, 3)):
            expected = max([0.0] + [ctx.block_norm(X.block(m, p) - Y.block(m, p), m, p)
                                    for p in inputs for m in range(ctx.degree + 1)])
            assert fock.blockwise_gap(ctx, X, Y, inputs) == expected


# Bound fixed before measuring: the typed and dense products of a metric
# function differ only in summation order, over at most 729 terms of entries
# within a few conditioning factors of the largest, so 1e-13 of the dense
# product's largest entry leaves a margin of over 100 above round-off.
TYPED_PRODUCT_BOUND = 1e-13


def _typed_against_dense_gap(ctx, gen) -> float:
    """Largest gap, relative to the dense product's largest entry, between
    ``gauge_block`` and ``adjoint`` and their dense products, over every
    (m, n) block of ``ctx``."""
    assert ctx.block_size(0) < fock._TYPED_MIN_WIDTH <= ctx.block_size(ctx.degree)
    worst = 0.0
    for m in range(ctx.degree + 1):
        for n in range(ctx.degree + 1):
            B = _random_operator(ctx, gen, [(m, n)])
            gauged = fock.gauge_block(ctx, ctx, B.blocks[(m, n)], m, n)
            adjoint = B.adjoint().blocks[(n, m)]
            dense_gauged = ctx.metric_sqrt(m) @ B.blocks[(m, n)] @ ctx.metric_invsqrt(n)
            dense_adjoint = ctx.metric_inv(n) @ np.conj(B.blocks[(m, n)]).T @ ctx.metric(m)
            for got, ref in ((gauged, dense_gauged), (adjoint, dense_adjoint)):
                assert got.shape == ref.shape and got.dtype == np.complex128
                worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
    return worst


@pytest.mark.parametrize("q", [0.5, -0.9, 0.95])
def test_typed_gauge_and_adjoint_match_the_dense_products(q):
    # b2+t1 at N = 6: widths 1 to 729, on both sides of the width constant,
    # square and non-square blocks
    gen = np.random.default_rng(921)
    assert _typed_against_dense_gap(make_ctx("b2+t1", q, 6), gen) <= TYPED_PRODUCT_BOUND


@pytest.mark.parametrize("spectrum, degree", [("t2", 3), ("b2+t1", 4)])
def test_block_algebra_on_a_stack_equals_it_slice_by_slice(spectrum, degree):
    # exact: each slice goes through the BLAS and LAPACK calls of a lone
    # block.  b2+t1 at N = 4 is 81 wide, so the top degree takes the typed
    # metric products with a draw axis
    gen = np.random.default_rng(925)
    ctx = make_ctx(spectrum, 0.5, degree)
    keys = [(m, n) for m in range(degree + 1) for n in range(degree + 1) if abs(m - n) <= 1]
    draws = [_random_operator(ctx, gen, keys) for _ in range(3)]
    stack = {key: np.stack([op.blocks[key] for op in draws]) for key in keys}
    scale = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    degrees = range(degree + 1)
    stacked = [fock._adjoint(ctx, ctx, stack), fock._compose(stack, stack),
               fock._add(stack, fock._scale(scale[:, None, None], stack)),
               {"dense": fock._assemble(ctx, ctx, stack, degrees, degrees, gauge=True)}]
    for i, op in enumerate(draws):
        alone = [op.adjoint().blocks, (op @ op).blocks, (op + complex(scale[i]) * op).blocks,
                 {"dense": op.to_dense(gauge=True)}]
        for blocks, slices in zip(alone, stacked):
            assert list(blocks) == list(slices)
            assert all(np.array_equal(blocks[key], slices[key][i]) for key in blocks)


def test_typed_products_fail_with_a_misaligned_type_layout(monkeypatch):
    layout = FockContext._type_layout

    def rolled(self, n):
        perm, _, spans = layout(self, n)
        perm = np.roll(perm, 1)
        return perm, np.argsort(perm), spans

    monkeypatch.setattr(FockContext, "_type_layout", rolled)
    gen = np.random.default_rng(921)
    assert _typed_against_dense_gap(make_ctx("b2+t1", 0.5, 6), gen) > TYPED_PRODUCT_BOUND


def test_wide_gauge_and_adjoint_scatter_no_dense_metric_function():
    gen = np.random.default_rng(922)
    ctx = make_ctx("b2+t1", 0.9, 6)
    for n in (3, 6):  # 27 wide: the dense route; 729 wide: the type stacks
        B = _random_operator(ctx, gen, [(n, n)])
        ctx.block_norm(B.blocks[(n, n)], n, n)
        B.adjoint()
    for name in ("metric_sqrt", "metric_invsqrt", "metric_inv"):
        assert ("_scatter", name, 3) in ctx._cache
        assert ("_scatter", name, 6) not in ctx._cache


def test_mixed_word_block_matches_the_einsum_oracle():
    # GEMM against einsum: sums of at most 27 products in another order, so
    # 1e-13 of the oracle's largest entry, fixed before measuring
    gen = np.random.default_rng(923)
    for spectrum in ("t2", "b2+t1"):
        ctx = make_ctx(spectrum, 0.7, 5 if spectrum == "t2" else 4)
        for k, m, p in ((0, 1, 1), (1, 1, 3), (2, 1, 4), (1, 2, 4), (2, 2, 4), (0, 3, 4),
                        (3, 1, 2)):
            if p - m + k > ctx.degree:
                continue
            Z = sp._gaussian(gen, (ctx.dim ** k, ctx.dim ** m))
            oracle = np.einsum("st,tij->sij", Z, ctx.ann_words(m, p)).reshape(
                ctx.dim ** (k + p - m), ctx.dim ** p)
            got = ctx.mixed_word_block(Z, k, m, p)
            assert got.shape == oracle.shape
            assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max(), (spectrum, k, m, p)


@pytest.mark.parametrize("spectrum, q, degree", [("t1", 0.5, 4), ("b2+t1", -0.9, 4),
                                                 ("b2", 0.9, 5)])
def test_creation_blocks_are_left_tensoring_by_v(spectrum, q, degree):
    # the Kronecker products creation was once built from, exactly
    gen = np.random.default_rng(930)
    ctx = make_ctx(spectrum, q, degree)
    v = sp._gaussian(gen, ctx.dim)
    blocks = creation(ctx, v).blocks
    assert list(blocks) == [(n + 1, n) for n in range(ctx.degree)]
    for (_, n), B in blocks.items():
        assert np.array_equal(B, fock._kron(v[:, None], np.eye(ctx.block_size(n))))


def test_vectors_and_apply_refuse_another_context():
    # another q is another metric, and another degree another set of blocks:
    # a sum would read the first metric only or drop blocks, and an operator
    # of one context applied to a vector of another would mix both
    gen = np.random.default_rng(931)
    ctx = make_ctx("b2", 0.5, 3)
    for other in (make_ctx("b2", 0.9, 3), make_ctx("b2", 0.5, 4)):
        x, y = GradedVector.random(ctx, gen), GradedVector.random(other, gen)
        for combine in (lambda: x + y, lambda: x - y, lambda: y + x, lambda: y - x,
                        lambda: creation(ctx, [1.0, 0.5j]).apply(y),
                        lambda: creation(other, [1.0, 0.5j]).apply(x)):
            with pytest.raises(ValueError, match="context"):
                combine()
    same = GradedVector.random(ctx, gen)
    assert (same - same).norm() == 0.0
    assert creation(ctx, [1.0, 0.5j]).apply(same).ctx is ctx


def _split_stacks(ctx, name, n, p):
    return ctx.type_stacks(p, _dense_split(ctx, name, n, p))


# each pair function at one split (n, p - n), on that split's own (count, b, b)
# stacks of the dense route
PAIR_FUNCTIONS = {
    fock.factorization_residual: lambda ctx, n, p: fock.stack_norm(
        [lhs - split @ rstar for lhs, split, rstar in zip(
            ctx.stacks("sym", p), _split_stacks(ctx, "sym", n, p),
            _split_stacks(ctx, "rstar", n, p))]),
    fock.rstar_free_norm: lambda ctx, n, p: fock.stack_norm(_split_stacks(ctx, "rstar", n, p)),
    fock.id_embedding_norm: lambda ctx, n, p: fock.stack_norm(
        [sqrt @ split for sqrt, split in zip(
            ctx.stacks("metric_sqrt", p), _split_stacks(ctx, "metric_invsqrt", n, p))]),
    fock.rstar_deformed_norm: lambda ctx, n, p: fock.stack_norm(
        [split @ rstar @ invsqrt for split, rstar, invsqrt in zip(
            _split_stacks(ctx, "metric_sqrt", n, p), _split_stacks(ctx, "rstar", n, p),
            ctx.stacks("metric_invsqrt", p))]),
    fock.rstar_adjoint_residual: lambda ctx, n, p: fock.stack_norm(
        [np.linalg.solve(split, metric) - rstar for split, metric, rstar in zip(
            _split_stacks(ctx, "metric", n, p), ctx.stacks("metric", p),
            _split_stacks(ctx, "rstar", n, p))]),
}


@pytest.mark.parametrize("spectrum, degree", [("t1", 5), ("t2", 5), ("b2", 5), ("b2+t1", 5),
                                              ("b2+t1", 6)])
def test_grouped_pair_functions_equal_their_pairs_bit_for_bit(monkeypatch, spectrum, degree):
    # the splits of one total degree p share the type-stack shapes of degree
    # p, so they go through one stack each, every split's value as alone
    ctx = make_ctx(spectrum, 0.9, degree)
    alone = {}
    for p in range(degree + 1):
        for f, alone_route in PAIR_FUNCTIONS.items():
            alone[f, p] = [alone_route(ctx, n, p) for n in range(p + 1)]
            assert all(type(value) is float for value in alone[f, p])
            grouped = f(ctx, p)
            assert grouped.shape == (p + 1,)
            assert grouped.tolist() == alone[f, p]
    # a split's value does not depend on the splits stacked with it
    splits = ctx.splits
    monkeypatch.setattr(ctx, "splits", lambda name, p: [S[::-1] for S in splits(name, p)])
    for (f, p), values in alone.items():
        assert f(ctx, p).tolist() == values[::-1]
