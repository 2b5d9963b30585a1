import numpy as np
import pytest

from qfock import quantize, toeplitz, wick
from qfock import spaces as sp
from qfock.fock import FockContext, GradedOperator, GradedVector, first_quantization
from conftest import Q_GRID, make_ctx


def build_channel(spectrum, q, degree, rng, norm=0.7, matrix=None):
    ctx = make_ctx(spectrum, q, degree)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), q, degree)
    if matrix is None:
        T = sp.random_jti_contraction(rng, space, space, norm=norm)
    else:
        T = sp.DeformedContraction(space, space, matrix)
    return quantize.QuantizationChannel(T, ctx, ctx, comb_ctx), ctx


def test_rejects_non_jti_contraction(rng):
    ctx = make_ctx("t2", 0.5, 3)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    T = sp.DeformedContraction(space, space, 0.5j * np.eye(2))
    with pytest.raises(ValueError):
        quantize.QuantizationChannel(T, ctx, ctx, comb_ctx)
    with pytest.raises(ValueError, match="J T I = T"):
        quantize.positivity_probe(T, ctx, rng, 1)


def test_identity_contraction_acts_trivially(rng):
    channel, ctx = build_channel("t2", 0.5, 3, rng, matrix=np.eye(2))
    xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    word = wick.wick_word(ctx, xi, 2)
    image = channel.apply_word(word)
    for p in range(ctx.degree - 1):
        for m in range(ctx.degree + 1):
            gap = image.block(m, p) - word.op.block(m, p)
            assert ctx.block_norm(gap, m, p) < 1e-10


def test_zero_contraction_gives_vacuum_functional(rng):
    channel, ctx = build_channel("t2", 0.5, 3, rng, matrix=np.zeros((2, 2)))
    xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    word = wick.wick_word(ctx, xi, 1)
    # expected image W(0) = 0
    image = channel.apply_word(word)
    for p in range(ctx.degree):
        for m in range(ctx.degree + 1):
            assert ctx.block_norm(image.block(m, p), m, p) < 1e-10
    assert channel.unitality_residual() < 1e-10


def test_covariance_on_wick_words(rng):
    for spectrum in ("t2", "b2"):
        for q in Q_GRID:
            channel, ctx = build_channel(spectrum, q, 3, rng)
            for n in (1, 2):
                size = ctx.block_size(n)
                xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                word = wick.wick_word(ctx, xi, n)
                assert channel.covariance_residual(word, channel.apply_word(word)) < 1e-8


def test_gns_identity(rng):
    channel, ctx = build_channel("b2+t1", 0.3, 3, rng)
    for n in (0, 1, 2):
        size = ctx.block_size(n)
        xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        word = wick.wick_word(ctx, xi, n)
        assert quantize.gns_residual(channel, word, channel.apply_word(word)) < 1e-8


def test_unitality_and_vacuum_state(rng):
    for q in (-0.5, 0.0, 0.5):
        channel, ctx = build_channel("b2", q, 3, rng)
        assert channel.unitality_residual() < 1e-10
        xi = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
        word = wick.wick_word(ctx, xi, 1)
        image = channel.apply_word(word)
        assert channel.vacuum_state_residual([word.op], [image]) < 1e-10


def test_functoriality(rng):
    ctx = make_ctx("t2", 0.5, 3)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    S = sp.random_jti_contraction(rng, space, space, norm=0.8)
    T = sp.random_jti_contraction(rng, space, space, norm=0.8)
    ST = sp.DeformedContraction(space, space, S.matrix @ T.matrix)
    ch_s = quantize.QuantizationChannel(S, ctx, ctx, comb_ctx)
    ch_t = quantize.QuantizationChannel(T, ctx, ctx, comb_ctx)
    ch_st = quantize.QuantizationChannel(ST, ctx, ctx, comb_ctx)
    xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    word = wick.wick_word(ctx, xi, 2)
    mid = ch_t.apply_word(word).apply(GradedVector.vacuum(ctx)).blocks[2]
    lhs = ch_s.apply_word(wick.wick_word(ctx, mid, 2))
    rhs = ch_st.apply_word(word)
    for p in range(ctx.degree - 1):
        for m in range(ctx.degree + 1):
            assert ctx.block_norm(lhs.block(m, p) - rhs.block(m, p), m, p) < 1e-8


def test_kadison_schwarz_margin_nonnegative(rng):
    for q in (-0.5, 0.3):
        ctx = make_ctx("t2", q, 4)
        T = sp.random_jti_contraction(rng, ctx.space, ctx.space, norm=0.7)
        probe = quantize.positivity_probe(T, ctx, rng, 20)
        assert probe["kadison_schwarz_min"] >= -1e-8
        assert probe["two_positivity_min"] >= -1e-8


def test_kadison_schwarz_on_squared_field(rng):
    # x = W(h) with h fixed by the conjugation; G(x*x) - G(x)*G(x) >= 0
    ctx = make_ctx("b2+t1", 0.5, 4)
    T = sp.random_jti_contraction(rng, ctx.space, ctx.space, norm=0.7)
    x = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    h = (x + ctx.space.conjugate(x)) / 2  # fixed by I
    word = wick.wick_word(ctx, h, 1)
    margin = quantize.kadison_schwarz_margin(ctx, T.matrix, [1.0], [word])
    assert margin >= -1e-10


def _gaussian_word(ctx, rng, n):
    size = ctx.block_size(n)
    return wick.wick_word(ctx, rng.standard_normal(size) + 1j * rng.standard_normal(size), n)


def test_wick_word_on_input_window_keeps_exact_blocks():
    rng = np.random.default_rng(51)
    ctx = make_ctx("b2+t1", 0.5, 4)
    for n in (0, 1, 2):
        word = _gaussian_word(ctx, rng, n)
        full = word.op.blocks
        for window in (range(ctx.degree - n + 1), {0, 2}, (0,)):
            part = wick.wick_word(ctx, word.tensor, n, inputs=window).op.blocks
            assert set(part) == {key for key in full if key[1] in window}
            assert all(np.array_equal(part[key], full[key]) for key in part)
        # the vacuum residual builds only the vacuum-degree blocks
        image = word.op.apply(GradedVector.vacuum(ctx))
        full_route = (image - GradedVector.from_degree(ctx, n, word.tensor)).norm()
        assert wick.vacuum_residual(ctx, word.tensor, n) == full_route


def test_apply_word_is_the_full_image_on_its_safe_window():
    rng = np.random.default_rng(52)
    channel, ctx = build_channel("t2", -0.9, 3, rng)
    for n in (0, 1, 2):
        word = _gaussian_word(ctx, rng, n)
        image = channel.apply_word(word).blocks
        full = channel.conjugate(quantize.embed_wick(ctx, channel.comb_ctx, word).op).blocks
        assert set(image) == {key for key in full if key[1] <= ctx.degree - n}
        assert all(np.array_equal(image[key], full[key]) for key in image)


def _hermitian_min_eig(dense):
    return float(np.linalg.eigvalsh((dense + np.conj(dense).T) / 2.0)[0])


def _dilation_route(ctx, matrix):
    """(combined context, conjugation by ``F_q(P U)``) of the dilation of any
    contraction matrix on ``ctx``'s space, without the ``J T I = T`` guard."""
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), ctx.q, ctx.degree)
    U = sp.dilate(sp.DeformedContraction(space, space, matrix))
    return comb_ctx, quantize.conjugation_channel(comb_ctx, ctx,
                                                  sp.projection_matrix(space, space) @ U)


def _full_embedding(ctx, comb_ctx, coeffs, words):
    total = None
    for c, w in zip(coeffs, words):
        term = c * quantize.embed_wick(ctx, comb_ctx, w).op
        total = term if total is None else total + term
    return total


def _full_route_ks(ctx, comb_ctx, conjugate, coeffs, words, window):
    emb = _full_embedding(ctx, comb_ctx, coeffs, words)
    lhs = conjugate(emb.adjoint() @ emb)
    img = conjugate(emb)
    rhs = img.adjoint() @ img
    return _hermitian_min_eig((lhs - rhs).to_dense(gauge=True, window=window))


def _full_route_two_positivity(ctx, comb_ctx, conjugate, rows, window):
    embedded = [[_full_embedding(ctx, comb_ctx, [c], [w]) for (c, w) in row] for row in rows]
    images = {}
    for i in range(2):
        for j in range(2):
            y = None
            for r in range(2):
                term = embedded[r][i].adjoint() @ embedded[r][j]
                y = term if y is None else y + term
            images[(i, j)] = conjugate(y)
    return _hermitian_min_eig(np.block(
        [[images[(i, j)].to_dense(gauge=True, window=window) for j in range(2)]
         for i in range(2)]))


def _window(ctx, degrees):
    return range(max(ctx.degree - 2 * max(degrees), 0) + 1)


def test_intrinsic_margins_match_the_dilation_oracle():
    # on a J T I = T contraction the dilation channel on the embedded Wick
    # algebra is Gamma_q(T), so the two routes agree
    rng = np.random.default_rng(53)
    for spectrum in ("t2", "b2+t1"):
        for q in (0.5, -0.9):
            channel, ctx = build_channel(spectrum, q, 3, rng)
            oracle = (ctx, channel.comb_ctx, channel.conjugate)
            for degrees in ((1, 0), (0, 0), (1, 1)):
                words = [_gaussian_word(ctx, rng, n) for n in degrees]
                coeffs = [complex(rng.standard_normal(), rng.standard_normal())
                          for _ in words]
                window = _window(ctx, degrees)
                assert abs(quantize.kadison_schwarz_margin(ctx, channel.matrix, coeffs, words)
                           - _full_route_ks(*oracle, coeffs, words, window)) <= 1e-10
                rows = [list(zip(coeffs, words)), list(zip(coeffs[::-1], words))]
                assert abs(quantize.two_positivity_margin(ctx, channel.matrix, rows)
                           - _full_route_two_positivity(*oracle, rows, window)) <= 1e-10


def _top_singular_vector(space, M):
    """Unit vector, in the deformed norm, that ``M`` stretches most."""
    root_g = np.sqrt(space.g)
    _, _, vh = np.linalg.svd(root_g[:, None] * M / root_g[None, :])
    return np.conj(vh[0]) / root_g


@pytest.mark.parametrize("spectrum", ("t2", "b2", "b2+t1"))
def test_intrinsic_kadison_schwarz_margin_has_teeth(spectrum):
    gen = np.random.default_rng(54)
    ctx = make_ctx(spectrum, 0.5, 4)
    space = ctx.space
    one = wick.wick_word(ctx, np.ones(1), 0)

    # a plain contraction on x = 10 + W(e), e = I v for v the top singular
    # vector of J T I - T: the part of the margin linear in the scalar is
    # 10 W((T - J T I) v), which nothing else cancels.  The dilation route
    # cannot see it, since F# F <= 1 for every contraction P U.
    plain = sp.random_contraction(gen, space, space, norm=0.7)
    residual = sp.jti_map(space, space, plain.matrix) - plain.matrix
    e = space.conjugate(_top_singular_vector(space, residual))
    coeffs, words = [10.0, 1.0], [one, wick.wick_word(ctx, e, 1)]
    assert quantize.kadison_schwarz_margin(ctx, plain.matrix, coeffs, words) < -1e-8
    assert _full_route_ks(ctx, *_dilation_route(ctx, plain.matrix), coeffs, words,
                          _window(ctx, (0, 1))) >= -1e-8

    # a J T I = T map of norm 1.2 on x = W(e), e its top singular vector: the
    # vacuum entry of the margin is ||e||^2 - ||T e||^2 = 1 - 1.44
    M = gen.standard_normal((ctx.dim, ctx.dim)) + 1j * gen.standard_normal((ctx.dim, ctx.dim))
    M = (M + sp.jti_map(space, space, M)) / 2.0
    M *= 1.2 / sp.deformed_op_norm(space, space, M)
    assert sp.iti_residual(space, space, M) < quantize.ITI_TOL
    word = wick.wick_word(ctx, _top_singular_vector(space, M), 1)
    assert quantize.kadison_schwarz_margin(ctx, M, [1.0], [word]) < -1e-8


def test_conjugation_channel_projection_monomials(rng):
    ctx = make_ctx("b2", 0.5, 3)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    P = sp.projection_matrix(space, space)
    channel = quantize.conjugation_channel(comb_ctx, ctx, P)
    v = rng.standard_normal(comb_ctx.dim) + 1j * rng.standard_normal(comb_ctx.dim)
    w = rng.standard_normal(comb_ctx.dim) + 1j * rng.standard_normal(comb_ctx.dim)
    lhs = channel(toeplitz.monomial(comb_ctx, [v], [w]).op)
    rhs = toeplitz.monomial(ctx, [P @ v], [P @ w]).op
    for p in range(ctx.degree):
        for m in range(ctx.degree + 1):
            assert ctx.block_norm(lhs.block(m, p) - rhs.block(m, p), m, p) < 1e-10


def test_embed_wick_restricts_to_source_word(rng):
    ctx = make_ctx("t2", 0.3, 3)
    comb_ctx = FockContext(sp.direct_sum(ctx.space, ctx.space), 0.3, 3)
    xi = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    word = wick.wick_word(ctx, xi, 1)
    emb = quantize.embed_wick(ctx, comb_ctx, word)
    vac_img = emb.op.apply(GradedVector.vacuum(comb_ctx)).blocks[1]
    assert np.allclose(vac_img[:ctx.dim], xi)
    assert np.allclose(vac_img[ctx.dim:], 0.0)


def test_second_quantization_builds_combined_context(rng):
    ctx = make_ctx("t1", 0.5, 4)
    T = sp.DeformedContraction(ctx.space, ctx.space, 0.5 * np.eye(1))
    channel = quantize.second_quantization(T, ctx, ctx)
    assert channel.comb_ctx.dim == 2
    assert channel.unitality_residual() < 1e-10


def test_embed_tensor_is_the_leading_coordinate_scatter():
    # oracle: scatter into the leading coordinates of every tensor factor
    gen = np.random.default_rng(904)
    src = make_ctx("b2+t1", 0.5, 3)
    comb = FockContext(sp.direct_sum(src.space, src.space), 0.5, 3)
    for n in range(src.degree + 1):
        size = src.block_size(n)
        xi = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        expected = np.zeros((comb.dim,) * n, dtype=complex)
        expected[np.ix_(*([range(src.dim)] * n))] = xi.reshape((src.dim,) * n)
        assert np.array_equal(quantize.embed_tensor(src, comb, xi, n), expected.ravel())


def test_image_tensor_is_the_tensor_power():
    # oracle: the n-fold Kronecker power of the contraction, built by hand
    gen = np.random.default_rng(905)
    channel, ctx = build_channel("b2+t1", 0.5, 3, gen)
    for n in range(ctx.degree + 1):
        size = ctx.block_size(n)
        word = wick.wick_word(ctx, gen.standard_normal(size) + 1j * gen.standard_normal(size), n)
        power = np.eye(1, dtype=complex)
        for _ in range(n):
            power = np.kron(channel.matrix, power)
        assert np.array_equal(channel.image_tensor(word), power @ word.tensor)


@pytest.mark.parametrize("spectrum", ["t2", "b2+t1"])
def test_channel_shortcuts_equal_the_old_routes_bit_for_bit(spectrum):
    # unitality: F F# against the conjugation of a materialized identity,
    # F 1 F#; image_tensor: the channel's stored tensor powers against one
    # first_quantization per call
    gen = np.random.default_rng(915)
    for q in (0.5, -0.9):
        for _ in range(3):
            channel, ctx = build_channel(spectrum, q, 3, gen)
            comb_ctx = channel.comb_ctx
            PU = sp.projection_matrix(ctx.space, ctx.space) @ sp.dilate(channel.contraction)
            old_image = quantize.conjugation_channel(comb_ctx, ctx, PU)(
                GradedOperator.identity(comb_ctx))
            assert channel.unitality_residual() \
                == old_image.max_diff(GradedOperator.identity(ctx))
            for n in range(ctx.degree + 1):
                size = ctx.block_size(n)
                word = wick.wick_word(ctx, gen.standard_normal(size)
                                      + 1j * gen.standard_normal(size), n)
                powers = first_quantization(ctx, ctx, channel.matrix)
                old = powers.block(n, n) @ word.tensor
                for _ in range(2):
                    assert channel.image_tensor(word).tobytes() == old.tobytes()
