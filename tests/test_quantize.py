import numpy as np
import pytest

from qfock import quantize, toeplitz, wick
from qfock import spaces as sp
from qfock.fock import FockContext, GradedVector
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
        channel, ctx = build_channel("t2", q, 4, rng)
        probe = quantize.positivity_probe(channel, rng, 20, degree_max=1)
        assert probe["kadison_schwarz_min"] >= -1e-8
        assert probe["two_positivity_min"] >= -1e-8


def test_kadison_schwarz_on_squared_field(rng):
    # x = W(h) with h fixed by the conjugation; Phi(x*x) - Phi(x)*Phi(x) >= 0
    channel, ctx = build_channel("b2+t1", 0.5, 4, rng)
    h = ctx.space.random_real_vector(rng)
    word = wick.wick_word(ctx, h, 1)
    margin = quantize.kadison_schwarz_margin(channel, [1.0], [word])
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
        for window in (range(ctx.degree - n + 1), {0, 2}):
            part = wick.wick_word(ctx, word.tensor, n, inputs=window).op.blocks
            assert set(part) == {key for key in full if key[1] in window}
            assert all(np.array_equal(part[key], full[key]) for key in part)


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


def _full_embedding(channel, coeffs, words):
    total = None
    for c, w in zip(coeffs, words):
        term = c * quantize.embed_wick(channel.src_ctx, channel.comb_ctx, w).op
        total = term if total is None else total + term
    return total


def _full_route_ks(channel, coeffs, words, window):
    emb = _full_embedding(channel, coeffs, words)
    lhs = channel.conjugate(emb.adjoint() @ emb)
    img = channel.conjugate(emb)
    rhs = img.adjoint() @ img
    return _hermitian_min_eig((lhs - rhs).to_dense(gauge=True, window=window))


def _full_route_two_positivity(channel, rows, window):
    embedded = [[_full_embedding(channel, [c], [w]) for (c, w) in row] for row in rows]
    images = {}
    for i in range(2):
        for j in range(2):
            y = None
            for r in range(2):
                term = embedded[r][i].adjoint() @ embedded[r][j]
                y = term if y is None else y + term
            images[(i, j)] = channel.conjugate(y)
    return _hermitian_min_eig(np.block(
        [[images[(i, j)].to_dense(gauge=True, window=window) for j in range(2)]
         for i in range(2)]))


def test_positivity_margins_equal_the_full_route():
    # the margins build only the window's input degrees; the full route
    # builds every block and drops the rest in to_dense
    rng = np.random.default_rng(53)
    for spectrum in ("t2", "b2+t1"):
        for q in (0.5, -0.9):
            channel, ctx = build_channel(spectrum, q, 3, rng)
            for degrees in ((1, 0), (0, 0), (1, 1)):
                words = [_gaussian_word(ctx, rng, n) for n in degrees]
                coeffs = [complex(rng.standard_normal(), rng.standard_normal())
                          for _ in words]
                window = range(max(ctx.degree - 2 * max(degrees), 0) + 1)
                assert quantize.kadison_schwarz_margin(channel, coeffs, words) \
                    == _full_route_ks(channel, coeffs, words, window)
                rows = [list(zip(coeffs, words)), list(zip(coeffs[::-1], words))]
                assert quantize.two_positivity_margin(channel, rows) \
                    == _full_route_two_positivity(channel, rows, window)


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
