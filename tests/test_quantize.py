import numpy as np
import pytest

from qfock import fock, quantize, reports, toeplitz, wick
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
        assert abs(image.vacuum_expectation() - word.op.vacuum_expectation()) < 1e-10


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
    margin = quantize.kadison_schwarz_margin(ctx, T.matrix, [(1.0, 1, h)])
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


def _full_embedding(ctx, comb_ctx, words):
    """``sum_i c_i W(xi_i)`` over the (c, degree, xi) triples ``words``,
    embedded in the combined space."""
    total = None
    for c, n, xi in words:
        term = c * quantize.embed_wick(ctx, comb_ctx, wick.wick_word(ctx, xi, n)).op
        total = term if total is None else total + term
    return total


def _full_route_ks(ctx, comb_ctx, conjugate, words, window):
    emb = _full_embedding(ctx, comb_ctx, words)
    lhs = conjugate(emb.adjoint() @ emb)
    img = conjugate(emb)
    rhs = img.adjoint() @ img
    return _hermitian_min_eig((lhs - rhs).to_dense(gauge=True, window=window))


def _full_route_two_positivity(ctx, comb_ctx, conjugate, words, window):
    embedded = [[_full_embedding(ctx, comb_ctx, [w]) for w in row]
                for row in (words[:2], words[2:])]
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
                tensors = [_gaussian_word(ctx, rng, n).tensor for n in degrees]
                coeffs = [complex(rng.standard_normal(), rng.standard_normal())
                          for _ in degrees]
                words = list(zip(coeffs, degrees, tensors))
                window = _window(ctx, degrees)
                assert abs(quantize.kadison_schwarz_margin(ctx, channel.matrix, words)
                           - _full_route_ks(*oracle, words, window)) <= 1e-10
                rows = words + list(zip(coeffs[::-1], degrees, tensors))
                assert abs(quantize.two_positivity_margin(ctx, channel.matrix, rows)
                           - _full_route_two_positivity(*oracle, rows, window)) <= 1e-10


def _top_singular_vector(space, M):
    """Unit vector, in the deformed norm, that ``M`` stretches most."""
    root_g = np.sqrt(space.g)
    _, _, vh = np.linalg.svd(root_g[:, None] * M / root_g[None, :])
    return np.conj(vh[0]) / root_g


def _jti_map_of_norm(gen, space, norm):
    """A random matrix with ``J M I = M`` of deformed norm ``norm``."""
    M = gen.standard_normal((space.dim, space.dim)) + 1j * gen.standard_normal((space.dim,
                                                                                space.dim))
    M = (M + sp.jti_map(space, space, M)) / 2.0
    M *= norm / sp.deformed_op_norm(space, space, M)
    assert sp.iti_residual(space, space, M) < quantize.ITI_TOL
    return M


@pytest.mark.parametrize("spectrum", ("t2", "b2", "b2+t1"))
def test_intrinsic_kadison_schwarz_margin_has_teeth(spectrum):
    gen = np.random.default_rng(54)
    ctx = make_ctx(spectrum, 0.5, 4)
    space = ctx.space

    # a plain contraction on x = 10 + W(e), e = I v for v the top singular
    # vector of J T I - T: the part of the margin linear in the scalar is
    # 10 W((T - J T I) v), which nothing else cancels.  The dilation route
    # cannot see it, since F# F <= 1 for every contraction P U.
    plain = sp.random_contraction(gen, space, space, norm=0.7)
    residual = sp.jti_map(space, space, plain.matrix) - plain.matrix
    e = space.conjugate(_top_singular_vector(space, residual))
    words = [(10.0, 0, np.ones(1)), (1.0, 1, e)]
    assert quantize.kadison_schwarz_margin(ctx, plain.matrix, words) < -1e-8
    assert _full_route_ks(ctx, *_dilation_route(ctx, plain.matrix), words,
                          _window(ctx, (0, 1))) >= -1e-8

    # a J T I = T map of norm 1.2 on x = W(e), e its top singular vector: the
    # vacuum entry of the margin is ||e||^2 - ||T e||^2 = 1 - 1.44
    M = _jti_map_of_norm(gen, space, 1.2)
    e = _top_singular_vector(space, M)
    assert quantize.kadison_schwarz_margin(ctx, M, [(1.0, 1, e)]) < -1e-8


def _one_draw_margins(ctx, T, draws):
    """Margins of each draw of a probe on the contraction ``T``, evaluated alone."""
    ks_draws, two_pos_draws = draws
    return ([quantize.kadison_schwarz_margin(ctx, T.matrix, d) for d in ks_draws],
            [quantize.two_positivity_margin(ctx, T.matrix, d) for d in two_pos_draws])


def _random_probes(spectrum, seed):
    """(context at the channel degree, three probes of 16 draws) at q = 0.5.
    At its channel degree 3 b2x2 reaches width 64."""
    gen = np.random.default_rng(seed)
    space = sp.build_space(reports.parse_spectrum(spectrum))
    ctx = FockContext(space, 0.5, reports.channel_degree(2 * space.dim, 5))
    if spectrum == "b2x2":
        assert ctx.block_size(ctx.degree) >= fock._TYPED_MIN_WIDTH
    probes = []
    for _ in range(3):
        T = sp.random_jti_contraction(gen, space, space, norm=0.7)
        probes.append((T, quantize.positivity_draws(ctx, gen, 16)))
    return ctx, probes


@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1", "b2x2"])
def test_stacked_margins_equal_one_draw_margins(spectrum):
    # exact: each slice of a stack goes through the same BLAS and LAPACK
    # calls as a lone draw.  On b2x2 the adjoint of x takes the typed metric
    # products on a stack; the margins read none of its degree-3 blocks, which
    # test_fock.py::test_block_algebra_on_a_stack_equals_it_slice_by_slice checks
    ctx, probes = _random_probes(spectrum, 56)
    margins = quantize.positivity_margins(ctx, probes)
    for (T, draws), (ks, two_pos) in zip(probes, margins):
        one_ks, one_two_pos = _one_draw_margins(ctx, T, draws)
        assert ks.tolist() == one_ks and two_pos.tolist() == one_two_pos
        assert min(one_ks + one_two_pos) >= -1e-8


def _public_route_ks(ctx, matrix, words):
    """Kadison-Schwarz margin of one draw through the public operator algebra:
    full Wick words, ``first_quantization`` and ``intrinsic_image``."""
    window = _window(ctx, [n for _, n, _ in words])
    x = None
    for c, n, xi in words:
        term = c * wick.wick_word(ctx, xi, n).op
        x = term if x is None else x + term
    powers = first_quantization(ctx, ctx, matrix)
    lhs = quantize.intrinsic_image(powers, x.adjoint() @ x, window)
    img = quantize.intrinsic_image(powers, x, window)
    return _hermitian_min_eig((lhs - img.adjoint() @ img).to_dense(gauge=True, window=window))


@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1", "b2x2"])
def test_kadison_schwarz_margin_equals_the_public_operator_route(spectrum):
    # the margin builds its own word blocks on 0..2 dmax and its own tensor
    # powers; the reference builds every block.  Bound fixed before
    # measuring: the two routes may differ in summation order only
    ctx, probes = _random_probes(spectrum, 56)
    for T, (ks_draws, _) in probes:
        for words in ks_draws:
            margin = quantize.kadison_schwarz_margin(ctx, T.matrix, words)
            assert abs(margin - _public_route_ks(ctx, T.matrix, words)) \
                <= 1e-12 * max(1.0, abs(margin))


def _stacked(ctx, probes, margin):
    """``margin`` of the draws of each (matrix, draws) probe, through the
    stacking driver of ``positivity_margins`` but without its guard."""
    return quantize._stacked_margins(ctx, np.stack([M for M, _ in probes]),
                                     [draws for _, draws in probes], margin)


def test_stacked_margin_has_teeth_and_keeps_its_neighbours():
    # the plain contraction of the teeth test above, on x = 10 + W(e), sits
    # between two J T I = T probes with draws of the same word degrees, so
    # all six share one stack; its margin goes negative and theirs do not move
    gen = np.random.default_rng(57)
    ctx = make_ctx("b2+t1", 0.5, 3)
    space = ctx.space
    plain = sp.random_contraction(gen, space, space, norm=0.7)
    residual = sp.jti_map(space, space, plain.matrix) - plain.matrix
    e = space.conjugate(_top_singular_vector(space, residual))

    def draws(tensors):
        return [[(10.0, 0, np.ones(1)), (1.0, 1, xi)] for xi in tensors]

    def jti_probe():
        T = sp.random_jti_contraction(gen, space, space, norm=0.7)
        return T.matrix, draws([sp._gaussian(gen, ctx.dim) for _ in range(2)])

    good = [jti_probe(), jti_probe()]
    together = _stacked(ctx, [good[0], (plain.matrix, draws([e, e])), good[1]],
                        quantize.kadison_schwarz_margin)
    assert together[1].max() < -1e-8
    for ks, (M, found) in zip(together[::2], good):
        assert ks.tolist() == [quantize.kadison_schwarz_margin(ctx, M, d) for d in found]
        assert ks.min() >= -1e-8


def _two_positivity_teeth_words(space, M):
    """``X = [[1 W(1), W(e)], [0 W(1), 0 W(e)]]`` row by row, ``e`` the top
    singular vector of ``M``: the vacuum entry of the image of ``X# X`` is
    ``||e||^2`` where ``Gamma(X)# Gamma(X)`` reads ``||M e||^2``."""
    e = _top_singular_vector(space, M)
    return [(1.0, 0, np.ones(1)), (1.0, 1, e), (0.0, 0, np.ones(1)), (0.0, 1, e)]


@pytest.mark.parametrize("spectrum", ("t2", "b2", "b2+t1"))
def test_two_positivity_margin_has_teeth_alone_and_in_a_stack(spectrum):
    # a J T I = T map of norm 1.2 turns the margin red, alone and between two
    # J T I = T contractions of norm 0.7 whose draws share its word degrees;
    # the neighbours keep their lone margins
    gen = np.random.default_rng(63)
    ctx = make_ctx(spectrum, 0.5, 4)
    space = ctx.space
    large = _jti_map_of_norm(gen, space, 1.2)
    words = _two_positivity_teeth_words(space, large)
    assert quantize.two_positivity_margin(ctx, large, words) < -0.1
    good = []
    for _ in range(2):
        T = sp.random_jti_contraction(gen, space, space, norm=0.7).matrix
        good.append((T, [_two_positivity_teeth_words(space, T),
                         [(complex(sp._gaussian(gen, ())), n, sp._gaussian(gen, ctx.block_size(n)))
                          for n in (0, 1, 0, 1)]]))
    together = _stacked(ctx, [good[0], (large, [words]), good[1]],
                        quantize.two_positivity_margin)
    assert together[1].tolist() == [quantize.two_positivity_margin(ctx, large, words)]
    for margins, (M, found) in zip(together[::2], good):
        assert margins.tolist() == [quantize.two_positivity_margin(ctx, M, d) for d in found]
        assert margins.min() >= -1e-8


def test_stacked_bad_contraction_raises_as_alone():
    # the one guard runs once on the stacked matrices of all probes, and
    # raises what a lone probe of the bad contraction raises
    gen = np.random.default_rng(60)
    ctx = make_ctx("b2+t1", 0.5, 3)
    space = ctx.space
    plain = sp.random_contraction(gen, space, space, norm=0.7)
    other = sp.build_space(reports.parse_spectrum("b2+t1"))
    elsewhere = sp.random_jti_contraction(gen, other, other, norm=0.7)
    good = [sp.random_jti_contraction(gen, space, space, norm=0.7) for _ in range(2)]
    for bad, message in ((plain, "J T I = T"), (elsewhere, "contexts do not match")):
        with pytest.raises(ValueError, match=message) as alone:
            quantize.positivity_probe(bad, ctx, gen, 4)
        probes = [(T, quantize.positivity_draws(ctx, gen, 4)) for T in (good[0], bad, good[1])]
        with pytest.raises(ValueError) as stacked:
            quantize.positivity_margins(ctx, probes)
        assert str(stacked.value) == str(alone.value)


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


def _lone_channel_residuals(ctx, comb_ctx, contraction, n, xi):
    """The channel row's four residuals of one draw, through a lone channel."""
    channel = quantize.QuantizationChannel(contraction, ctx, ctx, comb_ctx)
    word = wick.wick_word(ctx, xi, n)
    image = channel.apply_word(word)
    return (channel.covariance_residual(word, image), channel.unitality_residual(),
            reports._vacuum_gap(word.op, image), quantize.gns_residual(channel, word, image))


def _one_draw_channel_row(pt):
    """(word degree, residuals) of each draw of the channel row, evaluated one
    channel at a time in the row's draw order."""
    space, rng = pt.space, pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    deg_max = max(1, min(2, src_ctx.degree - 1))
    for _ in range(pt.config.samples["covariance"]):
        T = sp.random_jti_contraction(rng, space, space, norm=0.7)
        n = int(rng.integers(1, deg_max + 1))
        xi = sp._gaussian(rng, src_ctx.block_size(n))
        yield n, _lone_channel_residuals(src_ctx, comb_ctx, T, n, xi)


@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1", "b2x2"])
def test_stacked_channel_row_equals_one_draw_channels(spectrum):
    # exact: each slice of a stack goes through the same BLAS and LAPACK calls
    # as a lone channel.  Past t1, F# takes the typed metric products on a
    # stack (the combined space's top degree is at least 64 wide), and on
    # b2x2 the covariance and unitality gaps gauge 64-wide stacks the typed way
    for q in (0.5, -0.9, 0.9):
        config = reports.SweepConfig(q_values=(q,), spectra=(spectrum,), degree=5,
                                     samples={"covariance": 8})
        pt = reports._Point(config, spectrum, q)
        assert pt.channel_ctx.degree == reports.channel_degree(2 * pt.space.dim, 5)
        pt.rng = np.random.default_rng(58)
        stacked = list(reports._channel_on_words(pt))
        pt.rng = np.random.default_rng(58)
        degrees, reference = zip(*_one_draw_channel_row(pt))
        assert stacked == list(reference)
        assert set(degrees) == {1, 2}
        assert all(cov <= 1e-8 and unit <= 1e-10 and vac <= 1e-10 and gns <= 1e-8
                   for cov, unit, vac, gns in stacked)


def _planted_in(draw_stack, planted) -> np.ndarray:
    """Indices of the slices of a stack equal to ``planted``."""
    return np.flatnonzero([np.array_equal(item, planted) for item in draw_stack])


@pytest.mark.parametrize("defect", ["dilation_block", "image_tensor"])
def test_stacked_channel_defect_stays_in_its_draw(monkeypatch, defect):
    # one draw of each degree group carries a planted defect: its residual
    # goes red, and the residuals of its neighbours in the stack keep the
    # values of their lone channels
    gen = np.random.default_rng(59)
    ctx = make_ctx("b2", 0.5, 4)
    comb_ctx = FockContext(sp.direct_sum(ctx.space, ctx.space), 0.5, 4)
    draws = [(sp.random_jti_contraction(gen, ctx.space, ctx.space, norm=0.7), n,
              sp._gaussian(gen, ctx.block_size(n))) for n in (1, 2, 1, 1, 2, 2)]
    lone = [_lone_channel_residuals(ctx, comb_ctx, *draw) for draw in draws]
    planted = (2, 4)
    if defect == "dilation_block":
        # -(1 - T T#)^{1/2}, the dilation's target corner, scaled: F is no
        # longer a co-isometry, so F F# - 1 is no longer 0
        dilate, red = sp._dilate, (1,)

        def faulty(src, tgt, T):
            U = dilate(src, tgt, T)
            for k in planted:
                for i in _planted_in(T, draws[k][0].matrix):
                    U[i, src.dim:, src.dim:] *= 1.5
            return U

        monkeypatch.setattr(sp, "_dilate", faulty)
    else:
        # the image tensor of conj(T), J T I without the conjugation's partner
        # permutation: Wick covariance and the GNS action go red
        image_tensor, red = quantize._image_tensor, (0, 3)

        def faulty(powers, xi, degree):
            out = image_tensor(powers, xi, degree)
            for k in planted:
                for i in _planted_in(xi, draws[k][2]):
                    out[i] = np.conj(powers[(degree, degree)][i]) @ xi[i]
            return out

        monkeypatch.setattr(quantize, "_image_tensor", faulty)
    residuals = quantize.channel_residuals(draws, ctx, ctx, comb_ctx)
    bounds = (1e-8, 1e-10, 1e-10, 1e-8)
    for k, (row, alone) in enumerate(zip(residuals.tolist(), lone)):
        if k in planted:
            assert all(row[j] > bounds[j] for j in red)
        else:
            assert tuple(row) == alone


def test_stacked_channel_guards_raise_as_alone():
    gen = np.random.default_rng(60)
    ctx = make_ctx("b2+t1", 0.5, 3)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    plain = sp.random_contraction(gen, space, space, norm=0.7)
    M = sp._gaussian(gen, (ctx.dim, ctx.dim))
    M = (M + sp.jti_map(space, space, M)) / 2.0
    M *= 1.2 / sp.deformed_op_norm(space, space, M)
    # a J T I = T map past norm 1, set after the contraction's own check
    large = sp.DeformedContraction(space, space, M / 2.0)
    object.__setattr__(large, "matrix", M)
    good = [sp.random_jti_contraction(gen, space, space, norm=0.7) for _ in range(2)]
    for bad, message in ((plain, "J T I = T"), (large, "cannot dilate")):
        with pytest.raises(ValueError, match=message) as alone:
            quantize.QuantizationChannel(bad, ctx, ctx, comb_ctx)
        draws = [(T, 1, sp._gaussian(gen, ctx.dim)) for T in (good[0], bad, good[1])]
        with pytest.raises(ValueError) as stacked:
            quantize.channel_residuals(draws, ctx, ctx, comb_ctx)
        assert str(stacked.value) == str(alone.value)


def test_unitality_gap_checks_its_block_graph():
    # F keeps degrees, so F F# - 1 is read block by diagonal block; a block
    # off the diagonal is refused rather than left out of the norm
    channel, ctx = build_channel("t2", 0.5, 3, np.random.default_rng(61))
    F = dict(channel._F.blocks)
    F[(1, 0)] = np.ones((ctx.block_size(1), channel.comb_ctx.block_size(0)), dtype=complex)
    with pytest.raises(ValueError, match="off the degree diagonal"):
        quantize._unitality_gaps(ctx, F, channel._F_adj.blocks)
