import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import wick
from qfock.fock import (GradedOperator, GradedVector, annihilation, creation,
                        crossing_weighted_partitions)
from conftest import Q_GRID, make_ctx


def test_crossing_weighted_partitions_examples():
    def crossings(i1, i2):
        return {(a, b): c for a, b, c in crossing_weighted_partitions(
            len(i1) + len(i2), len(i1))}[(i1, i2)]

    assert crossings((1, 2), ()) == 0
    assert crossings((2,), (1,)) == 1
    assert crossings((1, 3), (2,)) == 1
    assert crossings((2, 3), (1,)) == 2


def test_degree_one_word_is_field_like(ctx_half, rng):
    # W(xi) at degree 1 = a*(xi) + a(I xi): check on the vacuum and degree 1
    ctx = ctx_half
    xi = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    word = wick.wick_word(ctx, xi, 1)
    expected = creation(ctx, xi) + annihilation(ctx, ctx.space.conjugate(xi))
    assert word.op.max_diff(expected) < 1e-12


def test_degree_two_word_free_case_hand_expansion(ctx_free, rng):
    # q = 0: W(v (x) w) = a*(v)a*(w) + a*(v)a(Iw) + a(Iv)a(Iw) ... with the
    # partition (I1, I2) ordering; assembled by hand from canonical operators
    ctx = ctx_free
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    w = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    word = wick.wick_word(ctx, np.kron(v, w), 2)
    Iv = ctx.space.conjugate(v)
    Iw = ctx.space.conjugate(w)
    # at q = 0 the crossing-weighted partition I1 = {2} drops out
    hand = (creation(ctx, v) @ creation(ctx, w)
            + creation(ctx, v) @ annihilation(ctx, Iw)
            + annihilation(ctx, Iv) @ annihilation(ctx, Iw))
    # compare away from the truncation edge
    for p in range(ctx.degree - 1):
        for m in range(ctx.degree + 1):
            gap = word.op.block(m, p) - hand.block(m, p)
            assert ctx.block_norm(gap, m, p) < 1e-10


def test_vacuum_image_across_grid(rng):
    for spectrum in ("t2", "b2+t1"):
        for q in Q_GRID:
            ctx = make_ctx(spectrum, q, 4)
            for n in (1, 2, 3):
                size = ctx.block_size(n)
                xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                assert wick.vacuum_residual(ctx, xi, n) < 1e-10


def test_linearity(ctx_half, rng):
    ctx = ctx_half
    xi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    eta = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    combined = wick.wick_word(ctx, 2.0 * xi - 1j * eta, 2).op
    split = 2.0 * wick.wick_word(ctx, xi, 2).op - 1j * wick.wick_word(ctx, eta, 2).op
    assert combined.max_diff(split) < 1e-12


def test_adjoint_tensor_involution(ctx_half, rng):
    xi = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    twice = wick.adjoint_tensor(ctx_half, wick.adjoint_tensor(ctx_half, xi, 3), 3)
    assert np.allclose(twice, xi)


def test_word_adjoint_is_adjoint_tensor_word(ctx_half, rng):
    ctx = ctx_half
    for n in (1, 2):
        xi = rng.standard_normal(ctx.block_size(n)) + 1j * rng.standard_normal(ctx.block_size(n))
        adj = wick.wick_word(ctx, xi, n).op.adjoint()
        expected = wick.wick_word(ctx, wick.adjoint_tensor(ctx, xi, n), n).op
        assert adj.max_diff(expected) < 1e-10


def test_self_adjoint_for_fixed_tensors(ctx_half, rng):
    ctx = ctx_half
    for n in (1, 2):
        size = ctx.block_size(n)
        xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        fixed = (xi + wick.adjoint_tensor(ctx, xi, n)) / 2.0
        word = wick.wick_word(ctx, fixed, n)
        assert wick.self_adjoint_residual(ctx, word) < 1e-10


def test_self_adjoint_residual_refuses_a_word_of_another_context():
    # the residual ignored its context and measured the word in its own
    ctx, other = make_ctx("b2", 0.5, 3), make_ctx("b2", 0.9, 3)
    xi = np.random.default_rng(932).standard_normal(ctx.block_size(2)) + 0j
    word = wick.wick_word(ctx, (xi + wick.adjoint_tensor(ctx, xi, 2)) / 2.0, 2)
    assert wick.self_adjoint_residual(ctx, word) < 1e-10
    with pytest.raises(ValueError, match="context"):
        wick.self_adjoint_residual(other, word)


@settings(max_examples=25, deadline=None)
@given(q=st.floats(min_value=-0.9, max_value=0.9),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_vacuum_image_property(q, seed):
    ctx = make_ctx("t2", q, 3)
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 4))
    size = ctx.block_size(n)
    xi = gen.standard_normal(size) + 1j * gen.standard_normal(size)
    assert wick.vacuum_residual(ctx, xi, n) < 1e-10


def test_vacuum_column_and_expectation_match_the_vacuum_action():
    # oracle: apply the operator to the vacuum vector and pair with q_inner
    gen = np.random.default_rng(902)
    ctx = make_ctx("b2+t1", 0.5, 4)
    vac = GradedVector.vacuum(ctx)
    for n in range(ctx.degree + 1):
        size = ctx.block_size(n)
        word = wick.wick_word(ctx, gen.standard_normal(size) + 1j * gen.standard_normal(size), n)
        assert np.array_equal(word.op.block(n, 0)[:, 0], word.op.apply(vac).blocks[n])
    for pairs in ([(0, 0), (0, 2), (3, 0), (2, 2)], [(1, 0), (0, 1)]):
        op = GradedOperator(ctx, ctx, {
            (m, p): gen.standard_normal((ctx.block_size(m), ctx.block_size(p)))
            + 1j * gen.standard_normal((ctx.block_size(m), ctx.block_size(p)))
            for m, p in pairs})
        expected = ctx.q_inner(vac.blocks[0], op.apply(vac).blocks[0], 0)
        assert op.vacuum_expectation() == expected


def test_degree_zero_word_is_scalar(ctx_half):
    word = wick.wick_word(ctx_half, np.array([2.5 - 1j]), 0)
    vac = GradedVector.vacuum(ctx_half)
    assert abs(word.op.apply(vac).blocks[0][0] - (2.5 - 1j)) < 1e-14


def test_degree_overflow_rejected(ctx_half):
    with pytest.raises(ValueError):
        wick.wick_word(ctx_half, np.zeros(3 ** 5), 5)


def _annihilate(ctx, v, x, p):
    """a_q(v) on a degree-p tensor, from its action on simple tensors:
    ``sum_k q^k <v, w_{k+1}>_U w_1 .. (w_{k+1} left out) .. w_p``."""
    x_nd = np.asarray(x).reshape((ctx.dim,) * p)
    dual = np.conj(v) * ctx.space.g
    return sum(ctx.q ** k * np.tensordot(dual, x_nd, axes=([0], [k])) for k in range(p)).ravel()


def _wick_apply(ctx, xi_nd, x, p):
    """``W(xi) x`` for a degree-p vector ``x``, as {degree: block}, by the
    Wick product recursion ``W(e (x) eta) = a*(e) W(eta) + a(Ie) W(eta)
    - W(a(Ie) eta)`` down to ``W(c) = c`` on degree 0."""
    if xi_nd.ndim == 0:
        return {p: xi_nd * x}
    out = {}

    def add(deg, y):
        out[deg] = out[deg] + y if deg in out else y

    for i in range(ctx.dim):
        e = np.zeros(ctx.dim)
        e[i] = 1.0
        conj_e = ctx.space.conjugate(e)
        eta = xi_nd[i]
        for deg, y in _wick_apply(ctx, eta, x, p).items():
            add(deg + 1, np.kron(e, y))
            if deg > 0:
                add(deg - 1, _annihilate(ctx, conj_e, y, deg))
        if eta.ndim > 0:
            reduced = _annihilate(ctx, conj_e, eta, eta.ndim).reshape((ctx.dim,) * (eta.ndim - 1))
            for deg, y in _wick_apply(ctx, reduced, x, p).items():
                add(deg, -y)
    return out


def test_wick_product_recursion():
    gen = np.random.default_rng(2003)
    for spectrum in ("t2", "b2", "b2+t1"):
        for q in (0.5, -0.9, 0.0):
            ctx = make_ctx(spectrum, q, 5)
            for n in (2, 3, 4):
                size = ctx.block_size(n)
                xi = gen.standard_normal(size) + 1j * gen.standard_normal(size)
                op = wick.wick_word(ctx, xi, n).op
                for p in range(ctx.degree - n + 1):
                    size = ctx.block_size(p)
                    x = gen.standard_normal(size) + 1j * gen.standard_normal(size)
                    expect = _wick_apply(ctx, xi.reshape((ctx.dim,) * n), x, p)
                    assert set(expect) == {m for m in range(p - n, p + n + 1, 2) if m >= 0}
                    gap = np.hypot.reduce([ctx.q_norm(op.block(m, p) @ x - y, m)
                                           for m, y in expect.items()])
                    scale = np.hypot.reduce([ctx.q_norm(y, m) for m, y in expect.items()])
                    assert gap <= 1e-12 * scale


@pytest.mark.parametrize("spectrum, q, degree", [("t1", 0.0, 4), ("b2+t1", 0.5, 4),
                                                 ("b2", -0.9, 5)])
def test_degree_zero_word_is_exactly_the_scalar_on_every_input_degree(spectrum, q, degree):
    # one draw and a stack: c times the identity on each kept input degree
    ctx = make_ctx(spectrum, q, degree)
    gen = np.random.default_rng(932)
    c = complex(gen.standard_normal(), gen.standard_normal())
    for inputs in (None, (0,), (1, 3)):
        blocks = wick.wick_word(ctx, np.array([c]), 0, inputs=inputs).op.blocks
        kept = range(ctx.degree + 1) if inputs is None else inputs
        assert list(blocks) == [(p, p) for p in kept]
        for (p, _), B in blocks.items():
            assert np.array_equal(B, c * np.eye(ctx.block_size(p)))
    scalars = np.array([[c], [2.0 - 1j], [0.0]])
    for (p, _), B in wick._word_blocks(ctx, scalars, 0, range(ctx.degree + 1)).items():
        assert np.array_equal(B, scalars[:, :, None] * np.eye(ctx.block_size(p)))


def _vacuum_residual_of_the_word(ctx, xi, n):
    """``W(xi) Omega - xi`` through the realized word on the vacuum degree:
    the oracle of the stacked residual."""
    word = wick.wick_word(ctx, xi, n, inputs=(0,))
    return ctx.q_norm(word.op.block(n, 0)[:, 0] - word.tensor, n)


@pytest.mark.parametrize("spectrum, q", [("t1", -0.95), ("t2", 0.5), ("b2", 0.9),
                                         ("b2+t1", -0.5)])
def test_stacked_vacuum_residual_equals_its_draws_bit_for_bit(spectrum, q):
    ctx = make_ctx(spectrum, q, 5)
    gen = np.random.default_rng(1618)
    for n in (1, 2, 3):
        tensors = gen.standard_normal((7, ctx.block_size(n))) \
            + 1j * gen.standard_normal((7, ctx.block_size(n)))
        stacked = wick.vacuum_residual(ctx, tensors, n)
        assert stacked.shape == (7,)
        alone = [wick.vacuum_residual(ctx, xi, n) for xi in tensors]
        assert all(type(value) is float for value in alone)
        assert stacked.tolist() == alone
        assert alone == [_vacuum_residual_of_the_word(ctx, xi, n) for xi in tensors]


def test_stacked_vacuum_residual_rejects_bad_shapes(ctx_half):
    for shape in ((3, 8), (2, 3, 9), ()):
        with pytest.raises(ValueError):
            wick.vacuum_residual(ctx_half, np.zeros(shape), 2)
    with pytest.raises(ValueError):
        wick.vacuum_residual(ctx_half, np.zeros((2, 3 ** 5)), 5)
