import sys
import warnings
import weakref

import numpy as np
import pytest

from qfock import spaces as sp
from qfock.reports import parse_spectrum
from conftest import allocation_peak, make_ctx


def test_block_spectrum_validation():
    with pytest.raises(ValueError):
        sp.BlockSpectrum([(0.5, 1)])
    with pytest.raises(ValueError):
        sp.BlockSpectrum([(1.0, 1)])
    with pytest.raises(ValueError):
        sp.BlockSpectrum([], trivial=-1)
    assert sp.BlockSpectrum([(2.0, 2)], trivial=1).dim == 5


def test_metric_eigenvalues_lambda2():
    space = sp.build_space(sp.BlockSpectrum([(2.0, 1)]))
    assert np.allclose(sorted(space.g), [2.0 / 3.0, 4.0 / 3.0])


def test_metric_eigenvalues_lambda4_with_trivial():
    space = sp.build_space(sp.BlockSpectrum([(4.0, 1)], trivial=1))
    assert np.allclose(sorted(space.g), [0.4, 1.0, 1.6])


def test_space_rejects_eigenvalues_whose_metric_overflows():
    # 2a overflows above half the float maximum; the check runs before g
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for build in (lambda: sp.build_space(sp.BlockSpectrum([(1e308, 1)])),
                      lambda: sp.DeformedSpace([1e308, 1e-308], [1, 0])):
            with pytest.raises(ValueError, match="overflow"):
                build()
        space = sp.build_space(sp.BlockSpectrum([(1e300, 1)]))
    assert np.all(np.isfinite(space.g)) and space.g[0] == 2.0 * 1e300 / (1.0 + 1e300)


def test_conjugation_is_antilinear_involution(space_b2t1, rng):
    space = space_b2t1
    x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    assert np.allclose(space.conjugate(space.conjugate(x)), x)
    assert np.allclose(space.conjugate(1j * x), -1j * space.conjugate(x))


def test_conjugation_inverts_generator(space_b2t1):
    # I A I = A^{-1} in matrix form: S conj(A) S = A^{-1} with A real diagonal
    space = space_b2t1
    S = np.zeros((space.dim, space.dim))  # I x = S conj(x)
    S[space.partner, np.arange(space.dim)] = 1.0
    A = np.diag(space.a)
    assert np.allclose(S @ A @ S, np.linalg.inv(A))


def test_deformed_inner_against_matrix_form(space_b2t1, rng):
    space = space_b2t1
    x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    y = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    expected = np.conj(x) @ np.diag(space.g) @ y
    assert abs(sp.deformed_inner(space, x, y) - expected) < 1e-12


def test_deformed_adjoint_pairing(space_b2t1, rng):
    space = space_b2t1
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Madj = sp.deformed_adjoint(space, space, M)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = sp.deformed_inner(space, x, M @ y)
    rhs = sp.deformed_inner(space, Madj @ x, y)
    assert abs(lhs - rhs) < 1e-12


def test_iti_residual_of_i_times_identity():
    # J(i Id)I = -i Id, so the gap is 2i Id with deformed norm 2
    space = sp.build_space(sp.BlockSpectrum([], trivial=2))
    assert abs(sp.iti_residual(space, space, 1j * np.eye(2)) - 2.0) < 1e-12


def test_iti_residual_vanishes_for_symmetric_calculus(space_b2t1):
    space = space_b2t1
    M = sp.spectral_map(space, lambda lam: 1.0 / (2.0 + lam + 1.0 / lam))
    assert sp.iti_residual(space, space, M) < 1e-14
    assert sp.intertwiner_residual(M, space, space) < 1e-14


def test_iti_residual_nonzero_for_asymmetric_calculus(space_b2t1):
    M = sp.spectral_map(space_b2t1, lambda lam: lam / (lam + 1.0))
    assert sp.iti_residual(space_b2t1, space_b2t1, M) > 1e-3


def test_contraction_rejects_norm_above_one(space_b2t1):
    with pytest.raises(ValueError):
        sp.DeformedContraction(space_b2t1, space_b2t1, 2.0 * np.eye(3))


def test_dilation_properties_random_sweep(rng):
    # 100 random contractions across spaces: dilation is deformed-unitary
    # with the prescribed corner
    spaces_list = [sp.build_space(parse_spectrum(s)) for s in ("t1", "t2", "b2", "b2+t1")]
    for i in range(100):
        src = spaces_list[i % 4]
        tgt = spaces_list[(i // 4) % 4]
        T = sp.random_contraction(rng, src, tgt, norm=0.9)
        comb = sp.direct_sum(src, tgt)
        U = sp.dilate(src, tgt, T.matrix)
        Uadj = sp.deformed_adjoint(comb, comb, U)
        assert np.linalg.norm(Uadj @ U - np.eye(comb.dim)) < 1e-10
        assert np.linalg.norm(U @ Uadj - np.eye(comb.dim)) < 1e-10
        corner = sp.projection_matrix(src, tgt) @ U @ sp.inclusion_matrix(src, tgt)
        assert np.linalg.norm(corner - T.matrix) < 1e-12


def test_random_jti_contraction_satisfies_symmetry(space_b2t1, space_t2, rng):
    for _ in range(20):
        T = sp.random_jti_contraction(rng, space_b2t1, space_t2, norm=0.8)
        assert T.iti_residual() < 1e-12
        assert abs(T.norm - 0.8) < 1e-10


def test_jti_map_is_involutive(space_b2t1, space_t2, rng):
    M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    twice = sp.jti_map(space_b2t1, space_t2, sp.jti_map(space_b2t1, space_t2, M))
    assert np.allclose(twice, M)


def test_direct_sum_layout(space_b2t1, space_t2):
    comb = sp.direct_sum(space_b2t1, space_t2)
    assert comb.dim == 5
    assert np.allclose(comb.a[:3], space_b2t1.a)
    assert np.allclose(comb.a[3:], space_t2.a)
    iota = sp.inclusion_matrix(space_b2t1, space_t2)
    proj = sp.projection_matrix(space_b2t1, space_t2)
    assert np.allclose(proj @ iota, 0.0)


def test_gaussian_draws_real_parts_then_imaginary_parts():
    for shape in ((3, 2), 4, ()):
        z = sp._gaussian(np.random.default_rng(31), shape)
        ref = np.random.default_rng(31)
        re, im = ref.standard_normal(shape), ref.standard_normal(shape)
        assert np.shape(z) == np.shape(re)
        assert np.array_equal(np.real(z), re) and np.array_equal(np.imag(z), im)
    # scalar form: one real draw, then one imaginary draw
    gen, ref = np.random.default_rng(32), np.random.default_rng(32)
    z = complex(sp._gaussian(gen, ()))
    assert z == complex(ref.standard_normal(), ref.standard_normal())
    assert gen.standard_normal() == ref.standard_normal()  # same draws consumed


_SPACES = {s: sp.build_space(parse_spectrum(s)) for s in ("t1", "t2", "b2", "b2+t1")}
_PAIRS = [("t1", "t1"), ("t2", "b2"), ("b2+t1", "b2+t1"), ("b2", "b2+t1"), ("b2+t1", "t1")]


@pytest.mark.parametrize("src, tgt", _PAIRS)
def test_dilate_on_a_stack_is_one_matrix_at_a_time_bit_for_bit(src, tgt):
    gen = np.random.default_rng(61)
    src, tgt = _SPACES[src], _SPACES[tgt]
    stack = np.stack([sp.random_contraction(gen, src, tgt, norm=norm).matrix
                      for norm in (0.1, 0.5, 0.9, 1.0, 0.7)])
    stacked = sp.dilate(src, tgt, stack)
    assert stacked.shape == (5, src.dim + tgt.dim, src.dim + tgt.dim)
    for T, U in zip(stack, stacked):
        assert np.array_equal(U, sp.dilate(src, tgt, T))
    # one matrix past norm 1 makes the whole stack raise, as it raises alone
    stack[3] *= 1.5
    for M in (stack[3], stack):
        with pytest.raises(ValueError, match="cannot dilate"):
            sp.dilate(src, tgt, M)


@pytest.mark.parametrize("src, tgt", _PAIRS)
def test_deformed_adjoint_on_a_stack_is_one_matrix_at_a_time_bit_for_bit(src, tgt):
    gen = np.random.default_rng(62)
    src, tgt = _SPACES[src], _SPACES[tgt]
    stack = sp._gaussian(gen, (4, tgt.dim, src.dim))
    stacked = sp.deformed_adjoint(src, tgt, stack)
    assert stacked.shape == (4, src.dim, tgt.dim)
    for M, adjoint in zip(stack, stacked):
        assert np.array_equal(adjoint, sp.deformed_adjoint(src, tgt, M))


# -- the Gram route of the spectral norm -------------------------------------------


def _gram_shapes():
    """Square, tall and wide shapes whose smaller side is at the crossover or
    just above it."""
    width = sp._GRAM_MIN_WIDTH
    return [(width, width), (width + 101, width + 3), (width, 2 * width)]


def test_gram_norm_agrees_with_the_svd(monkeypatch):
    gen = np.random.default_rng(71)
    cases = [M for shape in _gram_shapes()
             for M in (gen.standard_normal(shape), sp._gaussian(gen, shape))]
    expected = [np.linalg.svd(M, compute_uv=False)[0] for M in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the SVD route was taken above the crossover")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for M, ref in zip(cases, expected):
        value = sp._spectral_norm(M)
        assert type(value) is float
        assert abs(value - ref) <= 1e-14 * ref, M.shape


def test_gram_norm_of_a_stack_equals_its_slices_bit_for_bit():
    gen = np.random.default_rng(72)
    width = sp._GRAM_MIN_WIDTH
    stacks = [sp._gaussian(gen, (3, width, width + 5)),
              gen.standard_normal((2, 2, width + 7, width))]
    stacks[0][1] *= 2.0 ** 600  # each slice takes its own power of two
    stacks[1][0, 1] *= 2.0 ** -600
    for stack in stacks:
        norms = sp._spectral_norm(stack)
        assert norms.shape == stack.shape[:-2]
        for index in np.ndindex(stack.shape[:-2]):
            assert norms[index] == sp._spectral_norm(stack[index])


@pytest.mark.parametrize("power", [600, -600])
def test_gram_norm_of_a_scaled_matrix_is_the_scaled_norm(power):
    # a Gram matrix of these entries, unscaled, overflows (2^1200) or
    # underflows (2^-1200)
    gen = np.random.default_rng(73)
    for shape in _gram_shapes():
        for M in (gen.standard_normal(shape), sp._gaussian(gen, shape)):
            scaled = M * 2.0 ** power
            value = sp._spectral_norm(scaled)
            assert value == np.ldexp(sp._spectral_norm(M), power)
            ref = np.linalg.svd(scaled, compute_uv=False)[0]
            assert abs(value - ref) <= 1e-14 * ref


def test_gram_norm_keeps_the_svd_outcome_on_non_finite_input():
    gen = np.random.default_rng(74)
    width = sp._GRAM_MIN_WIDTH
    clean = sp._gaussian(gen, (3, width, width))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, complex(0.0, -np.inf)):
            stack = clean.copy()
            stack[1, 2, 3] = bad
            # an inf gives nan, in the SVD as here, and only in its own slice
            assert np.isnan(np.linalg.svd(stack[1], compute_uv=False)[0])
            assert np.isnan(sp._spectral_norm(stack[1]))
            norms = sp._spectral_norm(stack)
            assert np.isnan(norms[1])
            assert norms[0] == sp._spectral_norm(clean[0])
            assert norms[2] == sp._spectral_norm(clean[2])
            # a nan raises, alone or anywhere in a stack
            stack[0, 0, 0] = np.nan
            for M in (stack, stack[0]):
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.svd(M, compute_uv=False)
                with pytest.raises(np.linalg.LinAlgError):
                    sp._spectral_norm(M)


def test_gram_norm_holds_no_block_sized_temporary_beside_the_gram_matrix():
    # the Gram matrix of the smaller side and panels of an eighth of it; a
    # block-sized copy, such as the whole scaled conjugate, exceeds the bound
    gen = np.random.default_rng(75)
    for shape in _gram_shapes():
        M = sp._gaussian(gen, shape)
        side = min(shape)
        bound = (16 * side * side + M.nbytes / 2) / 2**20
        assert allocation_peak(lambda: sp._spectral_norm(M)) <= bound, shape


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="older interpreters hold a call's arguments until it returns")
def test_gram_norm_releases_a_temporary_argument_before_the_eigensolve(monkeypatch):
    gen = np.random.default_rng(76)
    made, solved = [], []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        solved.append(made[0]() is None)
        return eigvalsh(a, *args, **kwargs)

    def argument():
        M = sp._gaussian(gen, (sp._GRAM_MIN_WIDTH,) * 2)
        made.append(weakref.ref(M))
        return M

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    sp._spectral_norm(argument())
    assert solved == [True]


def test_gram_route_takes_the_deep_top_block_and_no_type_block():
    # the deep point's 729-wide corners take the Gram route; t2's top block at
    # N = 5 and every type block of the deep point (at most 90 wide, under
    # stack_norm and majorisation_check) keep the SVD and its bits
    deep = make_ctx("b2+t1", 0.9, 6)
    assert make_ctx("t2", 0.5, 5).block_size(5) == 32 < sp._GRAM_MIN_WIDTH
    assert deep.block_size(6) == 729 >= sp._GRAM_MIN_WIDTH
    widest = max(S.shape[-1] for n in range(deep.degree + 1) for S in deep.stacks("sym", n))
    assert widest == 90 < sp._GRAM_MIN_WIDTH
