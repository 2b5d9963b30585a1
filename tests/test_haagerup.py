import numpy as np
import pytest

from qfock import haagerup, quantize, wick
from qfock import spaces as sp
from qfock.fock import FockContext, GradedVector
from conftest import Q_GRID, make_ctx


def test_profile_value_on_trivial_directions():
    for k in (1, 4, 64):
        assert abs(haagerup.admissible_profile(1.0, k) - 1.0 / (1.0 + 1.0 / k)) < 1e-14


def test_profile_symmetry_and_range():
    for lam in (0.25, 0.5, 2.0, 7.0):
        for k in (1, 8, 64):
            h = haagerup.admissible_profile(lam, k)
            assert abs(h - haagerup.admissible_profile(1.0 / lam, k)) < 1e-14
            assert 0.0 < h < 1.0


def test_profile_tends_to_identity():
    assert abs(haagerup.admissible_profile(2.0, 10 ** 8) - 1.0) < 1e-3


def test_generated_maps_are_admissible(space_b2t1):
    for k in (1, 2, 16, 64):
        res = haagerup.admissible_residuals(space_b2t1, k)
        assert res["iti_residual"] < 1e-12
        assert res["intertwiner_residual"] < 1e-12
        T = haagerup.generate_admissible(space_b2t1, k)
        assert T.norm <= 1.0 + 1e-12


def test_trivial_space_base_map_value():
    space = sp.build_space(sp.BlockSpectrum([], trivial=1))
    T = haagerup.generate_admissible(space, 4)
    assert np.allclose(T.matrix, [[1.0 / (1.0 + 0.25)]])


def test_tail_norm_closed_form_trivial_space():
    # for T = Id on a trivial space the degree-d norm is 1, so the tail at
    # (t = 1, n = 1) over N = 4 is e^{-2}
    space = sp.build_space(sp.BlockSpectrum([], trivial=1))
    ctx = FockContext(space, 0.0, 4)
    tail = haagerup.tail_norm(ctx, np.eye(1), 1.0, 1)
    assert abs(tail - np.exp(-2.0)) < 1e-14


def test_tail_bound_across_grid():
    for spectrum in ("t2", "b2+t1"):
        for q in Q_GRID:
            ctx = make_ctx(spectrum, q, 4)
            for k in (1, 4, 64):
                T = haagerup.generate_admissible(ctx.space, k).matrix
                per = haagerup.degree_norms(ctx, T)
                for t in (1.0, 0.25):
                    for n in range(ctx.degree):
                        tail = haagerup.tail_norm(ctx, T, t, n, per_degree=per)
                        assert tail <= np.exp(-t * (n + 1)) + 1e-10


def test_free_reduction_crosscheck_zero_at_q0():
    ctx = make_ctx("b2", 0.0, 4)
    T = haagerup.generate_admissible(ctx.space, 4).matrix
    assert haagerup.free_reduction_crosscheck(ctx, T, 1.0, 1) == 0.0


def test_free_reduction_crosscheck_small_q():
    for q in (-0.5, 0.5):
        ctx = make_ctx("t2", q, 4)
        T = haagerup.generate_admissible(ctx.space, 8).matrix
        assert haagerup.free_reduction_crosscheck(ctx, T, 0.5, 1) < 1e-8


def test_free_reduction_crosscheck_large_q_loose():
    ctx = make_ctx("t2", 0.9, 4)
    T = haagerup.generate_admissible(ctx.space, 8).matrix
    assert haagerup.free_reduction_crosscheck(ctx, T, 0.5, 1) < 1e-6


def test_free_reduction_crosscheck_reuses_degree_norms():
    for spectrum, q in (("t2", 0.5), ("b2+t1", -0.9)):
        ctx = make_ctx(spectrum, q, 4)
        T = haagerup.generate_admissible(ctx.space, 8).matrix
        per_degree = haagerup.degree_norms(ctx, T)
        assert haagerup.free_reduction_crosscheck(ctx, T, 1.0, 1, per_degree=per_degree) \
            == haagerup.free_reduction_crosscheck(ctx, T, 1.0, 1)


def test_compactness_profile_structure():
    ctx = make_ctx("t1", 0.0, 4)
    profile = haagerup.compactness_profile(ctx, np.eye(1), 1.0, 3)
    assert profile["all_within_bound"]
    # for T = Id at q = 0 consecutive tails decay by exactly e^{-1}
    assert np.allclose(profile["decay_ratios"], np.exp(-1.0))


def test_strong_convergence_vacuum_and_closed_form(rng):
    ctx = make_ctx("b2+t1", 0.5, 4)
    family = haagerup.ApproximantFamily.default(ctx.space)
    vac = GradedVector.vacuum(ctx)
    sweep = haagerup.strong_convergence_sweep(family, ctx, [vac])
    assert sweep["all_monotone"] and sweep["all_converged"]
    assert max(sweep["rows"][0]["distances"]) < 1e-14
    # degree-1 eigenvector: distance has the closed form |e^{-t} h_k(lam) - 1|
    e = np.zeros(ctx.dim, dtype=complex)
    e[0] = 1.0
    vec = GradedVector.from_degree(ctx, 1, e)
    scale = ctx.q_norm(e, 1)
    for k, t in zip(family.ks, family.ts):
        dist = haagerup.convergence_distance(ctx, family.damped_matrix(k, t), vec)
        expected = abs(np.exp(-t) * haagerup.admissible_profile(2.0, k) - 1.0) * scale
        assert abs(dist - expected) < 1e-12


def test_strong_convergence_monotone_but_bounded_away(rng):
    # distances decrease along the diagonal but stay above the scalar damping
    # floor 1 - e^{-1/64} for unit vectors with mass above degree zero
    ctx = make_ctx("t2", 0.3, 4)
    family = haagerup.ApproximantFamily.default(ctx.space)
    vecs = [GradedVector.random(ctx, rng) for _ in range(3)]
    sweep = haagerup.strong_convergence_sweep(family, ctx, vecs)
    assert sweep["all_monotone"]
    assert not sweep["all_converged"]
    for row in sweep["rows"]:
        assert row["distances"][-1] > 1.0 - np.exp(-1.0 / 64.0)


def test_damped_channels_preserve_state(rng):
    ctx = make_ctx("t2", 0.5, 3)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    damped = sp.DeformedContraction(
        space, space, np.exp(-0.5) * haagerup.generate_admissible(space, 4).matrix)
    channel = quantize.QuantizationChannel(damped, ctx, ctx, comb_ctx)
    assert channel.unitality_residual() < 1e-10
    words = []
    for n in (0, 1, 2):
        size = ctx.block_size(n)
        xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        words.append(wick.wick_word(ctx, xi, n))
    assert haagerup.state_preservation_residual(channel, words) < 1e-10


def test_state_preservation_on_squared_field(rng):
    ctx = make_ctx("b2", 0.5, 4)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 4)
    damped = sp.DeformedContraction(
        space, space, np.exp(-1.0) * haagerup.generate_admissible(space, 2).matrix)
    channel = quantize.QuantizationChannel(damped, ctx, ctx, comb_ctx)
    h = space.random_real_vector(rng)
    word = wick.wick_word(ctx, h, 1)
    sq = word.op @ word.op
    image = channel.apply_product([word, word])
    assert channel.vacuum_state_residual([sq], [image]) < 1e-10


def test_tail_norm_rejects_bad_degree(ctx_half):
    with pytest.raises(ValueError):
        haagerup.tail_norm(ctx_half, np.eye(3), 1.0, ctx_half.degree)
