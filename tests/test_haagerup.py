import numpy as np
import pytest

from qfock import haagerup, quantize, reports, wick
from qfock import spaces as sp
from qfock.fock import FockContext, GradedOperator, GradedVector, first_quantization
from conftest import Q_GRID, grid_point, make_ctx


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
        T = haagerup.generate_admissible(space_b2t1, k)
        res = haagerup.admissible_residuals(T)
        assert res["iti_residual"] < 1e-12
        assert res["intertwiner_residual"] < 1e-12
        assert T.norm <= 1.0 + 1e-12


def test_family_owns_its_generated_maps(space_b2t1):
    family = haagerup.ApproximantFamily.default(space_b2t1)
    assert list(family.maps) == list(family.ks)
    for k in family.ks:
        assert np.array_equal(family.maps[k].matrix,
                              haagerup.generate_admissible(space_b2t1, k).matrix)
        assert np.array_equal(family.damped_matrix(k, 0.5),
                              np.exp(-0.5) * family.maps[k].matrix)


def test_trivial_space_base_map_value():
    space = sp.build_space(sp.BlockSpectrum([], trivial=1))
    T = haagerup.generate_admissible(space, 4)
    assert np.allclose(T.matrix, [[1.0 / (1.0 + 0.25)]])


def test_tail_norm_closed_form_trivial_space():
    # for T = Id on a trivial space the degree-d norm is 1, so the tail at
    # (t = 1, n = 1) over N = 4 is e^{-2}
    space = sp.build_space(sp.BlockSpectrum([], trivial=1))
    ctx = FockContext(space, 0.0, 4)
    tail = haagerup.tail_norm(haagerup.degree_norms(ctx, np.eye(1)), 1.0, 1)
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
                        tail = haagerup.tail_norm(per, t, n)
                        assert tail <= np.exp(-t * (n + 1)) + 1e-10


def test_free_reduction_crosscheck_zero_at_q0():
    # at q = 0 the profile is the SVD of a Kronecker power, ||T||^d up to ulps
    ctx = make_ctx("b2", 0.0, 4)
    T = haagerup.generate_admissible(ctx.space, 4)
    per = haagerup.degree_norms(ctx, T.matrix)
    assert haagerup.free_reduction_crosscheck(T, per) <= 1e-14


def test_free_reduction_crosscheck_small_q():
    for q in (-0.5, 0.5):
        ctx = make_ctx("t2", q, 4)
        T = haagerup.generate_admissible(ctx.space, 8)
        per = haagerup.degree_norms(ctx, T.matrix)
        assert haagerup.free_reduction_crosscheck(T, per) < 1e-8


def test_free_reduction_crosscheck_large_q_loose():
    ctx = make_ctx("t2", 0.9, 4)
    T = haagerup.generate_admissible(ctx.space, 8)
    per = haagerup.degree_norms(ctx, T.matrix)
    assert haagerup.free_reduction_crosscheck(T, per) < 1e-6


ORACLE_GRID = [(spectrum, q) for spectrum in ("t2", "b2", "b2+t1")
               for q in (-0.9, -0.5, 0.3, 0.9, 0.95)]


def oracle_maps(space, seed):
    """A random contraction that is not J-real, a random J-real one, and the
    diagonal T_4 of the approximant family."""
    gen = np.random.default_rng(seed)
    return {"plain": sp.random_contraction(gen, space, space, norm=0.8),
            "j_real": sp.random_jti_contraction(gen, space, space, norm=0.8),
            "T_4": haagerup.generate_admissible(space, 4)}


@pytest.mark.parametrize("spectrum,q", ORACLE_GRID)
def test_degree_profile_is_the_closed_form_power(spectrum, q):
    # T^{(x)d} commutes with P_q, so its q-norm is ||T||_G^d (Bozejko-Speicher)
    ctx = make_ctx(spectrum, q, 4)
    for T in oracle_maps(ctx.space, 19).values():
        closed = T.norm ** np.arange(ctx.degree + 1)
        per = haagerup.degree_norms(ctx, T.matrix)
        assert np.max(np.abs(per - closed) / closed) <= 1e-12


def half_gauged_profile(ctx, T):
    """A defective profile: the degree blocks gauged on the left only,
    ``metric_sqrt(d) @ B``, without ``metric_invsqrt(d)`` on the right."""
    fq = first_quantization(ctx, ctx, np.asarray(T, dtype=complex))
    return np.array([np.linalg.norm(ctx.metric_sqrt(d) @ fq.block(d, d), 2)
                     for d in range(ctx.degree + 1)])


@pytest.mark.parametrize("spectrum,q", ORACLE_GRID)
def test_closed_form_crosscheck_sees_a_half_gauged_profile(spectrum, q):
    # on the diagonal T_k a gauge defect moves the profile by ulps only, so
    # the non-diagonal maps carry the teeth: the smallest gap over this grid
    # is 9.5e-2 (b2+t1, q = 0.3)
    ctx = make_ctx(spectrum, q, 4)
    maps = oracle_maps(ctx.space, 19)
    for name in ("plain", "j_real"):
        T = maps[name]
        assert haagerup.free_reduction_crosscheck(T, haagerup.degree_norms(ctx, T.matrix)) <= 1e-12
        assert haagerup.free_reduction_crosscheck(T, half_gauged_profile(ctx, T.matrix)) > 1e-2


def test_compactness_profile_structure():
    ctx = make_ctx("t1", 0.0, 4)
    profile = haagerup.compactness_profile(haagerup.degree_norms(ctx, np.eye(1)), 1.0, 3)
    assert profile["all_within_bound"]
    # for T = Id at q = 0 consecutive tails decay by exactly e^{-1}
    assert np.allclose(profile["decay_ratios"], np.exp(-1.0))


def test_compactness_profile_rejects_n_max_out_of_range():
    # n_max = -1 used to give no rows and so "all within bound" for a map of
    # norm 1.5, whose profile fails the bound at n_max = 3
    ctx = make_ctx("t1", 0.0, 4)
    per = haagerup.degree_norms(ctx, 1.5 * np.eye(1))
    assert not haagerup.compactness_profile(per, 0.0, 3)["all_within_bound"]
    for n_max in (-1, ctx.degree, ctx.degree + 1):
        with pytest.raises(ValueError, match="n_max"):
            haagerup.compactness_profile(per, 0.0, n_max)


def test_default_family_needs_a_level(space_b2t1):
    # levels = 0 used to build an empty family, on which the strong
    # convergence sweep failed with an IndexError
    for levels in (0, -1):
        with pytest.raises(ValueError, match="levels"):
            haagerup.ApproximantFamily.default(space_b2t1, levels)
    assert haagerup.ApproximantFamily.default(space_b2t1, 1).ks == (1,)


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
        fq = first_quantization(ctx, ctx, family.damped_matrix(k, t))
        dist = (fq.apply(vec) - vec).norm()
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


def _vacuum_gap(x, image):
    return abs(image.vacuum_expectation() - x.vacuum_expectation())


def test_damped_channels_preserve_state(rng):
    # the intrinsic image Gamma_q(T) against the dilation channel (oracle) on
    # the same damped approximant and the same words
    ctx = make_ctx("t2", 0.5, 3)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    damped = sp.DeformedContraction(
        space, space, np.exp(-0.5) * haagerup.generate_admissible(space, 4).matrix)
    channel = quantize.QuantizationChannel(damped, ctx, ctx, comb_ctx)
    powers = first_quantization(ctx, ctx, damped.matrix)
    assert channel.conjugate(GradedOperator.identity(comb_ctx)).max_diff(
        GradedOperator.identity(ctx)) < 1e-10
    for n in (0, 1, 2):
        size = ctx.block_size(n)
        xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        word = wick.wick_word(ctx, xi, n)
        oracle = _vacuum_gap(word.op, channel.apply_word(word))
        gap = _vacuum_gap(word.op, quantize.intrinsic_image(powers, word.op, range(1)))
        assert gap < 1e-10
        assert abs(gap - oracle) < 1e-12


def test_state_preservation_on_squared_field(rng):
    ctx = make_ctx("b2", 0.5, 4)
    space = ctx.space
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 4)
    damped = sp.DeformedContraction(
        space, space, np.exp(-1.0) * haagerup.generate_admissible(space, 2).matrix)
    channel = quantize.QuantizationChannel(damped, ctx, ctx, comb_ctx)
    x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    h = (x + space.conjugate(x)) / 2  # fixed by I
    word = wick.wick_word(ctx, h, 1)
    sq = word.op @ word.op
    emb = quantize.embed_wick(ctx, comb_ctx, word).op
    oracle = _vacuum_gap(sq, channel.conjugate(emb @ emb))
    powers = first_quantization(ctx, ctx, damped.matrix)
    gap = _vacuum_gap(sq, quantize.intrinsic_image(powers, sq, range(1)))
    assert gap < 1e-10
    assert abs(gap - oracle) < 1e-12


def test_tail_norm_rejects_bad_degree(ctx_half):
    with pytest.raises(ValueError):
        haagerup.tail_norm(haagerup.degree_norms(ctx_half, np.eye(3)), 1.0, ctx_half.degree)


def test_tail_norm_rejects_negative_degree(ctx_half):
    # n = -1 would read the whole profile, degree 0 included, as its tail
    per = haagerup.degree_norms(ctx_half, np.eye(3))
    for n in (-1, -ctx_half.degree):
        with pytest.raises(ValueError):
            haagerup.tail_norm(per, 1.0, n)


def _tail_norm_one_entry(per_degree, t, n):
    """The tail norm as it was computed one (t, n) entry at a time: the
    oracle of ``tail_norms``."""
    top = len(per_degree) - 1
    damp = np.exp(-t * np.arange(top + 1))
    return float(np.max(per_degree[n + 1:] * damp[n + 1:]))


@pytest.mark.parametrize("spectrum, degree", [("t1", 5), ("t2", 5), ("b2", 5), ("b2+t1", 5),
                                              ("b2+t1", 6)])
def test_tail_norms_equal_the_tail_norm_loop_bit_for_bit(spectrum, degree):
    ctx = make_ctx(spectrum, 0.9, degree)
    family = haagerup.ApproximantFamily.default(ctx.space)
    for k, T in family.maps.items():
        per = haagerup.degree_norms(ctx, T.matrix)
        grid = haagerup.tail_norms(per, family.ts)
        assert grid.shape == (len(family.ts), degree)
        for i, t in enumerate(family.ts):
            for n in range(degree):
                assert grid[i, n] == _tail_norm_one_entry(per, t, n)
                assert haagerup.tail_norm(per, t, n) == grid[i, n]
        profile = haagerup.compactness_profile(per, 0.5, degree - 1)
        for row in profile["rows"]:
            assert row["tail"] == _tail_norm_one_entry(per, 0.5, row["n"])
            assert row["bound"] == float(np.exp(-0.5 * (row["n"] + 1)))


@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1"])
def test_tail_row_equals_its_per_entry_loop_bit_for_bit(spectrum):
    pt = grid_point(spectrum, 0.9, 5)
    expected = [(max(_tail_norm_one_entry(pt.profiles[k], t, n) - float(np.exp(-t * (n + 1)))
                     for t in pt.family.ts for n in range(pt.ctx.degree)),
                 haagerup.free_reduction_crosscheck(T, pt.profiles[k]))
                for k, T in pt.family.maps.items()]
    assert list(reports._tail(pt, None)) == expected


def _one_level_distances(family, ctx, vectors):
    """Distances to the identity one level at a time through
    ``first_quantization``: the oracle of the stacked sweep."""
    distances = [[] for _ in vectors]
    for k, t in zip(family.ks, family.ts):
        fq = first_quantization(ctx, ctx, family.damped_matrix(k, t))
        for dists, vec in zip(distances, vectors):
            dists.append((fq.apply(vec) - vec).norm())
    return distances


@pytest.mark.parametrize("spectrum, q, degree, stack_bytes", [
    ("t1", -0.95, 5, None), ("t2", 0.5, 5, None), ("b2", 0.9, 5, None), ("b2+t1", 0.3, 4, None),
    ("b2+t1", 0.9, 6, None), ("b2+t1", 0.9, 4, 3 * 16 * 81 ** 2)])
def test_strong_convergence_levels_equal_one_level_routes_bit_for_bit(monkeypatch, spectrum, q,
                                                                      degree, stack_bytes):
    # N = 6 on b2+t1 takes the levels one at a time; a budget of three top
    # blocks splits the seven levels into stacks of 3, 3 and 1
    if stack_bytes is not None:
        monkeypatch.setattr(haagerup, "_LEVELS_STACK_BYTES", stack_bytes)
    ctx = make_ctx(spectrum, q, degree)
    family = haagerup.ApproximantFamily.default(ctx.space)
    gen = np.random.default_rng(2718)
    vectors = [GradedVector.vacuum(ctx)] + [GradedVector.random(ctx, gen) for _ in range(3)]
    sweep = haagerup.strong_convergence_sweep(family, ctx, vectors)
    oracle = _one_level_distances(family, ctx, vectors)
    assert [row["distances"] for row in sweep["rows"]] == oracle
    assert all(type(d) is float for row in sweep["rows"] for d in row["distances"])


def test_strong_convergence_sweep_rejects_a_vector_of_another_context(rng):
    ctx = make_ctx("b2", 0.5, 4)
    family = haagerup.ApproximantFamily.default(ctx.space)
    for other in (make_ctx("b2", 0.9, 4), make_ctx("b2", 0.5, 4), make_ctx("b2", 0.5, 3)):
        with pytest.raises(ValueError, match="context"):
            haagerup.strong_convergence_sweep(
                family, ctx, [GradedVector.vacuum(ctx), GradedVector.random(other, rng)])
