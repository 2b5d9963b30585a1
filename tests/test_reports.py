import dataclasses
import functools
import gc
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from qfock import cli, fock, haagerup, quantize, reports, toeplitz, wick
from qfock import spaces as sp
from qfock.fock import FockContext
from qfock.reports import TOLERANCES, SweepConfig, parse_spectrum, run_suite
from conftest import allocation_peak, grid_point


SMALL_SAMPLES = {"wick_vacuum": 5, "covariance": 3, "kadison_schwarz": 4, "functoriality": 1,
                 "dilate": 3, "balanced": 1, "state_preservation": 2}


def small_config(monkeypatch, **kw):
    """A one-point grid at degree 3, with the draw counts of the sampled rows
    cut to ``SMALL_SAMPLES`` for the rest of the test."""
    for name, count in SMALL_SAMPLES.items():
        monkeypatch.setitem(reports.SAMPLES, name, count)
    defaults = dict(q_values=(0.5,), spectra=("t2",), degree=3, seed=7)
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_parse_spectrum_grammar():
    spec = parse_spectrum("b2x2+t1")
    assert spec.blocks == [(2.0, 2)] and spec.trivial == 1
    assert parse_spectrum("t3").dim == 3
    with pytest.raises(ValueError):
        parse_spectrum("z4")
    with pytest.raises(ValueError):
        parse_spectrum("b2+")


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        SweepConfig(q_values=(1.5,))
    with pytest.raises(ValueError):
        SweepConfig(degree=9)
    path = tmp_path / "cfg.json"
    path.write_text('{"q_values": [0.5], "spectra": ["t2"], "degree": 3}')
    cfg = SweepConfig.from_file(str(path))
    assert cfg.q_values == (0.5,) and cfg.degree == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"q_values": [0.5],}')
    with pytest.raises(ValueError) as err:
        SweepConfig.from_file(str(bad))
    assert ":" in str(err.value)  # line/column reported
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"qq": 1}')
    with pytest.raises(ValueError):
        SweepConfig.from_file(str(unknown))
    for field, value in (("degree", "x"), ("degree", True), ("spectra", "b2"),
                         ("q_values", ["a"]), ("seed", 1.5),
                         # float(q) overflows on an int too large for a float
                         ("q_values", [10**400]), ("q_values", [-10**400])):
        with pytest.raises(ValueError, match=repr(field)):
            SweepConfig(**{field: value})
    # a trivial count below 1 (t2+t-1 summed to a 1-dimensional space under
    # its own label) and a non-finite eigenvalue realize no space
    for spectrum, reason in (("t0", ">= 1"), ("t2+t-1", ">= 1"), ("b1e400", "finite"),
                             ("bnan", "finite")):
        with pytest.raises(ValueError, match=f"{re.escape(repr(spectrum))}.*{reason}"):
            SweepConfig(spectra=(spectrum,))
    with pytest.raises(ValueError, match="degree-2 metric"):
        SweepConfig(spectra=("b1e154",), degree=2)
    # valid large-lam spectra: closure under lam <-> 1/lam is relative
    SweepConfig(spectra=("b12345.678", "b1e30", "b1e146"), degree=2)
    SweepConfig(q_values=(0.997, -0.997))
    # a repeated grid point would report one record identity twice; q values
    # repeat as floats, so 0.0 and -0.0 (and 0) are one point
    for field, value in (("q_values", (0.5, 0.3, 0.5)), ("q_values", (0.0, -0.0)),
                         ("q_values", [0, 0.0]), ("spectra", ("t2", "b2", "t2"))):
        with pytest.raises(ValueError, match=f"{field!r} repeats"):
            SweepConfig(**{field: value})
    for q in (0.998, -0.999999):
        with pytest.raises(ValueError, match=f"q={q}"):
            SweepConfig(q_values=(q,))
    not_object = tmp_path / "list.json"
    not_object.write_text('[1, 2]')
    with pytest.raises(ValueError, match="JSON object"):
        SweepConfig.from_file(str(not_object))


def test_config_is_the_grid_and_the_seed(tmp_path):
    # draw counts and bounds are fixed: no config sets them
    assert [f.name for f in dataclasses.fields(SweepConfig)] == \
        ["q_values", "spectra", "degree", "seed"]
    for name, value in (("samples", {"covariance": 8}), ("tolerances", {"norm": 1e-6})):
        with pytest.raises(TypeError, match=name):
            SweepConfig(**{name: value})
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({name: value}))
        with pytest.raises(ValueError, match=f"unknown config fields \\['{name}'\\]"):
            SweepConfig.from_file(str(path))


def test_published_draw_counts_and_bounds():
    # a changed count or bound changes the published checks: it takes an edit here
    assert reports.SAMPLES == {"wick_vacuum": 100, "covariance": 50, "kadison_schwarz": 100,
                               "functoriality": 3, "dilate": 20, "balanced": 3,
                               "state_preservation": 8}
    assert TOLERANCES == {"exact": 1e-12, "algebraic": 1e-10, "norm": 1e-8, "product": 1e-9,
                          "strong": 1e-6}


@pytest.mark.parametrize("suite", reports.SUITES)
def test_run_suite_deterministic(suite, monkeypatch):
    cfg = small_config(monkeypatch)
    a = run_suite(cfg, suite)
    b = run_suite(cfg, suite)
    assert [(r.check, r.residual, r.passed) for r in a] \
        == [(r.check, r.residual, r.passed) for r in b]


@pytest.mark.parametrize("suite", ["quantization", "all"])
def test_contexts_die_with_their_grid_point(monkeypatch, suite):
    # one spectrum and distinct q values, so a context's q names its grid point
    built = []  # (q, weak reference) of every context the run builds
    stale = []  # q values of earlier points' contexts alive at a new build
    peak = 0

    class Recorded(FockContext):
        def __init__(self, space, q, degree):
            nonlocal peak
            gc.collect()
            live = [q_built for q_built, ref in built if ref() is not None]
            stale.extend(q_built for q_built in live if q_built != q)
            peak = max(peak, len(live) + 1)
            super().__init__(space, q, degree)
            built.append((self.q, weakref.ref(self)))

    monkeypatch.setattr(reports, "FockContext", Recorded)
    run_suite(small_config(monkeypatch, q_values=(0.5, -0.5, 0.3)), suite)
    assert len(built) >= 6 and not stale
    assert peak <= 3  # one point's set: main, combined and subspace contexts


# the spectra of the q_scan workload at its degree: on t2 and b2 the channel
# degree (4) differs from N, so a channel route would build three contexts
HAAGERUP_GRID = dict(q_values=(0.5, -0.5), spectra=("t1", "t2", "b2"), degree=5)


def test_haagerup_suite_builds_one_context_per_point(monkeypatch):
    # the suite reads Gamma_q through tensor powers on the point's main
    # context: no combined context and no context at a channel degree
    built = []
    init = FockContext.__init__

    def counted(self, space, q, degree):
        built.append((space.dim, q, degree))
        init(self, space, q, degree)

    monkeypatch.setattr(FockContext, "__init__", counted)
    monkeypatch.setattr(quantize, "QuantizationChannel", None)
    run_suite(small_config(monkeypatch, **HAAGERUP_GRID), "haagerup")
    assert sorted(built) == sorted((sp.build_space(parse_spectrum(s)).dim, q, 5)
                                   for s in HAAGERUP_GRID["spectra"]
                                   for q in HAAGERUP_GRID["q_values"])


def test_haagerup_suite_takes_each_degree_profile_once(monkeypatch):
    calls = []
    degree_norms = haagerup.degree_norms

    def counted(ctx, T):
        calls.append((ctx, np.asarray(T).tobytes()))  # holds ctx: ids stay distinct
        return degree_norms(ctx, T)

    monkeypatch.setattr(haagerup, "degree_norms", counted)
    reps = run_suite(small_config(monkeypatch, **HAAGERUP_GRID), "haagerup")
    levels = len(haagerup.ApproximantFamily.default(sp.build_space(parse_spectrum("t1"))).ks)
    assert len(calls) == len({(id(ctx), T) for ctx, T in calls}) == 6 * levels
    assert [r.check for r in reps].count("haagerup/compactness_profile") == 6


def test_free_reduction_row_is_red_when_one_degree_is_off(monkeypatch):
    # a relative error of 1e-5 at degree 3 exceeds both bounds of the row
    degree_norms = haagerup.degree_norms

    def off_at_degree_3(ctx, T):
        per = degree_norms(ctx, T).copy()
        per[3] *= 1.0 + 1e-5
        return per

    monkeypatch.setattr(haagerup, "degree_norms", off_at_degree_3)
    config = small_config(monkeypatch, q_values=reports.DEFAULT_Q_VALUES, spectra=("t2", "b2"),
                          degree=4)
    reps = run_suite(config, "haagerup")
    rows = [r for r in reps if r.check == "haagerup/free_reduction"]
    assert sorted({r.params["q"] for r in rows}) == sorted(reports.DEFAULT_Q_VALUES)
    assert len(rows) == 2 * len(reports.DEFAULT_Q_VALUES)
    assert not any(r.passed for r in rows)


def test_haagerup_suite_generates_each_map_once(monkeypatch):
    levels = len(haagerup.ApproximantFamily.default(sp.build_space(parse_spectrum("t1"))).ks)
    calls = []
    generate = haagerup.generate_admissible

    def counted(space, k):
        calls.append((space, k))  # holds the space: ids stay distinct
        return generate(space, k)

    monkeypatch.setattr(haagerup, "generate_admissible", counted)
    run_suite(small_config(monkeypatch, q_values=(0.5, -0.5), spectra=("t1", "t2")), "haagerup")
    assert len(calls) == len({(id(space), k) for space, k in calls}) == 4 * levels


def test_embedding_check_has_teeth(monkeypatch):
    # a source tensor scattered into the second summand is no embedding: the
    # product restricted to the source sub-Fock space no longer matches
    config = small_config(monkeypatch, spectra=("b2",))

    def residual():
        pt = grid_point("b2", 0.5, config.degree, channel=True)
        return max(reports._embed_multiplicativity_residual(pt, np.random.default_rng(43)))

    def second_summand(src_ctx, comb_ctx, xi, degree):
        out = np.zeros(comb_ctx.block_size(degree), dtype=complex)
        out[fock.coordinate_index(comb_ctx.dim, range(src_ctx.dim, comb_ctx.dim), degree)] = \
            np.ravel(xi)
        return out

    bound = TOLERANCES["product"]
    assert residual() <= bound
    monkeypatch.setattr(quantize, "embed_tensor", second_summand)
    assert residual() > bound


@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1"])
def test_functoriality_check_has_teeth(monkeypatch, spectrum):
    # a dilation whose T corner is scaled by 0.9 quantises 0.9 T, and
    # Gamma(0.9 S) Gamma(0.9 T) is not Gamma(0.9 ST)
    def residual(q):
        config = SweepConfig(q_values=(q,), spectra=(spectrum,))
        pt = grid_point(spectrum, q, config.degree, channel=True)
        return max(reports._functoriality(pt, np.random.default_rng(44)))

    dilate = sp.dilate

    def shrunk_corner(src, tgt, T):
        U = dilate(src, tgt, T)
        U[..., src.dim:, :src.dim] *= 0.9
        return U

    bound = TOLERANCES["norm"]
    for q in (0.5, -0.9, 0.9):
        assert residual(q) <= bound
    monkeypatch.setattr(sp, "dilate", shrunk_corner)
    for q in (0.5, -0.9, 0.9):
        assert residual(q) > bound


def _one_draw_dilation_row(pt, rng):
    """The dilation row one contraction at a time, each dilated alone right
    after its draw."""
    space = pt.space
    comb = sp.direct_sum(space, space)
    for _ in range(reports.SAMPLES["dilate"]):
        T = sp.random_contraction(rng, space, space, norm=0.5)
        U = sp.dilate(space, space, T.matrix)
        Uadj = sp.deformed_adjoint(comb, comb, U)
        corner = sp.projection_matrix(space, space) @ U @ sp.inclusion_matrix(space, space)
        yield max(sp._spectral_norm(Uadj @ U - np.eye(comb.dim)),
                  sp._spectral_norm(U @ Uadj - np.eye(comb.dim)),
                  sp._spectral_norm(corner - T.matrix))


@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1", "b2x2"])
def test_stacked_dilation_row_equals_one_draw_dilations(spectrum):
    # the row draws its contractions first, its only draws, and dilates them
    # as one stack: the same residuals, exactly, as the loop it replaced
    for seed in (45, 46):
        pt = grid_point(spectrum, 0.5, SweepConfig().degree, channel=True)
        stacked = list(reports._dilation(pt, np.random.default_rng(seed)))
        assert stacked == list(_one_draw_dilation_row(pt, np.random.default_rng(seed)))
        assert len(stacked) == 20 and max(stacked) <= TOLERANCES["algebraic"]


@pytest.mark.parametrize("defect", ["flipped_target_corner", "shrunk_corner"])
@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1"])
def test_dilation_check_has_teeth(monkeypatch, spectrum, defect):
    # +(1 - T T#)^{1/2} in the target corner breaks unitarity; a T corner
    # scaled by 0.9 breaks it too and misses P U iota = T by 0.05
    def residuals():
        pt = grid_point(spectrum, 0.5, SweepConfig().degree, channel=True)
        return list(reports._dilation(pt, np.random.default_rng(47)))

    dilate = sp.dilate

    def faulty(src, tgt, T):
        U = dilate(src, tgt, T)
        if defect == "flipped_target_corner":
            U[..., src.dim:, src.dim:] *= -1.0
        else:
            U[..., src.dim:, :src.dim] *= 0.9
        return U

    bound = TOLERANCES["algebraic"]
    assert max(residuals()) <= bound
    monkeypatch.setattr(sp, "dilate", faulty)
    assert min(residuals()) > bound


def _one_row_suite(monkeypatch, row, *checks):
    """Records of the wick suite at one grid point, its table replaced by one
    row reporting ``checks`` (each bounded by 4.0)."""
    monkeypatch.setitem(reports._TABLES, "wick", ((row, *((c, 4.0) for c in checks)),))
    return run_suite(small_config(monkeypatch), "wick")


def test_q_commutation_row_skips_the_top_block():
    # the row reads the blocks (n, n), n < N, of a c - q c a; c a composed
    # with the whole a adds (N, N) blocks it never reads, and its peak at
    # (b2+t1, 0.9, N = 5) is then 4.1 MiB
    pt, rng = grid_point("b2+t1", 0.9, 5), np.random.default_rng(0)
    list(reports._q_commutation_residual(pt, rng))  # warm the context's caches
    assert allocation_peak(lambda: list(reports._q_commutation_residual(pt, rng))) < 3.0


def test_run_suite_keeps_each_checks_worst_measurement(monkeypatch):
    def row(pt, rng):
        yield 1.0, 5.0
        yield 3.0, 2.0

    recs = _one_row_suite(monkeypatch, row, "a", "b")
    assert [(r.check, r.residual, r.passed) for r in recs] == [("a", 3.0, True),
                                                               ("b", 5.0, False)]


@pytest.mark.parametrize("yields", [(1e-20, np.nan), (np.nan, 1e-20), (np.inf, np.nan),
                                    ((0.0, 1.0), (np.nan, 2.0))])
def test_run_suite_records_nan_when_any_measurement_is_nan(monkeypatch, yields):
    # max() kept a nan only when it came first: (1e-20, nan) recorded 1e-20
    # and passed
    checks = ("a", "b") if isinstance(yields[0], tuple) else ("a",)
    recs = _one_row_suite(monkeypatch, lambda pt, rng: iter(yields), *checks)
    assert np.isnan(recs[0].residual) and not recs[0].passed
    if len(recs) > 1:
        assert (recs[1].residual, recs[1].passed) == (2.0, True)


@pytest.mark.parametrize("n, counts", [(45, [23, 22]), (100, [20] * 5), (4, [4]),
                                       (61, [21, 20, 20])])
def test_positivity_runs_the_configured_number_of_draws(monkeypatch, n, counts):
    # n // n_channels draws per contraction ran 44 of 45
    drawn, evaluated = [], []
    draws, margins = quantize.positivity_draws, quantize.positivity_margins

    def counted_draws(ctx, rng, n_samples):
        drawn.append(n_samples)
        return draws(ctx, rng, n_samples)

    def counted_margins(ctx, probes):
        result = margins(ctx, probes)
        evaluated.extend(len(ks) for ks, _ in result)
        return result

    monkeypatch.setattr(quantize, "positivity_draws", counted_draws)
    monkeypatch.setattr(quantize, "positivity_margins", counted_margins)
    config = small_config(monkeypatch, spectra=("t1",))
    monkeypatch.setitem(reports.SAMPLES, "kadison_schwarz", n)
    pt = grid_point("t1", 0.5, config.degree, channel=True)
    assert len(list(reports._positivity(pt, np.random.default_rng(0)))) == len(counts)
    assert drawn == evaluated == counts


def test_positivity_probe_minimum_is_nan_when_any_margin_is(monkeypatch):
    # min() over the margins depended on where a nan sat
    ctx = FockContext(sp.build_space(parse_spectrum("t2")), 0.5, 3)
    T = sp.random_jti_contraction(np.random.default_rng(3), ctx.space, ctx.space, norm=0.7)
    margins = quantize.positivity_margins
    for spoiled in (0, -1):
        def with_nan(ctx, probes):
            result = margins(ctx, probes)
            for ks, two_pos in result:
                ks[spoiled] = two_pos[spoiled] = np.nan
            return result

        monkeypatch.setattr(quantize, "positivity_margins", with_nan)
        probe = quantize.positivity_probe(T, ctx, np.random.default_rng(4), 8)
        assert np.isnan(probe["kadison_schwarz_min"]) and np.isnan(probe["two_positivity_min"])


@pytest.mark.parametrize("checks, yields", [
    (("a",), []), (("a", "b"), []), (("a", "b"), [(1.0,)]), (("a", "b"), [(1.0, 2.0, 3.0)]),
    (("a", "b"), [(1.0, 2.0), (1.0,)])])
def test_run_suite_rejects_a_row_that_measures_the_wrong_count(monkeypatch, checks, yields):
    # a row yielding too few values used to drop a check from the report
    with pytest.raises(ValueError):
        _one_row_suite(monkeypatch, lambda pt, rng: iter(yields), *checks)


def test_all_suites_equal_single_suite_runs(monkeypatch):
    cfg = small_config(monkeypatch, q_values=(0.5, -0.5))

    def records(reps):
        return [(r.check, r.params, r.residual, r.bound, r.passed) for r in reps]

    singles = {suite: records(run_suite(cfg, suite)) for suite in reports.SUITES}
    for selection in ("all", ("quantization", "symmetrizer"), ("toeplitz",)):
        names = reports.SUITES if selection == "all" else selection
        assert records(run_suite(cfg, selection)) == [rec for s in names for rec in singles[s]]


# the grid of the row-isolation tests: every suite, two spectra, two q
ISOLATION_GRID = SweepConfig(q_values=(0.5, 0.9), spectra=("t2", "b2"), degree=4, seed=7)


def _records(reps) -> list:
    return [(r.check, r.params, r.residual, r.bound, r.passed) for r in reps]


@pytest.fixture(scope="module")
def isolation_records():
    return _records(run_suite(ISOLATION_GRID))


def test_a_row_that_draws_more_moves_only_its_own_records(monkeypatch, isolation_records):
    # each row has its own generator: one extra draw in the q-commutation row
    # moves its records, and the creation-adjoint row after it keeps its draws
    def extra_draw(pt, rng):
        rng.standard_normal()
        return reports._q_commutation_residual(pt, rng)

    table = tuple((extra_draw if residual is reports._q_commutation_residual else residual,
                   *checks) for residual, *checks in reports._TABLES["symmetrizer"])
    monkeypatch.setitem(reports._TABLES, "symmetrizer", table)
    pairs = list(zip(isolation_records, _records(run_suite(ISOLATION_GRID)), strict=True))
    patched = [(old, new) for old, new in pairs if old[0] == "symmetrizer/q_commutation"]
    assert len(patched) == 4 and all(old != new for old, new in patched)
    assert all(old == new for old, new in pairs if old[0] != "symmetrizer/q_commutation")


def test_a_point_run_alone_reports_its_grid_records(isolation_records):
    # a record depends on the seed and its (check, params) only, not on the
    # grid around its point: one red record reruns alone
    alone = run_suite(dataclasses.replace(ISOLATION_GRID, q_values=(0.9,), spectra=("b2",)))
    assert _records(alone) == [rec for rec in isolation_records
                               if (rec[1]["spectrum"], rec[1]["q"]) == ("b2", 0.9)]


@pytest.fixture(scope="module")
def contexts_by_row():
    """The ``FockContext``s each row calls a method of, by (spectrum, the
    row's first check), with the degree its records report, over every suite
    at t1, b2 and b2+t1 (q = 0.5, N = 5) with the draw counts cut."""
    used, rows = set(), {}

    def recording(method):
        @functools.wraps(method)
        def wrapped(self, *args, **kwargs):
            used.add(self)
            return method(self, *args, **kwargs)
        return wrapped

    measure = reports.VerificationReport.measure

    def closing(check, params, *rest):
        # run_suite measures a row's records right after the row: its first
        # record closes the row's contexts
        if used:
            rows[params["spectrum"], check] = (set(used), params["degree"])
            used.clear()
        return measure(check, params, *rest)

    with pytest.MonkeyPatch.context() as mp:
        small_config(mp)  # cuts the draw counts
        for name, attr in vars(FockContext).items():
            if callable(attr) and not name.startswith("__"):
                mp.setattr(FockContext, name, recording(attr))
        mp.setattr(reports.VerificationReport, "measure", staticmethod(closing))
        run_suite(SweepConfig(q_values=(0.5,), spectra=("t1", "b2", "b2+t1"), degree=5))
    return rows


def test_a_row_measures_on_contexts_of_the_degree_its_records_report(contexts_by_row):
    # b2 and b2+t1 run the quantization suite at channel degree 4 and 3
    first_checks = {checks[0][0] for table in reports._TABLES.values() for _, *checks in table}
    # rows on the base space only, and one that reads the tail row's profiles
    without = {"quantization/dilation", "haagerup/admissible", "haagerup/compactness_profile"}
    for spectrum in ("t1", "b2", "b2+t1"):
        assert {check for s, check in contexts_by_row if s == spectrum} == first_checks - without
    degrees = {(s, check.split("/")[0]): degree
               for (s, check), (_, degree) in contexts_by_row.items()}
    assert degrees["b2", "quantization"] == 4 and degrees["b2+t1", "quantization"] == 3
    for (spectrum, check), (contexts, degree) in contexts_by_row.items():
        assert {ctx.degree for ctx in contexts} == {degree}, (spectrum, check)


def test_the_quantization_suite_shares_the_context_only_at_one_degree(contexts_by_row):
    # on t1 the channel degree is N: one point, so one context serves the
    # symmetrizer and quantization suites; on b2 it is 4 < N
    def source_context(spectrum, check):
        (ctx,) = contexts_by_row[spectrum, check][0]
        return ctx

    for spectrum in ("t1", "b2"):
        sym = source_context(spectrum, "symmetrizer/positivity")
        channel = source_context(spectrum, "quantization/kadison_schwarz")
        assert (channel is sym) == (spectrum == "t1")
        assert sym in contexts_by_row[spectrum, "symmetrizer/q_commutation"][0]
        assert channel in contexts_by_row[spectrum, "quantization/wick_covariance"][0]


def test_check_names_are_unique_across_the_tables():
    # a row's first check names its generator, so no two rows may share one
    names = [check for table in reports._TABLES.values() for _, *checks in table
             for check, _ in checks]
    assert len(set(names)) == len(names)


def test_equal_record_identities_draw_equal_numbers(monkeypatch):
    def draw(pt, rng):
        yield rng.standard_normal()

    monkeypatch.setitem(reports._TABLES, "wick", ((draw, ("draw", 4.0)),))

    def draws(**grid):
        config = SweepConfig(degree=3, seed=7, **grid)
        return {(r.params["spectrum"], r.params["q"]): r.residual
                for r in run_suite(config, "wick")}

    grid = draws(q_values=(0.5, 0.9), spectra=("t2", "b2"))
    other = draws(q_values=(-0.5, 0.9), spectra=("b2", "t1"))
    assert grid[("b2", 0.9)] == other[("b2", 0.9)]
    assert len(set(grid.values())) == 4  # one check at four points: four streams
    # the key is the record as printed, whatever the order of its params
    params = {"spectrum": "b2", "q": 0.9, "degree": 3}
    first = reports._rng(7, "draw", params).standard_normal()
    assert reports._rng(7, "draw", dict(reversed(params.items()))).standard_normal() == first
    for seed, check, changed in ((8, "draw", params), (7, "other", params),
                                 (7, "draw", dict(params, degree=4))):
        assert reports._rng(seed, check, changed).standard_normal() != first


def test_unknown_suite_rejected(monkeypatch):
    for selection in ("nope", ("wick", "nope"), ("wick", "wick"), (), ("all",)):
        with pytest.raises(ValueError):
            run_suite(small_config(monkeypatch), selection)


@pytest.mark.parametrize("name", ["q_values", "spectra"])
def test_empty_grid_rejected(tmp_path, capsys, name):
    # an empty grid would run no check and report success
    with pytest.raises(ValueError, match=repr(name)):
        SweepConfig(**{name: []})
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({name: []}))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(name) in err
    assert not (tmp_path / "x.json").exists()


def test_render_round_trip(tmp_path, monkeypatch):
    reps = run_suite(small_config(monkeypatch), "symmetrizer")
    path = tmp_path / "out.json"
    reports.emit(reps, "json", str(path))
    back = reports.load_reports(str(path))
    assert len(back) == len(reps)
    for orig, loaded in zip(reps, back):
        assert loaded.check == orig.check
        assert loaded.passed == orig.passed
        # 15 significant digits round-trip to within one ulp at that precision
        assert abs(loaded.residual - orig.residual) <= 1e-14 * max(abs(orig.residual), 1.0)
    assert all(r.wall_time == 0.0 for r in back)  # timing excluded by default


def test_render_excludes_timing_by_default(monkeypatch):
    reps = run_suite(small_config(monkeypatch), "symmetrizer")
    text = reports.render(reps, "json")
    assert "wall_time" not in text
    assert "wall_time" in reports.render(reps, "json", include_timing=True)


def test_csv_format(tmp_path, monkeypatch):
    reps = run_suite(small_config(monkeypatch), "symmetrizer")
    path = tmp_path / "out.csv"
    reports.emit(reps, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "check,params,residual,bound,passed"
    assert len(lines) == len(reps) + 1


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "qfock.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_cli_byte_determinism(tmp_path):
    args = ["--suite", "symmetrizer", "--q", "0.5", "--dim-spec", "t2",
            "--degree", "3", "--quiet"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]).returncode == 0
    assert run_cli(args + ["--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_exit_codes(tmp_path):
    ok = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                  "--degree", "3", "--quiet", "--out", str(tmp_path / "ok.json")])
    assert ok.returncode == 0
    # the haagerup suite contains the known-red strong-convergence check
    red = run_cli(["--suite", "haagerup", "--q", "0.0", "--dim-spec", "t1",
                   "--degree", "3", "--quiet", "--out", str(tmp_path / "red.json")])
    assert red.returncode == 1
    bad = run_cli(["--q", "2.0", "--out", str(tmp_path / "x.json")])
    assert bad.returncode == 2
    bad = run_cli(["--q", "0.998", "--out", str(tmp_path / "x.json")])  # C(q) overflows
    assert bad.returncode == 2
    assert bad.stderr.count("\n") == 1 and "q=0.998" in bad.stderr
    # config and IO errors exit 2 with one line on stderr, before any check runs
    for name, config in (("degree", {"degree": "x"}), ("spectra", {"spectra": "b2"}),
                         ("samples", {"samples": {"kadison_shwarz": 5}}),
                         ("tolerances", {"tolerances": {"norm": float("inf")}}),
                         ("q_values", {"q_values": [10**400]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        bad = run_cli(["--config", str(path), "--out", str(tmp_path / "x.json")])
        assert bad.returncode == 2
        assert bad.stderr.count("\n") == 1 and repr(name) in bad.stderr
    for name, flags in (("q_values", ["--q", "0.5", "--q", "0.5"]),
                        ("q_values", ["--q", "0.0", "--q", "-0.0"]),
                        ("spectra", ["--dim-spec", "t2", "--dim-spec", "t2"])):
        bad = run_cli(flags + ["--out", str(tmp_path / "x.json")])
        assert bad.returncode == 2
        assert bad.stderr.count("\n") == 1 and f"{name!r} repeats" in bad.stderr
        assert not (tmp_path / "x.json").exists()
    # b1e308 overflows the metric, and at degree 2 the inverse metric of
    # b1e154 does: an uncaught warning or error there used to exit 1
    strict = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    for spectrum, degree in (("t0", "5"), ("t2+t-1", "5"), ("b1e400", "5"), ("b1e308", "5"),
                             ("b1e154", "2")):
        bad = run_cli(["--dim-spec", spectrum, "--degree", degree,
                       "--out", str(tmp_path / "x.json")], env=strict)
        assert bad.returncode == 2
        assert bad.stderr.count("\n") == 1 and repr(spectrum) in bad.stderr
    missing = tmp_path / "missing" / "x.json"
    bad = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--out", str(missing)])
    assert bad.returncode == 2
    assert bad.stderr.count("\n") == 1 and "does not exist" in bad.stderr
    assert bad.stdout == "" and not missing.parent.exists()


def test_cli_env_out_dir(tmp_path):
    env = dict(os.environ, QFOCK_OUT_DIR=str(tmp_path))
    res = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--quiet"], env=env)
    assert res.returncode == 0
    assert (tmp_path / "reports.json").exists()
    env = dict(os.environ, QFOCK_OUT_DIR=str(tmp_path / "missing"))
    res = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--quiet"], env=env)
    assert res.returncode == 2 and "does not exist" in res.stderr
    assert not (tmp_path / "missing").exists()


def test_cli_summary_lines(tmp_path):
    res = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--out", str(tmp_path / "s.json")])
    assert "PASS symmetrizer/positivity" in res.stdout
    assert "checks passed" in res.stdout


def test_config_file_through_cli(tmp_path):
    cfg = {"q_values": [0.5], "spectra": ["t2"], "degree": 3, "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["--config", str(path), "--suite", "wick", "--quiet",
                   "--out", str(tmp_path / "w.json")])
    assert res.returncode == 0
    payload = json.loads((tmp_path / "w.json").read_text())
    assert all(rec["params"]["q"] == 0.5 for rec in payload["reports"])


def test_public_names_resolve():
    import qfock
    for name in qfock.__all__:
        getattr(qfock, name)


def test_benchmark_layer_names_resolve():
    # a per-layer metric is <module>.<name>.<field>, named as the benchmark's
    # trace names spans: a public function, a class (its constructor), a
    # public method, or Class.method where two share a name; `matmul` is `@`.
    # Two-part names (reports.<suite>_s, trace.*) are the harness's own.
    import inspect
    from pathlib import Path

    import qfock
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

    def resolves(module, name):
        if "." in name:
            cls_name, attr = name.split(".")
            return inspect.isclass(getattr(module, cls_name, None)) \
                and inspect.isfunction(getattr(getattr(module, cls_name), attr, None))
        if name.startswith("_"):
            return False
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            return True
        attr = "__matmul__" if name == "matmul" else name
        return any(inspect.isfunction(vars(cls).get(attr))
                   for cls in vars(module).values()
                   if inspect.isclass(cls) and cls.__module__ == module.__name__)

    layers = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
              if m["name"].count(".") == 2}
    assert layers
    unresolved = sorted(layer for layer in layers
                        if not resolves(getattr(qfock, layer.split(".")[0]),
                                        layer.split(".", 1)[1]))
    assert unresolved == []


def _perfbench_module(name: str):
    """A module of the benchmark harness, loaded from its file without
    putting the harness on the import path."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_are_called_in_a_traced_pass():
    # a layer the benchmark names but the sweep reaches around (a function
    # object bound at import, say) reads 0 in every traced pass
    from pathlib import Path

    import qfock
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    layers = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
              if m["name"].count(".") == 2}
    smoke = _perfbench_module("workloads").WORKLOADS["smoke"]
    with _perfbench_module("layers").LayerTrace(qfock) as tracer:
        run_suite(smoke.config(12345), smoke.suites)
    stats = tracer.stats()
    assert sorted(layer for layer in layers if stats.get(layer, {}).get("calls", 0) == 0) == []


def test_no_cache_pins_a_context(monkeypatch):
    # the module-level caches (c_constant by q, R* partition orders) hold
    # numbers and tuples only: every context dies once its users let go
    refs = []

    class Recorded(FockContext):
        def __init__(self, space, q, degree):
            super().__init__(space, q, degree)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(reports, "FockContext", Recorded)
    run_suite(SweepConfig(q_values=(0.5,), spectra=("t1",), degree=4), "all")
    gc.collect()
    assert len(refs) >= 2 and all(ref() is None for ref in refs)

    space = sp.build_space(parse_spectrum("b2+t1"))
    ctx = FockContext(space, 0.5, 3)
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    refs = [weakref.ref(ctx), weakref.ref(comb_ctx)]
    gen = np.random.default_rng(916)
    assert not ctx.partner_map(2).flags.writeable and not ctx.reverse_map(2).flags.writeable
    fock.c_constant(ctx.q)
    word = wick.wick_word(ctx, gen.standard_normal(9) + 1j * gen.standard_normal(9), 2)
    T = sp.random_jti_contraction(gen, space, space)
    channel = quantize.QuantizationChannel(T, ctx, ctx, comb_ctx)
    channel.apply_word(word)
    quantize.channel_residuals([(T, 2, word.tensor)], ctx, ctx, comb_ctx)
    del ctx, comb_ctx, word, channel
    gc.collect()
    assert all(ref() is None for ref in refs)


def _one_draw_wick_vacuum_row(pt, rng):
    """The wick vacuum row one draw at a time, each residual taken before
    the next draw: the oracle of the grouped row."""
    ctx = pt.ctx
    for _ in range(reports.SAMPLES["wick_vacuum"]):
        n = int(rng.integers(1, min(3, ctx.degree) + 1))
        yield wick.vacuum_residual(ctx, sp._gaussian(rng, ctx.block_size(n)), n)


@pytest.mark.parametrize("spectrum, q", [("t1", -0.95), ("t2", 0.5), ("b2", 0.9), ("b2+t1", 0.3)])
def test_stacked_wick_vacuum_row_equals_one_draw_residuals_bit_for_bit(monkeypatch, spectrum, q):
    # the row draws every (degree, tensor) first, in the order the loop drew
    # them, then takes the draws of each degree as one stack
    def both_routes():
        pt = grid_point(spectrum, q, SweepConfig().degree)
        stacked = list(reports._wick_vacuum(pt, np.random.default_rng(48)))
        return stacked, list(_one_draw_wick_vacuum_row(pt, np.random.default_rng(48)))

    stacked, alone = both_routes()
    assert stacked == alone and len(stacked) == 100
    # every residual is 0.0 by construction, so a residual that reads its
    # draw shows that each value lands at its own draw
    monkeypatch.setattr(wick, "vacuum_residual",
                        lambda ctx, xi, n: fock._per_draw(np.asarray(xi)[..., 0].real + n))
    stacked, alone = both_routes()
    assert stacked == alone and len(set(stacked)) == 100


# the grouped pair rows, by the index of their check in the tables
_PAIR_ROWS = {"symmetrizer/factorization": ("symmetrizer", 1),
              "symmetrizer/rstar_free_norm": ("symmetrizer", 2),
              "symmetrizer/deformed_norm_bounds": ("symmetrizer", 3),
              "symmetrizer/adjoint_pairing": ("symmetrizer", 4),
              "toeplitz/majorisation": ("toeplitz", 5)}


def _scaled_split(stacks):
    """Split stacks with split n = 1, R*_{1,2} in ``splits("rstar", 3)``,
    scaled by 1.01."""
    scaled = [np.array(S) for S in stacks]
    for S in scaled:
        S[1] *= 1.01
    return scaled


@pytest.mark.parametrize("spectrum", ["t1", "t2", "b2", "b2+t1"])
def test_grouped_pair_rows_have_teeth_in_one_pair(monkeypatch, spectrum):
    # R*_{1,2} scaled by 1.01: the rows that test an identity of R* turn red
    # at that pair, and every other pair of its group keeps its value, so a
    # group that mixed up its pairs would show
    config = SweepConfig(q_values=(0.5,), spectra=(spectrum,), degree=4)
    pairs = [(n, p - n) for p in range(config.degree + 1) for n in range(p + 1)]
    bad = pairs.index((1, 2))

    def row_values(perturb):
        pt = grid_point(spectrum, 0.5, config.degree)
        if perturb:
            splits = pt.ctx.splits
            monkeypatch.setattr(pt.ctx, "splits", lambda name, p: (
                _scaled_split(splits(name, p)) if (name, p) == ("rstar", 3) else splits(name, p)))
        values = {}
        for check, (suite, index) in _PAIR_ROWS.items():
            residual, (name, rule) = reports._TABLES[suite][index]
            assert name == check
            values[check] = (list(residual(pt, None)), reports._bound(rule, 0.5))
        return values

    clean, perturbed = row_values(False), row_values(True)
    for check, (values, bound) in perturbed.items():
        assert len(values) == len(pairs)
        assert max(clean[check][0]) <= bound
        assert values[:bad] + values[bad + 1:] == clean[check][0][:bad] + clean[check][0][bad + 1:]
        if check in ("symmetrizer/factorization", "symmetrizer/adjoint_pairing",
                     "toeplitz/majorisation"):
            assert values[bad] > bound


def test_grouped_pair_rows_turn_the_report_red(monkeypatch):
    splits = FockContext.splits

    def perturbed(self, name, p):
        out = splits(self, name, p)
        return _scaled_split(out) if (name, p) == ("rstar", 3) else out

    config = SweepConfig(q_values=(0.5,), spectra=("b2+t1",), degree=4)
    clean = {r.check: r for r in run_suite(config, ("symmetrizer", "toeplitz"))}
    monkeypatch.setattr(FockContext, "splits", perturbed)
    red = {r.check: r for r in run_suite(config, ("symmetrizer", "toeplitz"))}
    for check in ("symmetrizer/factorization", "symmetrizer/adjoint_pairing",
                  "toeplitz/majorisation"):
        assert clean[check].passed and not red[check].passed


def _old_positivity_gap(ctx, rng) -> float:
    """The degree-expectation row's positivity value by its former formula:
    the spectral norm (an SVD) and the smallest Hermitian eigenvalue of the
    gauged blocks of ``E(x^# x)``, for the operator the row draws first."""
    op = reports._random_graded(ctx, rng)
    ex_psd = toeplitz.degree_expectation(op.adjoint() @ op)
    gauged = [fock.gauge_block(ctx, ctx, B, m, n)[None] for (m, n), B in ex_psd.blocks.items()]
    return max(-fock.hermitian_min_eig(gauged), 0.0) / max(fock.stack_norm(gauged), 1.0)


@pytest.mark.parametrize("spectrum", ["t2", "b2", "b2+t1"])
def test_degree_expectation_positivity_equals_its_former_formula(spectrum):
    # the row reads its scale off the eigenvalues it already has; the norm of
    # a Hermitian PSD block is its largest eigenvalue, so the values agree to
    # round-off
    nonzero = 0
    for q in (0.5, -0.9, 0.9):
        for seed in (81, 82, 83):
            pt = grid_point(spectrum, q, SweepConfig().degree)
            value = list(reports._expectation_residual(pt, np.random.default_rng(seed)))[2]
            old = _old_positivity_gap(pt.ctx, np.random.default_rng(seed))
            assert abs(value - old) <= 1e-14 * old, (q, seed)
            nonzero += old > 0.0
    assert nonzero >= 6


def test_degree_expectation_check_has_teeth(monkeypatch):
    # one diagonal block of E(x^# x) negated inside the row, on b2+t1 only:
    # the positivity value turns the b2+t1 record red, and the records of the
    # other spectra keep their values
    config = SweepConfig(q_values=(0.5,), spectra=("t2", "b2", "b2+t1"))
    check = "toeplitz/degree_expectation"
    clean = {r.params["spectrum"]: r for r in run_suite(config, "toeplitz") if r.check == check}
    gap = reports._positivity_gap

    def negated(ctx, blocks):
        if ctx.dim == 3:
            top = max(blocks)
            blocks = {**blocks, top: -blocks[top]}
        return gap(ctx, blocks)

    monkeypatch.setattr(reports, "_positivity_gap", negated)
    red = {r.params["spectrum"]: r for r in run_suite(config, "toeplitz") if r.check == check}
    assert all(rec.passed for rec in clean.values())
    assert not red["b2+t1"].passed and red["b2+t1"].residual > 1e-3
    for spectrum in ("t2", "b2"):
        assert red[spectrum].residual == clean[spectrum].residual
        assert red[spectrum].passed and red[spectrum].bound == clean[spectrum].bound
