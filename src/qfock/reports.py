"""Verification orchestration and report records.

``run_suite`` executes the named check suites over a parameter grid and
returns structured records.  Each suite is a table of rows; a row names the
checks it reports, a bound for each, and the residual function that measures
them at one grid point.  Runs are deterministic for a fixed seed: each grid
point derives its generator from (seed, suite index, grid index), rows draw
from it in table order, and the emitters use stable field ordering with
fixed-precision floats.  Wall times are recorded in memory but excluded from
emitted files by default so that identical runs produce byte-identical
reports.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import haagerup, quantize, toeplitz, wick
from . import spaces as sp
from .fock import (FockContext, GradedOperator, GradedVector, _kron, annihilation,
                   blockwise_gap, c_constant, coordinate_index, creation,
                   factorization_residual, gauge_block, hermitian_min_eig, id_embedding_norm,
                   rstar_adjoint_residual, rstar_deformed_norm, rstar_free_norm, stack_norm)
from .spaces import BlockSpectrum, _spectral_norm, build_space

SUITES = ("symmetrizer", "wick", "quantization", "toeplitz", "haagerup")

DEFAULT_Q_VALUES = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)
DEFAULT_SPECTRA = ("t1", "t2", "b2", "b2+t1")

DEFAULT_SAMPLES = {
    "wick_vacuum": 100,
    "covariance": 50,
    "kadison_schwarz": 100,
    "functoriality": 3,
    "dilate": 20,
    "balanced": 3,
    "state_preservation": 8,
}

DEFAULT_TOLERANCES = {
    "exact": 1e-12,
    "algebraic": 1e-10,
    "norm": 1e-8,
    "product": 1e-9,
    "strong": 1e-6,
}


def parse_spectrum(text: str) -> BlockSpectrum:
    """Parse a compact spectrum string: terms joined by '+', each either
    ``t<count>`` (trivial directions) or ``b<lam>[x<mult>]`` (a rotation
    block).  Example: ``b2x2+t1``."""
    blocks, trivial = [], 0
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in spectrum {text!r}")
        if term[0] == "t":
            trivial += int(term[1:])
        elif term[0] == "b":
            body = term[1:]
            if "x" in body:
                lam, mult = body.split("x", 1)
                blocks.append((float(lam), int(mult)))
            else:
                blocks.append((float(body), 1))
        else:
            raise ValueError(f"unknown spectrum term {term!r} (expected t<n> or b<lam>)")
    return BlockSpectrum(blocks, trivial)


def _is_a(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_field(name: str, value, kind, entry, what: str) -> None:
    """Reject a config value that is not a ``kind`` whose entries (or dict
    values) are ``entry``s, naming the field."""
    entries = []
    if entry is not None and isinstance(value, kind):
        entries = value.values() if isinstance(value, dict) else value
    if not _is_a(value, kind) or not all(_is_a(e, entry) for e in entries):
        raise ValueError(f"config field {name!r} must be {what}, got {value!r}")


@dataclass
class SweepConfig:
    q_values: tuple = DEFAULT_Q_VALUES
    spectra: tuple = DEFAULT_SPECTRA
    degree: int = 5
    seed: int = 12345
    samples: dict = field(default_factory=lambda: dict(DEFAULT_SAMPLES))
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        _check_field("q_values", self.q_values, (list, tuple), numbers.Real, "a list of numbers")
        _check_field("spectra", self.spectra, (list, tuple), str, "a list of spectrum strings")
        _check_field("degree", self.degree, numbers.Integral, None, "an integer")
        _check_field("seed", self.seed, numbers.Integral, None, "an integer")
        _check_field("samples", self.samples, dict, numbers.Integral, "an object of integers")
        _check_field("tolerances", self.tolerances, dict, numbers.Real, "an object of numbers")
        for name, given, known in (("samples", self.samples, DEFAULT_SAMPLES),
                                   ("tolerances", self.tolerances, DEFAULT_TOLERANCES)):
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ValueError(f"config field {name!r} has unknown keys {unknown}")
        self.q_values = tuple(float(q) for q in self.q_values)
        for q in self.q_values:
            if not -1.0 < q < 1.0:
                raise ValueError(f"q={q} outside the open interval (-1, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if any(count < 1 for count in self.samples.values()):
            raise ValueError(f"sample counts must be >= 1, got {self.samples!r}")
        self.spectra = tuple(self.spectra)
        for text in self.spectra:
            try:  # fail fast on bad grammar and on values no space realizes
                build_space(parse_spectrum(text))
            except ValueError as exc:
                raise ValueError(f"config field 'spectra': {text!r}: {exc}") from exc
        if not 2 <= self.degree <= 6:
            raise ValueError("truncation degree must be in 2..6")
        samples = dict(DEFAULT_SAMPLES)
        samples.update(self.samples)
        self.samples = samples
        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update(self.tolerances)
        self.tolerances = tolerances

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object")
        known = {"q_values", "spectra", "degree", "seed", "samples", "tolerances"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config fields {sorted(unknown)}")
        return cls(**raw)


@dataclass
class VerificationReport:
    check: str
    params: dict
    residual: float
    bound: float
    passed: bool
    wall_time: float = 0.0

    @classmethod
    def measure(cls, check: str, params: dict, residual: float, bound: float,
                started: float) -> "VerificationReport":
        return cls(check=check, params=params, residual=float(residual),
                   bound=float(bound), passed=bool(residual <= bound),
                   wall_time=time.perf_counter() - started)


def channel_degree(combined_dim: int, requested: int) -> int:
    """Truncation for channel (combined-space) contexts: dense desk scale
    caps the degree as the doubled base dimension grows."""
    if combined_dim <= 2:
        return requested
    if combined_dim <= 4:
        return min(requested, 4)
    return min(requested, 3)


def _subspace_indices(space) -> list:
    """A proper conjugation-invariant subspace when one exists, else everything."""
    return sorted({0, int(space.partner[0])})


def _rng(config: SweepConfig, suite: str, grid_index: int):
    return np.random.default_rng([config.seed, SUITES.index(suite), grid_index])


class _Point:
    """One (spectrum, q) grid point: the owner of its space and Fock
    contexts, each built on first use and dropped with the point.  ``rng`` is
    the generator of the suite running at the point."""

    def __init__(self, config: SweepConfig, spectrum: str, q: float):
        self.config = config
        self.spectrum = spectrum
        self.q = q
        self.rng = None

    @cached_property
    def space(self):
        return build_space(parse_spectrum(self.spectrum))

    @cached_property
    def ctx(self) -> FockContext:
        return FockContext(self.space, self.q, self.config.degree)

    @property
    def channel_degree(self) -> int:
        return channel_degree(2 * self.space.dim, self.config.degree)

    @cached_property
    def channel_ctx(self) -> FockContext:
        """Source context at the channel truncation degree: the main context
        when the degrees agree."""
        n_ch = self.channel_degree
        return self.ctx if n_ch == self.config.degree else FockContext(self.space, self.q, n_ch)

    @cached_property
    def channel_ctxs(self):
        """(src_ctx, comb_ctx) pair at the channel truncation degree."""
        return self.channel_ctx, FockContext(sp.direct_sum(self.space, self.space), self.q,
                                             self.channel_degree)

    @cached_property
    def subspace_ctx(self) -> FockContext:
        """Context over the conjugation-invariant subspace picked by
        ``_subspace_indices``, at the configured degree."""
        sub = toeplitz.subspace(self.space, _subspace_indices(self.space))
        return FockContext(sub, self.q, self.config.degree)


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs(degree: int):
    """Degree pairs (n, k) with n + k <= degree."""
    return [(n, k) for n in range(degree + 1) for k in range(degree + 1 - n)]


# ---------------------------------------------------------------------------
# residual functions of the table rows, each returning one value per check
# ---------------------------------------------------------------------------


def _sym_positivity(pt: _Point) -> float:
    ctx = pt.ctx
    return -min(hermitian_min_eig(ctx.type_stacks(n, ctx.sym(n))) for n in range(ctx.degree + 1))


def _over_pairs(residual):
    """Row function: the largest ``residual(ctx, n, k)`` over degree pairs."""
    return lambda pt: max(residual(pt.ctx, n, k) for n, k in _pairs(pt.config.degree))


def _deformed_norm_excess(ctx: FockContext, n: int, k: int) -> float:
    return max(id_embedding_norm(ctx, n, k), rstar_deformed_norm(ctx, n, k)) \
        - np.sqrt(c_constant(ctx.q))


def _q_commutation_residual(pt: _Point) -> float:
    ctx, rng = pt.ctx, pt.rng
    res = 0.0
    for _ in range(3):
        v = _gaussian(rng, ctx.dim)
        w = _gaussian(rng, ctx.dim)
        comm = annihilation(ctx, v) @ creation(ctx, w) - ctx.q * (
            creation(ctx, w) @ annihilation(ctx, v))
        scalar = sp.deformed_inner(ctx.space, v, w)
        for n in range(ctx.degree):  # safe window: below the truncation cut
            diff = comm.block(n, n) - scalar * np.eye(ctx.block_size(n))
            res = max(res, ctx.block_norm(diff, n, n))
    return res


def _creation_adjoint_residual(pt: _Point) -> float:
    ctx, rng = pt.ctx, pt.rng
    res = 0.0
    for _ in range(3):
        v = _gaussian(rng, ctx.dim)
        res = max(res, creation(ctx, v).adjoint().max_diff(annihilation(ctx, v)))
    return res


def _wick_vacuum(pt: _Point) -> float:
    ctx, rng = pt.ctx, pt.rng
    deg_max = min(3, ctx.degree)
    res = 0.0
    for _ in range(pt.config.samples["wick_vacuum"]):
        n = int(rng.integers(1, deg_max + 1))
        res = max(res, wick.vacuum_residual(ctx, _gaussian(rng, ctx.block_size(n)), n))
    return res


def _wick_self_adjoint(pt: _Point) -> float:
    ctx, rng = pt.ctx, pt.rng
    deg_max = min(3, ctx.degree)
    res = 0.0
    for _ in range(3):
        n = int(rng.integers(1, deg_max + 1))
        xi = _real_wick_tensor(ctx, rng, n)
        res = max(res, wick.self_adjoint_residual(ctx, wick.wick_word(ctx, xi, n)))
    return res


def _wick_linearity(pt: _Point) -> float:
    ctx, rng = pt.ctx, pt.rng
    n = min(2, ctx.degree)
    xi = _gaussian(rng, ctx.block_size(n))
    eta = _gaussian(rng, ctx.block_size(n))
    a, b = complex(rng.standard_normal(), rng.standard_normal()), complex(
        rng.standard_normal(), rng.standard_normal())
    combined = wick.wick_word(ctx, a * xi + b * eta, n).op
    split = a * wick.wick_word(ctx, xi, n).op + b * wick.wick_word(ctx, eta, n).op
    return combined.max_diff(split)


def _real_wick_tensor(ctx: FockContext, rng, n: int) -> np.ndarray:
    """Degree-n tensor fixed by the Wick adjoint involution, so its Wick word
    is self-adjoint."""
    xi = _gaussian(rng, ctx.block_size(n))
    return (xi + wick.adjoint_tensor(ctx, xi, n)) / 2.0


def _dilation(pt: _Point) -> float:
    space, rng = pt.space, pt.rng
    comb = sp.direct_sum(space, space)
    res = 0.0
    for _ in range(pt.config.samples["dilate"]):
        T = sp.random_contraction(rng, space, space, norm=0.5)
        U = sp.dilate(T)
        Uadj = sp.deformed_adjoint(comb, comb, U)
        corner = sp.projection_matrix(space, space) @ U @ sp.inclusion_matrix(space, space)
        res = max(res, _spectral_norm(Uadj @ U - np.eye(comb.dim)),
                  _spectral_norm(U @ Uadj - np.eye(comb.dim)),
                  _spectral_norm(corner - T.matrix))
    return res


def _channel_on_words(pt: _Point):
    """Wick covariance, unitality, vacuum state and GNS residuals of random
    channels, each on one random Wick word."""
    space, rng = pt.space, pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    res_cov = res_unital = res_vac = res_gns = 0.0
    deg_max = max(1, min(2, src_ctx.degree - 1))
    for _ in range(pt.config.samples["covariance"]):
        T = sp.random_jti_contraction(rng, space, space, norm=0.7)
        channel = quantize.QuantizationChannel(T, src_ctx, src_ctx, comb_ctx)
        n = int(rng.integers(1, deg_max + 1))
        word = wick.wick_word(src_ctx, _gaussian(rng, src_ctx.block_size(n)), n)
        image = channel.apply_word(word)
        res_cov = max(res_cov, channel.covariance_residual(word, image))
        res_unital = max(res_unital, channel.unitality_residual())
        res_vac = max(res_vac, channel.vacuum_state_residual([word.op], [image]))
        res_gns = max(res_gns, quantize.gns_residual(channel, word, image))
    return res_cov, res_unital, res_vac, res_gns


def _functoriality(pt: _Point) -> float:
    space, rng = pt.space, pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    n = max(1, min(2, src_ctx.degree - 1))
    res = 0.0
    for _ in range(pt.config.samples["functoriality"]):
        S = sp.random_jti_contraction(rng, space, space, norm=0.8)
        T = sp.random_jti_contraction(rng, space, space, norm=0.8)
        ST = sp.DeformedContraction(space, space, S.matrix @ T.matrix)
        ch_s = quantize.QuantizationChannel(S, src_ctx, src_ctx, comb_ctx)
        ch_t = quantize.QuantizationChannel(T, src_ctx, src_ctx, comb_ctx)
        ch_st = quantize.QuantizationChannel(ST, src_ctx, src_ctx, comb_ctx)
        word = wick.wick_word(src_ctx, _gaussian(rng, src_ctx.block_size(n)), n)
        mid = ch_t.apply_word(word).block(n, 0)[:, 0]  # the degree-n part of W Omega
        lhs = ch_s.apply_word(wick.wick_word(src_ctx, mid, n))
        rhs = ch_st.apply_word(word)
        res = max(res, blockwise_gap(src_ctx, lhs, rhs, range(src_ctx.degree - n + 1)))
    return res


def _positivity(pt: _Point):
    """Negated Kadison-Schwarz and 2-positivity minima of ``Gamma_q(T)`` over
    random contractions, on the source context at the channel degree."""
    space, rng = pt.space, pt.rng
    n_samples = pt.config.samples["kadison_schwarz"]
    n_channels = max(1, n_samples // 20)
    per_channel = max(1, n_samples // n_channels)
    ks_min, tp_min = np.inf, np.inf
    for _ in range(n_channels):
        T = sp.random_jti_contraction(rng, space, space, norm=0.7)
        probe = quantize.positivity_probe(T, pt.channel_ctx, rng, per_channel)
        ks_min = min(ks_min, probe["kadison_schwarz_min"])
        tp_min = min(tp_min, probe["two_positivity_min"])
    return -float(ks_min), -float(tp_min)


def _projection_monomial_residual(pt: _Point) -> float:
    """The displayed conjugation identity for the orthogonal projection onto
    the second summand, checked on random monomials."""
    rng = pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    P = sp.projection_matrix(pt.space, pt.space)
    channel = quantize.conjugation_channel(comb_ctx, src_ctx, P)
    res = 0.0
    for _ in range(3):
        k = int(rng.integers(0, 2))
        m = int(rng.integers(0 if k else 1, 2))
        vs = [_gaussian(rng, comb_ctx.dim) for _ in range(k)]
        wsv = [_gaussian(rng, comb_ctx.dim) for _ in range(m)]
        lhs = channel(toeplitz.monomial(comb_ctx, vs, wsv).op)
        rhs = toeplitz.monomial(src_ctx, [P @ v for v in vs], [P @ w for w in wsv]).op
        res = max(res, blockwise_gap(src_ctx, lhs, rhs, range(src_ctx.degree - k + 1)))
    return res


def _embed_multiplicativity_residual(pt: _Point) -> float:
    rng = pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    deg = 1 if src_ctx.degree < 4 else 2
    # combined-space index of each source basis tensor, per degree
    index = [coordinate_index(comb_ctx.dim, range(src_ctx.dim), n)
             for n in range(comb_ctx.degree + 1)]
    res = 0.0
    for _ in range(2):
        xi = _gaussian(rng, src_ctx.block_size(deg))
        eta = _gaussian(rng, src_ctx.block_size(deg))
        wx = wick.wick_word(src_ctx, xi, deg)
        wy = wick.wick_word(src_ctx, eta, deg)
        ex = quantize.embed_wick(src_ctx, comb_ctx, wx).op
        ey = quantize.embed_wick(src_ctx, comb_ctx, wy).op
        prod_src = wx.op @ wy.op
        prod_emb = ex @ ey
        # the sub-Fock space over the source coordinates is invariant; the
        # embedded product must restrict to the source product there
        for p in range(comb_ctx.degree - 2 * deg + 1):
            for m in range(comb_ctx.degree + 1):
                restricted = prod_emb.block(m, p)[np.ix_(index[m], index[p])]
                res = max(res, src_ctx.block_norm(restricted - prod_src.block(m, p), m, p))
    return res


def _expectation_residual(pt: _Point) -> float:
    ctx = pt.ctx
    op = _random_graded(ctx, pt.rng)
    ex = toeplitz.degree_expectation(op)
    res = toeplitz.degree_expectation(ex).max_diff(ex)  # idempotent
    ident = GradedOperator.identity(ctx)
    res = max(res, toeplitz.degree_expectation(ident).max_diff(ident))  # unital
    psd = op.adjoint() @ op
    ex_psd = toeplitz.degree_expectation(psd)
    # degree-diagonal: each block is gauged once, for its norm and its
    # spectrum; a degree without a block would add eigenvalue 0, clipped below
    gauged = [gauge_block(ctx, ctx, B, m, n)[None] for (m, n), B in ex_psd.blocks.items()]
    scale = max(stack_norm(gauged), 1.0)
    min_eig = hermitian_min_eig(gauged)
    res = max(res, max(-min_eig, 0.0) / scale)  # positive, relative scale
    # vacuum-state compatible
    return max(res, abs(ex.vacuum_expectation() - op.vacuum_expectation()))


def _random_graded(ctx: FockContext, rng) -> GradedOperator:
    blocks = {}
    for _ in range(4):
        m = int(rng.integers(0, ctx.degree + 1))
        n = int(rng.integers(0, ctx.degree + 1))
        blocks[(m, n)] = _gaussian(rng, (ctx.block_size(m), ctx.block_size(n)))
    return GradedOperator(ctx, ctx, blocks)


def _balanced_corners(pt: _Point):
    """Lowest-corner, compression-identity and negated norm-bound margin of
    random balanced elements."""
    ctx, rng = pt.ctx, pt.rng
    res_corner = res_identity = 0.0
    margin_min = np.inf
    for _ in range(pt.config.samples["balanced"]):
        n = int(rng.integers(1, ctx.degree // 2 + 1))  # both legs fit: 2n <= N
        elem = toeplitz.random_balanced(ctx, rng, n)
        res_corner = max(res_corner, toeplitz.low_degree_residual(ctx, elem))
        for k in range(ctx.degree - 2 * n + 1):
            res_identity = max(res_identity,
                               toeplitz.compression_identity_residual(ctx, elem, k))
        margin_min = min(margin_min, toeplitz.norm_bound_margin(ctx, elem))
    return res_corner, res_identity, -float(margin_min)


def _flip_pairing(pt: _Point) -> float:
    ctx, rng = pt.ctx, pt.rng
    n = min(2, ctx.degree // 2)  # the realized element has length 2n
    res = 0.0
    for _ in range(3):
        v = _gaussian(rng, ctx.block_size(n))
        w = _gaussian(rng, ctx.block_size(n))
        e = _gaussian(rng, ctx.block_size(n))
        res = max(res, toeplitz.flip_pairing_residual(ctx, v, w, e, n))
    return res


def _compression_residual(pt: _Point) -> float:
    ctx, rng = pt.ctx, pt.rng
    ctx_small = pt.subspace_ctx
    indices = _subspace_indices(ctx.space)
    res = 0.0
    for _ in range(2):
        vs = [_embedded_vector(ctx, indices, rng) for _ in range(2)]
        x = toeplitz.monomial(ctx, [vs[0]], [vs[1]]).op
        y = toeplitz.monomial(ctx, [vs[1]], []).op
        lhs = toeplitz.compression(ctx, ctx_small, indices, x @ y)
        rhs = toeplitz.compression(ctx, ctx_small, indices, x) @ \
            toeplitz.compression(ctx, ctx_small, indices, y)
        res = max(res, blockwise_gap(ctx_small, lhs, rhs, range(ctx.degree - 1)))
    return res


def _embedded_vector(ctx: FockContext, indices, rng) -> np.ndarray:
    v = np.zeros(ctx.dim, dtype=complex)
    for i in indices:
        v[i] = rng.standard_normal() + 1j * rng.standard_normal()
    return v


def _finkernel_rank(pt: _Point) -> float:
    ctx = pt.ctx
    rank = toeplitz.finkernel_rank(ctx, _subspace_indices(ctx.space),
                                   max_length=min(2, ctx.degree // 2))
    return 0.0 if rank["full_rank"] else 1.0


def _majorisation(pt: _Point) -> float:
    ctx = pt.ctx
    margin = np.inf
    for n, k in _pairs(ctx.degree):
        check = toeplitz.majorisation_check(
            ctx.type_stacks(n + k, ctx.sym(n + k)),
            ctx.type_stacks(n + k, _kron(ctx.sym(n), ctx.sym(k))), ctx.rstar_stacks(n, k))
        if not check["consistent"]:
            margin = -np.inf
        margin = min(margin, check["margin"])
    return -float(margin)


def _admissible(pt: _Point) -> float:
    family = haagerup.ApproximantFamily.default(pt.space)
    return max(max(haagerup.admissible_residuals(pt.space, k).values()) for k in family.ks)


def _tail(pt: _Point):
    """Worst excess of the tail norms over their geometric bound, and the
    q-to-free reduction gap."""
    ctx = pt.ctx
    family = haagerup.ApproximantFamily.default(pt.space)
    margin = -np.inf
    crosscheck = 0.0
    for k in family.ks:
        T = family.base_map(k).matrix
        per_degree = haagerup.degree_norms(ctx, T)
        for t in family.ts:
            for n in range(ctx.degree):
                tail = haagerup.tail_norm(ctx, T, t, n, per_degree=per_degree)
                margin = max(margin, tail - float(np.exp(-t * (n + 1))))
        crosscheck = max(crosscheck, haagerup.free_reduction_crosscheck(
            ctx, T, 1.0, 1, per_degree=per_degree))
    return float(margin), crosscheck


def _strong_convergence(pt: _Point) -> float:
    ctx = pt.ctx
    vectors = [GradedVector.vacuum(ctx)] + \
        [GradedVector.random(ctx, pt.rng) for _ in range(3)]
    sweep = haagerup.strong_convergence_sweep(
        haagerup.ApproximantFamily.default(pt.space), ctx, vectors,
        final_tol=pt.config.tolerances["strong"])
    return 0.0 if (sweep["all_monotone"] and sweep["all_converged"]) else 1.0


def _compactness_profile(pt: _Point) -> float:
    ctx = pt.ctx
    profile = haagerup.compactness_profile(
        ctx, haagerup.ApproximantFamily.default(pt.space).base_map(4).matrix, 0.5,
        ctx.degree - 1)
    return 0.0 if profile["all_within_bound"] else 1.0


def _approximant_state_residual(pt: _Point) -> float:
    space, rng = pt.space, pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    damped = sp.DeformedContraction(
        space, space, np.exp(-0.5) * haagerup.generate_admissible(space, 4).matrix)
    channel = quantize.QuantizationChannel(damped, src_ctx, src_ctx, comb_ctx)
    words = []
    deg_max = max(1, min(2, src_ctx.degree - 1))
    for _ in range(pt.config.samples["state_preservation"]):
        n = int(rng.integers(0, deg_max + 1))
        words.append(wick.wick_word(src_ctx, _gaussian(rng, src_ctx.block_size(n)), n))
    return haagerup.state_preservation_residual(channel, words)


# ---------------------------------------------------------------------------
# check tables and the runner
# ---------------------------------------------------------------------------


def _self_adjoint_bound(tol: dict, q: float) -> float:
    # the degree-N metric is ill-conditioned near |q| = 1
    return tol["algebraic"] if abs(q) <= 0.5 else tol["norm"]


def _free_reduction_bound(tol: dict, q: float) -> float:
    return tol["norm"] if abs(q) <= 0.5 else 1e-6


# Each row is (residual function, (check, bound), ...); the function returns
# one residual per check.  A bound is a tolerance key, a literal, or a rule
# of (tolerances, q).  Rows run in order and draw from the point's generator
# in that order, so reordering rows changes the report.
_TABLES = {
    "symmetrizer": (
        (_sym_positivity, ("symmetrizer/positivity", 0.0)),
        (_over_pairs(factorization_residual), ("symmetrizer/factorization", "algebraic")),
        (_over_pairs(lambda ctx, n, k: rstar_free_norm(ctx, n, k) - c_constant(ctx.q)),
         ("symmetrizer/rstar_free_norm", "norm")),
        (_over_pairs(_deformed_norm_excess), ("symmetrizer/deformed_norm_bounds", "norm")),
        (_over_pairs(rstar_adjoint_residual), ("symmetrizer/adjoint_pairing", "algebraic")),
        (_q_commutation_residual, ("symmetrizer/q_commutation", "algebraic")),
        (_creation_adjoint_residual, ("symmetrizer/creation_adjoint", "algebraic")),
    ),
    "wick": (
        (_wick_vacuum, ("wick/vacuum", "algebraic")),
        (_wick_self_adjoint, ("wick/self_adjoint", _self_adjoint_bound)),
        (_wick_linearity, ("wick/linearity", "exact")),
    ),
    "quantization": (
        (_dilation, ("quantization/dilation", "algebraic")),
        (_channel_on_words, ("quantization/wick_covariance", "norm"),
         ("quantization/unitality", "algebraic"),
         ("quantization/vacuum_state", "algebraic"),
         ("quantization/gns", "norm")),
        (_functoriality, ("quantization/functoriality", "norm")),
        (_positivity, ("quantization/kadison_schwarz", "norm"),
         ("quantization/two_positivity", "norm")),
        (_projection_monomial_residual, ("quantization/projection_monomials", "algebraic")),
        (_embed_multiplicativity_residual,
         ("quantization/embedding_multiplicative", "product")),
    ),
    "toeplitz": (
        (_expectation_residual, ("toeplitz/degree_expectation", "algebraic")),
        (_balanced_corners, ("toeplitz/length_corners", "exact"),
         ("toeplitz/compression_identity", "algebraic"),
         ("toeplitz/norm_bound", "norm")),
        (_flip_pairing, ("toeplitz/flip_pairing", "algebraic")),
        (_compression_residual, ("toeplitz/compression_multiplicative", "product")),
        (_finkernel_rank, ("toeplitz/finkernel_rank", 0.0)),
        (_majorisation, ("toeplitz/majorisation", "algebraic")),
    ),
    "haagerup": (
        (_admissible, ("haagerup/admissible", "exact")),
        (_tail, ("haagerup/tail_bound", "algebraic"),
         ("haagerup/free_reduction", _free_reduction_bound)),
        (_strong_convergence, ("haagerup/strong_convergence", 0.0)),
        (_compactness_profile, ("haagerup/compactness_profile", 0.0)),
        (_approximant_state_residual, ("haagerup/state_preservation", "algebraic")),
    ),
}


def _bound(rule, tol: dict, q: float) -> float:
    if callable(rule):
        return rule(tol, q)
    return tol[rule] if isinstance(rule, str) else rule


def run_suite(config: SweepConfig, suite="all") -> list:
    """Execute the selected suites over the configured grid.

    ``suite`` is one suite name, a tuple of distinct names, or ``"all"`` for
    ``SUITES``.  The grid is walked once, point by point; every selected
    suite runs its table at the point with its own generator, so the point's
    contexts are shared by the suites and freed when the point is done.
    Records are returned suite by suite, in the order named, each suite in
    grid order.  A row that reports several checks gives each of them the
    row's wall time."""
    names = SUITES if suite == "all" else (suite,) if isinstance(suite, str) else tuple(suite)
    if not names or len(set(names)) != len(names) or any(n not in SUITES for n in names):
        raise ValueError(f"unknown suite selection {suite!r}; expected one of "
                         f"{', '.join(SUITES)}, a tuple of distinct ones, or 'all'")
    out = {name: [] for name in names}
    for gi, (spectrum, q) in enumerate(itertools.product(config.spectra, config.q_values)):
        pt = _Point(config, spectrum, q)
        for name in names:
            pt.rng = _rng(config, name, gi)
            # the quantization suite reports the channel truncation degree
            degree = pt.channel_degree if name == "quantization" else config.degree
            params = {"spectrum": spectrum, "q": q, "degree": degree}
            for residual, *checks in _TABLES[name]:
                t0 = time.perf_counter()
                values = residual(pt)
                if len(checks) == 1:
                    values = (values,)
                for (check, rule), value in zip(checks, values):
                    out[name].append(VerificationReport.measure(
                        check, params, value, _bound(rule, config.tolerances, q), t0))
    return [report for name in names for report in out[name]]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _record(report: VerificationReport, include_timing: bool) -> dict:
    rec = {
        "check": report.check,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "residual": _fmt(report.residual),
        "bound": _fmt(report.bound),
        "passed": report.passed,
    }
    if include_timing:
        rec["wall_time"] = _fmt(report.wall_time)
    return rec


def render(reports, fmt: str = "json", include_timing: bool = False) -> str:
    """Render reports as structured text (JSON) or tabular text (CSV)."""
    if fmt == "json":
        payload = {"reports": [_record(r, include_timing) for r in reports]}
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        fields = ["check", "params", "residual", "bound", "passed"]
        if include_timing:
            fields.append("wall_time")
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for r in reports:
            rec = _record(r, include_timing)
            rec["params"] = json.dumps(rec["params"], sort_keys=True)
            rec["passed"] = "true" if rec["passed"] else "false"
            writer.writerow(rec)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'csv'")


def emit(reports, fmt: str, path: str, include_timing: bool = False) -> None:
    text = render(reports, fmt, include_timing)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def load_reports(path: str) -> list:
    """Round-trip parse of an emitted JSON report file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    out = []
    for rec in payload["reports"]:
        out.append(VerificationReport(
            check=rec["check"], params=rec["params"],
            residual=float(rec["residual"]), bound=float(rec["bound"]),
            passed=bool(rec["passed"]),
            wall_time=float(rec.get("wall_time", 0.0))))
    return out


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
