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

import numpy as np

from . import haagerup, quantize, toeplitz, wick
from . import spaces as sp
from .fock import (FockContext, GradedOperator, GradedVector, annihilation,
                   c_constant, creation, factorization_residual, id_embedding_norm,
                   r_star, rstar_adjoint_residual, rstar_deformed_norm, rstar_free_norm)
from .spaces import BlockSpectrum, build_space

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
            parse_spectrum(text)  # fail fast on bad grammar
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


class _Workspace:
    """Shared per-run caches: spaces and Fock contexts keyed by parameters."""

    def __init__(self, config: SweepConfig):
        self.config = config
        self._spaces = {}
        self._ctxs = {}

    def space(self, spectrum: str):
        if spectrum not in self._spaces:
            self._spaces[spectrum] = build_space(parse_spectrum(spectrum))
        return self._spaces[spectrum]

    def ctx(self, spectrum: str, q: float, degree: int) -> FockContext:
        key = (spectrum, q, degree)
        if key not in self._ctxs:
            self._ctxs[key] = FockContext(self.space(spectrum), q, degree)
        return self._ctxs[key]

    def channel_ctxs(self, spectrum: str, q: float):
        """(src_ctx, comb_ctx) pair at the channel truncation degree; source
        and target coincide for same-space channels."""
        space = self.space(spectrum)
        n_ch = channel_degree(2 * space.dim, self.config.degree)
        src = self.ctx(spectrum, q, n_ch)
        key = (spectrum + "(+)self", q, n_ch)
        if key not in self._ctxs:
            comb_space = sp.direct_sum(space, space)
            self._ctxs[key] = FockContext(comb_space, q, n_ch)
        return src, self._ctxs[key]

    def subspace_ctx(self, spectrum: str, q: float) -> FockContext:
        """Context over the conjugation-invariant subspace picked by
        ``_subspace_indices``, at the configured degree."""
        key = f"{spectrum}|sub"
        if key not in self._spaces:
            space = self.space(spectrum)
            self._spaces[key] = toeplitz.subspace(space, _subspace_indices(space))
        return self.ctx(key, q, self.config.degree)


def _subspace_indices(space) -> list:
    """A proper conjugation-invariant subspace when one exists, else everything."""
    return sorted({0, int(space.partner[0])})


def _rng(config: SweepConfig, suite: str, grid_index: int):
    return np.random.default_rng([config.seed, SUITES.index(suite), grid_index])


class _Point:
    """One grid point of a suite: its generator, and the workspace's spaces
    and contexts at this (spectrum, q), built on first use."""

    def __init__(self, ws: _Workspace, spectrum: str, q: float, rng):
        self.ws = ws
        self.config = ws.config
        self.spectrum = spectrum
        self.q = q
        self.rng = rng

    @property
    def space(self):
        return self.ws.space(self.spectrum)

    @property
    def ctx(self) -> FockContext:
        return self.ws.ctx(self.spectrum, self.q, self.config.degree)

    @property
    def channel_ctxs(self):
        return self.ws.channel_ctxs(self.spectrum, self.q)

    @property
    def subspace_ctx(self) -> FockContext:
        return self.ws.subspace_ctx(self.spectrum, self.q)


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
    return -min(float(np.linalg.eigvalsh(ctx.sym(n))[0]) for n in range(ctx.degree + 1))


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
        res = max(res, np.linalg.norm(Uadj @ U - np.eye(comb.dim), ord=2),
                  np.linalg.norm(U @ Uadj - np.eye(comb.dim), ord=2),
                  np.linalg.norm(corner - T.matrix, ord=2))
    return float(res)


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
        mid = ch_t.apply_word(word).apply(GradedVector.vacuum(src_ctx)).blocks[n]
        lhs = ch_s.apply_word(wick.wick_word(src_ctx, mid, n))
        rhs = ch_st.apply_word(word)
        for p in range(src_ctx.degree - n + 1):
            for m in range(src_ctx.degree + 1):
                res = max(res, src_ctx.block_norm(lhs.block(m, p) - rhs.block(m, p), m, p))
    return res


def _positivity(pt: _Point):
    """Negated Kadison-Schwarz and 2-positivity minima over random channels."""
    space, rng = pt.space, pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    n_samples = pt.config.samples["kadison_schwarz"]
    n_channels = max(1, n_samples // 20)
    per_channel = max(1, n_samples // n_channels)
    ks_min, tp_min = np.inf, np.inf
    for _ in range(n_channels):
        T = sp.random_jti_contraction(rng, space, space, norm=0.7)
        channel = quantize.QuantizationChannel(T, src_ctx, src_ctx, comb_ctx)
        probe = quantize.positivity_probe(channel, rng, per_channel, degree_max=1)
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
        for p in range(src_ctx.degree - k + 1):
            for mm in range(src_ctx.degree + 1):
                res = max(res, src_ctx.block_norm(lhs.block(mm, p) - rhs.block(mm, p), mm, p))
    return res


def _embed_multiplicativity_residual(pt: _Point) -> float:
    rng = pt.rng
    src_ctx, comb_ctx = pt.channel_ctxs
    deg = 1 if src_ctx.degree < 4 else 2
    # combined-space index of each source basis tensor, per degree
    index = {n: np.flatnonzero(quantize.embed_tensor(
        src_ctx, comb_ctx, np.ones(src_ctx.block_size(n)), n))
        for n in range(comb_ctx.degree + 1)}
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
    scale = max(ex_psd.op_norm(), 1.0)
    min_eig = np.inf
    for n in range(ctx.degree + 1):
        gauged = ex_psd.to_dense(gauge=True, window=[n])
        min_eig = min(min_eig, float(np.linalg.eigvalsh((gauged + np.conj(gauged).T) / 2.0)[0]))
    res = max(res, max(-min_eig, 0.0) / scale)  # positive, relative scale
    vac = GradedVector.vacuum(ctx)
    lhs = ctx.q_inner(vac.blocks[0], ex.apply(vac).blocks[0], 0)
    rhs = ctx.q_inner(vac.blocks[0], op.apply(vac).blocks[0], 0)
    return max(res, abs(lhs - rhs))  # vacuum-state compatible


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
        for p in range(ctx.degree - 1):
            for m in range(ctx.degree + 1):
                res = max(res, ctx_small.block_norm(lhs.block(m, p) - rhs.block(m, p), m, p))
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
            ctx.sym(n + k), np.kron(ctx.sym(n), ctx.sym(k)), r_star(ctx, n, k))
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


def _run_table(ws: _Workspace, suite: str) -> list:
    """Run one suite's table over the grid.  A row that reports several
    checks gives each of them the row's wall time."""
    cfg = ws.config
    out = []
    for gi, (spectrum, q) in enumerate(itertools.product(cfg.spectra, cfg.q_values)):
        pt = _Point(ws, spectrum, q, _rng(cfg, suite, gi))
        # the quantization suite reports the channel truncation degree
        degree = channel_degree(2 * pt.space.dim, cfg.degree) \
            if suite == "quantization" else cfg.degree
        params = {"spectrum": spectrum, "q": q, "degree": degree}
        for residual, *checks in _TABLES[suite]:
            t0 = time.perf_counter()
            values = residual(pt)
            if len(checks) == 1:
                values = (values,)
            for (check, rule), value in zip(checks, values):
                out.append(VerificationReport.measure(
                    check, params, value, _bound(rule, cfg.tolerances, q), t0))
    return out


def run_suite(config: SweepConfig, suite: str = "all") -> list:
    """Execute the selected suites over the configured grid."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of "
                         f"{', '.join(SUITES)} or 'all'")
    ws = _Workspace(config)
    reports = []
    for name in names:
        reports.extend(_run_table(ws, name))
    return reports


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
