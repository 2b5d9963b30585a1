"""Verification orchestration and report records.

``run_suite`` executes the named check suites over a parameter grid and
returns structured records.  Each suite is a table of rows; a row names the
checks it reports, a bound for each, and the residual function that measures
them at one (spectrum, q, degree) grid point, the degree its records report.
Runs are deterministic for a fixed seed: the runner passes each row its own
generator, keyed by the seed and the row's first record (``_rng``), and the
emitters use stable field ordering with fixed-precision floats.  Wall times
are recorded in memory but excluded from emitted files by default so that
identical runs produce byte-identical reports.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import numbers
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import haagerup, quantize, toeplitz, wick
from . import spaces as sp
from .fock import (FockContext, GradedOperator, GradedVector, _hermitian_eigs, _on_inputs,
                   _tensor_powers, annihilation, blockwise_gap, c_constant, check_metric_floor,
                   creation, factorization_residual, gauge_block, hermitian_min_eig,
                   id_embedding_norm, rstar_adjoint_residual, rstar_deformed_norm,
                   rstar_free_norm)
from .spaces import BlockSpectrum, _gaussian, _spectral_norm, build_space

SUITES = ("symmetrizer", "wick", "quantization", "toeplitz", "haagerup")

DEFAULT_Q_VALUES = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)
DEFAULT_SPECTRA = ("t1", "t2", "b2", "b2+t1")

# the published draw counts of the sampled rows and the bounds of the checks
SAMPLES = {
    "wick_vacuum": 100,
    "covariance": 50,
    "kadison_schwarz": 100,
    "functoriality": 3,
    "dilate": 20,
    "balanced": 3,
    "state_preservation": 8,
}

TOLERANCES = {
    "exact": 1e-12,
    "algebraic": 1e-10,
    "norm": 1e-8,
    "product": 1e-9,
    "strong": 1e-6,
}


def parse_spectrum(text: str) -> BlockSpectrum:
    """Parse a compact spectrum string: terms joined by '+', each either
    ``t<count>`` (count >= 1 trivial directions) or ``b<lam>[x<mult>]`` (a
    rotation block).  Example: ``b2x2+t1``."""
    blocks, trivial = [], 0
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in spectrum {text!r}")
        if term[0] == "t":
            if int(term[1:]) < 1:
                raise ValueError(f"trivial count in {term!r} must be >= 1")
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
    """Reject a config value that is not a ``kind`` whose entries are
    ``entry``s, naming the field."""
    entries = value if entry is not None and isinstance(value, kind) else ()
    if not _is_a(value, kind) or not all(_is_a(e, entry) for e in entries):
        raise ValueError(f"config field {name!r} must be {what}, got {value!r}")


@dataclass
class SweepConfig:
    """The grid of a sweep, (spectrum, q) points at one truncation degree,
    and the root seed of its draws.  The draw counts and the bounds of the
    checks are fixed: ``SAMPLES`` and ``TOLERANCES``."""
    q_values: tuple = DEFAULT_Q_VALUES
    spectra: tuple = DEFAULT_SPECTRA
    degree: int = 5
    seed: int = 12345

    def __post_init__(self):
        _check_field("q_values", self.q_values, (list, tuple), numbers.Real, "a list of numbers")
        _check_field("spectra", self.spectra, (list, tuple), str, "a list of spectrum strings")
        _check_field("degree", self.degree, numbers.Integral, None, "an integer")
        _check_field("seed", self.seed, numbers.Integral, None, "an integer")
        for q in self.q_values:  # in range first: float(q) overflows on a huge int
            if not -1.0 < q < 1.0:
                raise ValueError(f"config field 'q_values': q={q} outside the open "
                                 f"interval (-1, 1)")
            c_constant(float(q))  # raises where C(q) overflows
        self.q_values = tuple(float(q) for q in self.q_values)
        self.spectra = tuple(self.spectra)
        for name in ("q_values", "spectra"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"config field {name!r} must not be empty")
            if len(set(values)) < len(values):  # one record identity per grid point
                raise ValueError(f"config field {name!r} repeats a value: {values}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 2 <= self.degree <= 6:
            raise ValueError("truncation degree must be in 2..6")
        for text in self.spectra:
            try:  # fail fast on bad grammar and on values no space or metric realizes
                spectrum = parse_spectrum(text)
                check_metric_floor(spectrum.min_metric, self.degree)
                build_space(spectrum)
            except ValueError as exc:
                raise ValueError(f"config field 'spectra': {text!r}: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object")
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
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


def _rng(seed: int, check: str, params: dict):
    """The generator of the row whose first record is (check, params) as the
    report prints it: a record's draws depend on that and the seed alone."""
    key = json.dumps([check, params], sort_keys=True).encode()
    return np.random.default_rng([seed, int.from_bytes(key, "little")])


class _Point:
    """One (spectrum, q, degree) grid point: the owner of the Fock contexts of
    its space at its degree, its approximant family and its degree profiles,
    each built on first use and dropped with the point."""

    def __init__(self, space: sp.DeformedSpace, q: float, degree: int):
        self.space, self.q, self.degree = space, q, degree

    @cached_property
    def ctx(self) -> FockContext:
        return FockContext(self.space, self.q, self.degree)

    @cached_property
    def comb_ctx(self) -> FockContext:
        """Context over ``space (+) space``, the channels' combined space."""
        return FockContext(sp.direct_sum(self.space, self.space), self.q, self.degree)

    @cached_property
    def family(self) -> haagerup.ApproximantFamily:
        return haagerup.ApproximantFamily.default(self.space)

    @cached_property
    def profiles(self) -> dict:
        """The degree profile ``degree_norms(ctx, T_k)`` of each base map of
        the family, by k."""
        return {k: haagerup.degree_norms(self.ctx, T.matrix) for k, T in self.family.maps.items()}

    @cached_property
    def subspace_ctx(self) -> FockContext:
        """Context over the conjugation-invariant subspace picked by
        ``_subspace_indices``."""
        sub = toeplitz.subspace(self.space, _subspace_indices(self.space))
        return FockContext(sub, self.q, self.degree)


# ---------------------------------------------------------------------------
# residual functions of the table rows, each yielding one value per check
# ---------------------------------------------------------------------------


def _sym_positivity(pt: _Point, rng):
    for n in range(pt.ctx.degree + 1):
        yield -hermitian_min_eig(pt.ctx.stacks("sym", n))


def _over_pairs(residual):
    """Row function: ``residual(ctx, p)`` once per total degree p = 0..N, on
    all its splits (n, p - n) at once, one value per split.  The tables pass
    a library function in a lambda that names it, so the name is looked up
    when the row runs and a rebinding of it (a layer trace) is seen."""
    return lambda pt, rng: itertools.chain.from_iterable(
        residual(pt.ctx, p).tolist() for p in range(pt.degree + 1))


def _deformed_norm_excess(ctx: FockContext, p: int) -> np.ndarray:
    return np.maximum(id_embedding_norm(ctx, p), rstar_deformed_norm(ctx, p)) \
        - np.sqrt(c_constant(ctx.q))


def _q_commutation_residual(pt: _Point, rng):
    ctx = pt.ctx
    for _ in range(3):
        v = _gaussian(rng, ctx.dim)
        w = _gaussian(rng, ctx.dim)
        a, c = annihilation(ctx, v), creation(ctx, w)
        # the blocks (n, n), n < N, of c a need a on input degrees < N only
        a_low = GradedOperator(ctx, ctx, _on_inputs(a.blocks, range(ctx.degree)))
        comm = a @ c - ctx.q * (c @ a_low)
        scalar = sp.deformed_inner(ctx.space, v, w)
        for n in range(ctx.degree):  # safe window: below the truncation cut
            diff = comm.block(n, n) - scalar * np.eye(ctx.block_size(n))
            yield ctx.block_norm(diff, n, n)


def _creation_adjoint_residual(pt: _Point, rng):
    ctx = pt.ctx
    for _ in range(3):
        v = _gaussian(rng, ctx.dim)
        yield creation(ctx, v).adjoint().max_diff(annihilation(ctx, v))


def _wick_vacuum(pt: _Point, rng):
    """Vacuum residuals of random Wick words: every (degree, tensor) draw
    first, then the draws of one degree as one stack."""
    ctx = pt.ctx
    deg_max = min(3, ctx.degree)
    draws = []
    for _ in range(SAMPLES["wick_vacuum"]):
        n = int(rng.integers(1, deg_max + 1))
        draws.append((n, _gaussian(rng, ctx.block_size(n))))
    yield from quantize._grouped(draws, lambda draw: draw[0], lambda group: wick.vacuum_residual(
        ctx, np.stack([xi for _, xi in group]), group[0][0])).tolist()


def _wick_self_adjoint(pt: _Point, rng):
    ctx = pt.ctx
    deg_max = min(3, ctx.degree)
    for _ in range(3):
        n = int(rng.integers(1, deg_max + 1))
        xi = _real_wick_tensor(ctx, rng, n)
        yield wick.self_adjoint_residual(ctx, wick.wick_word(ctx, xi, n))


def _wick_linearity(pt: _Point, rng):
    ctx = pt.ctx
    n = min(2, ctx.degree)
    xi = _gaussian(rng, ctx.block_size(n))
    eta = _gaussian(rng, ctx.block_size(n))
    a, b = complex(_gaussian(rng, ())), complex(_gaussian(rng, ()))
    combined = wick.wick_word(ctx, a * xi + b * eta, n).op
    split = a * wick.wick_word(ctx, xi, n).op + b * wick.wick_word(ctx, eta, n).op
    yield combined.max_diff(split)


def _real_wick_tensor(ctx: FockContext, rng, n: int) -> np.ndarray:
    """Degree-n tensor fixed by the Wick adjoint involution, so its Wick word
    is self-adjoint."""
    xi = _gaussian(rng, ctx.block_size(n))
    return (xi + wick.adjoint_tensor(ctx, xi, n)) / 2.0


def _dilation(pt: _Point, rng):
    """Unitarity and corner residuals of random dilations, as one stack."""
    space = pt.space
    comb = sp.direct_sum(space, space)
    T = np.stack([sp.random_contraction(rng, space, space, norm=0.5).matrix
                  for _ in range(SAMPLES["dilate"])])
    U = sp.dilate(space, space, T)
    Uadj = sp.deformed_adjoint(comb, comb, U)
    corner = sp.projection_matrix(space, space) @ U @ sp.inclusion_matrix(space, space)
    yield from np.max([_spectral_norm(Uadj @ U - np.eye(comb.dim)),
                       _spectral_norm(U @ Uadj - np.eye(comb.dim)),
                       _spectral_norm(corner - T)], axis=0).tolist()


def _channel_on_words(pt: _Point, rng):
    """Wick covariance, unitality, vacuum state and GNS residuals of random
    channels, each on one random Wick word.  The point's contractions, word
    degrees and tensors are all drawn first; the draws of one word degree are
    then one stack (``quantize.channel_residuals``), bit for bit as alone."""
    space, src_ctx, comb_ctx = pt.space, pt.ctx, pt.comb_ctx
    deg_max = max(1, min(2, src_ctx.degree - 1))
    draws = []
    for _ in range(SAMPLES["covariance"]):
        T = sp.random_jti_contraction(rng, space, space, norm=0.7)
        n = int(rng.integers(1, deg_max + 1))
        draws.append((T, n, _gaussian(rng, src_ctx.block_size(n))))
    yield from map(tuple, quantize.channel_residuals(draws, src_ctx, src_ctx, comb_ctx).tolist())


def _functoriality(pt: _Point, rng):
    space, src_ctx, comb_ctx = pt.space, pt.ctx, pt.comb_ctx
    n = max(1, min(2, src_ctx.degree - 1))
    for _ in range(SAMPLES["functoriality"]):
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
        yield blockwise_gap(src_ctx, lhs, rhs, range(src_ctx.degree - n + 1))


def _positivity(pt: _Point, rng):
    """Negated Kadison-Schwarz and 2-positivity minima of ``Gamma_q(T)`` over
    random contractions, on the point's context.  The published number of
    Kadison-Schwarz draws is spread over the contractions; every contraction
    and word is drawn first, in probe order, and the margins of all of them
    are evaluated together, by pattern of word degrees
    (``quantize.positivity_margins``)."""
    space, ctx = pt.space, pt.ctx
    n_samples = SAMPLES["kadison_schwarz"]
    n_channels = max(1, n_samples // 20)
    probes = []
    for i in range(n_channels):
        T = sp.random_jti_contraction(rng, space, space, norm=0.7)
        count = n_samples // n_channels + (i < n_samples % n_channels)
        probes.append((T, quantize.positivity_draws(ctx, rng, count)))
    for ks_margins, two_pos_margins in quantize.positivity_margins(ctx, probes):
        yield -np.min(ks_margins), -np.min(two_pos_margins)


def _projection_monomial_residual(pt: _Point, rng):
    """The displayed conjugation identity for the orthogonal projection onto
    the second summand, checked on random monomials."""
    src_ctx, comb_ctx = pt.ctx, pt.comb_ctx
    P = sp.projection_matrix(pt.space, pt.space)
    channel = quantize.conjugation_channel(comb_ctx, src_ctx, P)
    for _ in range(3):
        k = int(rng.integers(0, 2))
        m = int(rng.integers(0 if k else 1, 2))
        vs = [_gaussian(rng, comb_ctx.dim) for _ in range(k)]
        wsv = [_gaussian(rng, comb_ctx.dim) for _ in range(m)]
        lhs = channel(toeplitz.monomial(comb_ctx, vs, wsv).op)
        rhs = toeplitz.monomial(src_ctx, [P @ v for v in vs], [P @ w for w in wsv]).op
        yield blockwise_gap(src_ctx, lhs, rhs, range(src_ctx.degree - k + 1))


def _embed_multiplicativity_residual(pt: _Point, rng):
    src_ctx, comb_ctx = pt.ctx, pt.comb_ctx
    deg = 1 if src_ctx.degree < 4 else 2
    for _ in range(2):
        xi = _gaussian(rng, src_ctx.block_size(deg))
        eta = _gaussian(rng, src_ctx.block_size(deg))
        wx = wick.wick_word(src_ctx, xi, deg)
        wy = wick.wick_word(src_ctx, eta, deg)
        ex = quantize.embed_wick(src_ctx, comb_ctx, wx).op
        ey = quantize.embed_wick(src_ctx, comb_ctx, wy).op
        # the sub-Fock space over the source coordinates is invariant; the
        # embedded product must restrict to the source product there
        restricted = toeplitz.compression(comb_ctx, src_ctx, range(src_ctx.dim), ex @ ey)
        yield blockwise_gap(src_ctx, restricted, wx.op @ wy.op,
                            range(comb_ctx.degree - 2 * deg + 1))


def _expectation_residual(pt: _Point, rng):
    ctx = pt.ctx
    op = _random_graded(ctx, rng)
    ex = toeplitz.degree_expectation(op)
    yield toeplitz.degree_expectation(ex).max_diff(ex)  # idempotent
    ident = GradedOperator.identity(ctx)
    yield toeplitz.degree_expectation(ident).max_diff(ident)  # unital
    del ident  # not live while the product below builds its blocks
    psd = op.adjoint() @ op
    yield _positivity_gap(ctx, toeplitz.degree_expectation(psd).blocks)  # positive
    yield quantize._vacuum_gaps(op.blocks, ex.blocks)  # vacuum-state compatible


def _positivity_gap(ctx: FockContext, blocks: dict) -> float:
    """Most negative eigenvalue of a degree-diagonal operator, over its largest
    absolute eigenvalue or 1 if that is smaller: ``max(-min, 0) / max(max|eig|,
    1)`` over the eigenvalues of the Hermitian parts of its gauged blocks
    (``gauge_block``), one block and one ``eigvalsh`` at a time.  A degree
    without a block adds eigenvalue 0, clipped below."""
    low, scale = np.inf, 1.0
    for (m, n), B in blocks.items():
        eigs = _hermitian_eigs(gauge_block(ctx, ctx, B, m, n))
        low, scale = min(low, eigs[0]), max(scale, -eigs[0], eigs[-1])
    return float(max(-low, 0.0) / scale)


def _random_graded(ctx: FockContext, rng) -> GradedOperator:
    blocks = {}
    for _ in range(4):
        m = int(rng.integers(0, ctx.degree + 1))
        n = int(rng.integers(0, ctx.degree + 1))
        blocks[(m, n)] = _gaussian(rng, (ctx.block_size(m), ctx.block_size(n)))
    return GradedOperator(ctx, ctx, blocks)


def _balanced_corners(pt: _Point, rng):
    """Lowest-corner, compression-identity and negated norm-bound margin of
    random balanced elements."""
    ctx = pt.ctx
    for _ in range(SAMPLES["balanced"]):
        n = int(rng.integers(1, ctx.degree // 2 + 1))  # both legs fit: 2n <= N
        elem = toeplitz.random_balanced(ctx, rng, n)
        yield (toeplitz.low_degree_residual(ctx, elem),
               max(toeplitz.compression_identity_residual(ctx, elem, k)
                   for k in range(ctx.degree - 2 * n + 1)),
               -toeplitz.norm_bound_margin(ctx, elem))


def _flip_pairing(pt: _Point, rng):
    ctx = pt.ctx
    n = min(2, ctx.degree // 2)  # the realized element has length 2n
    for _ in range(3):
        v = _gaussian(rng, ctx.block_size(n))
        w = _gaussian(rng, ctx.block_size(n))
        e = _gaussian(rng, ctx.block_size(n))
        yield toeplitz.flip_pairing_residual(ctx, v, w, e, n)


def _compression_residual(pt: _Point, rng):
    ctx = pt.ctx
    ctx_small = pt.subspace_ctx
    indices = _subspace_indices(ctx.space)
    for _ in range(2):
        vs = [_embedded_vector(ctx, indices, rng) for _ in range(2)]
        x = toeplitz.monomial(ctx, [vs[0]], [vs[1]]).op
        y = toeplitz.monomial(ctx, [vs[1]], []).op
        lhs = toeplitz.compression(ctx, ctx_small, indices, x @ y)
        rhs = toeplitz.compression(ctx, ctx_small, indices, x) @ \
            toeplitz.compression(ctx, ctx_small, indices, y)
        yield blockwise_gap(ctx_small, lhs, rhs, range(ctx.degree - 1))


def _embedded_vector(ctx: FockContext, indices, rng) -> np.ndarray:
    v = np.zeros(ctx.dim, dtype=complex)
    for i in indices:
        v[i] = _gaussian(rng, ())
    return v


def _finkernel_rank(pt: _Point, rng):
    ctx = pt.ctx
    rank = toeplitz.finkernel_rank(ctx, _subspace_indices(ctx.space),
                                   max_length=min(2, ctx.degree // 2))
    yield 0.0 if rank["full_rank"] else 1.0


def _majorisation(pt: _Point, rng):
    """The majorisation margin at each split (n, p - n), the splits of one
    total degree p as one check; an inconsistent split is red."""
    ctx = pt.ctx
    for p in range(ctx.degree + 1):
        check = toeplitz.majorisation_check(ctx.stacks("sym", p), ctx.splits("sym", p),
                                            ctx.splits("rstar", p))
        yield from np.where(check["consistent"], -check["margin"], np.inf).tolist()


def _admissible(pt: _Point, rng):
    for T in pt.family.maps.values():
        yield from haagerup.admissible_residuals(T).values()


def _tail(pt: _Point, rng):
    """Worst excess of the tail norms over their geometric bound, and the
    relative gap of the degree profile to its closed form ``||T||^d``, of
    each approximant."""
    ts = pt.family.ts
    bounds = haagerup._tail_bounds(ts, pt.ctx.degree)
    for k, T in pt.family.maps.items():
        per_degree = pt.profiles[k]
        yield (float(np.max(haagerup.tail_norms(per_degree, ts) - bounds)),
               haagerup.free_reduction_crosscheck(T, per_degree))


def _strong_convergence(pt: _Point, rng):
    ctx = pt.ctx
    vectors = [GradedVector.vacuum(ctx)] + \
        [GradedVector.random(ctx, rng) for _ in range(3)]
    sweep = haagerup.strong_convergence_sweep(pt.family, ctx, vectors,
                                              final_tol=TOLERANCES["strong"])
    yield 0.0 if (sweep["all_monotone"] and sweep["all_converged"]) else 1.0


def _compactness_profile(pt: _Point, rng):
    profile = haagerup.compactness_profile(pt.profiles[4], 0.5, pt.ctx.degree - 1)
    yield 0.0 if profile["all_within_bound"] else 1.0


def _approximant_state_residual(pt: _Point, rng):
    """Vacuum-state gap of the damped approximant ``Gamma_q(exp(-1/2) T_4)``,
    the intrinsic image on the point's context, over random Wick words."""
    space, ctx = pt.space, pt.ctx
    damped = sp.DeformedContraction(space, space, pt.family.damped_matrix(4, 0.5))
    deg_max = max(1, min(2, ctx.degree - 1))
    # the image of a degree-n word reads the degree-n power only
    quantize._guard([damped], damped.matrix, ctx, ctx)
    powers = GradedOperator(ctx, ctx, _tensor_powers(damped.matrix, deg_max))
    for _ in range(SAMPLES["state_preservation"]):
        n = int(rng.integers(0, deg_max + 1))
        word = wick.wick_word(ctx, _gaussian(rng, ctx.block_size(n)), n, inputs=range(1))
        yield quantize._vacuum_gaps(word.op.blocks,
                                    quantize.intrinsic_image(powers, word.op, range(1)).blocks)


# ---------------------------------------------------------------------------
# check tables and the runner
# ---------------------------------------------------------------------------


def _self_adjoint_bound(q: float) -> float:
    # the degree-N metric is ill-conditioned near |q| = 1
    return TOLERANCES["algebraic"] if abs(q) <= 0.5 else TOLERANCES["norm"]


def _free_reduction_bound(q: float) -> float:
    return TOLERANCES["norm"] if abs(q) <= 0.5 else 1e-6


# Each row is (residual function, (check, bound), ...).  The function yields
# one residual per check (a tuple for several) for each draw, degree, pair or
# map it measures; each check reports the largest, or nan when any is nan
# (``_worst``).  A bound is a key of ``TOLERANCES``, a literal, or a rule of
# q.  A row is called as ``row(pt, rng)``: ``pt`` is the point at the degree
# its records report, and ``rng`` its own generator, named by its first check
# (``_rng``), so check names are unique and rows can be reordered or appended
# without moving another row's records.
_TABLES = {
    "symmetrizer": (
        (_sym_positivity, ("symmetrizer/positivity", 0.0)),
        (_over_pairs(lambda ctx, p: factorization_residual(ctx, p)),
         ("symmetrizer/factorization", "algebraic")),
        (_over_pairs(lambda ctx, p: rstar_free_norm(ctx, p) - c_constant(ctx.q)),
         ("symmetrizer/rstar_free_norm", "norm")),
        (_over_pairs(_deformed_norm_excess), ("symmetrizer/deformed_norm_bounds", "norm")),
        (_over_pairs(lambda ctx, p: rstar_adjoint_residual(ctx, p)),
         ("symmetrizer/adjoint_pairing", "algebraic")),
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


def _bound(rule, q: float) -> float:
    if callable(rule):
        return rule(q)
    return TOLERANCES[rule] if isinstance(rule, str) else rule


def _worst(values) -> float:
    """The largest of a check's residuals, or nan when any is nan: ``max``
    keeps a nan only when it comes first, and a nan residual fails its
    check."""
    return float(np.max(values))


def run_suite(config: SweepConfig, suite="all") -> list:
    """Execute the selected suites over the configured grid.

    ``suite`` is one suite name, a tuple of distinct names, or ``"all"`` for
    ``SUITES``.  The grid is walked once, (spectrum, q) by (spectrum, q):
    the space is built once there, with one ``_Point`` per degree, and every
    selected suite runs its table on the point at the degree it reports (the
    quantization suite at ``channel_degree``), each row with its own
    generator.  So suites at one degree share their contexts, and all are
    freed when the (spectrum, q) is done.  Records are returned suite by
    suite, in the order named, each suite in grid order.  Each check records
    the largest residual its row yields (nan when any is nan) and the row's
    wall time."""
    names = SUITES if suite == "all" else (suite,) if isinstance(suite, str) else tuple(suite)
    if not names or len(set(names)) != len(names) or any(n not in SUITES for n in names):
        raise ValueError(f"unknown suite selection {suite!r}; expected one of "
                         f"{', '.join(SUITES)}, a tuple of distinct ones, or 'all'")
    out = {name: [] for name in names}
    for spectrum, q in itertools.product(config.spectra, config.q_values):
        space, points = build_space(parse_spectrum(spectrum)), {}
        for name in names:
            # the quantization suite runs at the channel truncation degree
            degree = channel_degree(2 * space.dim, config.degree) \
                if name == "quantization" else config.degree
            pt = points.setdefault(degree, _Point(space, q, degree))
            params = {"spectrum": spectrum, "q": q, "degree": degree}
            for residual, *checks in _TABLES[name]:
                rng = _rng(config.seed, checks[0][0], params)
                t0 = time.perf_counter()
                measured = [v if len(checks) > 1 else (v,) for v in residual(pt, rng)]
                if not measured:
                    raise ValueError(f"row of {checks[0][0]} measured nothing")
                for (check, rule), *values in zip(checks, *measured, strict=True):
                    out[name].append(VerificationReport.measure(
                        check, params, _worst(values), _bound(rule, q), t0))
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
    return [VerificationReport(check=rec["check"], params=rec["params"],
                               residual=float(rec["residual"]), bound=float(rec["bound"]),
                               passed=bool(rec["passed"]),
                               wall_time=float(rec.get("wall_time", 0.0)))
            for rec in payload["reports"]]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
