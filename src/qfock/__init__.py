"""Numerical laboratory for q-deformed Fock spaces over deformed Hilbert spaces."""

from .spaces import (BlockSpectrum, DeformedContraction, DeformedSpace,
                     build_space, deformed_adjoint, deformed_inner,
                     deformed_op_norm, dilate, direct_sum, iti_residual,
                     jti_map, random_contraction, random_jti_contraction,
                     spectral_map)
from .fock import (FockContext, GradedOperator, GradedVector, annihilation,
                   c_constant, creation, factorization_residual,
                   first_quantization, r_star, s_q)
from .wick import WickWord, wick_word
from .quantize import (QuantizationChannel, conjugation_channel, kadison_schwarz_margin,
                       positivity_probe, second_quantization, two_positivity_margin)
from .toeplitz import (LengthElement, compression, compression_identity_residual,
                       degree_expectation, finkernel_rank, majorisation_check,
                       monomial, norm_bound_margin, realize, subspace)
from .haagerup import (ApproximantFamily, admissible_profile,
                       compactness_profile, free_reduction_crosscheck,
                       generate_admissible, strong_convergence_sweep,
                       tail_norm)
from .reports import SweepConfig, VerificationReport, run_suite

__all__ = [
    "BlockSpectrum", "DeformedContraction", "DeformedSpace", "build_space",
    "deformed_adjoint", "deformed_inner", "deformed_op_norm",
    "dilate", "direct_sum", "iti_residual", "jti_map", "random_contraction",
    "random_jti_contraction", "spectral_map",
    "FockContext", "GradedOperator", "GradedVector", "annihilation",
    "c_constant", "creation", "factorization_residual", "first_quantization",
    "r_star", "s_q",
    "WickWord", "wick_word",
    "QuantizationChannel", "conjugation_channel", "kadison_schwarz_margin",
    "positivity_probe", "second_quantization", "two_positivity_margin",
    "LengthElement", "compression", "compression_identity_residual",
    "degree_expectation", "finkernel_rank", "majorisation_check",
    "monomial", "norm_bound_margin", "realize", "subspace",
    "ApproximantFamily", "admissible_profile", "compactness_profile",
    "free_reduction_crosscheck", "generate_admissible",
    "strong_convergence_sweep", "tail_norm",
    "SweepConfig", "VerificationReport", "run_suite",
]
