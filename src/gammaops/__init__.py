"""Operator pairs on the symmetrized bidisc.

Validation, fundamental operators, automorphism transport, characteristic
functions, truncated functional models, and a complete unitary invariant
for pure commuting pairs, plus a JSON command line front end.
"""

__version__ = "0.1.0"

from .exceptions import (
    DimensionMismatch,
    GammaOpsError,
    NotCommuting,
    NotContraction,
    NotHermitian,
    NotIntertwining,
    NotInvertible,
    NotPSD,
    NotPure,
    NumericalContractBreach,
    OutsideLambdaP,
    PairFileError,
    SingularDenominator,
    SingularResolvent,
    TriangularizationFailure,
    TruncationCapExceeded,
)
from .gamma_domain import (
    DiscAutomorphism,
    Region,
    SymPoint,
    classify_point,
    eval_matrix_sym_poly,
    eval_sym_poly,
    mobius_point,
    roots_of_sym_point,
    sup_norm_on_gamma,
    sup_norm_on_gamma_refined,
)
from .gamma_pair import (
    GammaPair,
    PairFlags,
    VnProbeReport,
    is_gamma_unitary,
    random_gamma_unitary,
    random_pure_gamma,
    symmetrized_pair,
    validate,
    vn_probe,
)
from .fundamental import (
    DefectData,
    FundamentalPair,
    check_pf_intertwining,
    defect_pair,
    fstar_defect_identity_residual,
    scalar_fundamental,
    solve_fundamental,
)
from .mobius import (
    TransportResult,
    transport_crosscheck,
    transport_fundamental,
    transport_pair,
)
from .charfn import (
    CoincidenceResult,
    ToeplitzMult,
    coincide_check,
    default_coincidence_grid,
    kernel_identity_residual,
    theta_at,
    theta_coeffs,
    toeplitz_mult,
)
from .model import (
    ModelData,
    auto_truncation,
    embed_w,
    model_operators,
    model_space,
    verify_model,
)
from .invariant import (
    EquivalenceReport,
    ScreenResult,
    SearchResult,
    Witness,
    search_witness,
    trace_word_screen,
    unitarity_defect,
    verify_equivalence,
    witness_from_ambient,
)

__all__ = [
    "__version__",
    "GammaOpsError", "DimensionMismatch", "NotHermitian", "NotPSD",
    "NotCommuting", "NotContraction", "NotPure",
    "SingularDenominator", "SingularResolvent", "NotInvertible",
    "OutsideLambdaP", "TruncationCapExceeded",
    "NotIntertwining", "TriangularizationFailure", "NumericalContractBreach",
    "PairFileError",
    "Region", "SymPoint", "DiscAutomorphism", "roots_of_sym_point",
    "classify_point", "mobius_point", "eval_sym_poly", "eval_matrix_sym_poly",
    "sup_norm_on_gamma", "sup_norm_on_gamma_refined",
    "GammaPair", "PairFlags", "VnProbeReport", "validate",
    "symmetrized_pair", "is_gamma_unitary", "vn_probe",
    "random_pure_gamma", "random_gamma_unitary",
    "DefectData", "FundamentalPair", "defect_pair",
    "solve_fundamental", "check_pf_intertwining",
    "fstar_defect_identity_residual", "scalar_fundamental",
    "TransportResult", "transport_pair", "transport_fundamental",
    "transport_crosscheck",
    "CoincidenceResult", "theta_coeffs", "theta_at",
    "ToeplitzMult", "toeplitz_mult", "kernel_identity_residual",
    "coincide_check", "default_coincidence_grid",
    "ModelData", "auto_truncation", "embed_w", "model_space",
    "model_operators", "verify_model",
    "Witness", "EquivalenceReport", "ScreenResult", "SearchResult",
    "witness_from_ambient", "verify_equivalence",
    "trace_word_screen", "search_witness", "unitarity_defect",
]
