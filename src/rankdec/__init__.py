"""Rank-metric coding: Gabidulin and interleaved Gabidulin codes with
right-side Berlekamp-Welch style decoding, exact small-field arithmetic,
seeded channels and brute-force oracles."""

from .errors import (
    DegreeTooLarge,
    DependentEvaluationPoints,
    DependentPoints,
    DimensionTooLarge,
    DivisionByZeroPoly,
    InternalInconsistency,
    InvalidRegime,
    NoneFound,
    NotPrimePower,
    NotUnique,
    RadiusTooLarge,
    RankCodeError,
    RankInfeasible,
    RankMismatch,
    ReducibleModulus,
    TooLarge,
    WrongCount,
)
from .field import (
    FieldCtx,
    Subspace,
    col_support,
    ext,
    field_create,
    kernel_basis,
    rank,
    rank_weight,
    row_support,
    rref,
    solve,
    subspace_elements,
    subspace_from_vectors,
    subspace_perp,
)
from .qpoly import QPoly, co_interpolator, interpolate, right_annihilator, subspace_poly
from .gabidulin import (
    DecodeOutcome,
    GabidulinCode,
    code_from_json,
    code_new,
    code_to_json,
    decode_full,
    decode_general,
    encode,
)
from .interleaved import (
    InterleavedCode,
    effective_equations,
    failure_predicate,
    fqm_rank,
    icode_new,
    idecode,
    iencode,
    iword_from_json,
    iword_to_json,
    max_radius,
    stacked_rank,
)
from .channel import (
    Prng,
    derive_seed,
    random_burst_error,
    random_code,
    random_error_vector,
    random_message,
)
from .oracle import brute_min_distance, brute_nearest, brute_right_annihilator

__version__ = "0.1.0"
