"""hurwitzkit: exact Hurwitz numbers of Riemann and Klein surfaces.

Engines: partitions and S_d class data, Schur functions in power sums,
irreducible characters, the character-formula cover counts, a brute-force
permutation oracle, truncated generating series with bilinear checks, and
Monte Carlo validation of the matrix-integral identities.
"""
from ._errors import GuardError, ValidationError
from .partitions import (
    FrobeniusCoords,
    Partition,
    aut_order,
    colength,
    conjugate,
    cycle_class_size,
    euler_char_cover,
    frobenius,
    partitions_of,
    z_order,
)
from .symfunc import (
    PowerAlphabet,
    PowerSumPoly,
    cauchy_littlewood_check,
    complete_homogeneous,
    conjugation_identity_check,
    content_product,
    eval_schur,
    pochhammer_lambda,
    qt_pochhammer_lambda,
    schur_poly,
)
from .characters import (
    CharacterTable,
    character,
    character_class_sum,
    character_table,
    colength_sum,
    full_cycle_normalized_character,
    hook_character_poly_check,
    hook_length_dimension,
    irrep_dimension,
    normalized_character,
    weighted_colength_sum,
)
from .hurwitz import (
    HurwitzQuery,
    HurwitzResult,
    full_cycle_identity_holds,
    gluing_identity_holds,
    hurwitz_colength_sum,
    hurwitz_down_identity_holds,
    hurwitz_number,
    hurwitz_value,
    hurwitz_weighted_sum,
)
from .oracle import (
    SurfacePresentation,
    oracle_count,
    oracle_count_naive,
    oracle_hurwitz,
    presentation_independence_check,
)
from .genfun import (
    ContentFunction,
    LAYOUT_NAMES,
    PochhammerParam,
    ProfileSeries,
    PropositionLayout,
    SeriesKey,
    fold_alphabet,
    hyp_tau_series,
    hypergeometric_series,
    proposition_layout,
    single_branch_point_series,
    tau_bkp_series,
    tau_tl_series,
    unbranched_cover_coefficients,
)
from .hirota import bkp_tau_poly, g_normalization, hirota_bilinear_check
from .matrixmc import (
    LEMMA_RELATIONS,
    MCComparison,
    MCEstimate,
    mc_proposition_check,
    mc_schur_moment,
    unitarity_residual,
)

__version__ = "0.1.0"
