"""hurwitzkit: exact Hurwitz numbers of Riemann and Klein surfaces.

Engines: partitions and S_d class data, Schur functions in power sums,
irreducible characters, the character-formula cover counts, a brute-force
permutation oracle, truncated generating series with bilinear checks, and
Monte Carlo validation of the matrix-integral identities.
"""
from ._errors import LIMITS, GuardError, ValidationError
from .partitions import (
    Partition,
    conjugate,
    cycle_class_size,
    euler_char_cover,
    partitions_of,
    z_order,
)
from .symfunc import (
    PowerAlphabet,
    PowerSumPoly,
    complete_homogeneous,
    content_product,
    eval_schur,
    pochhammer_lambda,
    schur_poly,
)
from .characters import (
    CharacterTable,
    character,
    character_class_sum,
    character_table,
    colength_sums,
    irrep_dimension,
    normalized_character,
)
from .hurwitz import (
    HurwitzQuery,
    HurwitzResult,
    gluing_identity_holds,
    hurwitz_number,
    hurwitz_value,
    hurwitz_weighted_sum,
)
from .oracle import (
    SurfacePresentation,
    oracle_count,
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
    build_layout,
    cauchy_littlewood_check,
    fold_alphabet,
    hyp_tau_series,
    hypergeometric_series,
    proposition_layout,
    single_branch_point_series,
    unbranched_cover_coefficients,
)
from .hirota import hirota_bilinear_check
from .matrixmc import (
    LEMMA_RELATIONS,
    MCComparison,
    MCEstimate,
    mc_proposition_check,
    mc_schur_moment,
)

from . import characters, genfun, hirota, hurwitz, matrixmc, oracle, partitions, symfunc

__version__ = "0.1.0"


def _memo_caches():
    """(module.function, cache) for every functools cache defined in the package."""
    for module in (partitions, symfunc, characters, hurwitz, oracle, genfun, hirota, matrixmc):
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                yield f"{short}.{name}", obj


def cache_stats() -> dict[str, int]:
    """Entry count of every memo cache in the package, plus the Monte Carlo
    trace slot (0 or 1 kept trace tables), by `module.function` name."""
    stats = {name: cache.cache_info().currsize for name, cache in _memo_caches()}
    stats["matrixmc.trace_slot"] = len(matrixmc._trace_slot)
    return stats


def clear_caches() -> None:
    """Empty every cache `cache_stats` counts."""
    for _, cache in _memo_caches():
        cache.cache_clear()
    matrixmc._trace_slot.clear()
