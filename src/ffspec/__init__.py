"""Exact-arithmetic toolkit for spectral sets and translational tiles
in prime-field vector spaces F_p^d."""

from .fourier import (
    CharacterSum,
    EquidistProfile,
    character_sum,
    convolve,
    equidist_profile,
    float_dft,
    float_inverse,
    plancherel_check,
    zero_set,
    zero_set_contains,
)
from .geometry import (
    ConcentrationReport,
    DirectionStats,
    concentration,
    direction_stats,
    line_sup,
    no_k_collinear,
    plane_direction_count,
    plane_sup,
    sumset,
    sumset_cd_check,
)
from .lemmas import (
    LemmaReport,
    SweepBudgetError,
    falsify_random,
    verify_fuglede_small,
    verify_lm1,
    verify_lm2,
    verify_proj21,
    verify_slab_p3,
)
from .parallel import resolve_workers, run_chunks
from .sets import (
    PointSet,
    QuotientFunction,
    SetFormatError,
    indicator,
    project_along,
    quotient_basis,
    quotient_cell_index,
    read_set,
    translate,
    write_set,
)
from .space import (
    Direction,
    Point,
    Space,
    Subspace,
    all_directions,
    canonical_form,
    coords_to_index,
    direction_count,
    dot,
    hyperplane_translates,
    index_to_coords,
    orthogonal,
    span,
)
from .spectral import (
    InternalCheckError,
    SearchCertificate,
    allowed_spectral_sizes,
    spectrum_search,
    symmetry_check,
    verify_spectral_pair,
)
from .tiling import tiling_search, verify_tiling_pair

__version__ = "0.1.0"
