"""Exact-arithmetic toolkit for spectral sets and translational tiles
in prime-field vector spaces F_p^d."""

from .fourier import (
    convolve,
    float_dft,
    plancherel_check,
    zero_set,
)
from .geometry import (
    DirectionStats,
    direction_stats,
    line_sup,
    plane_sup,
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
from .parallel import WorkerError, resolve_workers, run_chunks
from .sets import (
    PointSet,
    QuotientFunction,
    SetFormatError,
    indicator,
    read_set,
    write_set,
)
from .space import (
    Space,
    coords_to_index,
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
