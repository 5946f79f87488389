"""heightlab: exact twisted heights, slope filtrations and infima search over Q."""

from .exact_reals import FactoredReal
from .places_heights import INF, Place, abs_value, height, vec_norm
from .exterior_algebra import Subspace, orth_complement, subsets_lex, subspace_height_sq, wedge
from .twisted_system import (
    PlaceData,
    TwistedPair,
    ValidationError,
    compose,
    pair_from_json,
    pair_invariants,
    pair_to_json,
    shift_exponents,
    twisted_height,
    validate,
)
from .filtration import (
    FiltrationChain,
    UnsupportedSystemError,
    exceptional_subspace,
    filtration,
    restrict_pair,
    special_case_T,
    weight,
)
from .infima_lab import (
    InfimaEstimate,
    SystemInstance,
    gap_experiment,
    minkowski_check,
    scan_system,
    slope_profile,
    successive_infima,
)
from .bounds_reduction import (
    BoundReport,
    bound_constants,
    cover_list,
    interval_cover,
    reduce_system,
)

__version__ = "0.1.0"
