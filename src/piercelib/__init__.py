"""Exact arithmetic for Pierce expansions: digits, cylinder intervals,
digit-constrained fractal constructions, dimension bound sequences, and
Monte Carlo checks of the classical digit laws."""

__version__ = "0.1.0"

from ._precision import DEFAULT_PRECISION_BITS, PrecisionError, certified_floor, certified_sign
from .dimension import (
    AnalyticDimension,
    DimensionEstimate,
    LimitEstimate,
    RatioPoint,
    analytic_dimension,
    box_ratio_sequence,
    count_log_bounds,
    dimension_bound_sequences,
    estimate_limits,
    find_cover_start,
    gap_ratio_sequence,
    window_cover_bound,
    window_cover_chains,
)
from .expansion import (
    ExpansionResult,
    Word,
    affine_map,
    bump_last,
    digit_product,
    evaluate,
    expand,
    extend,
    first_digit,
    is_admissible,
    shift,
)
from .families import (
    FAMILIES,
    EmptinessResult,
    EnumerationCapError,
    MembershipResult,
    SetSpec,
    count_constrained_words,
    emptiness_check,
    enumerate_constrained_words,
    membership,
)
from .intervals import (
    IntervalExact,
    basic_interval,
    children_length_sum,
    epsilon_n,
    family_basic_interval,
    fundamental_interval,
    gap_interval,
    gap_lower_bound,
    interval_length,
)
from .laws import (
    LIL_BAND_START,
    DigitSampler,
    LawReport,
    child_seed,
    clt_stat,
    ks_distance,
    lil_running_extremes,
    lil_stat,
    lln_stat,
    normal_cdf,
    run_law,
    sample_digits,
)
from .profiles import (
    DEFAULT_WINDOW,
    BoundsProfile,
    GrowthProfile,
    ProfileError,
    ThresholdNotFound,
    affine_profile,
    bounds_from_scale,
    builtin_profiles,
    check_deviation_scale,
    deviation_bounds,
    deviation_profile,
    exp_of_profile,
    exp_of_scaled_profile,
    exponential_profile,
    index_scaled_profile,
    find_threshold,
    lil_profile,
    linear_log_profile,
    log_profile,
    oscillating_ratio_word,
    piecewise_profile,
    power_profile,
    sqrt_profile,
    table_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
