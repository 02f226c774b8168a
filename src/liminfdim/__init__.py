"""Certified construction and measurement of nested shrinking-target sets.

For an increasing integer sequence q_1 < q_2 < ... and a shrinking exponent
tau > 0, the library builds the sets of points whose multiples q_j * x stay
within q_j**-tau of a fixed shift at every level, and estimates their
Hausdorff dimension from both sides: box covers from above, a mass-carrying
nested subdivision from below.  All arithmetic is exact or enclosed between
directed-rounded dyadic bounds, so every reported number is a certified
range.
"""

from .cantor import Ball, CantorTree, HolderCertificate, build_tree
from .config import ExperimentConfig, load_config, parse_config
from .dimension import (
    CoverReport,
    DimensionValue,
    RegimeViolationError,
    SubdivisionCount,
    branching_factors,
    depth_series,
    lower_cantor_count,
    theoretical_dimension,
    upper_cover_count,
    upper_dim_estimate,
)
from .level_sets import (
    ArcList,
    BudgetExceededError,
    CertifiedCount,
    IndeterminateRadiusError,
    LevelParams,
    LevelStats,
    PrefixResult,
    TorusIntervalSet,
    build_level,
    prefix_intersection,
)
from .multiplicative import (
    SquareCover,
    cover_size,
    hyperbolic_cover,
    mult_bounds,
    mult_cost_exponent,
)
from .numerics import (
    DEFAULT_PRECISION,
    DirectedReal,
    Direction,
    Enclosure,
    dir_pow,
    log2_int,
    log_ratio,
)
from .report import parse_rational
from .sequences import (
    AlternatingSpec,
    ContractiveSpec,
    ExplicitSpec,
    ExponentStats,
    GenerationError,
    PowerSpec,
    QSequence,
    RegimeResult,
    RegimeStatus,
    SequenceSpec,
    exponent_stats,
    generate,
    reindex_even,
    validate_regime,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
