"""plstab: a numerical laboratory for quantitative stability of the
Prekopa-Leindler inequality on uniform grids.

The package measures how far a triple (f, g, h) satisfying the
interpolated pointwise condition is from the equality case, and
constructively rebuilds the log-concave witness predicted by the
stability theory: deficit computation, symmetric decreasing
rearrangement, level-set profiles, concave/convex envelope fitting,
reconstruction with L1 error reports, supporting diagnostics, and a
d-dimensional layer with reduction to one dimension.
"""

from .gridfn import (
    DomainError,
    FormatError,
    GridFunction,
    from_samples,
    l1_distance,
    read_function,
    write_function,
)
from .plcore import (
    AmGmReport,
    ConditionReport,
    DeficitReport,
    PLTriple,
    amgm_stability,
    canonical_triple,
    deficit,
    quadrature_tol,
    sup_convolution,
)
from .rearrange import rearranged_triple, symmetric_decreasing
from .profiles import (
    GoodLevelReport,
    LevelProfile,
    build_bubble,
    extract_profile,
    good_levels,
    level_grid,
    regularize,
)
from .envelope import (
    EnvelopePair,
    ViolationReport,
    four_point_check,
    greatest_convex_minorant,
    least_concave_majorant,
    monotonize,
    three_point_check,
)
from .reconstruct import (
    AlignResult,
    LogConcavityReport,
    PipelineConfig,
    StabilityReport,
    TheoremConstants,
    align,
    from_envelopes,
    is_log_concave,
    log_concave_hull,
    stability_decompose,
)
from .diagnostics import (
    CheckRow,
    check_logconcave_tails,
    check_sup_ratio,
    check_tail_truncation,
    constants_table,
)
from .multidim import (
    DistributionProfile,
    GridFunction2D,
    GridFunctionND,
    ReducedDeficitReport,
    Triple2D,
    distribution,
    multiplicative_to_additive,
    reduced_deficit,
    sup_convolution_2d,
)

__version__ = "0.1.0"
