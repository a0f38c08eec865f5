"""branchwiener: branching Wiener process simulation and the Hermite-series
analysis of its particle density.

The pieces, bottom up: exact multi-index combinatorics; heat-calculus
Hermite polynomials H_n(x,t); truncated Gaussian-kernel expansions; bounded
regions with exact moments; a deterministic lineage-keyed particle
simulator; the martingale statistics V_alpha(t)/m^t with their moment
oracles; the order-k density expansion; and a linear-inference scheme that
recovers the expansion coefficients from observed counts.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    PopulationCapError,
    ValidationError,
)
from .multiindex import MultiIndex
from .hermite import hermite_1d, hermite_table
from .kernel_expansion import (
    gauss_kernel,
    truncated_kernel,
    truncation_error_scan,
)
from .regions import Ball, Box, UnionRegion, moment
from .simulator import (
    OffspringLaw,
    SimConfig,
    Snapshot,
    count,
    max_radius,
    read_snapshot_file,
    replay_ids,
    run,
    step,
)
from .martingales import (
    NTable,
    estimate_n,
    l2_increment_diagnostic,
    n0_second_moment,
    n_second_moment,
)
from .expansion import (
    expansion_value,
    expansion_values,
    required_indices,
)
from .inference import (
    DesignSystem,
    Prediction,
    default_sets,
    design_matrix,
    predict,
    predict_all,
    solve_n,
)

__all__ = [
    "__version__",
    "ValidationError",
    "ConditioningError",
    "PopulationCapError",
    "MultiIndex",
    "hermite_1d",
    "hermite_table",
    "gauss_kernel",
    "truncated_kernel",
    "truncation_error_scan",
    "Box",
    "Ball",
    "UnionRegion",
    "moment",
    "OffspringLaw",
    "SimConfig",
    "Snapshot",
    "run",
    "step",
    "count",
    "max_radius",
    "read_snapshot_file",
    "replay_ids",
    "NTable",
    "estimate_n",
    "n0_second_moment",
    "n_second_moment",
    "l2_increment_diagnostic",
    "required_indices",
    "expansion_value",
    "expansion_values",
    "DesignSystem",
    "design_matrix",
    "solve_n",
    "predict",
    "predict_all",
    "Prediction",
    "default_sets",
]
