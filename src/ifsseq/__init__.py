"""Metric space of n-map iterated function systems.

Contractions on box domains with the bounded sup-metric, the permutation
matched distance D between systems, sequence convergence analysis, attractor
and Hausdorff machinery, and collage-theorem fitting with extrapolation.
"""

from .attractor import (
    ConvergenceReport,
    PointSet,
    attractor_convergence_report,
    attractor_points,
    box_seed,
    chaos_game,
    code_point,
    default_resolution,
    directed_distance,
    hausdorff,
    hausdorff_brute,
    hutchinson,
)
from .errors import ContractionError, InputError, PreconditionError, ResourceLimitError
from .maps import (
    AffineMap,
    Box,
    compose,
    dbar_inf,
    dbar_stacks,
    spectral_norm,
    sup_distance,
)
from .sequences import (
    IFSSequence,
    SequenceReport,
    align_chain,
    analyze_sequence,
    cauchy_index,
    converges_to,
    eventually_decreasing_at,
    is_decreasing,
    limit_of_contractions,
    pairwise_distances,
)
from .systems import (
    IFS,
    Permutation,
    big_d,
    cost_links,
    cost_matrix,
    cost_tensor,
    is_minimally_ordered,
    is_mo_set,
    leq,
    matching_brute_force,
    minimal_order,
    optimal_matching,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Box",
    "ContractionError",
    "ConvergenceReport",
    "IFS",
    "IFSSequence",
    "InputError",
    "Permutation",
    "PointSet",
    "PreconditionError",
    "ResourceLimitError",
    "SequenceReport",
    "align_chain",
    "analyze_sequence",
    "attractor_convergence_report",
    "attractor_points",
    "big_d",
    "box_seed",
    "cauchy_index",
    "chaos_game",
    "code_point",
    "compose",
    "converges_to",
    "cost_links",
    "cost_matrix",
    "cost_tensor",
    "dbar_inf",
    "dbar_stacks",
    "default_resolution",
    "directed_distance",
    "eventually_decreasing_at",
    "hausdorff",
    "hausdorff_brute",
    "hutchinson",
    "is_decreasing",
    "is_minimally_ordered",
    "is_mo_set",
    "leq",
    "limit_of_contractions",
    "matching_brute_force",
    "minimal_order",
    "optimal_matching",
    "pairwise_distances",
    "spectral_norm",
    "sup_distance",
    "__version__",
]
