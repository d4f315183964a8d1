"""framekit: frame calculus on discretized Gelfand triples.

Keeps the primal space H and its dual H' as distinct typed worlds,
realizes the H^q chain on dyadic grids of the unit interval, and uses the
scaled multilevel hat frame to discretize and solve elliptic operator
equations with level-independent conditioning.
"""

from .errors import (
    DimensionMismatch,
    DomainError,
    FramekitError,
    Inconsistent,
    IncompatiblePairing,
    NoConvergence,
    NotAFrame,
    NotPositiveDefinite,
    SingularOperator,
)
from .frames import (
    DualFrameSpec,
    FrameBounds,
    FrameSpec,
    RieszCheck,
    analysis,
    cross_gramian,
    dual_frame,
    equivalent_inner_product,
    frame_bounds,
    frame_operator_apply,
    frame_operator_matrix,
    min_norm_coefficients,
    reconstruct_dual,
    reconstruct_primal,
    reference_frame,
    riesz_check,
    synthesis,
)
from .multiscale import (
    MultiscaleHierarchy,
    RateReport,
    bernstein_rate,
    bpx_bounds,
    bpx_frame,
    build_hierarchy,
    jackson_rate,
    l2_project,
    norm_equivalence_ratio,
    prolong_to_fine,
    sample_on_fine_grid,
    telescope,
)
from .numerics import (
    PencilSpectrum,
    SymMatrix,
    Tridiagonal,
    cg_solve,
    generalized_eig_pairs,
    generalized_eigs,
    min_norm_solve,
    solve_spd,
)
from .operator_repr import (
    ConditioningStudy,
    GalerkinSolution,
    GramIdentityReport,
    OperatorSpec,
    composition_check,
    conditioning_study,
    direct_solution,
    galerkin_solve,
    gram_identity_check,
    inverse_representation,
    make_operator,
    manufactured_sine_load,
    manufactured_sine_solution,
    matrix_representation,
    operator_from_matrix,
    poisson_operator,
    pseudo_inverse_identity_check,
)
from .spaces import (
    DiscreteGelfandTriple,
    DualVector,
    PrimalVector,
    build_triple,
    dual_norm,
    pairing,
    primal_norm,
    riesz_image,
    riesz_preimage,
    synthetic_triple,
)

__version__ = "0.1.0"
