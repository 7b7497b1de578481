"""wbary: p-Wasserstein barycenters, multi-marginal transport, and density bounds."""

from types import ModuleType as _ModuleType

from .core import (
    BarycenterSolution,
    CurvatureBlocks,
    WeightedPointConfig,
    alpha_exponent,
    beta_exponent,
    curvature_blocks,
    dbary_dxi,
    el_residual,
    pbary_points,
    pbary_solve,
)
from .grid import GridDensity, radial_bump, uniform_ball, uniform_box
from .semidiscrete import (
    BlowupReport,
    DiracConfiguration,
    EigBoundReportPGe2,
    EigBoundReportPLt2,
    PushforwardResult,
    b_forward,
    b_inverse,
    blowup_exponent,
    check_bounds_p_ge2,
    check_bounds_p_lt2,
    gbar,
    grad_b_inverse,
    grad_b_inverse_eigs,
    jacobian_det,
    lq_via_changevar,
    nonsharp_constant,
    pushforward_density,
)
from .mmot import (
    CostTensor,
    DiscreteMeasure,
    EquivalenceReport,
    MonotonicityReport,
    TransportPlan,
    barycenter_measure,
    check_cp_monotone,
    cost_tensor,
    solve_mmot,
    verify_c2m_equivalence,
    wp_distance,
)
from .bounds import (
    GeneralLqReport,
    InjectivityReport,
    compute_D,
    compute_m,
    constant_maps,
    general_lq_bound,
    identity_maps,
    integrability_bound,
    local_injectivity_check,
)
from .affine import (
    AffineBarycenterResult,
    AffineMap,
    AffineMmotReport,
    ConcavityReport,
    PTransformResult,
    SpectrumVerdict,
    affine_barycenter,
    homogeneous_transform_coefficient,
    p_concavity_check,
    p_transform,
    spectrum_optimality,
    verify_affine_vs_mmot,
)
from .errors import (
    ConvergenceError,
    GeometryError,
    InsufficientDataError,
    SingularBlockError,
    SingularPointError,
    StructureError,
    ValidationError,
    WbaryError,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
