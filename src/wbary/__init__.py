"""wbary: p-Wasserstein barycenters, multi-marginal transport, and density bounds.

``import wbary`` loads no submodule: each public name is imported from the
submodule that defines it on first use (PEP 562), so a process pays only for
the layers it runs.  Resolved names are not stored in the package namespace;
every ``wbary.X`` looks the name up in its submodule again.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "core": (
        "BarycenterSolution",
        "CurvatureBlocks",
        "WeightedPointConfig",
        "alpha_exponent",
        "beta_exponent",
        "curvature_blocks",
        "dbary_dxi",
        "el_residual",
        "pbary_points",
        "pbary_solve",
    ),
    "grid": ("GridDensity", "radial_bump", "uniform_ball", "uniform_box"),
    "semidiscrete": (
        "BlowupReport",
        "DiracConfiguration",
        "EigBoundReportPGe2",
        "EigBoundReportPLt2",
        "PushforwardResult",
        "b_forward",
        "b_inverse",
        "blowup_exponent",
        "check_bounds_p_ge2",
        "check_bounds_p_lt2",
        "gbar",
        "grad_b_inverse",
        "grad_b_inverse_eigs",
        "jacobian_det",
        "lq_via_changevar",
        "nonsharp_constant",
        "pushforward_density",
    ),
    "mmot": (
        "CostTensor",
        "DiscreteMeasure",
        "EquivalenceReport",
        "MonotonicityReport",
        "TransportPlan",
        "barycenter_measure",
        "check_cp_monotone",
        "cost_tensor",
        "solve_mmot",
        "verify_c2m_equivalence",
        "wp_distance",
    ),
    "bounds": (
        "GeneralLqReport",
        "InjectivityReport",
        "compute_D",
        "compute_m",
        "constant_maps",
        "general_lq_bound",
        "identity_maps",
        "integrability_bound",
        "local_injectivity_check",
    ),
    "affine": (
        "AffineBarycenterResult",
        "AffineMap",
        "AffineMmotReport",
        "ConcavityReport",
        "PTransformResult",
        "SpectrumVerdict",
        "affine_barycenter",
        "homogeneous_transform_coefficient",
        "p_concavity_check",
        "p_transform",
        "spectrum_optimality",
        "verify_affine_vs_mmot",
    ),
    "errors": (
        "ConvergenceError",
        "GeometryError",
        "InsufficientDataError",
        "SingularBlockError",
        "SingularPointError",
        "StructureError",
        "ValidationError",
        "WbaryError",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return list(__all__)
