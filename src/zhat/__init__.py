"""Exact q-series invariants of negative definite plumbed 3-manifolds."""

from .brieskorn import (
    BrieskornData,
    alphas,
    brieskorn_data,
    build_plumbing,
    compute_xi_delta0,
    false_theta,
    hj_continued_fraction,
    leg_determinants,
    solve_seifert_data,
    zhat0_brieskorn,
)
from .compare import (
    ComparisonRow,
    check_mod1_relation,
    counterexample_report,
    d_correction_family,
    generate_table,
    homology_sphere_delta_check,
    sharpness_analysis,
)
from .engine import (
    SpinCRep,
    ZhatResult,
    compute_zhat,
    compute_zhat_all,
    conjugate_spin_c,
    delta_a,
    spin_c_representatives,
    vertex_factor_coefficient,
)
from .errors import (
    ConsistencyError,
    EmptySeries,
    ExcludedTriple,
    FormatError,
    InvalidFraction,
    InvalidTriple,
    NotATree,
    NotNegativeDefinite,
    SingularMatrix,
    ZhatError,
)
from .exact import smith_normal_form
from .plumbing import PlumbingGraph, format_plumb, parse_plumb
from .qseries import QSeries

__version__ = "0.1.0"

__all__ = [
    "BrieskornData",
    "ComparisonRow",
    "ConsistencyError",
    "EmptySeries",
    "ExcludedTriple",
    "FormatError",
    "InvalidFraction",
    "InvalidTriple",
    "NotATree",
    "NotNegativeDefinite",
    "PlumbingGraph",
    "QSeries",
    "SingularMatrix",
    "SpinCRep",
    "ZhatError",
    "ZhatResult",
    "alphas",
    "brieskorn_data",
    "build_plumbing",
    "check_mod1_relation",
    "compute_xi_delta0",
    "compute_zhat",
    "compute_zhat_all",
    "conjugate_spin_c",
    "counterexample_report",
    "d_correction_family",
    "delta_a",
    "false_theta",
    "format_plumb",
    "generate_table",
    "hj_continued_fraction",
    "homology_sphere_delta_check",
    "leg_determinants",
    "parse_plumb",
    "sharpness_analysis",
    "smith_normal_form",
    "solve_seifert_data",
    "spin_c_representatives",
    "vertex_factor_coefficient",
    "zhat0_brieskorn",
]
