"""Conformal curvature and line-bundle invariants on the unit-area sphere.

Modules
-------
geometry    spectral grid, transforms, Laplacian, Poisson solves
bundles     degrees, canonical-section metrics, norms, divisors
cohomology  dual pairing, coordinate maps, isometry actions, dbar solver
strata      divisor classification of extension classes, existence ranges
pde         Newton-continuation curvature solver and the radial reduction
lab         experiment drivers, curvature families, CSV/JSON emission
"""

from . import bundles, cohomology, errors, geometry, lab, pde, strata
from .bundles import (
    BundleSpec,
    ConformalFactor,
    Divisor,
    HoloClass,
    curvature_scalar,
    degree_by_integration,
    divisor_of,
    phi_norm_sq,
)
from .cohomology import (
    DbarSolution,
    DualCoords,
    IsometryAction,
    b_coords,
    coupling,
    dbar_solve,
    dual_map_H0,
    dual_map_H0_inverse,
    projective_angle,
    pullback_class,
    pullback_dual,
)
from .geometry import ChartPoint, SphereGrid, build_grid
from .lab import ExperimentConfig, RunRecord, gen_family, run_existence_sweep, run_radial_nonexistence
from .pde import RadialProfile, SolveConfig, SolveResult, forward_F, residual, solve_phi_system, solve_radial
from .strata import (
    DivisorReport,
    ExistenceRange,
    RationalCandidate,
    div_classifier,
    existence_range,
    series_of_rational,
)
