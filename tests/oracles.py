"""Independent reference implementations used only by the tests.

Each oracle takes a route the package does not: finite differences instead
of the spectral operator, off-grid synthesis instead of grid samples, or the
direct slope inequality instead of its restated chain.
"""

import numpy as np

from spherecurv.bundles import (
    TANGENT_NORMALIZATION,
    BundleSpec,
    ConformalFactor,
    HoloClass,
    pair_weight_values,
    phi_norm_sq,
)
from spherecurv.cohomology import IsometryAction, pullback_class, pullback_conformal
from spherecurv.geometry import GAUSS_CURVATURE, SphereGrid


def laplacian_local(fn, theta, phi, h: float = 1e-3) -> np.ndarray:
    """High-order finite-difference Laplacian of a callable field.

    ``fn(theta, phi)`` must be evaluable at arbitrary points near the
    targets.  This is the evaluation route for fields with isolated chart
    singularities (log potentials), where the global spectral operator's
    band-limited precondition fails.  Fourth-order central differences in
    both coordinates:

        lap f = 4*pi * [ f_tt + cot(t) f_t + f_pp / sin(t)^2 ].
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)

    def d1(axis_theta):
        if axis_theta:
            samples = [fn(theta + k * h, phi) for k in (-2, -1, 1, 2)]
        else:
            samples = [fn(theta, phi + k * h) for k in (-2, -1, 1, 2)]
        fm2, fm1, fp1, fp2 = samples
        return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)

    def d2(axis_theta):
        if axis_theta:
            samples = [fn(theta + k * h, phi) for k in (-2, -1, 0, 1, 2)]
        else:
            samples = [fn(theta, phi + k * h) for k in (-2, -1, 0, 1, 2)]
        fm2, fm1, f0, fp1, fp2 = samples
        return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)

    f_t = d1(True)
    f_tt = d2(True)
    f_pp = d2(False)
    return GAUSS_CURVATURE * (f_tt + f_t / np.tan(theta) + f_pp / np.sin(theta) ** 2)


def normalized_legendre_stepwise(l_max: int, mu: np.ndarray, _unit_sin: bool = False):
    """The Legendre table one recurrence step at a time, each step forming its own coefficients.

    Same contract as ``geometry._normalized_legendre``, which takes the
    coefficients from a per-l_max cache and fills both diagonals at once; the
    two must agree bit for bit.
    """
    mu = np.asarray(mu, dtype=float)
    s = 1.0 if _unit_sin else np.sqrt(np.maximum(1.0 - mu * mu, 0.0))  # sin(theta) > 0 off the poles
    p = np.zeros((l_max + 1, l_max + 1) + mu.shape)
    p[0, 0] = np.sqrt(0.5)
    for m in range(1, l_max + 1):
        p[m, m] = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * p[m - 1, m - 1]
    for m in range(l_max):
        p[m, m + 1] = np.sqrt(2 * m + 3.0) * mu * p[m, m]
    for l in range(2, l_max + 1):
        # all orders m <= l - 2 at once; a, b broadcast over the trailing mu axes
        m = np.arange(l - 1).reshape((-1,) + (1,) * mu.ndim)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        p[: l - 1, l] = a * (mu * p[: l - 1, l - 1] - b * p[: l - 1, l - 2])
    return p


def log_norm_zeta_callable(u_coeffs, offset: float, spec: BundleSpec, grid: SphereGrid):
    """Closed-form-plus-synthesis callable for ln |zeta|_{H_u} at arbitrary points.

    The log of the canonical-section norm has a chart singularity at the
    north pole, so its Laplacian is taken with :func:`laplacian_local`,
    never the spectral one.
    """
    k = spec.k

    def fn(theta, phi_ang):
        log_h0 = k * np.log(np.sin(np.asarray(theta) / 2.0))
        u_here = grid.evaluate(u_coeffs, np.asarray(theta).ravel(), np.asarray(phi_ang).ravel())
        return log_h0 + u_here.reshape(np.asarray(theta).shape) + offset

    return fn


def phi_norm_sq_at(phi: HoloClass, u: ConformalFactor, grid: SphereGrid, theta, phi_ang) -> np.ndarray:
    """Pointwise squared H_u-norm of the class at arbitrary points."""
    theta = np.asarray(theta, dtype=float)
    phi_ang = np.asarray(phi_ang, dtype=float)
    z = (np.cos(theta / 2) / np.sin(theta / 2)) * np.exp(1j * phi_ang)
    w = (np.sin(theta / 2) / np.cos(theta / 2)) * np.exp(-1j * phi_ang)
    weight = pair_weight_values(phi.a, phi.a, phi.spec.k, z, w).real
    u_here = grid.evaluate(grid.analyze(u.u), theta.ravel(), phi_ang.ravel()).reshape(theta.shape)
    return TANGENT_NORMALIZATION * weight * np.exp(2.0 * (u_here + u.offset))


def norm_equivariance_profile(iso: IsometryAction, phi: HoloClass, u: ConformalFactor, grid: SphereGrid):
    """(constant, relative deviation) of the pulled-back-norm ratio.

    The ratio  |phi|^2_{H_u}(iso(x)) / |iso* phi|^2_{H_{iso* u}}(x)  must be
    a single positive constant over the sphere.
    """
    phi_star = pullback_class(iso, phi)
    u_star = pullback_conformal(iso, u, grid)
    denom = phi_norm_sq(phi_star, u_star, grid)
    TH, PH = np.meshgrid(grid.colat, grid.lon, indexing="ij")
    th2, ph2 = iso.apply_angles(TH, PH)
    numer = phi_norm_sq_at(phi, u, grid, th2, ph2)
    keep = denom > 1e-6 * denom.max()
    ratio = numer[keep] / denom[keep]
    c = float(np.mean(ratio))
    dev = float(np.abs(ratio - c).max() / c)
    return c, dev


def alpha_stable_slope_form(spec: BundleSpec, div_eta: int, alpha: float) -> bool:
    """Direct form max{deg_L1, div+alpha} < mu_alpha; oracle for strata.alpha_stable."""
    mu = (spec.deg_L1 + spec.deg_L2 + alpha) / 2.0
    return max(spec.deg_L1, div_eta + alpha) < mu and alpha < 0
