"""Dual pairing between holomorphic classes and extension classes.

A holomorphic class [phi] pairs with an extension class [eta] through the
wedge coupling; in the monomial basis and its dual this is plain coordinate
contraction.  The metric dual of [phi] under H_u has coordinates

    b_j = 2*pi * integral( z^{j-1} conj(g(z)) (1+|z|^2)^{2-k} e^{2(u+c)} )

against the normalized measure: b = G(u) conj(a), G(u) the Hermitian Gram
matrix of the chart-stable monomials V of :mod:`spherecurv.bundles`, which
:func:`b_coords` contracts without forming, so the quadrature never sees
the pole.  At u = 0 the monomials are orthogonal and G(0) is the diagonal of
Beta values 2*pi B(j, k-j) = 2*pi/((k-1) C(k-2, j-1)): the flat dual, its
inverse, its condition number and the flat mass (:func:`flat_mass`) need no
grid, and this module alone evaluates them.  The same weight normalizes the
dbar solver, one spectral Poisson solve: on the unit-area sphere
lap = 4*pi (1+|z|^2)^2 d_z d_zbar, and since H^{0,1}(P^1) = 0 the Poisson
solution solves the dbar problem exactly.  Its polynomial part
at the north pole is an exact finite sum over the spherical-harmonic
coefficients (the Legendre functions' leading ones); its coefficients are b.

Sphere isometries act on classes through Moebius maps of the chart;
orientation-reversing maps conjugate coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polymul, polypow

from .bundles import TANGENT_NORMALIZATION, BundleSpec, ConformalFactor, HoloClass, _row_tables
from .errors import SpecMismatch, ZeroClass
from .geometry import GAUSS_CURVATURE, SphereGrid


@dataclass(frozen=True)
class DualCoords:
    """Extension-class coordinates b_1..b_{k-1} in the dual monomial basis."""

    spec: BundleSpec
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex)
        if b.shape != (self.spec.k - 1,):
            raise SpecMismatch(f"coordinate vector has length {b.shape}, expected {self.spec.k - 1}")
        object.__setattr__(self, "b", b)
        if not np.any(b):
            raise ZeroClass("extension class must be nonzero")


def projective_angle(x, y) -> float:
    """Fubini-Study angle between projective coordinate vectors.

    Computed through the orthogonal complement (sine form), which resolves
    tiny angles far below the arccos floor of ~sqrt(eps).
    """
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    perp = x / nx - (np.vdot(y, x) / (ny * nx)) * (y / ny)
    return float(np.arcsin(np.clip(np.linalg.norm(perp), 0.0, 1.0)))


# ----------------------------------------------------------------------
# coupling and dualization
# ----------------------------------------------------------------------


def coupling(phi: HoloClass, eta: DualCoords) -> complex:
    """Bilinear pairing; plain contraction because the bases are dual."""
    if phi.spec != eta.spec:
        raise SpecMismatch("coupling requires matching bundle data")
    return complex(np.sum(phi.a * eta.b))


def b_coords(phi: HoloClass, u: ConformalFactor, grid: SphereGrid) -> DualCoords:
    """Coordinates of the H_u-dual of phi (conjugate-linear in phi), contracted in one pass:

    b_i = 2*pi * sum_n V[n, i] q_n e^{2(u+c)} conj((V a)_n), q a full grid's quadrature weights,
    with V = f c e from ``bundles._row_tables``: a product with e^T over longitudes, then a row sum against f c.
    """
    _require_full_grid(grid)
    f, c, e = _row_tables(phi.spec.k, grid)
    g = grid.weights * np.exp(2.0 * grid.field(u.total)) * np.conj(f * ((c * phi.a) @ e))
    return DualCoords(phi.spec, TANGENT_NORMALIZATION * (f * c * (g @ e.T)).sum(axis=0))


def _require_full_grid(grid: SphereGrid):
    """Raise SpecMismatch unless the grid keeps every order: z^i conj(z^j) has order i - j, which a wedge or a step-0 grid aliases."""
    if grid.step != 1:
        raise SpecMismatch(f"the pairing integrands z^i conj(z^j) need a full grid (step 1), got step {grid.step}")


def _flat_diagonal(k: int) -> np.ndarray:
    """G(0) = diag(2*pi / ((k-1) C(k-2, i))), i = 0..k-2: the flat Gram matrix in closed form."""
    return TANGENT_NORMALIZATION / np.array([(k - 1) * math.comb(k - 2, i) for i in range(k - 1)], dtype=float)


def dual_map_H0(phi: HoloClass) -> DualCoords:
    """The flat-metric dual; conjugate-linear bijection on classes."""
    return DualCoords(phi.spec, _flat_diagonal(phi.spec.k) * np.conj(phi.a))


def dual_map_H0_inverse(eta: DualCoords) -> HoloClass:
    return HoloClass(eta.spec, np.conj(eta.b / _flat_diagonal(eta.spec.k)))


def flat_mass(phi: HoloClass) -> float:
    """Flat mass integral(2 |phi|^2_{H_0}) = 2 Re coupling(phi, dual_map_H0(phi)); ValueError unless a positive normal float."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        mass = 2.0 * coupling(phi, dual_map_H0(phi)).real
    if not np.finfo(float).tiny <= mass < math.inf:
        raise ValueError(f"class of max|a| = {np.abs(phi.a).max():.3g} is out of float range: its flat mass is {mass:.3g}")
    return mass


def dualization_condition(spec: BundleSpec) -> float:
    """Condition number of the flat dual map: its largest diagonal entry over its smallest."""
    return float(math.comb(spec.k - 2, (spec.k - 2) // 2))


# ----------------------------------------------------------------------
# isometries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IsometryAction:
    """Unit Moebius pair (alpha, beta): z -> (alpha z + beta)/(-conj(beta) z + conj(alpha)).

    ``reverses=True`` conjugates the argument first (orientation-reversing).
    """

    alpha: complex
    beta: complex
    reverses: bool = False

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {norm:.15f} must be 1")

    @classmethod
    def identity(cls) -> "IsometryAction":
        return cls(1.0 + 0j, 0j)

    @classmethod
    def reflection(cls) -> "IsometryAction":
        """Reflection through the plane of the real meridian: z -> conj(z)."""
        return cls(1.0 + 0j, 0j, reverses=True)


def pullback_class(iso: IsometryAction, phi: HoloClass) -> HoloClass:
    """Class of the pulled-back section; divisors map by iso^{-1}.

    Orientation-preserving: coefficients of
    (-conj(beta) z + conj(alpha))^{k-2} * g(M(z)); reversing composes the
    conjugated coefficients with the conjugated Moebius map.
    """
    k = phi.spec.k
    a = phi.a
    alpha, beta = iso.alpha, iso.beta
    if iso.reverses:
        a = np.conj(a)
        alpha, beta = np.conj(alpha), np.conj(beta)
    num = np.array([beta, alpha])  # alpha z + beta, low-order first
    den = np.array([np.conj(alpha), -np.conj(beta)])
    out = np.zeros(k - 1, dtype=complex)
    for i, coef in enumerate(a):
        if coef == 0:
            continue
        term = coef * polymul(polypow(num, i, maxpower=None), polypow(den, k - 2 - i, maxpower=None))
        out[: len(term)] += term
    return HoloClass(phi.spec, out)


def pullback_dual(iso: IsometryAction, eta: DualCoords) -> DualCoords:
    """Pulled-back extension class, via conjugation with the flat dual map.

    Valid projectively: the flat dual intertwines the two actions up to the
    positive equivariance constant, which cancels on classes.
    """
    return dual_map_H0(pullback_class(iso, dual_map_H0_inverse(eta)))


# ----------------------------------------------------------------------
# dbar solver
# ----------------------------------------------------------------------


@dataclass
class DbarSolution:
    """Solution of the dbar problem sourced by the dual of a class.

    ``f`` vanishes at the north pole; ``p_f`` (low-order-first, degrees
    1..k-1) is the polynomial part of -f at w = 0, read exactly off the
    spherical-harmonic coefficients of f; its coefficients are the
    b-coordinates of the class.  ``report`` carries the residual and
    expansion diagnostics.

    p_f is ill-conditioned in k: its w^j coefficient weights f's degree-l
    entries by 2^j A[j, l], up to 5e11 at j = 11, l = 48.  At l_max 48 its
    error against ``b_coords`` grows from 1.4e-12 (k = 3) to 1e-11..2.5e-9
    (k = 5) and 5e-7..6.2e-6 (k = 10); ``b_coords`` gives the coordinates.
    """

    f: np.ndarray
    p_f: np.ndarray
    f_north: complex
    report: dict


def dbar_solve(phi: HoloClass, u: ConformalFactor, grid: SphereGrid) -> DbarSolution:
    """Solve dbar_z f = rho = -2*pi * conj(g) * |zeta|^2_{H_u} with f(N) = 0.

    One spectral Poisson solve: the right-hand side is analyzed once and f's
    coefficients are reused throughout.
    On the unit-area sphere lap = 4*pi (1+|z|^2)^2 d_z d_zbar, so
    lap f = 4*pi (1+|z|^2)^2 d_z rho  fixes f up to a constant, and
    f(N) = 0 fixes the constant.  Then d_z(d_zbar f - rho) = 0, so
    (d_zbar f - rho) dzbar is an antiholomorphic (0,1)-form on P^1; since
    H^{0,1}(P^1) = 0 it vanishes, and f solves the dbar problem exactly.

    In the w chart rho dzbar vanishes to order w^k at N, so below degree k
    the Taylor expansion of f there is holomorphic, and each coefficient of
    p_f is a finite sum over f's coefficients (``north_taylor``); no fit is
    made.  The right-hand side carries the 2*pi pairing normalization of the
    b-coordinate weights, so p_f reproduces b_coords(phi, u), and needs a full grid too.
    """
    _require_full_grid(grid)
    k = phi.spec.k
    # h = -2*pi * conj(g) (1+|z|^2)^{2-k} e^{2(u+c)}, the pairing weight of 1 and g; smooth through both poles
    f, c, e = _row_tables(k, grid)
    h = -TANGENT_NORMALIZATION * (f * c[:, :1]) * np.conj(f * ((c * phi.a) @ e)) * np.exp(2.0 * grid.field(u.total))
    s = 1.0 / np.sin(grid.colat[:, None] / 2.0) ** 2  # 1+|z|^2 = 1 + cot^2(theta/2), per row
    rho = h / s**2
    # 4*pi s^2 d_z rho, expanded: forming d_z rho and multiplying by s^2
    # would amplify its spectral error by up to |z|^4 near N
    rhs = GAUSS_CURVATURE * (grid.d_dz(grid.analyze(h)) - 2.0 * np.conj(grid.z) * h / s)
    # exact data has mean zero; an under-resolved e^{2u} leaves a quadrature
    # mean, which is projected out and reported instead of failing the solve
    coeffs, rhs_mean = grid.poisson_coeffs(rhs)
    # f(N) and the w^1..w^{k-1} coefficients; the basis function of entry 0
    # is the constant 1, so subtracting f(N) there alone makes f(N) = 0
    shift, taylor = grid.north_taylor(coeffs, k - 1)
    coeffs[0] -= shift
    f_vals = grid.synthesize(coeffs)
    p_f = -taylor

    resid = grid.d_dzbar(coeffs) - rho
    rel_l2 = float(np.sqrt(grid.integrate(np.abs(resid) ** 2).real / grid.integrate(np.abs(rho) ** 2).real))

    # f at N, and the remainder O = f + p_f on two circles: O ~ |w|^k
    radii = np.array([0.2, 0.1])
    angles = 2.0 * np.pi * np.arange(64) / 64
    theta = np.concatenate([[0.0], np.repeat(2.0 * np.arctan(radii), angles.size)])
    lon = np.concatenate([[0.0], np.tile(-angles % (2.0 * np.pi), radii.size)])
    vals = grid.evaluate(coeffs, theta, lon)
    f_north = complex(vals[0])
    w_pts = radii[:, None] * np.exp(1j * angles)
    poly = np.polynomial.polynomial.polyval(w_pts, np.concatenate([[0.0], p_f]))
    o_mag = np.abs(vals[1:].reshape(w_pts.shape) + poly).max(axis=1)
    slope = float(np.log(o_mag[0] / o_mag[1]) / np.log(radii[0] / radii[1]))

    report = {
        "dbar_rel_l2": rel_l2,
        "remainder_slope": slope,
        "rhs_mean": complex(rhs_mean),
    }
    return DbarSolution(f=f_vals, p_f=p_f, f_north=f_north, report=report)
