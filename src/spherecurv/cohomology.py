"""Dual pairing between holomorphic classes and extension classes.

A holomorphic class [phi] pairs with an extension class [eta] through the
wedge coupling; in the monomial basis and its dual this is plain coordinate
contraction.  The metric dual of [phi] under H_u has coordinates

    b_j = 2*pi * integral( z^{j-1} conj(g(z)) (1+|z|^2)^{2-k} e^{2(u+c)} )

against the normalized measure, i.e. b = G(u) conj(a) with one Hermitian
Gram matrix G(u) of the chart-stable monomials of :mod:`spherecurv.bundles`
(:func:`gram`), so the quadrature never sees the pole.  The flat dual, its
inverse and its condition number use G(0).  The same pairing weight
normalizes the dbar solver below.  It is one spectral
Poisson solve: on the unit-area sphere lap = 4*pi (1+|z|^2)^2 d_z d_zbar, and
since H^{0,1}(P^1) = 0 the Poisson solution solves the dbar problem exactly.
The coefficients of its polynomial part at the north pole are exact finite
sums over the spherical-harmonic coefficients (the leading coefficients of
the Legendre functions at the pole), and they land on the b-coordinates.

Sphere isometries act on classes through Moebius maps of the chart;
orientation-reversing maps conjugate coefficients.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bundles import (
    TANGENT_NORMALIZATION,
    BundleSpec,
    ConformalFactor,
    HoloClass,
    chart_monomials,
    pair_weight_h0,
)
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


def gram(spec: BundleSpec, u: ConformalFactor, grid: SphereGrid) -> np.ndarray:
    """Hermitian Gram matrix of the monomials under H_u: b = G @ conj(a).

    G[i, j] = 2*pi * integral( z^i conj(z^j) (1+|z|^2)^{2-k} e^{2(u+c)} ),
    taken on the chart-stable monomial matrix V:
    G = 2*pi * V^T diag(q e^{2(u+c)}) conj(V), q the quadrature weights.
    """
    v = chart_monomials(spec.k, grid.z, grid.w).reshape(-1, spec.k - 1)
    q = (grid.weights * np.exp(2.0 * u.total)).ravel()
    return TANGENT_NORMALIZATION * (v.T * q) @ v.conj()


def b_coords(phi: HoloClass, u: ConformalFactor, grid: SphereGrid) -> DualCoords:
    """Coordinates of the H_u-dual of phi (conjugate-linear in phi)."""
    return DualCoords(phi.spec, gram(phi.spec, u, grid) @ np.conj(phi.a))


def dual_map_H0(phi: HoloClass, grid: SphereGrid) -> DualCoords:
    """The flat-metric dual; conjugate-linear bijection on classes."""
    return DualCoords(phi.spec, gram(phi.spec, ConformalFactor.zero(grid), grid) @ np.conj(phi.a))


def dual_map_H0_inverse(eta: DualCoords, grid: SphereGrid) -> HoloClass:
    g0 = gram(eta.spec, ConformalFactor.zero(grid), grid)
    return HoloClass(eta.spec, np.conj(np.linalg.solve(g0, eta.b)))


def dualization_condition(spec: BundleSpec, grid: SphereGrid) -> float:
    """Condition number of the flat Gram matrix, the H_0 dualization map."""
    return float(np.linalg.cond(gram(spec, ConformalFactor.zero(grid), grid)))


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
    def rotation_about_axis(cls, angle: float) -> "IsometryAction":
        """Rotation about the polar axis: z -> e^{i angle} z."""
        return cls(cmath.exp(0.5j * angle), 0j)

    @classmethod
    def random_rotation(cls, rng) -> "IsometryAction":
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        return cls(complex(q[0], q[1]), complex(q[2], q[3]))

    @classmethod
    def reflection(cls) -> "IsometryAction":
        """Reflection through the plane of the real meridian: z -> conj(z)."""
        return cls(1.0 + 0j, 0j, reverses=True)

    def apply_z(self, z):
        z = np.conj(z) if self.reverses else np.asarray(z, dtype=complex)
        return (self.alpha * z + self.beta) / (-np.conj(self.beta) * z + np.conj(self.alpha))

    def apply_angles(self, theta, phi):
        """Image of points given in (colatitude, longitude); pole-safe."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        z = (np.cos(theta / 2) / np.sin(theta / 2)) * np.exp(1j * phi)
        if self.reverses:
            z = np.conj(z)
        num = self.alpha * z + self.beta
        den = -np.conj(self.beta) * z + np.conj(self.alpha)
        theta_new = 2.0 * np.arctan2(np.abs(den), np.abs(num))
        phi_new = np.angle(num * np.conj(den)) % (2.0 * np.pi)
        return theta_new, phi_new

    def compose(self, other: "IsometryAction") -> "IsometryAction":
        """Point map x -> self(other(x))."""
        a2, b2 = other.alpha, other.beta
        if self.reverses:
            a2, b2 = np.conj(a2), np.conj(b2)
        alpha = self.alpha * a2 - self.beta * np.conj(b2)
        beta = self.alpha * b2 + self.beta * np.conj(a2)
        return IsometryAction(complex(alpha), complex(beta), self.reverses ^ other.reverses)


def _poly_mul(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _poly_pow(p, n):
    out = np.array([1.0 + 0j])
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


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
        term = coef * _poly_mul(_poly_pow(num, i), _poly_pow(den, k - 2 - i))
        out[: len(term)] += term
    return HoloClass(phi.spec, out)


def pullback_dual(iso: IsometryAction, eta: DualCoords, grid: SphereGrid) -> DualCoords:
    """Pulled-back extension class, via conjugation with the flat dual map.

    Valid projectively: the flat dual intertwines the two actions up to the
    positive equivariance constant, which cancels on classes.
    """
    phi = dual_map_H0_inverse(eta, grid)
    return dual_map_H0(pullback_class(iso, phi), grid)


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
    b-coordinate weights, so p_f reproduces b_coords(phi, u).
    """
    k = phi.spec.k
    ones = np.zeros(k - 1, dtype=complex)
    ones[0] = 1.0
    # h = -2*pi * conj(g) (1+|z|^2)^{2-k} e^{2(u+c)}; smooth through both poles
    h = -TANGENT_NORMALIZATION * pair_weight_h0(ones, phi.a, phi.spec, grid) * np.exp(2.0 * u.total)
    s = 1.0 + np.abs(grid.z) ** 2
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
    o_mag = list(np.abs(vals[1:].reshape(w_pts.shape) + poly).max(axis=1))
    slope = float(np.log(o_mag[0] / o_mag[1]) / np.log(radii[0] / radii[1]))

    report = {
        "dbar_rel_l2": rel_l2,
        "remainder_slope": slope,
        "remainder_mags": o_mag,
        "f_north_abs": abs(f_north),
        "rhs_mean": complex(rhs_mean),
    }
    return DbarSolution(f=f_vals, p_f=p_f, f_north=f_north, report=report)
