"""Line bundles over the sphere: degrees, canonical sections, metrics, norms.

A degree-k bundle is handled entirely through the canonical trivializing
section: its constant-curvature metric has squared norm (1+|z|^2)^(-k) in the
z-chart and (1+|w|^2)^(-k) in the w-chart.  Holomorphic 1-form-valued
sections are polynomials g(z) of degree <= k-2 against the canonical frame;
their divisors are the roots of g plus the complementary multiplicity at the
chart pole (w = 0).

All pointwise weights that mix a polynomial with the metric are built from
the chart-stable monomials, the z-chart ones where |z| <= 1 and the w-chart
ones elsewhere, so nothing blows up near the poles.  Each grid row lies in
one chart, so on a grid they factor into per-row and per-longitude tables.

The chart reference is the north pole; to work relative to any other
reference point, conjugate classes through the rotation taking it to N with
:func:`spherecurv.cohomology.pullback_class` (the chart change IS the
isometry action).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecMismatch, ZeroClass
from .geometry import ChartPoint, SphereGrid, longitudes

# Normalization of |phi|^2 inherited from the unit-area tangent bundle.
TANGENT_NORMALIZATION = 2.0 * np.pi


@dataclass(frozen=True)
class BundleSpec:
    """Degrees of the two line bundles; k = deg_L2 - deg_L1 >= 2."""

    deg_L1: int
    deg_L2: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"deg_L2 - deg_L1 = {self.k} must be >= 2")

    @property
    def k(self) -> int:
        return self.deg_L2 - self.deg_L1


@dataclass
class ConformalFactor:
    """Mean-zero dilation exponent u plus the constant offset c.

    The metric it encodes is H_u = H_0 * exp(2*(u + c)).
    """

    u: np.ndarray
    offset: float = 0.0

    @classmethod
    def zero(cls, grid: SphereGrid) -> "ConformalFactor":
        return cls(np.zeros((grid.n_lat, grid.n_lon)), 0.0)

    @classmethod
    def from_values(cls, values, grid: SphereGrid) -> "ConformalFactor":
        """Split arbitrary real samples into mean-zero part + constant."""
        v = np.asarray(values, dtype=float)
        mean = float(np.real(grid.integrate(v)))
        return cls(v - mean, mean)

    @property
    def total(self) -> np.ndarray:
        return self.u + self.offset


def _coefficients(vec, k: int) -> np.ndarray:
    """A polynomial's coefficient vector as complex; SpecMismatch unless its length is k - 1."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (k - 1,):
        raise SpecMismatch(f"coefficient vector has length {v.shape}, expected {k - 1}")
    return v


@dataclass(frozen=True)
class HoloClass:
    """Holomorphic class: polynomial coefficients (a_0 ... a_{k-2}) of g(z)."""

    spec: BundleSpec
    a: np.ndarray

    def __post_init__(self):
        a = _coefficients(self.a, self.spec.k)
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise ValueError(f"coefficient a_{bad[0]} = {a[bad[0]]} is not finite")
        object.__setattr__(self, "a", a)
        if not np.any(a):
            raise ZeroClass("holomorphic class must have a nonzero coefficient vector")

    def support(self) -> np.ndarray:
        """Indices of the coefficients above 1e-12 max|a|: the ones the degree, divisor and symmetry read."""
        return np.flatnonzero(np.abs(self.a) > 1e-12 * np.abs(self.a).max())

    def poly_degree(self) -> int:
        return int(self.support()[-1])

    def rotation_symmetry(self) -> tuple[int, int]:
        """(n, r): every index of the support sits at r (mod n).

        n is the gcd of those indices' differences: 0 for a monomial (r its
        index), 1 for no symmetry (r = 0).  For n >= 2, z -> e^{2 pi i/n} z
        multiplies g by a phase, so K, the lambda-branch from small coupling
        and the Gram pairing are Z_n-invariant, and b lives on the indices
        = r (mod n).
        """
        support = self.support()
        n = int(np.gcd.reduce(np.diff(support)))
        return n, int(support[0] % n if n else support[0])


@dataclass(frozen=True)
class Divisor:
    points: tuple  # of (ChartPoint, multiplicity)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.points)


# ----------------------------------------------------------------------
# pointwise weights
# ----------------------------------------------------------------------


def _row_tables(k: int, grid: SphereGrid):
    """(f, c, e): the chart-stable monomials on the grid, V[n, j] = f c[row, j] e[j, lon] times a unimodular factor per node.

    Rows with colat >= pi/2 (|z| <= 1) take the z-chart, rho = cot(theta/2), c = rho^j; the others the w-chart,
    rho = tan(theta/2), c = rho^(k-2-j), whose factor e^{-i(k-2) phi} is common to every j and cancels in
    p_a conj(p_b), p_a = f ((c a) @ e).  f = (1+rho^2)^(1-k/2); e = e^{i j phi}, its angle reduced mod the circle.
    """
    half = grid.colat[:, None] / 2.0
    cot = np.cos(half) / np.sin(half)
    south = cot <= 1.0
    rho = np.where(south, cot, np.sin(half) / np.cos(half))
    c = np.where(south, rho ** np.arange(k - 1), rho ** np.arange(k - 2, -1, -1))
    circle = longitudes(grid.l_max)
    ang = 2.0 * np.pi / circle * (np.multiply.outer(np.arange(k - 1), np.arange(grid.n_lon)) % circle)
    return (1.0 + rho * rho) ** (1.0 - k / 2.0), c, np.exp(1j * ang)


def pair_weight_h0(avec, bvec, spec: BundleSpec, grid: SphereGrid) -> np.ndarray:
    """Grid samples of A(z) * conj(B(z)) * (1+|z|^2)^(2-k), chart-stable; A and B low-order-first, of length k - 1."""
    a, b = _coefficients(avec, spec.k), _coefficients(bvec, spec.k)
    f, c, e = _row_tables(spec.k, grid)
    return (f * ((c * a) @ e)) * np.conj(f * ((c * b) @ e))


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def flat_norm_sq(phi: HoloClass, grid: SphereGrid) -> np.ndarray:
    """Pointwise squared norm of the class under H_0, 2*pi |g|^2 (1+|z|^2)^(2-k); finite at both poles."""
    f, c, e = _row_tables(phi.spec.k, grid)
    p = f * ((c * phi.a) @ e)
    return TANGENT_NORMALIZATION * (p * np.conj(p)).real


def phi_norm_sq(phi: HoloClass, u: ConformalFactor, grid: SphereGrid) -> np.ndarray:
    """Pointwise squared norm of the class under H_u; finite at both poles."""
    return flat_norm_sq(phi, grid) * np.exp(2.0 * grid.field(u.total))


def curvature_scalar(u: ConformalFactor, spec: BundleSpec, grid: SphereGrid) -> np.ndarray:
    """Contracted curvature of H_u: the field 2*pi*k - laplacian(u)."""
    return 2.0 * np.pi * spec.k - grid.laplacian(u.u)


def degree_by_integration(u: ConformalFactor, spec: BundleSpec, grid: SphereGrid) -> float:
    """Bundle degree recovered as the total curvature over 2*pi."""
    total = grid.integrate(curvature_scalar(u, spec, grid))
    return float(np.real(total)) / (2.0 * np.pi)


def divisor_of(phi: HoloClass, cluster_tol: float = 1e-7) -> Divisor:
    """Zeros of g (companion-matrix roots, clustered) plus the pole order.

    Total multiplicity is always k-2: the chart pole carries
    k - 2 - deg(g).
    """
    k = phi.spec.k
    d = phi.poly_degree()
    pts = []
    if d > 0:
        roots = np.roots(phi.a[: d + 1][::-1])
        used = np.zeros(len(roots), dtype=bool)
        scale = max(1.0, np.abs(roots).max())
        for i, r in enumerate(roots):
            if used[i]:
                continue
            close = ~used & (np.abs(roots - r) <= cluster_tol * scale)
            mult = int(close.sum())
            used |= close
            pts.append((ChartPoint.from_z(complex(np.mean(roots[close]))), mult))
    pole_mult = k - 2 - d
    if pole_mult > 0:
        pts.append((ChartPoint.from_w(0j), pole_mult))
    return Divisor(tuple(pts))

