"""Line bundles over the sphere: degrees, canonical sections, metrics, norms.

A degree-k bundle is handled entirely through the canonical trivializing
section: its constant-curvature metric has squared norm (1+|z|^2)^(-k) in the
z-chart and (1+|w|^2)^(-k) in the w-chart.  Holomorphic 1-form-valued
sections are polynomials g(z) of degree <= k-2 against the canonical frame;
their divisors are the roots of g plus the complementary multiplicity at the
chart pole (w = 0).

All pointwise weights that mix a polynomial with the metric are built from
one chart-stable monomial matrix (:func:`chart_monomials`): the z-chart
monomials on the southern hemisphere (|z| <= 1) and the w-chart ones on the
northern one, so nothing blows up near the poles.

The chart reference is the north pole; to work relative to any other
reference point, conjugate classes through the rotation taking it to N with
:func:`spherecurv.cohomology.pullback_class` (the chart change IS the
isometry action).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecMismatch, ZeroClass
from .geometry import ChartPoint, SphereGrid

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


@dataclass(frozen=True)
class HoloClass:
    """Holomorphic class: polynomial coefficients (a_0 ... a_{k-2}) of g(z)."""

    spec: BundleSpec
    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (self.spec.k - 1,):
            raise SpecMismatch(
                f"coefficient vector has length {a.shape}, expected {self.spec.k - 1}"
            )
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


def chart_monomials(k: int, z, w) -> np.ndarray:
    """Chart-stable monomial matrix V[..., j], j = 0..k-2, at points (z, w = 1/z).

    Column j is z^j (1+|z|^2)^(1-k/2) where |z| <= 1 and
    w^(k-2-j) (1+|w|^2)^(1-k/2) elsewhere.  The two charts differ by the
    unimodular factor (|z|/z)^(k-2), the same for every j, so
    (V a) * conj(V b) does not depend on the chart and stays bounded at
    both poles.
    """
    south = np.abs(z) <= 1.0
    x = np.where(south, z, w)
    v = np.empty(x.shape + (k - 1,), dtype=complex)
    v[..., 0] = (1.0 + np.abs(x) ** 2) ** (1.0 - k / 2.0)
    for j in range(1, k - 1):  # powers by recurrence: complex ** is several times slower
        v[..., j] = v[..., j - 1] * x
    north = ~south
    v[north] = v[north][..., ::-1]  # the w-chart columns run k-2-j
    return v


def pair_weight_values(avec, bvec, k: int, z, w) -> np.ndarray:
    """Chart-stable values of A(z) * conj(B(z)) * (1+|z|^2)^(2-k).

    A and B are polynomials of degree <= k-2 given by low-order-first
    coefficient vectors.
    """
    v = chart_monomials(k, z, w)
    return (v @ np.asarray(avec, dtype=complex)) * np.conj(v @ np.asarray(bvec, dtype=complex))


def pair_weight_h0(avec, bvec, spec: BundleSpec, grid: SphereGrid) -> np.ndarray:
    """Grid samples of the chart-stable pairing weight."""
    return pair_weight_values(avec, bvec, spec.k, grid.z, grid.w)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def phi_norm_sq(phi: HoloClass, u: ConformalFactor, grid: SphereGrid) -> np.ndarray:
    """Pointwise squared norm of the class under H_u; finite at both poles."""
    w = pair_weight_h0(phi.a, phi.a, phi.spec, grid).real
    return TANGENT_NORMALIZATION * w * np.exp(2.0 * u.total)


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

