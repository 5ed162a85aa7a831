"""Spectral geometry of the unit-area round sphere.

Everything in this package lives on the sphere normalized so that the total
area is 1 and the Gaussian curvature is 4*pi (radius 1/(2*sqrt(pi))).  The
grid is Gauss-Legendre in colatitude times an equispaced longitude circle.
In this normalization

    laplacian(Y_lm) = -4*pi * l*(l+1) * Y_lm,   Y_lm = sqrt(2) Pbar_l^|m|(cos t) e^{i m phi}

and the quadrature weights sum to exactly 1.  The |m| Legendre factor is
shared by both signs of m (no Condon-Shortley flip), so Y_l,-m = conj(Y_lm).

One real spectral core does every transform, as two real matmuls: a
longitude table of b_m cos(m phi) and b_m sin(m phi), columns (m, cos|sin),
then one batched matmul against the m >= 0 Legendre table (analysis weights
the small latitude-by-column product by the Gauss weights in between).  The
longitude tables are n_lon x 2(l_max+1), the size of one Legendre slice; at
l_max 32..72 a matmul against them costs less than an FFT's per-call overhead.
Real fields use the packed orthonormal real basis
(``analyze_real``/``synthesize_real``): entries (m, cos|sin, l) for l >= m,
the sin part only for m >= 1, basis functions b_m Pbar_l^m {cos, sin}(m phi)
with b_0 = sqrt(2), b_m = 2; it has (l_max+1)^2 entries, entry 0 is the
constant 1, and its Euclidean inner product is the L2 pairing.  The complex
API (``analyze``/``synthesize``, coefficients c[l, m+l_max]) pushes the real
and imaginary parts through the same core.

Charts: ``z = cot(theta/2) * exp(i*phi)`` is the stereographic coordinate
that is infinite at the north pole N and zero at the south pole S;
``w = 1/z``.  Grid nodes never touch the poles, so both charts are finite on
every node.

Determinism: the transforms are BLAS matmuls and are deterministic for a
fixed BLAS (only ``d_dphi`` uses an FFT); ``integrate(..., sequential=True)``
bypasses BLAS reductions entirely (math.fsum) for golden tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import NonZeroMean, SpecMismatch

# Curvature of the unit-area sphere; single source of the Laplacian scale.
GAUSS_CURVATURE = 4.0 * np.pi


def _normalized_legendre(l_max: int, mu: np.ndarray, _unit_sin: bool = False):
    """Associated Legendre functions, orthonormal on [-1, 1].

    Returns ``p[m, l, :]`` with ``int P[m,l] P[m,l'] dmu = delta_{ll'}``
    (zero for l < m).  ``_unit_sin=True`` sets the sin(theta) factor to 1,
    which yields P[m,l] / sin^m(theta); at mu = 1 these are the leading
    coefficients of P[m,l] at the north pole.

    The recurrence is the standard stable one seeded at the sectoral term,
    so no factorials are formed and degrees of a few hundred are safe.
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


@dataclass
class ScalarField:
    """Samples of a scalar function at the grid nodes, shape (n_lat, n_lon)."""

    values: np.ndarray


def _vals(f) -> np.ndarray:
    return f.values if isinstance(f, ScalarField) else np.asarray(f)


@dataclass(frozen=True)
class ChartPoint:
    """A point of the sphere in both stereographic charts, z*w = 1."""

    z: complex
    w: complex

    @classmethod
    def from_z(cls, z: complex) -> "ChartPoint":
        z = complex(z)
        if z == 0:
            return cls(0j, complex(np.inf))
        if np.isinf(abs(z)):
            return cls(complex(np.inf), 0j)
        return cls(z, 1.0 / z)

    @classmethod
    def from_w(cls, w: complex) -> "ChartPoint":
        w = complex(w)
        if w == 0:
            return cls(complex(np.inf), 0j)
        if np.isinf(abs(w)):
            return cls(0j, complex(np.inf))
        return cls(1.0 / w, w)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "ChartPoint":
        half = 0.5 * theta
        if half == 0.0:
            return cls(complex(np.inf), 0j)
        z = (math.cos(half) / math.sin(half)) * complex(math.cos(phi), math.sin(phi))
        return cls.from_z(z)

    @property
    def theta(self) -> float:
        if np.isinf(abs(self.w)):
            return math.pi
        return 2.0 * math.atan(abs(self.w))

    @property
    def phi(self) -> float:
        if np.isinf(abs(self.z)) or self.z == 0:
            return 0.0
        return math.atan2(self.z.imag, self.z.real) % (2.0 * math.pi)


class SphereGrid:
    """Gauss-Legendre x equispaced-longitude grid with spectral transforms.

    Parameters
    ----------
    l_max : int
        Spectral truncation degree, at least 4.

    Attributes
    ----------
    colat, lon : 1-D node coordinate arrays (poles excluded).
    weights : (n_lat, n_lon) quadrature weights, summing to 1.
    z, w : (n_lat, n_lon) complex chart coordinates of the nodes.
    """

    def __init__(self, l_max: int):
        if l_max < 4:
            raise ValueError(f"l_max must be >= 4, got {l_max}")
        self.l_max = L = int(l_max)
        self.n_lat = L + 1
        # Multiple of 4 keeps the longitude circle invariant under the
        # quarter-turn isometries used in the symmetry experiments.
        self.n_lon = 4 * ((2 * L + 2 + 3) // 4)

        mu, glw = roots_legendre(self.n_lat)
        order = np.argsort(-mu)  # north to south
        self.mu = mu[order]
        self.glw = glw[order]
        self.colat = np.arccos(self.mu)
        self.lon = 2.0 * np.pi * np.arange(self.n_lon) / self.n_lon
        self.weights = np.outer(self.glw / 2.0, np.full(self.n_lon, 1.0 / self.n_lon))

        theta = self.colat[:, None]
        phase = np.exp(1j * self.lon)[None, :]
        self.z = (np.cos(theta / 2) / np.sin(theta / 2)) * phase
        self.w = (np.sin(theta / 2) / np.cos(theta / 2)) * np.conj(phase)

        self._plm = _normalized_legendre(L, self.mu)  # (m, l, n_lat), m >= 0
        # d/dtheta Pbar_l^m = (l mu Pbar_l^m - c_lm Pbar_{l-1}^m) / sin(theta)
        mm, ll = np.ogrid[: L + 1, : L + 1]
        c_lm = np.sqrt(np.maximum((2 * ll + 1) * (ll * ll - mm * mm), 0) / np.abs(2 * ll - 1))
        prev = np.zeros_like(self._plm)
        prev[:, 1:] = self._plm[:, :-1]
        self._dplm = (ll[..., None] * self.mu * self._plm - c_lm[..., None] * prev) / np.sin(self.colat)
        ell = np.arange(L + 1, dtype=float)
        self.laplace_eigenvalues = -GAUSS_CURVATURE * ell * (ell + 1.0)

        # packed real basis b_m Pbar_l^m(mu) {cos, sin}(m phi), b_0 = sqrt(2),
        # b_m = 2: entry (m, part, l) for l >= m, part 0 = cos, 1 = sin (m >= 1
        # only); _flat is the entry's position in a half spectrum h[m, l, part]
        packed = [(m, p, l) for m in range(L + 1) for p in ((0, 1) if m else (0,)) for l in range(m, L + 1)]
        m, p, l = np.array(packed).T
        self._pl = l
        self._flat = (m * (L + 1) + l) * 2 + p
        self.n_packed = l.size
        self.packed_laplace = self.laplace_eigenvalues[l]
        # packed cos entry / Re c_lm for a real field: 1 for m = 0, sqrt(2) above
        self._ms = np.where(np.arange(L + 1) == 0, 1.0, np.sqrt(2.0))
        # longitude tables: synthesis _lon_syn[(m, part), k] = b_m {cos, sin}(m lon_k),
        # analysis _lon_an its contiguous transpose over n_lon; the Legendre
        # step reads the (m, part) columns of lat-by-(m, part) products in place
        # m*lon reduced to [0, 2pi) before cos/sin: the raw product loses 1e-14 at l_max 48
        ang = 2.0 * np.pi / self.n_lon * (np.multiply.outer(np.arange(L + 1), np.arange(self.n_lon)) % self.n_lon)
        trig = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        b = np.where(np.arange(L + 1) == 0, np.sqrt(2.0), 2.0)[:, None, None]
        self._lon_syn = (b * trig).reshape(2 * L + 2, self.n_lon)
        self._lon_an = np.ascontiguousarray(self._lon_syn.T) / self.n_lon
        self._wq = self.glw / 2.0  # latitude quadrature weight

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def _field(self, values, dtype) -> np.ndarray:
        v = np.asarray(_vals(values), dtype=dtype)
        if v.shape != (self.n_lat, self.n_lon):
            raise SpecMismatch(f"field shape {v.shape} does not match grid {(self.n_lat, self.n_lon)}")
        return v

    def _analyze_half(self, v: np.ndarray) -> np.ndarray:
        """Half spectra h[m, r, l, cos|sin] in the packed scaling of real fields v[r, lat, lon]."""
        g = v @ self._lon_an
        g *= self._wq[:, None]
        g = g.reshape(v.shape[0], self.n_lat, self.l_max + 1, 2).transpose(2, 0, 1, 3)  # (m, r, lat, part)
        return np.matmul(self._plm[:, None], g)

    def _synthesize_half(self, h: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Real fields v[r, lat, lon] from half spectra h[m, r, l, cos|sin]; ``table`` is _plm or _dplm."""
        g = np.empty((h.shape[1], self.n_lat, self.l_max + 1, 2))
        np.matmul(table.transpose(0, 2, 1)[:, None], h, out=g.transpose(2, 0, 1, 3))
        return g.reshape(h.shape[1], self.n_lat, -1) @ self._lon_syn

    def analyze_real(self, values) -> np.ndarray:
        """Packed real coefficients of a real field."""
        return self._analyze_half(self._field(values, float)[None]).reshape(-1)[self._flat]

    def synthesize_real(self, x) -> np.ndarray:
        """Node values of packed real coefficients."""
        h = np.zeros(2 * (self.l_max + 1) ** 2)
        h[self._flat] = x
        return self._synthesize_half(h.reshape(self.l_max + 1, 1, self.l_max + 1, 2), self._plm)[0]

    def embed_packed(self, x) -> np.ndarray:
        """Zero-pad the packed coefficients of a coarser grid onto this grid's packed basis."""
        out = np.zeros(self.n_packed)
        out[self._pl < math.isqrt(len(x))] = x
        return out

    def analyze(self, values) -> np.ndarray:
        """Forward transform to coefficients c[l, m+l_max], m in [-l_max, l_max]."""
        v = self._field(values, complex)
        h = self._analyze_half(np.stack([v.real, v.imag]))
        # c_lm (m >= 0) of v.real and v.imag: (cos - i sin) / _ms
        re, im = (h[..., 0] - 1j * h[..., 1]).transpose(1, 0, 2) / self._ms[:, None]
        c = np.empty((self.l_max + 1, 2 * self.l_max + 1), dtype=complex)
        c[:, self.l_max :: -1] = (re.conj() + 1j * im.conj()).T
        c[:, self.l_max :] = (re + 1j * im).T
        return c

    def synthesize(self, coeffs) -> np.ndarray:
        """Inverse transform from c[l, m+l_max] to node values."""
        return self._synthesize_complex(coeffs, self._plm)

    def synthesize_dtheta(self, coeffs) -> np.ndarray:
        """Colatitude derivative of the band-limited field with given coefficients."""
        return self._synthesize_complex(coeffs, self._dplm)

    def _synthesize_complex(self, coeffs, table: np.ndarray) -> np.ndarray:
        c = np.asarray(coeffs, dtype=complex)
        pos, neg = c[:, self.l_max :].T, c[:, self.l_max :: -1].T.conj()
        # c_lm (m >= 0) of the real and imaginary parts, then cos = Re, sin = -Im, times _ms
        half = np.stack([pos + neg, 1j * (neg - pos)], axis=1) * (self._ms[:, None, None] / 2.0)
        v = self._synthesize_half(np.stack([half.real, -half.imag], axis=-1), table)
        return v[0] + 1j * v[1]

    def evaluate(self, coeffs, theta, phi) -> np.ndarray:
        """Evaluate the band-limited field at arbitrary points (off-grid synthesis)."""
        c = np.asarray(coeffs, dtype=complex)
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        L = self.l_max
        plm = _normalized_legendre(L, np.cos(theta))
        e = np.exp(1j * np.multiply.outer(np.arange(L + 1), phi))
        pos = np.einsum("ml,ml...->m...", c[:, L:].T, plm) * e
        neg = np.einsum("ml,ml...->m...", c[:, L - 1 :: -1].T, plm[1:]) * e[1:].conj()
        return np.sqrt(2.0) * (pos.sum(axis=0) + neg.sum(axis=0))

    # ------------------------------------------------------------------
    # quadrature and calculus
    # ------------------------------------------------------------------

    def integrate(self, f, sequential: bool = False):
        """Integral against the normalized measure (total mass 1).

        ``sequential=True`` reduces with math.fsum in a fixed order, which is
        bitwise reproducible regardless of BLAS threading.
        """
        v = _vals(f)
        if v.shape != (self.n_lat, self.n_lon):
            raise SpecMismatch(f"field shape {v.shape} does not match grid {(self.n_lat, self.n_lon)}")
        if sequential:
            prod = (self.weights * v).ravel()
            if np.iscomplexobj(prod):
                return complex(math.fsum(prod.real), math.fsum(prod.imag))
            return math.fsum(prod)
        return (self.weights * v).sum()

    def laplacian(self, f) -> np.ndarray:
        """Spectral Laplace-Beltrami operator; valid for band-limited fields."""
        c = self.analyze(f)
        return self.synthesize(self.laplace_eigenvalues[:, None] * c)

    def solve_poisson(self, rhs, mean_tol: float = 1e-8) -> np.ndarray:
        """Unique mean-zero u with laplacian(u) = rhs; rhs must have zero mean."""
        c = self.analyze(rhs)
        mean = self.integrate(rhs)
        if abs(mean) > mean_tol:
            raise NonZeroMean(abs(mean), mean_tol)
        c = c.copy()
        c[0, :] = 0.0
        c[1:, :] /= self.laplace_eigenvalues[1:, None]
        return self.synthesize(c)

    # ------------------------------------------------------------------
    # chart derivatives
    # ------------------------------------------------------------------

    def d_dphi(self, f) -> np.ndarray:
        v = np.asarray(_vals(f), dtype=complex)
        m = np.fft.fftfreq(self.n_lon, 1.0 / self.n_lon)
        return np.fft.ifft(1j * m[None, :] * np.fft.fft(v, axis=1), axis=1)

    def d_dz(self, f) -> np.ndarray:
        """Chart derivative  d/dz  of a (smooth) field sampled on the nodes.

        Uses dz = R'(theta) e^{i phi} dtheta + i z dphi with R = cot(theta/2):
        d/dz = [ -(sin(theta)/2) d/dtheta - (i/2) d/dphi ] / z.
        """
        c = self.analyze(f)
        f_theta = self.synthesize_dtheta(c)
        f_phi = self.d_dphi(f)
        sin_t = np.sin(self.colat)[:, None]
        return (-(sin_t / 2.0) * f_theta - 0.5j * f_phi) / self.z

    def d_dzbar(self, f) -> np.ndarray:
        """Chart derivative d/d(conj z); conjugate-of-derivative-of-conjugate."""
        return np.conj(self.d_dz(np.conj(np.asarray(_vals(f), dtype=complex))))


@lru_cache(maxsize=8)
def build_grid(l_max: int) -> SphereGrid:
    """Grid for spectral degree l_max (>= 4); cached since construction is pure."""
    return SphereGrid(l_max)

