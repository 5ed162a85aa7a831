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
longitude tables are n_lon x 2(l_max+1) on a full grid, the size of one Legendre
slice; at l_max 32..72 a matmul against them costs less than an FFT's per-call
overhead.  A grid of order step n keeps only the orders in nZ, on the wedge
[0, 2 pi/n) of the full circle: there a Z_n-invariant field has the full grid's
m in nZ entries, its aliasing bound, and weights that sum to 1 (1/n_lon over
the wedge).  Step 0 is the same rule's limit, m = 0 alone on one longitude:
the zonal fields.  ``symmetric_step`` is the step of a rotation order, and
``fold`` and ``tile`` carry node values between such a grid and the full one.
Every coefficient vector is in one layout, the packed orthonormal real basis
(``analyze``/``synthesize``): entries (m, cos|sin, l) for l >= m, the sin
part only for m >= 1, basis functions b_m Pbar_l^m {cos, sin}(m phi) with
b_0 = sqrt(2), b_m = 2; a full grid's has (l_max+1)^2 entries, entry 0 is
the constant 1, and its Euclidean inner product is the L2 pairing.  A complex field's
coefficients are those of its real part plus 1j times those of its
imaginary part.  Both angular derivatives act on the packed vector: d/dphi
swaps each cos entry with its sin partner scaled by +-m, and by the Legendre
recurrence sin(theta) d/dtheta is a packed-vector shift and a factor mu.
``zonal_gram(weight)`` is the dense m = 0 block of analyze(weight *
synthesize(.)) for a non-negative node weight, the one place outside the
transforms that reads the Legendre table and the latitude weights.

The Legendre recurrence coefficients are cached per l_max, each grid keeps
one node table and the north-pole table, and ``evaluate`` builds its table
and l-sum once per distinct colatitude of its points.

Charts: ``z = cot(theta/2) * exp(i*phi)`` is the stereographic coordinate
that is infinite at the north pole N and zero at the south pole S;
``w = 1/z``.  Grid nodes never touch the poles, so both charts are finite on
every node.

Determinism: the transforms are BLAS matmuls and are deterministic for a
fixed BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import SpecMismatch

# Curvature of the unit-area sphere; single source of the Laplacian scale.
GAUSS_CURVATURE = 4.0 * np.pi


@lru_cache(maxsize=16)
def _recurrence(l_max: int):
    """Legendre recurrence factors, which depend on l_max alone: sectoral and l = m+1 columns over m, a, b over (m, l)."""
    m, l = np.ogrid[: l_max + 1, : l_max + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # entries with l < m + 2 are never read
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    tables = (-np.sqrt((2 * m[1:] + 1) / (2.0 * m[1:])), np.sqrt(2 * m[:-1] + 3.0), a[..., None], b[..., None])
    for t in tables:
        t.flags.writeable = False  # one cached copy serves every caller
    return tables


def _normalized_legendre(l_max: int, mu: np.ndarray, _unit_sin: bool = False, step: int = 1):
    """Associated Legendre functions, orthonormal on [-1, 1], for the orders m in step*Z up to l_max.

    Returns ``p[i, l, :]`` for order m = i*step with ``int P[m,l] P[m,l'] dmu
    = delta_{ll'}`` (zero for l < m).  ``_unit_sin=True`` sets the
    sin(theta) factor to 1, which yields P[m,l] / sin^m(theta); at mu = 1
    these are the leading coefficients of P[m,l] at the north pole.

    The recurrence is the standard stable one seeded at the sectoral term,
    so no factorials are formed and degrees of a few hundred are safe.  Each
    order recurs alone: the step table is bitwise the full one's every
    step-th row, built without the others (a step above l_max: m = 0 alone).
    """
    shape = np.shape(mu)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    s = 1.0 if _unit_sin else np.sqrt(np.maximum(1.0 - mu * mu, 0.0))  # sin(theta) > 0 off the poles
    sectoral, next_diag, a, b = _recurrence(l_max)
    diag = np.full((l_max + 1, mu.size), np.sqrt(0.5))
    diag[1:] = sectoral * s  # the diagonal's cumulative product multiplies in the order of one step per m
    diag = np.cumprod(diag, axis=0, out=diag)[::step]
    orders = np.arange(0, l_max + 1, step)
    idx = np.arange(orders.size)
    p = np.zeros((orders.size, l_max + 1, mu.size))
    p[idx, orders] = diag
    n = np.searchsorted(orders, l_max)  # orders with an l = m + 1 term
    p[idx[:n], orders[:n] + 1] = next_diag[::step][:n] * mu * diag[:n]
    a, b = a[::step], b[::step]
    for l in range(2, l_max + 1):  # all orders m <= l - 2 at once
        n = (l - 2) // step + 1
        p[:n, l] = a[:n, l] * (mu * p[:n, l - 1] - b[:n, l] * p[:n, l - 2])
    return p.reshape((orders.size, l_max + 1) + shape)


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
    step : int, optional
        Order step n (default 1: the full grid), 0 or a divisor of
        ``longitudes(l_max)``, as in ``HoloClass.rotation_symmetry``.  Step
        n >= 1 keeps the packed entries with m in nZ on the wedge [0, 2 pi/n),
        the first 1/n of the circle's longitudes: exactly the Z_n-invariant
        fields, with the full grid's aliasing bound and weights 1/n_lon over
        the wedge, which sum to 1.  Step 0 is its limit, m = 0 alone on one
        longitude: the zonal fields.  Only step 1 integrates products of chart
        monomials z^i conj(z^j) (order i - j) without aliasing.

    Attributes
    ----------
    colat, lon : 1-D node coordinate arrays (poles excluded).
    weights : (n_lat, n_lon) quadrature weights, summing to 1.
    z, w : (n_lat, n_lon) complex chart coordinates of the nodes.
    """

    def __init__(self, l_max: int, step: int = 1):
        if l_max < 4:
            raise ValueError(f"l_max must be >= 4, got {l_max}")
        self.l_max = L = int(l_max)
        self.step = n = int(step)
        circle = longitudes(L)  # longitudes of the whole circle, of which the grid keeps the first 1/step
        if n < 0 or n and circle % n:
            raise ValueError(f"order step {step} is negative or does not divide the {circle} longitudes")
        self.n_lat = L + 1
        self.n_lon = circle // n if n else 1
        self._stride = s = n or L + 1  # step 0: any order stride above l_max keeps m = 0 alone
        self._orders = orders = np.arange(0, L + 1, s)  # the kept orders; half spectra are indexed by m // stride

        mu, glw = roots_legendre(self.n_lat)
        order = np.argsort(-mu)  # north to south
        self.mu = mu[order]
        self.glw = glw[order]
        self.colat = np.arccos(self.mu)
        self.lon = 2.0 * np.pi * np.arange(self.n_lon) / circle
        self.weights = np.outer(self.glw / 2.0, np.full(self.n_lon, 1.0 / self.n_lon))

        theta = self.colat[:, None]
        phase = np.exp(1j * self.lon)[None, :]
        self.z = (np.cos(theta / 2) / np.sin(theta / 2)) * phase
        self.w = (np.sin(theta / 2) / np.cos(theta / 2)) * np.conj(phase)

        self._plm = _normalized_legendre(L, self.mu, step=s)  # (m // stride, l, n_lat) over the kept orders
        self._pole = _normalized_legendre(L, np.array(1.0), _unit_sin=True, step=s)  # A[m // stride, l]: Pbar_l^m ~ A sin^m t at N

        # packed real basis b_m Pbar_l^m(mu) {cos, sin}(m phi), b_0 = sqrt(2),
        # b_m = 2: entry (m, part, l) for l >= m, part 0 = cos, 1 = sin (m >= 1
        # only), listed in packed_entries; _flat is the entry's position in a
        # half spectrum h[m // stride, l, part]
        packed = [(m, p, l) for m in orders for p in ((0, 1) if m else (0,)) for l in range(m, L + 1)]
        self.packed_entries = np.array(packed)
        m, p, l = self.packed_entries.T
        self._flat = (m // s * (L + 1) + l) * 2 + p
        self.n_packed = l.size
        self.packed_laplace = -GAUSS_CURVATURE * l * (l + 1.0)
        # sin(theta) d/dtheta Pbar_l^m = l mu Pbar_l^m - c_lm Pbar_{l-1}^m, c_mm = 0
        self._c_lm = np.sqrt((2 * l + 1) * (l * l - m * m) / np.abs(2 * l - 1))
        # d/dphi swaps each entry with its cos|sin partner (same m, l; flat index ^ 1),
        # scaled by m for cos and -m for sin; the m = 0 cos entries map to zero
        pos = np.zeros(2 * orders.size * (L + 1), dtype=int)
        pos[self._flat] = np.arange(self.n_packed)
        self._partner = pos[self._flat ^ 1]
        self._dphi_scale = np.where(p == 0, m, -m)
        # longitude tables: synthesis _lon_syn[(m, part), k] = b_m {cos, sin}(m lon_k),
        # analysis _lon_an its contiguous transpose over n_lon; the Legendre
        # step reads the (m, part) columns of lat-by-(m, part) products in place
        # m*lon reduced to [0, 2pi) before cos/sin: the raw product loses 1e-14 at l_max 48
        ang = 2.0 * np.pi / circle * (np.multiply.outer(orders, np.arange(self.n_lon)) % circle)
        trig = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        self._b = np.where(orders == 0, np.sqrt(2.0), 2.0)
        self._lon_syn = (self._b[:, None, None] * trig).reshape(2 * orders.size, self.n_lon)
        self._lon_an = np.ascontiguousarray(self._lon_syn.T) / self.n_lon
        self._wq = self.glw / 2.0  # latitude quadrature weight

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def _field(self, values) -> np.ndarray:
        v = np.asarray(values)
        if v.shape != (self.n_lat, self.n_lon):
            raise SpecMismatch(f"field shape {v.shape} does not match grid {(self.n_lat, self.n_lon)}")
        return v

    def fold(self, values) -> np.ndarray:
        """This grid's node values of full-grid ones, the mean of their rotated copies (step 0: every longitude's).

        Values already on this grid pass through unchanged; any other shape is a ``SpecMismatch``.
        """
        v = np.asarray(values)
        circle = (self.n_lat, longitudes(self.l_max))
        if v.shape != circle and v.shape != (self.n_lat, self.n_lon):
            raise SpecMismatch(f"field shape {v.shape} is neither grid {(self.n_lat, self.n_lon)} nor the full {circle}")
        return v.reshape(self.n_lat, -1, self.n_lon).mean(axis=1)

    def tile(self, values) -> np.ndarray:
        """This grid's node values repeated over the full circle's longitudes: a Z_n-invariant field's full-grid values."""
        return np.tile(self._field(values), (1, longitudes(self.l_max) // self.n_lon))

    def _analyze_half(self, v: np.ndarray) -> np.ndarray:
        """Half spectra h[m, r, l, cos|sin] in the packed scaling of real fields v[r, lat, lon]."""
        g = v @ self._lon_an
        g *= self._wq[:, None]
        g = g.reshape(v.shape[0], self.n_lat, self._orders.size, 2).transpose(2, 0, 1, 3)  # (m, r, lat, part)
        return np.matmul(self._plm[:, None], g)

    def _synthesize_half(self, h: np.ndarray) -> np.ndarray:
        """Real fields v[r, lat, lon] from half spectra h[m, r, l, cos|sin]."""
        g = np.empty((h.shape[1], self.n_lat, self._orders.size, 2))
        np.matmul(self._plm.transpose(0, 2, 1)[:, None], h, out=g.transpose(2, 0, 1, 3))
        return g.reshape(h.shape[1], self.n_lat, -1) @ self._lon_syn

    def _half_spectrum(self, x) -> np.ndarray:
        """Packed coefficients laid out as h[m // stride, l, cos|sin], zero for l < m and for the m = 0 sin part."""
        x = np.asarray(x)
        h = np.zeros(2 * self._orders.size * (self.l_max + 1), dtype=complex if x.dtype.kind == "c" else float)
        h[self._flat] = x
        return h.reshape(self._orders.size, self.l_max + 1, 2)

    def analyze(self, values) -> np.ndarray:
        """Packed coefficients of a field; a complex field's are analyze(re) + 1j*analyze(im)."""
        v = self._field(values)
        if v.dtype.kind == "c":
            h = self._analyze_half(np.stack([v.real, v.imag]))
            re, im = h.transpose(1, 0, 2, 3).reshape(2, -1)[:, self._flat]
            return re + 1j * im
        return self._analyze_half(v[None]).reshape(-1)[self._flat]

    def synthesize(self, x) -> np.ndarray:
        """Node values of packed coefficients."""
        h = self._half_spectrum(x)
        if h.dtype.kind == "c":
            re, im = self._synthesize_half(np.stack([h.real, h.imag], axis=1))
            return re + 1j * im
        return self._synthesize_half(h[:, None])[0]

    def north_taylor(self, x, order: int):
        """f(N) and the w^1..w^order coefficients of f at N, for f with packed coefficients x.

        Pbar_l^m(cos t) = sin^m t (A[m, l] + O(t^2)), A the table ``_pole``: at N
        only the m = 0 cos entries (scale b_0 = sqrt(2)) are nonzero, and with
        sin t ~ 2|w| the w^j coefficient is 2^j sum_l (cos + i sin entry of m = j) A[j, l]:
        zero for an order j the grid does not keep.
        """
        half = self._half_spectrum(x)
        f_north = np.sqrt(2.0) * (half[0, :, 0] @ self._pole[0])
        i = slice(1, order // self._stride + 1)  # the kept orders j = 1..order
        j = self._orders[i]
        taylor = np.zeros(order, dtype=complex)
        taylor[j - 1] = (2.0**j) * np.einsum("jl,jl->j", half[i, :, 0] + 1j * half[i, :, 1], self._pole[i])
        return f_north, taylor

    def embed_packed(self, x, source: SphereGrid) -> np.ndarray:
        """Zero-pad packed coefficients x of ``source``, a grid of this step and at most this degree, onto this one."""
        if source.step != self.step or source.l_max > self.l_max:
            raise SpecMismatch(f"coefficients of step {source.step}, l_max {source.l_max} "
                               f"do not embed in step {self.step}, l_max {self.l_max}")
        out = np.zeros(self.n_packed)
        out[self.packed_entries[:, 2] <= source.l_max] = x
        return out

    def evaluate(self, x, theta, phi) -> np.ndarray:
        """Packed coefficients synthesized at arbitrary points; Legendre table and l-sum once per distinct colatitude."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        ang = np.multiply.outer(self._orders, phi)
        trig = self._b[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)  # (m, cos|sin, point)
        mu, ring = np.unique(np.cos(theta), return_inverse=True)
        plm = _normalized_legendre(self.l_max, mu, step=self._stride)
        h = self._half_spectrum(x)
        parts = (h.real, h.imag) if h.dtype.kind == "c" else (h,)  # real parts: plm is never cast to complex
        v = [(np.matmul(p.transpose(0, 2, 1), plm)[..., ring] * trig).sum(axis=(0, 1)) for p in parts]
        return v[0] + 1j * v[1] if len(v) == 2 else v[0]

    def d_dphi(self, x) -> np.ndarray:
        """Packed coefficients of d/dphi: each cos entry takes m times its sin partner, each sin entry -m times its cos."""
        return self._dphi_scale * np.asarray(x)[self._partner]

    # ------------------------------------------------------------------
    # quadrature and calculus
    # ------------------------------------------------------------------

    def integrate(self, f):
        """Integral against the normalized measure (total mass 1)."""
        return (self.weights * self._field(f)).sum()

    def zonal_gram(self, weight) -> np.ndarray:
        """The m = 0 block B^T diag(w_lat mean_lon(weight)) B of a non-negative node weight, (l_max+1)-square.

        B = sqrt(2) Pbar_l^0 at the latitudes synthesizes the m = 0 packed
        entries and B^T diag(w_lat) analyzes them, so on a full grid this is
        the m = 0 block of analyze(weight * synthesize(.)).  It is one
        symmetric product C^T C, C = sqrt(2 w_lat mean_lon(weight)) Pbar^0 at
        the latitudes, so a negative longitude mean gives NaN entries.
        """
        c = np.sqrt(2.0 * self._wq * self._field(weight).mean(axis=1))[:, None] * self._plm[0].T
        return c.T @ c

    def laplacian(self, f) -> np.ndarray:
        """Spectral Laplace-Beltrami operator; valid for band-limited fields."""
        return self.synthesize(self.packed_laplace * self.analyze(f))

    def poisson_coeffs(self, rhs):
        """Packed coefficients of the mean-zero u with laplacian(u) = rhs - mean, and that mean (rhs's entry 0)."""
        x = self.analyze(rhs)
        mean, x[0] = x[0], 0.0
        x[1:] /= self.packed_laplace[1:]
        return x, mean

    # ------------------------------------------------------------------
    # chart derivatives
    # ------------------------------------------------------------------

    def d_dz(self, x) -> np.ndarray:
        """Node values of the chart derivative  d/dz  of a (smooth) field, from its packed coefficients.

        Uses dz = R'(theta) e^{i phi} dtheta + i z dphi with R = cot(theta/2):
        d/dz = [ -(sin(theta)/2) d/dtheta - (i/2) d/dphi ] / z, where
        sin(theta) d/dtheta f = mu synth(l x) - synth(down): (m, part, l-1) precedes
        (m, part, l) in the packed order, and down is c_lm x moved one entry down.
        """
        down = np.append((self._c_lm * x)[1:], 0.0)
        f = self.synthesize(0.5 * down - 0.5j * self.d_dphi(x))
        return (f - 0.5 * self.mu[:, None] * self.synthesize(self.packed_entries[:, 2] * x)) / self.z

    def d_dzbar(self, x) -> np.ndarray:
        """Chart derivative d/d(conj z) from packed coefficients; the basis is real, so conj f has conj(x)."""
        return np.conj(self.d_dz(np.conj(x)))


def longitudes(l_max: int) -> int:
    """Longitudes of the full circle at degree l_max: a multiple of 4 (quarter-turn invariant) above 2 l_max + 1."""
    return 4 * ((2 * l_max + 2 + 3) // 4)


def symmetric_step(n: int) -> int:
    """Order step of the grids of rotation order n: gcd(n, 4) for n >= 1, dividing every ``longitudes`` count, 0 for n = 0."""
    return math.gcd(n, 4) if n else 0


def build_grid(l_max: int, step: int = 1) -> SphereGrid:
    """Grid for degree l_max (>= 4) and order step (see ``SphereGrid``), cached once whichever way either is spelled."""
    return _cached_grid(int(l_max), int(step))


# a cold l_max-48 `converge` cycle uses 12 grids: 24, 36, 48 and 72, each at step 1, 0 and 4
_cached_grid = lru_cache(maxsize=16)(SphereGrid)
build_grid.cache_clear = _cached_grid.cache_clear

