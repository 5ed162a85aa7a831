"""Independent reference implementations used only by the tests.

Each oracle takes a route the package does not: finite differences instead
of the spectral operator, off-grid synthesis instead of grid samples, the
direct slope inequality instead of its restated chain, Berlekamp-Massey
over the coordinates' own field instead of over the Gaussian integers, a
MINRES loop that allocates every vector instead of updating in place,
synthesis against a differentiated Legendre table instead of the packed
recurrence shift, or the flat Gram matrix by grid quadrature instead of its
Beta-value diagonal, j*(s) by a linear scan of the profile instead of a
bisection, exact coordinates scaled by Fraction products instead of integer
quotients, or the margin's budget-0 system solved by lstsq instead of read
off as a norm.  The helpers after them (pullback of a conformal factor,
the canonical-section norm, the pole multiplicity of a divisor, j*(s) for
one budget, whether a candidate is in generic position, the stability
chain, random rotations, isometries and chart points built or applied
pointwise) are quantities no program path uses.
"""

import cmath
import math

import numpy as np

from spherecurv import strata
from spherecurv._rational import QQi
from spherecurv.bundles import (
    TANGENT_NORMALIZATION,
    BundleSpec,
    ConformalFactor,
    Divisor,
    HoloClass,
    chart_monomials,
    pair_weight_values,
    phi_norm_sq,
)
from spherecurv.cohomology import IsometryAction, pullback_class
from spherecurv.geometry import GAUSS_CURVATURE, ChartPoint, SphereGrid


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


def dtheta_legendre(l_max: int, mu: np.ndarray) -> np.ndarray:
    """d/dtheta of the orthonormal Legendre table p[m, l, :] at mu = cos(theta), off the poles.

    d/dtheta Pbar_l^m = (l mu Pbar_l^m - c_lm Pbar_{l-1}^m) / sin(theta),
    c_lm = sqrt((2l + 1)(l^2 - m^2) / (2l - 1)).
    """
    mu = np.asarray(mu, dtype=float)
    p = normalized_legendre_stepwise(l_max, mu)
    mm, ll = np.ogrid[: l_max + 1, : l_max + 1]
    c_lm = np.sqrt(np.maximum((2 * ll + 1) * (ll * ll - mm * mm), 0) / np.abs(2 * ll - 1))
    prev = np.zeros_like(p)
    prev[:, 1:] = p[:, :-1]
    return (ll[..., None] * mu * p - c_lm[..., None] * prev) / np.sqrt(1.0 - mu * mu)


def d_dz_from_dtheta_table(grid: SphereGrid, x) -> np.ndarray:
    """d/dz = [-(sin(theta)/2) d/dtheta - (i/2) d/dphi] / z on the nodes, each term summed over the packed basis.

    d/dtheta differentiates the Legendre factor (``dtheta_legendre``) and
    d/dphi the longitude factor of every basis function b_m Pbar_l^m {cos, sin}(m phi).
    """
    m, part, l = grid.packed_entries.T
    b = np.where(m == 0, np.sqrt(2.0), 2.0)[:, None]
    ang = np.outer(m, grid.lon)
    trig = b * np.where(part[:, None] == 0, np.cos(ang), np.sin(ang))
    dtrig = b * m[:, None] * np.where(part[:, None] == 0, -np.sin(ang), np.cos(ang))
    f_theta = (x[:, None] * dtheta_legendre(grid.l_max, grid.mu)[m, l]).T @ trig
    f_phi = (x[:, None] * normalized_legendre_stepwise(grid.l_max, grid.mu)[m, l]).T @ dtrig
    return (-(np.sin(grid.colat)[:, None] / 2.0) * f_theta - 0.5j * f_phi) / grid.z


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
    th2, ph2 = apply_angles(iso, TH, PH)
    numer = phi_norm_sq_at(phi, u, grid, th2, ph2)
    keep = denom > 1e-6 * denom.max()
    ratio = numer[keep] / denom[keep]
    c = float(np.mean(ratio))
    dev = float(np.abs(ratio - c).max() / c)
    return c, dev


def alpha_stable_slope_form(spec: BundleSpec, div_eta: int, alpha: float) -> bool:
    """Direct form max{deg_L1, div+alpha} < mu_alpha; oracle for alpha_stable."""
    mu = (spec.deg_L1 + spec.deg_L2 + alpha) / 2.0
    return max(spec.deg_L1, div_eta + alpha) < mu and alpha < 0


# ----------------------------------------------------------------------
# the classifier over the coordinates' own field
# ----------------------------------------------------------------------


def field_coords(b, exact: bool):
    """b as QQi or complex entries, and the zero test on a discrepancy."""
    if exact:
        return [QQi.of(x) for x in b], lambda d: not d
    b = [complex(x) for x in b]
    e = math.frexp(max(map(abs, b), default=0.0))[1]  # strata._coords' scaling: max|b_j| in [0.5, 1)
    b = [complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)) for x in b]
    tol_abs = strata.DEFAULT_TOL * float(np.linalg.norm(b))
    return b, lambda d: abs(d) <= tol_abs


def field_profile(b, negligible):
    """Berlekamp-Massey over b_1..b_n in the entries' own field, for every prefix t = 0..n.

    Returns (L, C): L[t] is the linear complexity of b_1..b_t and C[t] a
    monic connection polynomial for it (C[t][0] = 1, degree <= L[t]), with
    b_j + sum_i C[t][i] b_{j-i} = 0 for L[t] < j <= t.  Every update divides
    by the last length change's discrepancy; the reference for strata._profile.
    """
    c, prev = [1], [1]  # current polynomial, and the one before the last length change
    length, shift, prev_d = 0, 1, 1
    lengths, polys = [0], [c]
    for n in range(len(b)):
        d = b[n]
        for i in range(1, len(c)):
            d = d + c[i] * b[n - i]
        if negligible(d):
            shift += 1
        else:
            f = d / prev_d
            new = c + [0 * f] * (shift + len(prev) - len(c))
            for i, p in enumerate(prev):
                new[i + shift] = new[i + shift] - f * p
            if 2 * length <= n:
                length, prev, prev_d, shift = n + 1 - length, c, d, 1
            else:
                shift += 1
            c = new
        lengths.append(length)
        polys.append(c)
    return lengths, polys


def matching_orders_scan(lengths) -> list:
    """j*(s) for s = 0..k-1 from the profile's lengths: the first t in s+1..k-1 with L(t) > s, else k."""
    k = len(lengths)
    return [next((t for t in range(s + 1, k) if lengths[t] > s), k) for s in range(k)]


def coords_fraction_product(b):
    """strata._coords' exact scaling as ((re, im) int pairs, D): each part is int(part * D), a Fraction
    product, with D the lcm of the parts' denominators."""
    q, den = [QQi.of(x) for x in b], 1
    for x in q:
        den = math.lcm(den, x.re.denominator, x.im.denominator)
    return [(int(x.re * den), int(x.im * den)) for x in q], den


def margin_lstsq(b, score: int) -> float:
    """strata._margin with every budget's system, s = 0 and its zero-column matrix included, solved by lstsq."""
    b = np.asarray(b, dtype=complex)
    resid = math.inf
    for s in range(len(b) + 1 - score):
        t = score + s
        a = np.array([b[j - s - 1 : j - 1][::-1] for j in range(s + 1, t + 1)]).reshape(t - s, s)
        x = np.linalg.lstsq(a, -b[s:t], rcond=None)[0]
        resid = min(resid, float(np.linalg.norm(a @ x + b[s:t])))
    return resid / float(np.linalg.norm(b))


def div_classifier_field(b, spec: BundleSpec, *, exact: bool = False):
    """strata.div_classifier with the profile and the witness in the coordinates' own field."""
    coords, negligible = field_coords(b, exact)
    lengths, polys = field_profile(coords, negligible)
    orders = matching_orders_scan(lengths)
    s = max(range(spec.k), key=lambda budget: orders[budget] - budget)
    j_star = orders[s]
    score = j_star - s
    div_eta = max(spec.deg_L1 + score, spec.deg_L1)
    b = coords if exact else [complex(x) for x in b]  # the float witness in the caller's units
    zero = coords[0] * 0
    c = (list(polys[j_star - 1]) + [zero] * s)[: s + 1]
    y = [zero] + [sum((c[i] * b[j - i - 1] for i in range(j)), zero) for j in range(1, s + 1)]
    cand = strata.RationalCandidate(tuple(y), tuple([zero] + [-x for x in c[1:]]))
    return strata.DivisorReport(
        div_eta=div_eta,
        j_star=j_star,
        s_minus=s,
        witness="zero-h" if cand.is_zero() else cand,
        stratum_m=spec.deg_L2 - div_eta,
        margin=None if exact else margin_lstsq(coords, score),
    )


def max_matching_order(b, s: int, *, exact: bool = False) -> int:
    """Largest j* over candidates with at most s poles, from the field profile.

    The first j*-1 coordinates of b are matched; j* = k means the whole
    vector is the Taylor prefix of an admissible rational function.
    """
    k = len(b) + 1
    if not 0 <= s <= k - 1:
        raise ValueError(f"pole budget s={s} outside [0, {k - 1}]")
    lengths, _ = field_profile(*field_coords(b, exact))
    return matching_orders_scan(lengths)[s]


def in_generic_position(cand: strata.RationalCandidate) -> bool:
    """No common zero of y and 1 - v.

    With y = w*y' and 1 - v(0) = 1, the Taylor series of h has linear
    complexity max(deg y, deg(1 - v)) = s_minus exactly when y' and 1 - v
    are coprime; a common factor lowers it, and a zero y has complexity 0.
    Berlekamp-Massey reads the complexity off 2*s_minus terms, exactly for
    exact entries and at DEFAULT_TOL for floating-point ones.
    """
    series = strata.series_of_rational(cand, 2 * cand.s_minus)
    exact = not isinstance(strata._zero(cand.y + cand.v), (float, complex, np.inexact))
    lengths, _ = strata._profile(*strata._coords(series, exact))
    return lengths[-1] == cand.s_minus


def minres_allocating(matvec, b, m_diag, *, rtol, maxiter, callback=None):
    """``pde.minres`` as a loop that allocates every vector afresh and writes none in place.

    Same recurrences, stopping tests and operation order, so the package's
    in-place loop must match it bit for bit.
    """
    eps = np.finfo(float).eps
    x = w = w2 = np.zeros_like(b)
    y = m_diag * b
    beta1 = float(b @ y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin, cs, sn = 0.0, 0.0, math.inf, -1.0, 0.0
    r1 = r2 = b
    for itn in range(1, maxiter + 1):
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = m_diag * r2
        oldb, beta = beta, float(r2 @ y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        vanished = itn == 1 and beta / beta1 <= 10 * eps
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(x @ x)
        test1 = math.inf if ynorm == 0 else phibar / (anorm * ynorm)
        test2 = root / anorm
        done = (
            vanished
            or test1 <= rtol
            or test2 <= rtol
            or anorm * ynorm * eps >= beta1
            or gmax / gmin >= 0.1 / eps
            or 1 + test1 <= 1
            or 1 + test2 <= 1
        )
        if callback is not None:
            callback(x)
        if done:
            return x, 0
    return x, maxiter


def pullback_class_convolve(iso: IsometryAction, phi: HoloClass) -> HoloClass:
    """``cohomology.pullback_class`` with each power of alpha z + beta and its partner built by repeated convolution."""

    def power(p, n):
        out = np.array([1.0 + 0j])
        for _ in range(n):
            out = np.convolve(out, np.asarray(p, dtype=complex))
        return out

    k, a, alpha, beta = phi.spec.k, phi.a, iso.alpha, iso.beta
    if iso.reverses:
        a, alpha, beta = np.conj(a), np.conj(alpha), np.conj(beta)
    out = np.zeros(k - 1, dtype=complex)
    for i, coef in enumerate(a):
        if coef != 0:
            out += coef * np.convolve(power([beta, alpha], i), power([np.conj(alpha), -np.conj(beta)], k - 2 - i))
    return HoloClass(phi.spec, out)


def flat_gram(spec: BundleSpec, grid: SphereGrid) -> np.ndarray:
    """The flat Gram matrix G(0) = 2*pi V^T diag(q) conj(V) by quadrature on ``grid``.

    V is the chart-stable monomial matrix and q the quadrature weights.  The
    reference for the closed-form flat dual, which takes G(0) as the
    diagonal 2*pi / ((k-1) C(k-2, i)).
    """
    v = chart_monomials(spec.k, grid.z, grid.w).reshape(-1, spec.k - 1)
    return TANGENT_NORMALIZATION * (v.T * grid.weights.ravel()) @ v.conj()


# ----------------------------------------------------------------------
# quantities no program path uses
# ----------------------------------------------------------------------


def pullback_conformal(iso: IsometryAction, u: ConformalFactor, grid: SphereGrid) -> ConformalFactor:
    """Samples of u on the pulled-back metric: (iso* u)(x) = u(iso(x)).

    The pushed mean vanishes analytically (rotation-invariant measure); the
    numerical remainder is folded into the offset.
    """
    TH, PH = np.meshgrid(grid.colat, grid.lon, indexing="ij")
    th2, ph2 = apply_angles(iso, TH.ravel(), PH.ravel())
    vals = grid.evaluate(grid.analyze(u.u), th2, ph2).reshape(TH.shape)
    mean = float(np.real(grid.integrate(vals)))
    return ConformalFactor(vals - mean, u.offset + mean)


def h0_norm_zeta(z, k: int):
    """Squared norm of the canonical section in the constant-curvature metric."""
    return (1.0 + np.abs(z) ** 2) ** (-k)


def at_pole(divisor: Divisor) -> int:
    """Multiplicity a divisor carries at the chart pole (w = 0)."""
    return sum(m for p, m in divisor.points if p.w == 0)


def alpha_stable(spec: BundleSpec, div_eta: int, alpha: float) -> bool:
    """Stability of the extension at slope parameter alpha.

    Equivalent chain: deg_L1 - deg_L2 < alpha < deg_L1 + deg_L2 - 2*div, with
    alpha < 0 required on top (necessary for the metric problem).
    """
    lower = spec.deg_L1 - spec.deg_L2
    upper = spec.deg_L1 + spec.deg_L2 - 2 * div_eta
    return (lower < alpha < upper) and alpha < 0


def random_rotation(rng) -> IsometryAction:
    """A rotation from a Gaussian 4-vector normalized to a unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return IsometryAction(complex(q[0], q[1]), complex(q[2], q[3]))


def rotation_about_axis(angle: float) -> IsometryAction:
    """Rotation about the polar axis: z -> e^{i angle} z."""
    return IsometryAction(cmath.exp(0.5j * angle), 0j)


def apply_z(iso: IsometryAction, z):
    z = np.conj(z) if iso.reverses else np.asarray(z, dtype=complex)
    return (iso.alpha * z + iso.beta) / (-np.conj(iso.beta) * z + np.conj(iso.alpha))


def apply_angles(iso: IsometryAction, theta, phi):
    """Image of points given in (colatitude, longitude); pole-safe."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    z = (np.cos(theta / 2) / np.sin(theta / 2)) * np.exp(1j * phi)
    if iso.reverses:
        z = np.conj(z)
    num = iso.alpha * z + iso.beta
    den = -np.conj(iso.beta) * z + np.conj(iso.alpha)
    theta_new = 2.0 * np.arctan2(np.abs(den), np.abs(num))
    phi_new = np.angle(num * np.conj(den)) % (2.0 * np.pi)
    return theta_new, phi_new


def compose(outer: IsometryAction, inner: IsometryAction) -> IsometryAction:
    """Point map x -> outer(inner(x))."""
    a2, b2 = inner.alpha, inner.beta
    if outer.reverses:
        a2, b2 = np.conj(a2), np.conj(b2)
    alpha = outer.alpha * a2 - outer.beta * np.conj(b2)
    beta = outer.alpha * b2 + outer.beta * np.conj(a2)
    return IsometryAction(complex(alpha), complex(beta), outer.reverses ^ inner.reverses)


def chart_point_from_angles(theta: float, phi: float) -> ChartPoint:
    half = 0.5 * theta
    if half == 0.0:
        return ChartPoint(complex(np.inf), 0j)
    z = (math.cos(half) / math.sin(half)) * complex(math.cos(phi), math.sin(phi))
    return ChartPoint.from_z(z)
