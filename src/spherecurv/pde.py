"""Newton-continuation solver for the scalar curvature system on the sphere.

The unknown is the dilation exponent in  lap(u) + 2 K e^{2u} - lambda = 0
with K the flat-metric squared norm of a holomorphic class.  Galerkin
collocation on the packed real coefficients of every grid transform
(``SphereGrid.analyze``/``synthesize``; entry 0 is the constant);
the Jacobian lap + 4 K e^{2u} is symmetric in that orthonormal basis.  On a
full grid it is inverted matrix-free by the package's own MINRES loop
(``minres``), preconditioned by the diagonal (sigma - lap)^{-1}; no scipy
Krylov solver or linear-operator wrapper is involved.

On a full grid Newton is inexact (Eisenstat & Walker 1996, SIAM J. Sci.
Comput. 17): each correction is solved only as tightly as the outer residual
needs, with the forcing term  rtol_k = min(1e-3, max(minres_rtol,
0.9 (|r_k|/|r_{k-1}|)^2, 0.25 newton_tol/|r_k|))  and 1e-3 on the first
step.  MINRES stops on scipy's test |r|/(|A| |x|) <= rtol, with |r| the
preconditioned residual and |A| its running estimate of the preconditioned
operator's norm, so the forcing term bounds that ratio, not |r|/|b|.  The
line search measures the Euclidean residual, so a loose correction can fail
to decrease |r| at any step size; a correction that fails its residual check
or the line search is solved again once at minres_rtol from the same point.
Only |r| < newton_tol on the exact packed residual accepts a solve.
Continuation ramps lambda from a small value or from a start (a converged
result at a lower coupling), with step halving on Newton failure and Illinois
regula falsi (Dowell & Jarratt 1971, BIT 11) on a refined-grid filter
crossing: a predictor-corrector (Allgower & Georg 2003, SIAM, ch. 2) whose
path is ``_Workspace``'s.  Lambda enters the solve there alone: as the load
e_0 (the residual's -lambda e_0, and the tangent J^{-1} e_0, solved once per
accepted point when the first trial leaves it), through K on the solve and
filter grids, in the cold opening (the constant balance (1/2) log(lambda/M),
M from ``cohomology.flat_mass``), in the filter bound and in the predictor's
step in log(lambda).  A new path replaces the load, K on both grids, the
opening and the predictor; ``_solve`` keeps the path-blind loop.  A start
opens warm from its packed x, zero-padded from its grid by ``embed_packed``,
and a cold solve at l_max >= 48 is nested (Allgower, Boehmer, Potra &
Rheinboldt 1986, SIAM J. Numer. Anal. 23; Deuflhard 2004, ch. 8): its start
is the cold solve at l_max // 2.

One symmetry rule picks every solve grid.  A class of rotation order n
(``HoloClass.rotation_symmetry``) has a Z_n-invariant K and lambda-branch,
so its solve, filter and coarse stages run on the grids of order step
``geometry.symmetric_step(n)``: the full grid for n = 1, a wedge for n >= 2
and m = 0 on one longitude for a monomial (n = 0).  ``initial`` enters
through ``SphereGrid.fold`` and ``SolveResult.u`` through ``SphereGrid.tile``.
On step 0 every correction and tangent is one exact dense
LAPACK solve of the (l_max+1)-square Jacobian: no MINRES, no forcing term,
no re-solve.

A radially symmetric reduction (two-point boundary value problem in the
colatitude) is solved by shooting on the regularized momentum
p = sin(theta) u'; its boundary defect doubles as the existence probe for
axis-concentrated curvature data.  The probe alone needs scipy (``solve_ivp``,
``brentq``), imported on its first call: the rest of the package runs on numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bundles import TANGENT_NORMALIZATION, ConformalFactor, HoloClass, flat_norm_sq, phi_norm_sq
from .cohomology import DualCoords, b_coords, flat_mass
from .errors import InvalidLambda, NonConvergence
from .geometry import SphereGrid, build_grid, symmetric_step


@dataclass
class SolveConfig:
    """Spectral degree of a solve; every other solver value is a fixed constant.

    The constants decide where a continuation stops (the filter, blow-up and
    step-size guards), so they belong to the solver, not to a run config.
    """

    l_max: int = 32
    newton_tol: ClassVar[float] = 1e-10
    max_newton: ClassVar[int] = 30
    continuation_step: ClassVar[float] = 2.0
    min_step: ClassVar[float] = 1e-4
    lambda_init: ClassVar[float] = 0.25
    blowup_sup: ClassVar[float] = 14.0
    # floor of the inexact-Newton forcing term, and the tolerance of the
    # re-solve after a loose correction fails
    minres_rtol: ClassVar[float] = 1e-12
    minres_maxiter: ClassVar[int] = 800
    # loosest MINRES tolerance of an inexact Newton correction
    forcing_cap: ClassVar[float] = 1e-3
    # collocation can fabricate under-resolved equilibria past the true
    # solvable range; accepted points must also pass a refined-grid residual.
    # Resolved solutions sit around 1e-9..1e-3 there, fabricated ones at 1e+2;
    # a branch concentrating near the chart pole beyond the grid's resolution
    # crosses the 0.01*lambda bound at about 0.1, which is where it stalls.
    spurious_tol: ClassVar[float] = 1e-2
    refine_factor: ClassVar[float] = 1.5


# a cold solve at this l_max or above ramps on the l_max // 2 grid first
NESTED_MIN_LMAX = 48


@dataclass
class SolveResult:
    # the solve grid, build_grid(l_max, step) of the class, and u's packed coefficients on it
    grid: SphereGrid
    x: np.ndarray
    lam: float
    residual_sup: float
    converged: bool
    # one entry per Newton solve: (lambda, Newton iterations, |r| or NaN if a guard rejected it)
    continuation_trace: list = field(default_factory=list)
    residual_fine: float = float("nan")
    # MINRES iterations over every Newton step, rejected ramp steps and
    # fallback re-solves included; 0 on step-0 grids, whose solves are dense
    minres_iters: int = 0
    # "converged", or the guard that rejected the step a stall ended on:
    # "init" (the lambda_init solve failed), "newton", "blowup"
    # (sup|u - c| > blowup_sup) or "filter"; and that step's residual_fine
    # (NaN if Newton failed).  "blowup" needs an ``initial=`` start past the
    # bound that Newton accepts in zero steps; a ramp into it reads "newton"
    stop_reason: str = "converged"
    stop_residual_fine: float = float("nan")

    @functools.cached_property
    def u(self) -> ConformalFactor:
        """The full grid's u: x synthesized with its constant split off, then tiled over the full circle."""
        return ConformalFactor(self.grid.tile(self.grid.synthesize(np.concatenate([[0.0], self.x[1:]]))), self.offset)

    @property
    def offset(self) -> float:
        return float(self.x[0])


# ----------------------------------------------------------------------
# residual and Newton
# ----------------------------------------------------------------------


def residual(u: ConformalFactor, phi: HoloClass, lam: float, grid: SphereGrid) -> np.ndarray:
    """Pointwise defect lap(u) + 2|phi|^2_{H_u} - lambda on the grid.

    lap(u) analyzes the given nodal u again.  That round trip moves the
    coefficients by roundoff (1.2e-14 at l_max 32 to 8.8e-14 at 128), and the
    Laplacian's 4*pi*l(l+1) amplifies it: this residual has a floor that
    reads 6.4e-9 to 2.1e-8 on the two-pole solves z^a, k = 4..6, at 4*pi and
    l_max 64, where ``SolveResult.residual_sup``, formed from the solver's
    packed coefficients, reads at most 1.2e-9.
    """
    return grid.laplacian(u.u) + 2.0 * phi_norm_sq(phi, u, grid) - lam


class _Workspace:
    """Residual, Jacobian and lambda-path of one class, K = |phi|^2_{H_0}, on the grid's packed real coefficients.

    The path is every place lambda enters the solve: the ``load`` e_0, K on
    the solve and filter grids (``k_vals``, ``k_fine``), ``cold_opening``, the
    filter bound in ``margin`` and ``predict``.  A new path replaces the load,
    K on both grids, the opening and the predictor.  It holds the solve's tally:
    ``trace``, one entry per Newton solve written by ``_trial``, and
    ``minres_iters``, counted by ``correction``, the one MINRES call.
    """

    def __init__(self, phi: HoloClass, grid: SphereGrid):
        self.trace, self.minres_iters = [], 0
        self.mass = flat_mass(phi)  # integral of 2K; a class out of float range fails here
        self.grid = grid
        self.k_vals = flat_norm_sq(phi, grid)
        self.diag = grid.packed_laplace
        self.n = grid.n_packed
        self.load = np.eye(1, self.n)[0]  # e_0: entry 0's basis function is the constant 1
        self.fine_grid = build_grid(int(SolveConfig.refine_factor * grid.l_max), grid.step)
        self.k_fine = flat_norm_sq(phi, self.fine_grid)

    def residual_sup(self, grid: SphereGrid, x: np.ndarray, u_vals: np.ndarray, lam: float) -> float:
        """sup|lap(u) + 2 K e^{2u} - lambda| on the solve or filter grid: ``residual`` with lap(u) from packed x."""
        k = self.k_vals if grid is self.grid else self.k_fine
        return float(np.abs(grid.synthesize(grid.packed_laplace * x) + 2.0 * k * np.exp(2.0 * u_vals) - lam).max())

    def fine_residual_sup(self, x: np.ndarray, lam: float) -> float:
        """Sup residual with the solution re-evaluated on a refined grid: on any step the full filter,
        as a Z_n-invariant residual's sup is its sup over a wedge, and a theta-only one's over the latitudes."""
        xf = self.fine_grid.embed_packed(x, self.grid)
        return self.residual_sup(self.fine_grid, xf, self.fine_grid.synthesize(xf), lam)

    def margin(self, fine: float, lam: float) -> float:
        """log(residual_fine / filter bound): the filter rejects where it is > 0 or NaN; the bracket seeks its root."""
        return math.log(max(fine / (SolveConfig.spurious_tol * max(1.0, lam)), 1e-300))

    def cold_opening(self, lam: float):
        """(lambda_0, x_0) of a cold solve: the constant balance at lambda_0 = min(lambda_init, lam)."""
        lam = min(SolveConfig.lambda_init, lam)
        return lam, self.balance(lam)

    def balance(self, lam: float) -> np.ndarray:
        """Constant balance c0 = (1/2) log(lambda/M) plus one Poisson correction, valid for small lambda."""
        c0 = 0.5 * math.log(lam / self.mass)
        x, _ = self.grid.poisson_coeffs(lam - 2.0 * self.k_vals * math.exp(2.0 * c0))
        x[0] = c0
        return x

    def tangent(self, weight: np.ndarray) -> np.ndarray:
        """Path tangent dx/dlambda = J^{-1} e_0 (dF/dlambda = -load), J of ``weight``, at ``forcing_cap``."""
        return self.correction(weight, self.load, SolveConfig.forcing_cap)[0]

    def predict(self, x: np.ndarray, tangent: np.ndarray, lam: float, lam_try: float) -> np.ndarray:
        """Newton start at lam_try from the accepted (x, lam): the tangent step in log(lambda).

        It is exact for the constant mode's (1/2) log(lambda), and the ramp
        multiplies lambda by up to 9 in one step, where a step in lambda overshoots.
        """
        return x + (lam * math.log(lam_try / lam)) * tangent

    def evaluate(self, x: np.ndarray, lam: float, sup_max: float = math.inf):
        """(sup|u - c|, residual, Jacobian weight 4 K e^{2u}) at x from one synthesis and one analysis.

        Packed entry 0 is the constant c, so the class's scale cannot move the
        sup.  Where it exceeds ``sup_max`` the residual and weight are None,
        and so they are for a bounded trial (finite ``sup_max``) whose max u
        exceeds ``TRIAL_U_MAX``: sup_max leaves c free.
        Analysis of a band-limited synthesis is exact under the grid's
        quadrature, so lap(u) enters the residual as ``diag * x``.
        """
        u_vals = self.grid.synthesize(x)
        top = float(u_vals.max())
        sup = float(max(top - x[0], x[0] - u_vals.min()))  # max |u - c|, bitwise, from the two extremes
        if sup > sup_max or (top > TRIAL_U_MAX and sup_max < math.inf):
            return sup, None, None
        ke = 2.0 * self.k_vals * np.exp(2.0 * u_vals)
        r = self.grid.analyze(ke) + self.diag * x
        r -= lam * self.load
        return sup, r, 2.0 * ke

    def jacobian_matvec(self, weight: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The Jacobian lap + weight applied to packed y: one synthesis and one analysis, a fresh array."""
        return self.grid.analyze(weight * self.grid.synthesize(y)) + self.diag * y

    def operator(self, weight: np.ndarray):
        """Matvec of the Jacobian lap + weight, and the diagonal (sigma - lap)^{-1} of its preconditioner.

        sigma is the mean weight.
        """
        sigma = max(float(weight.mean()), 1e-8)
        return functools.partial(self.jacobian_matvec, weight), 1.0 / (sigma - self.diag)

    def correction(self, weight: np.ndarray, rhs: np.ndarray, rtol: float):
        """Solve J d = rhs for the Jacobian of ``weight``: (d, failed).

        On a step-0 grid one exact LAPACK solve of the dense block
        ``grid.zonal_gram(weight)`` + diag(lap) (``rtol`` unused), valid since
        the weight 4 K e^{2u} is non-negative, that fails only on a singular
        block, with d = 0.  Elsewhere ``minres`` at ``rtol``, its iterations
        counted, which fails when it hit its iteration limit with
        |J d - rhs| > 0.1 |rhs|.
        """
        if self.grid.step == 0:
            try:
                return np.linalg.solve(self.grid.zonal_gram(weight) + np.diag(self.diag), rhs), False
            except np.linalg.LinAlgError:
                return np.zeros_like(rhs), True
        matvec, pre = self.operator(weight)
        d, info = minres(matvec, rhs, pre, rtol=rtol, maxiter=SolveConfig.minres_maxiter, callback=self._count)
        return d, info != 0 and np.linalg.norm(matvec(d) - rhs) > 0.1 * np.linalg.norm(rhs)

    def _count(self, _x):
        self.minres_iters += 1


def minres(matvec, b, m_diag, *, rtol, maxiter, callback=None):
    """MINRES (Paige & Saunders 1975, SIAM J. Numer. Anal. 12) for symmetric A x = b from x = 0.

    ``m_diag`` is a positive diagonal preconditioner approximating A^{-1}.
    The recurrences and stopping tests are scipy's ``minres``, in the
    preconditioned norm with |A| and cond(A) the running Lanczos estimates:
    it stops when test1 = |r|/(|A| |x|) or test2 = |A r|/(|A| |r|) falls to
    rtol or to roundoff, when cond(A) >= 0.1/eps, when |A| |x| eps >= |b|,
    or on iteration 1 when the next Lanczos vector vanishes.  ``callback(x)``
    runs after each iteration on the live iterate.  Returns (x, info), x a
    fresh array: info is ``maxiter`` when the iteration limit stopped it and
    no other test held, else 0.

    Only ``matvec`` allocates per iteration, and its result must be fresh (r1
    and r2 keep it for two iterations); the other vectors are preallocated,
    rotated by reference and updated in place in the allocating loop's
    operation order, so the result is bitwise the same.
    """
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    z = m_diag * b  # the preconditioned Lanczos vector, scaled in place into v
    beta1 = float(b @ z)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)
    w, w1, w2 = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    v, tmp = np.empty_like(b), np.empty_like(b)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin, cs, sn = 0.0, 0.0, math.inf, -1.0, 0.0
    r1 = r2 = b
    for itn in range(1, maxiter + 1):
        v, z = z, v
        v *= 1.0 / beta
        y = matvec(v)
        if itn >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = float(v @ y)
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, y
        np.multiply(m_diag, r2, out=z)
        oldb, beta = beta, float(r2 @ z)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        vanished = itn == 1 and beta / beta1 <= 10 * eps
        # previous rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2, w = w2, w, w1  # the oldest w's buffer takes the new one
        np.subtract(v, np.multiply(w1, oldeps, out=tmp), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=tmp)
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


# Largest max u of a line-search trial (e^{2u} < 2^256: the residual and its norm
# stay finite).  With sup|u - c| <= blowup_sup, a trial past it has r[0] >
# e^{2 (TRIAL_U_MAX - 2 blowup_sup)} M - lambda, which the decrease test rejects anyway.
TRIAL_U_MAX = 128.0 * math.log(2.0)


def _damped_step(ws: _Workspace, weight, x, r, rnorm, lam, rtol):
    """One ``correction`` at ``rtol`` on the Jacobian of ``weight`` and its halving line search.

    Each trial costs one synthesis and, below ``blowup_sup``, one analysis.
    Returns (x, r, |r|, sup|u - c|, Jacobian weight), or None on failure.
    """
    delta, failed = ws.correction(weight, -r, rtol)
    if failed:
        return None
    step = 1.0
    for _ in range(10):
        x_try = x + step * delta
        sup, r_try, w_try = ws.evaluate(x_try, lam, SolveConfig.blowup_sup)
        if r_try is not None:
            n_try = np.linalg.norm(r_try)
            if n_try < rnorm or n_try < SolveConfig.newton_tol:
                return x_try, r_try, n_try, sup, w_try
        step *= 0.5
    return None


def _newton(ws: _Workspace, x0: np.ndarray, lam: float):
    """Damped Newton at fixed lambda, inexact on a full grid.

    Returns (x, iterations, |r|, ok, sup|u - c|, Jacobian weight at x).
    """
    x = x0.copy()
    sup, r, weight = ws.evaluate(x, lam)
    rnorm = np.linalg.norm(r)
    rprev = None
    for it in range(1, SolveConfig.max_newton + 1):
        if rnorm < SolveConfig.newton_tol:
            return x, it - 1, rnorm, True, sup, weight
        rtol = SolveConfig.forcing_cap
        if rprev is not None:
            forcing = max(SolveConfig.minres_rtol, 0.9 * (rnorm / rprev) ** 2, 0.25 * SolveConfig.newton_tol / rnorm)
            rtol = min(SolveConfig.forcing_cap, forcing)
        new = _damped_step(ws, weight, x, r, rnorm, lam, rtol)
        if new is None and rtol > SolveConfig.minres_rtol and ws.grid.step != 0:  # an exact correction stands
            new = _damped_step(ws, weight, x, r, rnorm, lam, SolveConfig.minres_rtol)
        if new is None:
            return x, it, rnorm, False, sup, weight
        rprev = rnorm
        x, r, rnorm, sup, weight = new
    return x, SolveConfig.max_newton, rnorm, rnorm < SolveConfig.newton_tol, sup, weight


def _trial(ws: _Workspace, x0: np.ndarray, lam: float):
    """Newton at ``lam`` from ``x0``, traced as (lam, iterations, |r| or NaN if a guard rejected it).

    Returns (x, residual_fine, failed guard or None, Jacobian weight at x).
    """
    x, iters, rnorm, ok, sup, weight = _newton(ws, x0, lam)
    fine = ws.fine_residual_sup(x, lam) if ok else math.nan
    if not ok:
        reason = "newton"
    elif sup > SolveConfig.blowup_sup:  # a zero-step Newton run from ``initial`` can still start past the bound
        reason = "blowup"
    else:
        reason = None if ws.margin(fine, lam) <= 0 else "filter"
    ws.trace.append((lam, iters, rnorm if reason is None else float("nan")))
    return x, fine, reason, weight


def solve_phi_system(
    phi: HoloClass,
    lam: float,
    cfg: SolveConfig,
    initial: ConformalFactor | None = None,
    *,
    start: SolveResult | None = None,
) -> SolveResult:
    """Continuation-in-lambda Newton solve of the curvature system.

    The cold opening is one Newton solve, at min(lambda_init, lam) from the
    small-coupling initializer or at lam from ``initial``; if a guard rejects
    it the stop_reason is "init", or for ``initial`` the guard's own.  Lambda
    then ramps to the target with adaptive steps.  ``start``, a converged
    result of the same class at ``start.lam <= lam``, opens warm instead: one
    Newton solve at start.lam from ``start.x`` zero-padded onto this grid
    (``SpecMismatch`` from a grid of another step or a higher degree), the
    first trace entry, then the full step; a rejected warm opening falls back
    to the cold one.  A stalled ramp (step or filter bracket below
    ``min_step``) returns converged=False with the trace, the signature of
    leaving the solvable range; ``lam`` is the last accepted coupling.

    Nested iteration: a cold solve (neither ``initial`` nor ``start``) at
    l_max >= 48 takes the cold solve at l_max // 2, recursively, as its start,
    converged or stalled, unless its opening failed; this grid's filter,
    guards and bracket alone decide the outcome.
    ``continuation_trace`` and ``minres_iters`` count the coarse-grid work
    and a rejected warm opening too.
    """
    if not 0 < lam < math.inf:  # NaN too
        raise InvalidLambda(f"lambda must be positive and finite, got {lam}")
    if initial is not None and start is not None:
        raise ValueError("pass at most one of initial and start")
    if start is not None and not (start.converged and start.lam <= lam):
        raise ValueError(f"start must be converged at a coupling <= {lam}, got {start.lam} ({start.converged=})")
    return _solve(phi, lam, cfg.l_max, initial, start)


def _solve(
    phi: HoloClass, lam: float, l_max: int, initial: ConformalFactor | None, start: SolveResult | None
) -> SolveResult:
    """Body of ``solve_phi_system`` on the l_max grid; the coarse stage calls it, not the public name."""
    grid = build_grid(l_max, symmetric_step(phi.rotation_symmetry()[0]))
    ws = _Workspace(phi, grid)
    opened = False
    if initial is None and start is None and l_max >= NESTED_MIN_LMAX:
        start = _solve(phi, lam, l_max // 2, None, None)
        ws.trace, ws.minres_iters = start.continuation_trace, start.minres_iters
    if start is not None and start.stop_reason != "init":
        x, fine_now, reason, weight = _trial(ws, grid.embed_packed(start.x, start.grid), start.lam)
        opened, lam_now = reason is None, start.lam
    if not opened:
        lam_now, x0 = ws.cold_opening(lam) if initial is None else (lam, grid.analyze(grid.fold(initial.total)))
        x, fine_now, reason, weight = _trial(ws, x0, lam_now)
        if reason is not None:
            return _finish(ws, x, lam_now, fine_now, "init" if initial is None else reason, fine_now)

    # bracket [lam_now, lam_hi] around a filter crossing (lam_hi None without
    # one), margins g_now, g_hi, trials 2% inside; side: the end last moved;
    # tangent: dx/dlambda at the accepted x, solved at its first trial
    step, lam_hi, side, stop, tangent = SolveConfig.continuation_step, None, 0, ("converged", math.nan), None
    while lam_now < lam:
        if lam_hi is None:
            lam_try = min(lam_now + step, lam)
        else:
            t = g_now / (g_now - g_hi)
            lam_try = lam_now + (lam_hi - lam_now) * (0.5 if math.isnan(t) else min(max(t, 0.02), 0.98))
        if tangent is None:
            tangent = ws.tangent(weight)
        x_try, fine, reason, w_try = _trial(ws, ws.predict(x, tangent, lam_now, lam_try), lam_try)
        if reason is None:
            x, lam_now, fine_now, weight, tangent = x_try, lam_try, fine, w_try, None
            if lam_hi is None:
                step = min(step * 1.5, SolveConfig.continuation_step * 4)
            else:  # Illinois: the end kept twice in a row has its margin halved
                g_now, g_hi, side = ws.margin(fine, lam_try), g_hi / 2 if side > 0 else g_hi, 1
        elif reason == "filter":
            g_now = ws.margin(fine_now, lam_now) if lam_hi is None else (g_now / 2 if side < 0 else g_now)
            lam_hi, g_hi, side, stop = lam_try, ws.margin(fine, lam_try), -1, (reason, fine)
        else:
            lam_hi, step, stop = None, 0.5 * (lam_try - lam_now), (reason, fine)
        if (step if lam_hi is None else lam_hi - lam_now) < SolveConfig.min_step:
            return _finish(ws, x, lam_now, fine_now, *stop)
    return _finish(ws, x, lam_now, fine_now, "converged", math.nan)


def _finish(ws: _Workspace, x, lam, fine, reason, stop_fine) -> SolveResult:
    grid = ws.grid
    return SolveResult(
        grid=grid,
        x=x,
        lam=float(lam),
        residual_sup=ws.residual_sup(grid, x, grid.synthesize(np.concatenate([[0.0], x[1:]])) + float(x[0]), lam),
        converged=reason == "converged",
        continuation_trace=ws.trace,
        # NaN only where Newton failed, which left the refined grid unvisited
        residual_fine=ws.fine_residual_sup(x, lam) if math.isnan(fine) else fine,
        minres_iters=ws.minres_iters,
        stop_reason=reason,
        stop_residual_fine=float(stop_fine),
    )


def forward_F(phi: HoloClass, lam: float, cfg: SolveConfig) -> DualCoords:
    """Coordinates of the extension class whose image under the coupling-lam
    dualization map is the given holomorphic class."""
    result = solve_phi_system(phi, lam, cfg)
    if not result.converged:
        raise NonConvergence(f"continuation stalled at lambda={result.lam:.6f}", result.continuation_trace)
    return b_coords(phi, result.u, build_grid(cfg.l_max))


# ----------------------------------------------------------------------
# radial reduction
# ----------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Axis-symmetric curvature data K(theta) = amp * cos^{2a}(t/2) sin^{2b}(t/2)."""

    k: int
    a: int
    amp: float  # includes the 2*pi class normalization

    @classmethod
    def from_class(cls, phi: HoloClass) -> "RadialProfile":
        n, a = phi.rotation_symmetry()
        if n != 0:
            raise ValueError("radial reduction requires a monomial class (divisor on one axis)")
        return cls(k=phi.spec.k, a=a, amp=TANGENT_NORMALIZATION * float(np.abs(phi.a[a]) ** 2))

    def __call__(self, theta):
        b = self.k - 2 - self.a
        return self.amp * np.cos(theta / 2.0) ** (2 * self.a) * np.sin(theta / 2.0) ** (2 * b)


@dataclass
class RadialResult:
    lam: float
    root_alpha: float | None
    mismatch_alphas: np.ndarray
    mismatch_values: np.ndarray
    mismatch_min: float
    error_estimate: float
    # the spectral polish reported: the first converged one, else the first run; None if none ran
    polish: SolveResult | None = None
    # whole sweep at noise level: every start is a root (dilation family at
    # the Gauss-Bonnet coupling); the balanced start is reported
    degenerate_family: bool = False
    # "converged"; "no_root" (no sign change, minimum defect above noise);
    # "polish" (a root, but no spectral polish converged or none re-integrated);
    # or an inconclusive sweep: "shots_failed" (most integrations failed) or
    # "within_noise" (no sign change, minimum defect within the noise)
    reason: str = "converged"

    @property
    def converged(self) -> bool:
        return self.reason == "converged"

    @property
    def u(self) -> ConformalFactor | None:
        return None if self.polish is None else self.polish.u

    @property
    def residual_sup(self) -> float | None:
        return None if self.polish is None else self.polish.residual_sup


def _shoot(profile: RadialProfile, lam: float, alpha: float, rtol: float = 1e-11):
    """Integrate u'' + cot(t) u' = (lam - 2K e^{2u})/(4 pi) from the north cap.

    State is (u, p) with p = sin(t) u'; the boundary defect p(pi-) vanishes
    exactly on regular solutions.  A failed integration, e^{2u} overflowing
    included, returns (nan, None).
    """
    from scipy.integrate import solve_ivp

    eps = 1e-6

    def q(t, u):
        return (lam - 2.0 * profile(t) * math.exp(2.0 * u)) / (4.0 * math.pi)

    def rhs(t, y):
        u, p = y
        return [p / math.sin(t), math.sin(t) * q(t, u)]

    try:
        q0 = q(eps, alpha)
        y0 = [alpha + 0.25 * q0 * eps * eps, 0.5 * q0 * eps * eps]
        sol = solve_ivp(rhs, (eps, math.pi - eps), y0, method="LSODA", rtol=rtol, atol=1e-13, dense_output=True)
    except OverflowError:  # e^{2u} past the float range: a failed shot
        return math.nan, None
    if not sol.success:
        return math.nan, None
    return sol.y[1, -1], sol


def solve_radial(phi: HoloClass, lam: float, cfg: SolveConfig) -> RadialResult:
    """Shooting sweep for the radially symmetric reduction of a monomial class.

    Scans the free initial value over 49 points of [-9, 3] about the
    constant-balance value, records the boundary-defect curve, and refines
    any sign change by bisection.  Each candidate root in turn starts one
    spectral Newton solve of phi at ``lam`` (``initial``); the first converged
    polish is the result, else the first polish, unconverged.  If no candidate
    integrates again, the first candidate is root_alpha, unpolished and
    unconverged.  Without a sign change the minimum defect and an
    integration-error estimate are reported.  An inconclusive sweep returns
    an unconverged result; ``reason`` says why.
    """
    from scipy.optimize import brentq

    if not 0 < lam < math.inf:  # NaN too
        raise InvalidLambda(f"lambda must be positive and finite, got {lam}")
    center = 0.5 * math.log(lam / flat_mass(phi))  # a class out of float range fails here, before its profile
    profile = RadialProfile.from_class(phi)

    n_sweep = 49
    alphas = np.linspace(-9.0 + center, 3.0 + center, n_sweep)
    values = np.array([_shoot(profile, lam, float(a))[0] for a in alphas])
    good = np.isfinite(values)
    if good.sum() < n_sweep // 2:
        return RadialResult(
            lam=lam, root_alpha=None, mismatch_alphas=alphas,
            mismatch_values=values, mismatch_min=float(np.abs(values[good]).min(initial=math.inf)),
            error_estimate=math.nan, reason="shots_failed",
        )

    # integration-error scale: three sweep points shot again at rtol 1e-8
    err_est = 1e-13
    for i in (0, n_sweep // 2, n_sweep - 1):
        coarse, _ = _shoot(profile, lam, float(alphas[i]), rtol=1e-8)
        if math.isfinite(coarse) and math.isfinite(values[i]):
            err_est = max(err_est, abs(coarse - values[i]))

    mism_min = float(np.abs(values[good]).min())
    sign_changes = [
        i
        for i in range(n_sweep - 1)
        if good[i] and good[i + 1] and values[i] * values[i + 1] < 0
    ]
    roots = [
        brentq(lambda a: _shoot(profile, lam, a)[0], float(alphas[i]), float(alphas[i + 1]), xtol=1e-12)
        for i in sign_changes
    ]
    # a touching (non-crossing) zero or a whole flat family leaves no sign
    # change; the sweep minimum is then also a candidate start, tried first
    if mism_min < 1e-4 * max(1.0, lam):
        roots.insert(0, float(alphas[good][np.argmin(np.abs(values[good]))]))
    sweep = dict(
        lam=lam, mismatch_alphas=alphas, mismatch_values=values, mismatch_min=mism_min, error_estimate=err_est
    )
    if not roots:
        reason = "within_noise" if mism_min < 10.0 * err_est else "no_root"
        return RadialResult(root_alpha=None, reason=reason, **sweep)

    # polish each candidate on the spectral grid (a step-0 solve); the first converged polish wins
    grid = build_grid(cfg.l_max, 0)
    best = None
    for root in roots:
        _, sol = _shoot(profile, lam, float(root))
        if sol is None:
            continue
        u_init = ConformalFactor.from_values(sol.sol(grid.colat)[0][:, None], grid)  # the one zonal longitude
        polish = solve_phi_system(phi, lam, cfg, initial=u_init)
        if best is None or polish.converged:
            best = (float(root), polish)
        if polish.converged:
            break
    if best is None:
        # no candidate root could be integrated again to start the polish; the first is still a root
        return RadialResult(root_alpha=roots[0], reason="polish", **sweep)
    root, polish = best
    noise_fraction = float(np.mean(np.abs(values[good]) < 1e-6 * max(1.0, lam)))
    return RadialResult(
        root_alpha=root,
        polish=polish,
        degenerate_family=noise_fraction > 0.75,
        reason="converged" if polish.converged else "polish",
        **sweep,
    )
