import collections
import dataclasses
import re
import warnings

import numpy as np
import pytest

from spherecurv.bundles import BundleSpec, ConformalFactor, HoloClass, phi_norm_sq
from spherecurv.cohomology import b_coords, dual_map_H0, flat_mass, projective_angle, pullback_class, pullback_dual, IsometryAction
from spherecurv.errors import InvalidLambda, NonConvergence, SpecMismatch
from spherecurv.geometry import SphereGrid, build_grid
from spherecurv.pde import (
    RadialProfile,
    SolveConfig,
    _Workspace,
    forward_F,
    minres,
    residual,
    SolveResult,
    solve_phi_system,
    solve_radial,
)

from conftest import random_real_field, requested_grids
from oracles import compose, minres_allocating, random_rotation


def spec_k(k):
    return BundleSpec(0, k)


def monomial(k, a, amp=1.0):
    v = np.zeros(k - 1, dtype=complex)
    v[a] = amp
    return HoloClass(spec_k(k), v)


class TestResidual:
    def test_constant_balance(self, grid16):
        # k=2, g=1: |phi|^2 = 2*pi, u = (1/2) log(lam/(4*pi)) constant
        lam = 7.3
        phi = monomial(2, 0)
        u = ConformalFactor(np.zeros((grid16.n_lat, grid16.n_lon)), 0.5 * np.log(lam / (4 * np.pi)))
        r = residual(u, phi, lam, grid16)
        assert np.abs(r).max() < 1e-10

    def test_round_sphere_zero(self, grid16):
        phi = monomial(2, 0)
        u = ConformalFactor.zero(grid16)
        r = residual(u, phi, 4 * np.pi, grid16)
        assert np.abs(r).max() < 1e-10

    def test_mean_identity(self, grid16):
        rng = np.random.default_rng(60)
        phi = HoloClass(spec_k(4), rng.normal(size=3) + 1j * rng.normal(size=3))
        u = ConformalFactor.from_values(0.3 * random_real_field(grid16, rng, l_hi=6), grid16)
        lam = 2.0
        r = residual(u, phi, lam, grid16)
        mass = grid16.integrate(2 * phi_norm_sq(phi, u, grid16))
        assert abs(grid16.integrate(r) - (mass - lam)) < 1e-9

    @pytest.mark.parametrize("l_max", [16, 33])
    def test_packed_residual_matches_pointwise(self, l_max):
        # the packed residual takes lap(u) as diag * x: analysis of the
        # pointwise defect of a band-limited u must give the same vector
        grid = build_grid(l_max)
        rng = np.random.default_rng(64 + l_max)
        phi = HoloClass(spec_k(4), rng.normal(size=3) + 1j * rng.normal(size=3))
        ws = _Workspace(phi, grid)
        x = rng.normal(size=ws.n) / np.sqrt(ws.n)
        u = ConformalFactor(grid.synthesize(np.concatenate([[0.0], x[1:]])), x[0])
        lam = 3.0
        expected = grid.analyze(residual(u, phi, lam, grid))
        assert np.abs(ws.evaluate(x, lam)[1] - expected).max() < 1e-12 * np.abs(expected).max()


class TestJacobian:
    def test_matches_finite_differences(self, grid16):
        rng = np.random.default_rng(61)
        phi = HoloClass(spec_k(4), rng.normal(size=3) + 1j * rng.normal(size=3))
        ws = _Workspace(phi, grid16)
        x = rng.normal(size=ws.n) * 0.1
        lam = 1.0
        op, _ = ws.operator(ws.evaluate(x, 0.0)[2])
        d = rng.normal(size=ws.n)
        d /= np.linalg.norm(d)
        eps = 1e-6
        fd = (ws.evaluate(x + eps * d, lam)[1] - ws.evaluate(x - eps * d, lam)[1]) / (2 * eps)
        rel = np.linalg.norm(op(d) - fd) / np.linalg.norm(fd)
        assert rel < 1e-6

    def test_symmetric_operator(self, grid16):
        rng = np.random.default_rng(62)
        phi = monomial(3, 1)
        ws = _Workspace(phi, grid16)
        x = rng.normal(size=ws.n) * 0.1
        op, _ = ws.operator(ws.evaluate(x, 0.0)[2])
        a = rng.normal(size=ws.n)
        b = rng.normal(size=ws.n)
        assert abs(np.dot(a, op(b)) - np.dot(b, op(a))) < 1e-8 * np.linalg.norm(a) * np.linalg.norm(b)


class TestMinres:
    # the package's MINRES against scipy's, which it reproduces recurrence for recurrence
    @staticmethod
    def scipy_solve(matvec, b, m_diag, rtol, maxiter=800):
        from scipy.sparse.linalg import LinearOperator
        from scipy.sparse.linalg import minres as scipy_minres

        n = len(b)
        iters = []
        x, info = scipy_minres(
            LinearOperator((n, n), matvec=matvec, dtype=float),
            b,
            M=LinearOperator((n, n), matvec=lambda y: m_diag * y, dtype=float),
            rtol=rtol,
            maxiter=maxiter,
            callback=iters.append,
        )
        return x, info, len(iters)

    @staticmethod
    def own_solve(matvec, b, m_diag, rtol, maxiter=800):
        iters = []
        x, info = minres(matvec, b, m_diag, rtol=rtol, maxiter=maxiter, callback=iters.append)
        return x, info, len(iters)

    @staticmethod
    def indefinite_system(n=120, negative=15):
        rng = np.random.default_rng(71)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        ev = np.concatenate([rng.uniform(1.0, 20.0, n - negative), -rng.uniform(0.5, 5.0, negative)])
        a = (q * ev) @ q.T
        return (lambda v: a @ v), rng.normal(size=n), rng.uniform(0.2, 3.0, n)

    def test_indefinite_system_matches_scipy(self):
        matvec, b, m_diag = self.indefinite_system()
        for rtol in (1e-3, 1e-8, 1e-12):
            x_ref, info_ref, n_ref = self.scipy_solve(matvec, b, m_diag, rtol)
            x, info, n = self.own_solve(matvec, b, m_diag, rtol)
            assert info == info_ref == 0
            assert n == n_ref > 0
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_iteration_limit(self):
        matvec, b, m_diag = self.indefinite_system()
        x, info, n = self.own_solve(matvec, b, m_diag, 1e-12, maxiter=5)
        x_ref, info_ref, _ = self.scipy_solve(matvec, b, m_diag, 1e-12, maxiter=5)
        assert info == info_ref == 5 and n == 5
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_zero_rhs(self):
        matvec, b, m_diag = self.indefinite_system()
        x, info, n = self.own_solve(matvec, np.zeros_like(b), m_diag, 1e-8)
        assert info == 0 and n == 0
        assert not x.any()

    @pytest.mark.parametrize(
        "m_diag,message",
        [([-1.0, -1.0], "indefinite preconditioner"), ([1.0, -1.0], "non-symmetric matrix")],
        ids=["negative", "mixed_sign"],
    )
    def test_rejects_a_preconditioner_that_is_not_positive(self, m_diag, message):
        # a negative diagonal fails the first Lanczos norm; a mixed-sign one
        # passes it from b = e_1 and fails the next
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match=message):
            minres(lambda v: a @ v, np.array([1.0, 0.0]), np.array(m_diag), rtol=1e-12, maxiter=10)

    def test_callback_counts_iterations(self):
        # the callback sees each iterate once; with rtol 0 only maxiter stops it
        matvec, b, m_diag = self.indefinite_system(n=40, negative=5)
        seen = []
        x, info = minres(matvec, b, m_diag, rtol=0.0, maxiter=12, callback=lambda xk: seen.append(xk.copy()))
        assert info == 12 and len(seen) == 12
        assert np.array_equal(seen[-1], x)

    @staticmethod
    def jacobian_system():
        grid = build_grid(16)
        rng = np.random.default_rng(72)
        phi = HoloClass(spec_k(5), rng.normal(size=4) + 1j * rng.normal(size=4))
        ws = _Workspace(phi, grid)
        # a Newton start at 2*pi: the small-coupling guess plus a smooth perturbation
        x = ws.balance(2 * np.pi) + 0.05 * rng.normal(size=ws.n) / np.arange(1, ws.n + 1)
        _, r, weight = ws.evaluate(x, 2 * np.pi)
        matvec, m_diag = ws.operator(weight)
        return matvec, -r, m_diag

    @pytest.mark.parametrize("system", ["indefinite_system", "jacobian_system"])
    def test_bitwise_equal_to_the_allocating_loop(self, system):
        # the in-place loop keeps the allocating loop's operation order; the
        # callback sees the same iterates, and maxiter=7 stops it early
        matvec, b, m_diag = getattr(self, system)()
        for rtol, maxiter in ((1e-3, 800), (1e-8, 800), (1e-12, 800), (0.0, 7)):
            seen, seen_ref = [], []
            x, info = minres(matvec, b, m_diag, rtol=rtol, maxiter=maxiter, callback=lambda xk: seen.append(xk.copy()))
            x_ref, info_ref = minres_allocating(
                matvec, b, m_diag, rtol=rtol, maxiter=maxiter, callback=lambda xk: seen_ref.append(xk.copy())
            )
            assert info == info_ref and len(seen) == len(seen_ref) > 0
            assert x.tobytes() == x_ref.tobytes()
            assert all(a.tobytes() == c.tobytes() for a, c in zip(seen, seen_ref))

    def test_returns_a_fresh_array(self):
        matvec, b, m_diag = self.indefinite_system(n=40, negative=5)
        b_copy = b.copy()
        x1, _ = minres(matvec, b, m_diag, rtol=1e-8, maxiter=100)
        x2, _ = minres(matvec, b, m_diag, rtol=1e-8, maxiter=100)
        assert x1 is not x2 and not np.shares_memory(x1, x2)
        assert not np.shares_memory(x1, b) and not np.shares_memory(x2, b)
        assert np.array_equal(b, b_copy) and np.array_equal(x1, x2)

    def test_jacobian_matches_scipy(self):
        matvec, rhs, m_diag = self.jacobian_system()
        for rtol in (1e-3, 1e-8, 1e-12):
            x_ref, info_ref, n_ref = self.scipy_solve(matvec, rhs, m_diag, rtol)
            delta, info, n = self.own_solve(matvec, rhs, m_diag, rtol)
            assert info == info_ref == 0
            assert n == n_ref > 0
            assert np.linalg.norm(delta - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


class TestSolve:
    def test_round_sphere(self):
        cfg = SolveConfig(l_max=16)
        res = solve_phi_system(monomial(2, 0), 4 * np.pi, cfg)
        assert res.converged
        assert np.abs(res.u.total).max() < 1e-10
        assert res.residual_sup < 1e-10

    def test_residual_sup_is_the_pointwise_residual(self):
        # the solve computes it from its own K and packed solution; the public
        # residual analyzes the returned u again, so the two agree to that
        # round trip's floor (1.2e-14 * lam at l_max 16, 3.1e-13 * lam at 24 here)
        phi = edge_random_class(4)
        for l_max, lam in ((16, 2 * np.pi), (24, 4 * np.pi)):
            res = solve_phi_system(phi, lam, SolveConfig(l_max=l_max))
            public = np.abs(residual(res.u, phi, res.lam, build_grid(l_max))).max()
            assert abs(res.residual_sup - public) <= 1e-10 * res.lam

    def test_two_pole_residual_at_lmax_64(self):
        # residual_sup measures the solution, not the round trip through u,
        # which alone read up to 2.1e-8 on these solves
        for k, a in [(4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)]:
            res = solve_phi_system(monomial(k, a), 4 * np.pi, SolveConfig(l_max=64))
            assert res.converged and res.residual_sup < 1e-8, (k, a, res.residual_sup)

    def test_opposite_poles_4pi(self):
        cfg = SolveConfig(l_max=24)
        res = solve_phi_system(monomial(4, 1), 4 * np.pi, cfg)
        assert res.converged
        # sup-norm slack over the L2 target (saturates at the transform
        # roundoff floor only beyond l_max ~ 32)
        assert res.residual_sup < 10 * cfg.newton_tol

    def test_conservation_along_continuation(self):
        cfg = SolveConfig(l_max=16)
        res = solve_phi_system(monomial(4, 1), 4 * np.pi, cfg)
        grid = build_grid(16)
        mass = grid.integrate(2 * phi_norm_sq(monomial(4, 1), res.u, grid))
        assert abs(mass - res.lam) < 1e-8
        # every accepted point met the L2 target, which bounds the mean defect
        accepted = [r for _, _, r in res.continuation_trace if np.isfinite(r)]
        assert accepted and max(accepted) < cfg.newton_tol

    def test_concentrated_divisor_stalls(self):
        # the all-at-one-point class caps at 4*pi; continuation must fail
        # honestly (step collapse), not fabricate an aliased equilibrium
        cfg = SolveConfig(l_max=16)
        res = solve_phi_system(monomial(4, 2), 4 * np.pi, cfg)
        assert not res.converged
        assert res.lam < 4 * np.pi
        assert len(res.continuation_trace) > 3

    def test_blowup_guard_ignores_the_class_scale(self):
        # the solution for s*phi is the one for phi shifted by -log|s|; the
        # guard bounds sup|u - c|, so every scale converges to the same metric
        cfg = SolveConfig(l_max=24)
        grid = build_grid(24)
        ref = solve_phi_system(monomial(4, 1), 2 * np.pi, cfg)
        b_ref = b_coords(monomial(4, 1), ref.u, grid).b
        for s in (1.0, 1e-7, 1e7):
            res = solve_phi_system(monomial(4, 1, s), 2 * np.pi, cfg)
            assert res.converged, (s, res.stop_reason)
            assert np.abs(res.u.total + np.log(s) - ref.u.total).max() < 1e-12
            assert projective_angle(b_coords(monomial(4, 1, s), res.u, grid).b, b_ref) < 1e-12

    @pytest.mark.parametrize("s", [1e-170, 1e-160, 1e160])
    def test_class_out_of_float_range_is_refused(self, s):
        # both solvers open at log(lambda / flat mass), which raised ZeroDivisionError
        # (1e-170), returned offset inf (1e-160) or hit a math domain error (1e160)
        # where the mass is not a positive normal float; flat_mass refuses it
        for solve in (solve_phi_system, solve_radial):
            with pytest.raises(ValueError, match=re.escape(f"class of max|a| = {s:.3g} is out of float range")):
                solve(monomial(4, 1, s), 2 * np.pi, SolveConfig(l_max=16))

    def test_start_continues_the_ramp(self):
        cfg = SolveConfig(l_max=16)
        phi = monomial(4, 1)
        start = solve_phi_system(phi, 2 * np.pi, cfg)
        warm = solve_phi_system(phi, 3 * np.pi, cfg, start=start)
        cold = solve_phi_system(phi, 3 * np.pi, cfg)
        assert warm.converged and warm.lam == 3 * np.pi
        # the trace opens with the zero-step Newton solve at start.lam, then ramps past it
        (lam0, iters0, rnorm0), (lam1, _, _) = warm.continuation_trace[:2]
        assert (lam0, iters0) == (start.lam, 0) and rnorm0 < SolveConfig.newton_tol
        assert lam1 > start.lam
        assert np.abs(warm.u.total - cold.u.total).max() < 1e-8

    def test_start_must_be_converged_below_target(self):
        cfg = SolveConfig(l_max=16)
        stalled = solve_phi_system(monomial(4, 2), 4 * np.pi, cfg)
        assert not stalled.converged
        with pytest.raises(ValueError, match="start"):
            solve_phi_system(monomial(4, 2), 4 * np.pi, cfg, start=stalled)
        above = solve_phi_system(monomial(4, 1), 2 * np.pi, cfg)
        with pytest.raises(ValueError, match="start"):
            solve_phi_system(monomial(4, 1), np.pi, cfg, start=above)
        with pytest.raises(ValueError, match="at most one"):
            solve_phi_system(monomial(4, 1), 3 * np.pi, cfg, above.u, start=above)
        # a start from a finer grid is a usage error, not a failed reshape
        finer = solve_phi_system(monomial(4, 1), np.pi, SolveConfig(l_max=24))
        with pytest.raises(SpecMismatch, match="step 0, l_max 24 do not embed in step 0, l_max 16"):
            solve_phi_system(monomial(4, 1), 3 * np.pi, cfg, start=finer)

    def test_start_of_another_rotation_step_is_rejected(self):
        # a start's packed coefficients live on the grid of its class's order
        # step.  The step-0 l_max-15 result has 16 entries, as many as the full
        # grid's degrees <= 3, which took them silently; the l_max-16 one's 17
        # failed inside numpy on the step-4 wedge
        zonal15 = solve_phi_system(monomial(4, 1), np.pi, SolveConfig(l_max=15))
        full = HoloClass(spec_k(4), [1, 1j] @ np.random.default_rng(4).normal(size=(2, 3)))
        with pytest.raises(SpecMismatch, match="step 0, l_max 15 do not embed in step 1, l_max 16"):
            solve_phi_system(full, 2 * np.pi, SolveConfig(l_max=16), start=zonal15)
        zonal16 = solve_phi_system(monomial(4, 1), np.pi, SolveConfig(l_max=16))
        with pytest.raises(SpecMismatch, match="step 0, l_max 16 do not embed in step 4, l_max 16"):
            solve_phi_system(pole_balanced_ring(), 2 * np.pi, SolveConfig(l_max=16), start=zonal16)

    def test_initial_off_the_grid_is_rejected(self):
        # initial= holds full-grid or solve-grid node values at this l_max.  An
        # l_max-16 u failed inside numpy's reshape on the l_max-24 wedge; a
        # 25 x 7 array opened the zonal solve, and 25 x 104 was averaged as two
        # copies of the full grid's 52 longitudes
        cfg = SolveConfig(l_max=24)
        coarse = solve_phi_system(pole_balanced_ring(), 2 * np.pi, SolveConfig(l_max=16))
        with pytest.raises(SpecMismatch, match=r"\(17, 36\) is neither grid \(25, 13\) nor the full \(25, 52\)"):
            solve_phi_system(pole_balanced_ring(), 2 * np.pi, cfg, initial=coarse.u)
        with pytest.raises(SpecMismatch, match=r"\(25, 7\) is neither grid \(25, 1\)"):
            solve_phi_system(monomial(4, 1), 2 * np.pi, cfg, initial=ConformalFactor(np.zeros((25, 7))))
        full = HoloClass(spec_k(5), [1, 1j] @ np.random.default_rng(5).normal(size=(2, 4)))
        with pytest.raises(SpecMismatch, match=r"\(25, 104\) is neither grid \(25, 52\)"):
            solve_phi_system(full, 2 * np.pi, cfg, initial=ConformalFactor(np.zeros((25, 104))))

    def test_invalid_lambda(self):
        # a NaN target used to end the ramp at once: converged at lambda_init;
        # an infinite one ran a ramp to a filter stall
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidLambda):
                solve_phi_system(monomial(2, 0), lam, SolveConfig(l_max=16))

    def test_config_validation(self):
        # the tolerances are constants, not arguments: setting one is an error
        with pytest.raises(TypeError):
            SolveConfig(newton_tol=0.0)

    def test_config_keeps_one_setting(self):
        assert tuple(f.name for f in dataclasses.fields(SolveConfig)) == ("l_max",)
        constants = dict(
            newton_tol=1e-10,
            max_newton=30,
            continuation_step=2.0,
            min_step=1e-4,
            lambda_init=0.25,
            blowup_sup=14.0,
            minres_rtol=1e-12,
            minres_maxiter=800,
            forcing_cap=1e-3,
            spurious_tol=1e-2,
            refine_factor=1.5,
        )
        cfg = SolveConfig(l_max=16)
        assert {name: getattr(cfg, name) for name in constants} == constants

    def test_high_coupling_needs_resolution(self):
        # near the top of the first existence band solutions concentrate: a
        # random class reaches lambda=11 at l_max=32 but not at l_max=24,
        # and the l_max=32 solution is genuine (small refined-grid residual)
        rng = np.random.default_rng(123)
        phi = HoloClass(spec_k(4), rng.normal(size=3) + 1j * rng.normal(size=3))
        coarse = solve_phi_system(phi, 11.0, SolveConfig(l_max=24))
        fine = solve_phi_system(phi, 11.0, SolveConfig(l_max=32))
        assert not coarse.converged
        assert fine.converged and fine.residual_fine < 1e-1

    def test_uniqueness_probe_symmetric(self):
        # perturbed restarts at fixed parameters fall back to one solution
        cfg = SolveConfig(l_max=16)
        phi = monomial(4, 1)
        lam = 2 * np.pi
        base = solve_phi_system(phi, lam, cfg)
        assert base.converged
        rng = np.random.default_rng(63)
        grid = build_grid(16)
        sols = []
        for _ in range(4):
            f = random_real_field(grid, rng, l_hi=4)
            bump = 0.1 * f / np.abs(f).max()
            init = ConformalFactor.from_values(base.u.total + bump, grid)
            res = solve_phi_system(phi, lam, cfg, initial=init)
            assert res.converged
            sols.append(res.u.total)
        for s in sols[1:]:
            assert np.abs(s - sols[0]).max() < 1e-6


class TestPredictor:
    # every ramp trial starts from the accepted point plus its log-lambda
    # tangent step, the tangent J^{-1} e_0 solved once per accepted point

    def test_ramp_points_take_few_newton_steps(self):
        # from the unchanged accepted point each ramp step took 5 Newton steps
        res = solve_phi_system(monomial(4, 1), 4 * np.pi, SolveConfig(l_max=16))
        assert res.converged
        ramp = res.continuation_trace[1:]
        assert len(ramp) >= 3 and all(np.isfinite(r) for _, _, r in ramp)
        assert max(iters for _, iters, _ in ramp) <= 3

    def test_minres_iters_include_the_tangent_solves(self, monkeypatch):
        # a full-grid solve: MINRES makes every correction and every tangent
        import spherecurv.pde as pde

        calls = []  # (tangent solve?, iterations)
        exact = pde.minres

        def counting(op, rhs, *args, **kwargs):
            iters = [0]
            inner = kwargs.pop("callback")

            def callback(xk):
                iters[0] += 1
                inner(xk)

            out = exact(op, rhs, *args, callback=callback, **kwargs)
            tangent = rhs[0] == 1.0 and not rhs[1:].any()
            calls.append((tangent, iters[0]))
            return out

        monkeypatch.setattr(pde, "minres", counting)
        res = solve_phi_system(pole_balanced_ring(), 4 * np.pi, SolveConfig(l_max=16))
        assert res.converged
        tangents = [n for tangent, n in calls if tangent]
        # one tangent per accepted point a trial started from: all but the last
        assert len(tangents) == len(res.continuation_trace) - 1 and min(tangents) > 0
        assert res.minres_iters == sum(n for _, n in calls)

    def test_axisymmetric_tangents_are_dense_solves(self, monkeypatch):
        # on the m = 0 grid the tangent, like every correction, is one dense solve
        import spherecurv.pde as pde

        calls, tangents = [], []
        monkeypatch.setattr(pde, "minres", lambda *args, **kwargs: calls.append(args))
        tangent = pde._Workspace.tangent
        monkeypatch.setattr(pde._Workspace, "tangent", lambda *args: tangents.append(args) or tangent(*args))
        res = solve_phi_system(monomial(4, 1), 4 * np.pi, SolveConfig(l_max=16))
        assert res.converged and res.minres_iters == 0 and not calls
        assert len(tangents) == len(res.continuation_trace) - 1

    def test_solve_at_its_opening_computes_no_tangent(self, monkeypatch):
        import spherecurv.pde as pde

        cfg = SolveConfig(l_max=16)
        base = solve_phi_system(monomial(4, 1), 2 * np.pi, cfg)
        tangents = []
        tangent = pde._Workspace.tangent
        monkeypatch.setattr(pde._Workspace, "tangent", lambda *args: tangents.append(args) or tangent(*args))
        polish = solve_phi_system(monomial(4, 1), 2 * np.pi, cfg, base.u)
        same = solve_phi_system(monomial(4, 1), 2 * np.pi, cfg, start=base)
        assert polish.converged and same.converged and not tangents
        # a warm solve's first entry is its opening at start.lam: no tangent there, one per trial after it
        warm = solve_phi_system(monomial(4, 1), 3 * np.pi, cfg, start=base)
        assert warm.converged and warm.continuation_trace[0][:2] == (base.lam, 0)
        assert len(tangents) == len(warm.continuation_trace) - 1


class TestInexactNewton:
    # b at 4*pi, l_max 32, as the exact-MINRES Newton (every correction at
    # rtol 1e-12) computed it, of z on k=4 and of the pole-balanced ring
    # z (z^4 - 1) on k=8; the coupling identity makes them 2*pi and +-pi
    B_EXACT_NEWTON = np.array([0.0, 6.283185307179687, 0.0])
    B_EXACT_NEWTON_RING = np.array([0.0, -3.1415926535902363, 0.0, 0.0, 0.0, 3.1415926535902359, 0.0])

    @staticmethod
    def b_at_4pi(phi, res, l_max):
        return b_coords(phi, res.u, build_grid(l_max)).b

    def test_forcing_terms_cut_minres_work(self):
        phi = pole_balanced_ring()
        res = solve_phi_system(phi, 4 * np.pi, SolveConfig(l_max=32))
        assert res.converged
        assert 0 < res.minres_iters <= 100  # 110 with every correction at 1e-12
        b = self.b_at_4pi(phi, res, 32)
        assert np.linalg.norm(b - self.B_EXACT_NEWTON_RING) < 1e-9 * np.linalg.norm(self.B_EXACT_NEWTON_RING)

    def test_axisymmetric_corrections_are_exact(self, monkeypatch):
        # on the m = 0 grid every correction is one dense solve: no MINRES call
        import spherecurv.pde as pde

        calls = []
        monkeypatch.setattr(pde, "minres", lambda *args, **kwargs: calls.append(args))
        res = solve_phi_system(monomial(4, 1), 4 * np.pi, SolveConfig(l_max=32))
        assert res.converged and res.minres_iters == 0 and not calls
        b = self.b_at_4pi(monomial(4, 1), res, 32)
        assert np.linalg.norm(b - self.B_EXACT_NEWTON) < 1e-9 * np.linalg.norm(self.B_EXACT_NEWTON)

    def test_failed_loose_correction_is_resolved_tight(self, monkeypatch):
        # every loose MINRES call returns a useless zero correction: the line
        # search cannot decrease |r|, so only the re-solve at minres_rtol moves
        import spherecurv.pde as pde

        cfg = SolveConfig(l_max=16)
        phi = pole_balanced_ring()
        reference = solve_phi_system(phi, 4 * np.pi, cfg)
        exact = pde.minres
        loose = []

        def zero_when_loose(op, rhs, *args, rtol, **kwargs):
            if rtol > cfg.minres_rtol:
                loose.append(rtol)
                return np.zeros_like(rhs), 0
            return exact(op, rhs, *args, rtol=rtol, **kwargs)

        monkeypatch.setattr(pde, "minres", zero_when_loose)
        res = solve_phi_system(phi, 4 * np.pi, cfg)
        assert loose and res.converged
        b, b_ref = self.b_at_4pi(phi, res, 16), self.b_at_4pi(phi, reference, 16)
        assert np.linalg.norm(b - b_ref) < 1e-9 * np.linalg.norm(b_ref)

    def test_singular_block_fails_the_step(self, monkeypatch):
        # weight 0 leaves the constant mode's row of the m = 0 block zero: the
        # LinAlgError of the dense solve is a failed correction, never raised
        import spherecurv.pde as pde

        ws = _Workspace(monomial(4, 1), build_grid(16, 0))
        x = ws.balance(1.0)
        _, r, weight = ws.evaluate(x, 1.0)
        zero = np.zeros_like(weight)
        assert ws.correction(zero, -r, SolveConfig.forcing_cap)[1]
        assert pde._damped_step(ws, zero, x, r, np.linalg.norm(r), 1.0, SolveConfig.forcing_cap) is None

        # above 2 pi every weight is 0: each trial there fails its first
        # correction, which is not solved again, and the ramp stops on "newton"
        fail_above = 2 * np.pi
        evaluate, correction = pde._Workspace.evaluate, pde._Workspace.correction
        failed = []

        def zero_weight_above(ws, x, lam, sup_max=np.inf):
            sup, r, weight = evaluate(ws, x, lam, sup_max)
            return sup, r, 0.0 * weight if lam > fail_above and weight is not None else weight

        def recording(ws, weight, rhs, rtol):
            out = correction(ws, weight, rhs, rtol)
            failed.append(out[1])
            return out

        monkeypatch.setattr(pde._Workspace, "evaluate", zero_weight_above)
        monkeypatch.setattr(pde._Workspace, "correction", recording)
        res = solve_phi_system(monomial(4, 1), 4 * np.pi, SolveConfig(l_max=16))
        assert res.stop_reason == "newton" and not res.converged
        assert fail_above - 2 * SolveConfig.min_step < res.lam <= fail_above
        above = [(iters, rnorm) for lam, iters, rnorm in res.continuation_trace if lam > fail_above]
        assert len(above) >= 3 and all(iters == 1 and np.isnan(rnorm) for iters, rnorm in above)
        assert sum(failed) == len(above)


class TestTransformCount:
    def test_one_synthesis_and_analysis_per_line_search_trial(self, monkeypatch):
        # a monomial class solves on the m = 0 grid, where no correction calls MINRES
        self.count_on_the_solve_grid(monkeypatch, monomial(4, 1), 4 * np.pi, 0)

    def test_a_non_monomial_class_solves_on_the_full_grid(self, monkeypatch):
        # a seeded random class has no rotation symmetry (n = 1)
        self.count_on_the_solve_grid(monkeypatch, edge_random_class(4), 2 * np.pi, 1)

    def test_a_ring_class_solves_on_a_step_4_wedge(self, monkeypatch):
        # z (z^4 - 1) is Z_4-symmetric: a quarter of the longitudes, orders m in 4Z
        self.count_on_the_solve_grid(monkeypatch, pole_free_ring(), 2 * np.pi, 4)

    @staticmethod
    def count_on_the_solve_grid(monkeypatch, phi, lam, step):
        # On the solve grid and outside MINRES's matvecs, each line-search
        # trial and each Newton start costs one synthesis and one analysis
        # (one evaluated point); the Jacobian reuses the accepted trial's
        # weight.  The rest of the solve adds the initial guess's analysis, the
        # returned u's synthesis and the synthesis of the returned residual's
        # Laplacian, taken from the packed solution; each matvec costs one of each.  A step-0 grid's
        # corrections are dense solves that run no matvec and no MINRES.
        import spherecurv.pde as pde

        transforms = collections.Counter()  # (grid, transform, innermost phase) -> calls
        points = collections.Counter()  # phase an evaluated point was asked for in -> points
        entered = collections.Counter()  # phase -> calls
        phase = ["solve"]

        def counting(name):
            transform = getattr(SphereGrid, name)

            def wrapped(grid, arg):
                transforms[grid, name, phase[-1]] += 1
                return transform(grid, arg)

            return wrapped

        def within(label, fn):
            def wrapped(*args, **kwargs):
                if label == "point":
                    points[phase[-1]] += 1
                entered[label] += 1
                phase.append(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase.pop()

            return wrapped

        for name in ("synthesize", "analyze"):
            monkeypatch.setattr(SphereGrid, name, counting(name))
        monkeypatch.setattr(pde._Workspace, "evaluate", within("point", pde._Workspace.evaluate))
        monkeypatch.setattr(pde, "_damped_step", within("line search", pde._damped_step))
        monkeypatch.setattr(pde, "minres", within("minres", pde.minres))

        res = solve_phi_system(phi, lam, SolveConfig(l_max=16))
        assert res.converged
        grid = build_grid(16, step)
        assert grid.step == step
        assert {g for g, _, _ in transforms} == {grid, build_grid(24, step)}  # and its 1.5x filter grid
        trace = res.continuation_trace
        assert points["solve"] == len(trace)  # one Newton start per coupling tried
        assert points["line search"] >= sum(iters for _, iters, _ in trace)  # each Newton step accepts one trial

        def both(where):
            return transforms[grid, "synthesize", where], transforms[grid, "analyze", where]

        assert both("point") == (sum(points.values()),) * 2
        assert both("line search") == (0, 0)
        assert both("solve") == (2, 1)
        if step == 0:
            assert both("minres") == (0, 0) and entered["minres"] == res.minres_iters == 0
        else:
            assert both("minres")[0] == both("minres")[1] > 0 and entered["minres"] > 0


class TestForwardF:
    def test_limit_matches_flat_dual(self):
        cfg = SolveConfig(l_max=16)
        rng = np.random.default_rng(64)
        phi = HoloClass(spec_k(4), rng.normal(size=3) + 1j * rng.normal(size=3))
        b0 = dual_map_H0(phi)
        angles = []
        for lam in (0.5, 0.25, 0.1, 0.01):
            b = forward_F(phi, lam, cfg)
            angles.append(projective_angle(b.b, b0.b))
        assert angles[-1] < 1e-2
        assert all(a > b for a, b in zip(angles, angles[1:]))

    def test_rotation_symmetric_pattern(self, grid16):
        cfg = SolveConfig(l_max=16)
        for a in (0, 1, 2):
            phi = monomial(4, a)
            b = forward_F(phi, 2.0, cfg).b
            others = np.delete(np.abs(b), a)
            assert abs(b[a]) > 0
            assert others.max() < 1e-9 * abs(b[a]), a

    def test_equivariance_under_rotation(self):
        cfg = SolveConfig(l_max=24)
        rng = np.random.default_rng(65)
        phi = HoloClass(spec_k(4), rng.normal(size=3) + 1j * rng.normal(size=3))
        iso = random_rotation(rng)
        lam = 2 * np.pi
        lhs = forward_F(pullback_class(iso, phi), lam, cfg)
        rhs = pullback_dual(iso, forward_F(phi, lam, cfg))
        assert projective_angle(lhs.b, rhs.b) < 1e-5

    def test_equivariance_under_reversing_isometry(self):
        # the dualized-solution map commutes with orientation-reversing
        # isometries too (conjugation convention)
        cfg = SolveConfig(l_max=24)
        rng = np.random.default_rng(66)
        phi = HoloClass(spec_k(4), rng.normal(size=3) + 1j * rng.normal(size=3))
        iso = compose(random_rotation(rng), IsometryAction.reflection())
        assert iso.reverses
        lam = 2 * np.pi
        lhs = forward_F(pullback_class(iso, phi), lam, cfg)
        rhs = pullback_dual(iso, forward_F(phi, lam, cfg))
        assert projective_angle(lhs.b, rhs.b) < 1e-5

    def test_raises_on_stall(self):
        cfg = SolveConfig(l_max=16)
        with pytest.raises(NonConvergence):
            forward_F(monomial(4, 2), 4 * np.pi, cfg)


class TestRingFamilyAtTopCoupling:
    def test_pole_balanced_ring_converges_at_4pi(self):
        # k=8, a=1, n=4: ring family with pole mass 1 on each side; the
        # equatorial reflection pins |b_2| = |b_6| and the solve reaches the
        # curvature coupling cleanly
        phi = pole_balanced_ring()
        cfg = SolveConfig(l_max=32)
        res = solve_phi_system(phi, 4 * np.pi, cfg)
        assert res.converged and res.residual_sup < 1e-8
        grid = build_grid(32)
        b = b_coords(phi, res.u, grid).b
        pattern = np.array([(j - 2) % 4 == 0 for j in range(1, 8)])
        assert np.linalg.norm(b[~pattern]) < 1e-9 * np.linalg.norm(b)
        assert abs(abs(b[1]) / abs(b[5]) - 1.0) < 1e-9

    def test_pole_free_ring_dies_before_4pi(self):
        # k=7, a=1, n=4 has zero pole mass; its symmetric branch degenerates
        # toward the bottom-stratum boundary and continuation stalls below
        # the curvature coupling (resolution-limited approach from below)
        spec = BundleSpec(0, 7)
        coeffs = np.zeros(6, dtype=complex)
        coeffs[5] = 1.0
        coeffs[1] = -1.0
        phi = HoloClass(spec, coeffs)
        res = solve_phi_system(phi, 4 * np.pi, SolveConfig(l_max=32))
        assert not res.converged
        assert 0.6 * 4 * np.pi < res.lam < 4 * np.pi


def pole_free_ring():
    coeffs = np.zeros(6, dtype=complex)
    coeffs[5] = 1.0
    coeffs[1] = -1.0  # z (z^4 - 1) on k=7
    return HoloClass(spec_k(7), coeffs)


def pole_balanced_ring():
    coeffs = np.zeros(7, dtype=complex)
    coeffs[5] = 1.0
    coeffs[1] = -1.0  # z (z^4 - 1) on k=8
    return HoloClass(spec_k(8), coeffs)


def edge_random_class(k):
    # the random classes of the benchmark's edge workload
    rng = np.random.default_rng(20150318)
    for kk in range(4, k + 1):
        a = rng.normal(size=kk - 1) + 1j * rng.normal(size=kk - 1)
    return HoloClass(spec_k(k), a)


def counting_newton(monkeypatch, fail_above=None):
    """Record (lambda, ok) of every pde._newton call; optionally fail every solve above a coupling."""
    import spherecurv.pde as pde

    calls = []
    newton = pde._newton

    def wrapped(ws, x0, lam):
        out = newton(ws, x0, lam)
        if fail_above is not None and lam > fail_above:
            out = out[:3] + (False,) + out[4:]
        calls.append((lam, out[3]))
        return out

    monkeypatch.setattr(pde, "_newton", wrapped)
    return calls


class TestCrossingSearch:
    # stall couplings of cold solves to 4*pi under the step-halving ramp
    # (every filter-rejected step halved down to min_step)
    @pytest.mark.parametrize(
        "make_phi, l_max, stall",
        [
            (pole_free_ring, 32, 0.78685 * 4 * np.pi),
            (pole_free_ring, 48, 0.86135 * 4 * np.pi),
            (lambda: edge_random_class(4), 32, 3.56211 * np.pi),
            (lambda: edge_random_class(5), 32, 3.39785 * np.pi),
        ],
    )
    def test_stall_matches_halving(self, make_phi, l_max, stall):
        cfg = SolveConfig(l_max=l_max)
        res = solve_phi_system(make_phi(), 4 * np.pi, cfg)
        assert not res.converged
        assert res.lam == pytest.approx(stall, abs=1e-3 * 4 * np.pi)
        assert res.stop_reason == "filter"
        # the last rejected step sat just past the filter bound, the stall just inside
        assert res.residual_fine <= cfg.spurious_tol * res.lam < res.stop_residual_fine

    def test_few_solves_after_the_first_filter_rejection(self, monkeypatch):
        calls = counting_newton(monkeypatch)
        res = solve_phi_system(pole_free_ring(), 4 * np.pi, SolveConfig(l_max=32))
        assert res.stop_reason == "filter"
        assert len(calls) == len(res.continuation_trace)
        first = next(
            i for i, ((_, ok), (_, _, rnorm)) in enumerate(zip(calls, res.continuation_trace)) if ok and np.isnan(rnorm)
        )
        # step halving spent 27 Newton solves here
        assert len(calls) - first - 1 <= 8

    def test_newton_failure_stalls_by_halving(self, monkeypatch):
        cfg = SolveConfig(l_max=16)
        fail_above = 2 * np.pi
        calls = counting_newton(monkeypatch, fail_above)
        res = solve_phi_system(monomial(4, 1), 4 * np.pi, cfg)
        assert not res.converged
        assert res.stop_reason == "newton" and np.isnan(res.stop_residual_fine)
        assert fail_above - 2 * cfg.min_step < res.lam <= fail_above
        assert np.isfinite(res.residual_fine)
        # a failure right after a failure tries half its step from the same
        # accepted coupling, and the ramp stops once the step is below min_step
        halvings, last_ok, prev = 0, None, None
        for lam_try, ok in calls:
            if ok:
                last_ok, prev = lam_try, None
                continue
            if prev is not None:
                assert lam_try - last_ok == pytest.approx((prev - last_ok) / 2, rel=1e-9)
                halvings += 1
            prev = lam_try
        assert halvings >= 3
        assert 0.5 * (prev - last_ok) < cfg.min_step


class TestFailedOpening:
    # a guard that rejects the opening solve of a cold solve ends it there:
    # stop_reason "init", and every Newton solve is traced as rejected
    @pytest.mark.parametrize("l_max", [16, 48], ids=["single_grid", "nested"])
    def test_rejected_opening_is_traced_as_rejected(self, monkeypatch, l_max):
        calls = counting_newton(monkeypatch, fail_above=0.0)
        res = solve_phi_system(monomial(4, 1), 2 * np.pi, SolveConfig(l_max=l_max))
        assert res.stop_reason == "init" and not res.converged
        assert res.lam == 0.25
        assert len(res.continuation_trace) == len(calls) == (2 if l_max >= 48 else 1)
        assert all(np.isnan(rnorm) for _, _, rnorm in res.continuation_trace)

    def test_seed_past_the_blowup_bound_stops_with_blowup(self, monkeypatch):
        # Newton accepts a converged seed in zero steps, so the guard meets its sup|u - c| unchanged
        phi, lam, cfg = monomial(4, 1), 2 * np.pi, SolveConfig(l_max=16)
        seed = solve_phi_system(phi, lam, cfg)
        monkeypatch.setattr(SolveConfig, "blowup_sup", 0.5 * np.abs(seed.u.u).max())
        res = solve_phi_system(phi, lam, cfg, initial=seed.u)
        assert res.stop_reason == "blowup" and not res.converged
        assert [(x, iters) for x, iters, _ in res.continuation_trace] == [(lam, 0)]
        assert np.isnan(res.continuation_trace[0][2])


class TestNestedIteration:
    # a cold solve at l_max >= 48 ramps on the l_max // 2 grid, then finishes on its own

    @staticmethod
    def single_grid(monkeypatch, phi, lam, l_max):
        import spherecurv.pde as pde

        with monkeypatch.context() as m:
            m.setattr(pde, "NESTED_MIN_LMAX", np.inf)
            return solve_phi_system(phi, lam, SolveConfig(l_max=l_max))

    @staticmethod
    def newton_grids(monkeypatch, fail_on=None):
        """l_max of every pde._newton call's grid; optionally fail every call on one grid."""
        import spherecurv.pde as pde

        grids = []
        newton = pde._newton

        def wrapped(ws, x0, lam):
            grids.append(ws.grid.l_max)
            out = newton(ws, x0, lam)
            return out[:3] + (False,) + out[4:] if ws.grid.l_max == fail_on else out

        monkeypatch.setattr(pde, "_newton", wrapped)
        return grids

    def test_converged_solve_keeps_b(self, monkeypatch):
        phi, grid = monomial(6, 1), build_grid(48)
        single = self.single_grid(monkeypatch, phi, 4 * np.pi, 48)
        grids = self.newton_grids(monkeypatch)
        nested = solve_phi_system(phi, 4 * np.pi, SolveConfig(l_max=48))
        assert single.converged and nested.converged
        assert grids.count(48) == 1  # the handover solve alone
        b, b_ref = b_coords(phi, nested.u, grid).b, b_coords(phi, single.u, grid).b
        assert np.linalg.norm(b - b_ref) < 1e-10 * np.linalg.norm(b_ref)

    def test_coarse_stall_does_not_end_the_fine_solve(self, monkeypatch):
        import spherecurv.pde as pde

        single = self.single_grid(monkeypatch, pole_free_ring(), 4 * np.pi, 48)
        coarse = pde._solve(pole_free_ring(), 4 * np.pi, 24, None, None)
        grids = self.newton_grids(monkeypatch)
        nested = solve_phi_system(pole_free_ring(), 4 * np.pi, SolveConfig(l_max=48))
        assert set(grids) == {24, 48}
        assert coarse.stop_reason == "filter" and coarse.lam < nested.lam
        assert not nested.converged and nested.stop_reason == "filter"
        # the stall is the filter crossing, which either bracket locates to within min_step
        assert abs(nested.lam - single.lam) < SolveConfig.min_step
        assert len(nested.continuation_trace) > len(coarse.continuation_trace)

    def failed_coarse_opening(self, monkeypatch, phi):
        single = self.single_grid(monkeypatch, phi, 2 * np.pi, 48)
        grids = self.newton_grids(monkeypatch, fail_on=24)
        nested = solve_phi_system(phi, 2 * np.pi, SolveConfig(l_max=48))
        assert grids[0] == 24 and grids.count(24) == 1  # the coarse opening, then nothing more on 24
        assert nested.converged
        assert np.array_equal(nested.u.total, single.u.total)
        assert nested.continuation_trace[1:] == single.continuation_trace
        return single, nested

    def test_failed_coarse_opening_falls_back_to_the_single_grid(self, monkeypatch):
        single, nested = self.failed_coarse_opening(monkeypatch, pole_free_ring())
        # the discarded coarse opening is counted
        assert nested.minres_iters > single.minres_iters

    def test_failed_axisymmetric_coarse_opening_counts_no_minres(self, monkeypatch):
        single, nested = self.failed_coarse_opening(monkeypatch, monomial(4, 1))
        assert nested.minres_iters == single.minres_iters == 0

    def test_seeded_solves_stay_on_one_grid(self, monkeypatch):
        phi = monomial(4, 1)
        cfg = SolveConfig(l_max=48)
        start = solve_phi_system(phi, np.pi, cfg)
        grids = self.newton_grids(monkeypatch)
        warm = solve_phi_system(phi, 2 * np.pi, cfg, start=start)
        polish = solve_phi_system(phi, 2 * np.pi, cfg, warm.u)
        assert warm.converged and polish.converged
        assert set(grids) == {48}

    @pytest.mark.parametrize("phi, lam", [
        (pole_balanced_ring(), 4 * np.pi),
        (monomial(5, 2), 4 * np.pi),
        (HoloClass(spec_k(6), [1, 1j] @ np.random.default_rng(6).normal(size=(2, 5))), 2 * np.pi),
    ], ids=["ring_k8", "two_pole_k5", "random_k6"])
    def test_start_from_the_coarse_rung_is_the_nested_solve(self, phi, lam):
        # the nested stage is a start= from the l_max // 2 result: same u and
        # lambda bitwise, and the coarse tally runs on into the fine one
        coarse = solve_phi_system(phi, lam, SolveConfig(l_max=24))
        warm = solve_phi_system(phi, lam, SolveConfig(l_max=48), start=coarse)
        nested = solve_phi_system(phi, lam, SolveConfig(l_max=48))
        assert coarse.converged and warm.converged and nested.converged
        assert np.array_equal(warm.u.total, nested.u.total) and warm.lam == nested.lam
        assert nested.continuation_trace == coarse.continuation_trace + warm.continuation_trace
        assert nested.minres_iters == coarse.minres_iters + warm.minres_iters
        # a start on its own grid opens in zero Newton steps, without MINRES
        again = solve_phi_system(phi, lam, SolveConfig(l_max=48), start=warm)
        assert [iters for _, iters, _ in again.continuation_trace] == [0] and again.minres_iters == 0
        assert np.array_equal(again.x, warm.x)


class TestAxisymmetric:
    # a monomial class solves on the m = 0 grid; u comes back on the full grid's nodes

    def test_filter_is_the_full_filter(self):
        import spherecurv.pde as pde

        phi = monomial(5, 1)
        grid, zonal = build_grid(24), build_grid(24, 0)
        for target in (4 * np.pi, 2.4 * 4 * np.pi):  # converged, then the stall near 1.89 * 4 pi
            res = solve_phi_system(phi, target, SolveConfig(l_max=24))
            assert res.stop_reason == ("converged" if target == 4 * np.pi else "filter")
            assert res.u.u.shape == (grid.n_lat, grid.n_lon)
            lam, x = res.lam, res.x
            # the same coefficients on the 2-D and the latitude-only 1.5x grids
            full_x = np.zeros(grid.n_packed)
            full_x[grid.packed_entries[:, 0] == 0] = x
            fine = pde._Workspace(phi, zonal).fine_residual_sup(x, lam)
            # the residual's terms are O(lam), so roundoff sets an absolute floor: the
            # converged x reads fine = 1.7e-8 at 4 pi, where the two sups differ by 1.8e-15
            assert abs(pde._Workspace(phi, grid).fine_residual_sup(full_x, lam) - fine) <= 1e-12 * fine + 1e-14 * lam
            # the returned u on the full grids: residual_fine moves by the
            # round trip through u, which the Laplacian on the 1.5x grid
            # amplifies to 6e-11 * lam here (as on a full-grid solve)
            full_fine = pde._Workspace(phi, grid).fine_residual_sup(grid.analyze(res.u.total), lam)
            assert abs(full_fine - res.residual_fine) <= 1e-9 * lam
            # residual_sup is formed from the packed solution, so the public
            # residual of the returned u differs by the same round trip (4.7e-11 * lam here)
            assert abs(np.abs(residual(res.u, phi, lam, grid)).max() - res.residual_sup) <= 1e-10 * lam

    @pytest.mark.parametrize("k, a, l_max, stall", [(5, 1, 32, 1.9324019), (5, 1, 48, 1.9573194),
                                                    (7, 2, 32, 2.8619430), (7, 2, 48, 2.9375344)])
    def test_stall_matches_the_full_grid(self, monkeypatch, k, a, l_max, stall):
        # the stalls of the full-grid solve, in units of 4 pi
        keys = requested_grids(monkeypatch)
        res = solve_phi_system(monomial(k, a), 1.2 * 4 * np.pi * (k // 2), SolveConfig(l_max=l_max))
        assert res.stop_reason == "filter"
        assert abs(res.lam - 4 * np.pi * stall) <= SolveConfig.min_step
        assert {step for _, step in keys} == {0}

    def test_resolution_at_l_max_256(self, monkeypatch):
        # z on k=5: the radial branch ends at 2 * 4 pi.  Past 1.997 * 4 pi the
        # solution concentrates at the order-1 zero; with exact corrections
        # Newton follows it there and the refined-grid filter stops the ramp
        keys = requested_grids(monkeypatch)
        res = solve_phi_system(monomial(5, 1), 2.4 * 4 * np.pi, SolveConfig(l_max=256))
        assert 1.997 < res.lam / (4 * np.pi) < 2.0
        assert res.stop_reason == "filter"
        assert res.u.u.shape == (257, 516)
        assert not [l_max for l_max, step in keys if step != 0 and l_max > 72]

    @pytest.mark.parametrize("l_max", [16, 48])
    def test_dense_block_matches_the_matvec(self, l_max):
        ws = _Workspace(monomial(5, 1), build_grid(l_max, 0))
        rng = np.random.default_rng(l_max)
        x = ws.balance(3.0) + rng.normal(size=ws.n) / np.arange(1, ws.n + 1) ** 2
        weight = ws.evaluate(x, 3.0)[2]
        assert weight.max() > 2 * weight.min()
        jac = ws.grid.zonal_gram(weight) + np.diag(ws.diag)
        for e, column in zip(np.eye(ws.n), jac.T):
            matvec = ws.jacobian_matvec(weight, e)
            assert np.linalg.norm(column - matvec) <= 1e-12 * np.linalg.norm(matvec)
        rhs = rng.normal(size=ws.n)
        d, failed = ws.correction(weight, rhs, SolveConfig.forcing_cap)
        assert not failed
        assert np.linalg.norm(jac @ d - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("l_max", [16, 24])
    def test_zonal_gram_is_the_full_jacobians_m0_block(self, l_max):
        # the m = 0 rows of the Jacobian see only the weight's longitude mean,
        # so the block of a weight that varies in phi is the grid's zonal_gram
        grid = build_grid(l_max)
        ws = _Workspace(monomial(5, 1), grid)
        weight = np.exp(random_real_field(grid, np.random.default_rng(l_max), l_hi=8, amp=0.1))
        assert (np.ptp(weight, axis=1) > 0.1 * weight.mean(axis=1)).all()
        block = grid.zonal_gram(weight) + np.diag(grid.packed_laplace[: l_max + 1])
        for e, column in zip(np.eye(grid.n_packed)[: l_max + 1], block.T):
            matvec = ws.jacobian_matvec(weight, e)[: l_max + 1]
            assert np.linalg.norm(column - matvec) <= 1e-12 * np.linalg.norm(matvec)

    def test_radial_polish_builds_no_full_grid(self, monkeypatch):
        keys = requested_grids(monkeypatch)
        r = solve_radial(monomial(4, 1), 4 * np.pi, SolveConfig(l_max=24))
        assert r.converged and r.u.u.shape == (25, 52)
        assert set(keys) == {(24, 0), (36, 0)}


class TestWedge:
    # a Z_n-symmetric class solves on the wedge of step gcd(n, 4); u comes back on the full grid's nodes

    @pytest.mark.parametrize("phi", [pole_free_ring(), pole_balanced_ring()], ids=["k7", "k8"])
    @pytest.mark.parametrize("l_max", [32, 48])
    def test_ring_matches_the_full_grid_solve(self, monkeypatch, phi, l_max):
        keys = requested_grids(monkeypatch)
        wedge = solve_phi_system(phi, 4 * np.pi, SolveConfig(l_max=l_max))
        assert {step for _, step in keys} == {4}
        # the full-grid oracle: no rotation symmetry read, so the solve runs on the full grids
        monkeypatch.setattr(HoloClass, "rotation_symmetry", lambda self: (1, 0))
        keys.clear()
        full = solve_phi_system(phi, 4 * np.pi, SolveConfig(l_max=l_max))
        assert {step for _, step in keys} == {1}
        assert wedge.stop_reason == full.stop_reason == ("filter" if phi.spec.k == 7 else "converged")
        assert abs(wedge.lam - full.lam) <= SolveConfig.min_step
        assert wedge.u.u.shape == full.u.u.shape
        grid = build_grid(l_max)
        b_wedge, b_full = b_coords(phi, wedge.u, grid).b, b_coords(phi, full.u, grid).b
        assert np.abs(b_wedge - b_full).max() <= 1e-10 * np.abs(b_full).max()
        # the full-grid solve keeps the Z_4 pattern by itself: b lives on the indices = 1 (mod 4)
        pattern = np.arange(phi.spec.k - 1) % 4 == 1
        assert np.linalg.norm(b_full[~pattern]) < 1e-6 * np.linalg.norm(b_full)

    def test_initial_enters_through_the_rotation_mean(self):
        # full-grid u of an earlier result restarts a wedge solve where it ended
        phi = pole_free_ring()
        res = solve_phi_system(phi, 2 * np.pi, SolveConfig(l_max=24))
        assert res.converged and res.u.u.shape == (25, 52)
        again = solve_phi_system(phi, 2 * np.pi, SolveConfig(l_max=24), initial=res.u)
        assert again.converged and again.continuation_trace[-1][1] == 0  # no Newton step needed
        on = solve_phi_system(phi, 2.5 * np.pi, SolveConfig(l_max=24), start=res)
        assert on.converged and on.u.u.shape == (25, 52)
        # values without the symmetry enter through the mean of their rotated
        # copies (on step 0 the longitude mean): the full grid's kept entries
        grid = build_grid(24)
        g = random_real_field(grid, np.random.default_rng(24))
        for step, stride in ((4, 4), (0, 25)):
            ref = grid.analyze(g)[grid.packed_entries[:, 0] % stride == 0]
            wedge = build_grid(24, step)
            assert np.abs(wedge.analyze(wedge.fold(g)) - ref).max() < 1e-14 * np.abs(ref).max()


class TestPackedSolution:
    @pytest.mark.parametrize("phi, step", [
        (monomial(4, 1), 0),
        (pole_balanced_ring(), 4),
        (HoloClass(spec_k(4), [1, 1j] @ np.random.default_rng(4).normal(size=(2, 3))), 1),
    ], ids=["step0", "step4", "full"])
    def test_x_synthesizes_u(self, phi, step):
        # x lives on the solve grid of the class's step; synthesized and tiled over the circle it is u
        res = solve_phi_system(phi, 2 * np.pi, SolveConfig(l_max=24))
        grid = build_grid(24, step)
        assert res.converged and res.x.shape == (grid.n_packed,)
        u = np.tile(grid.synthesize(res.x), (1, res.u.u.shape[1] // grid.n_lon))
        assert np.abs(u - res.u.total).max() <= 1e-13 * np.abs(res.u.total).max()

    def test_result_stores_no_node_values(self):
        # a result stores its solution once, as its solve grid and packed x
        names = {f.name for f in dataclasses.fields(SolveResult)}
        assert {"grid", "x"} <= names and "u" not in names

    @pytest.mark.parametrize("phi, step", [
        (monomial(4, 1), 0),
        (pole_balanced_ring(), 4),
        (HoloClass(spec_k(4), [1, 1j] @ np.random.default_rng(4).normal(size=(2, 3))), 1),
    ], ids=["step0", "step4", "full"])
    def test_u_is_read_from_grid_and_x(self, phi, step):
        # u is x synthesized with its constant split off, tiled over the full circle, and offset x[0]: bitwise
        res = solve_phi_system(phi, 2 * np.pi, SolveConfig(l_max=16))
        assert res.converged and res.grid is build_grid(16, step)
        x = res.x.copy()
        x[0] = 0.0
        u = ConformalFactor(res.grid.tile(res.grid.synthesize(x)), float(res.x[0]))
        assert np.array_equal(res.u.u, u.u) and res.u.offset == res.offset == u.offset
        assert res.u is res.u  # read once, then kept


class TestPathTangent:
    # the tangent J^{-1} e_0 is the lambda-path's derivative: a central difference
    # of Newton solves at lambda +- h from the converged x.  On step 0 it is a
    # dense solve; elsewhere MINRES at forcing_cap, measured at 2.7e-6 and 1.8e-4
    @pytest.mark.parametrize("phi, step, rel", [
        (monomial(5, 1), 0, 1e-8),
        (pole_balanced_ring(), 4, 1e-3),
        (HoloClass(spec_k(5), [1, 1j] @ np.random.default_rng(3).normal(size=(2, 4))), 1, 1e-3),
    ], ids=["step0", "step4", "full"])
    def test_tangent_matches_newton_differences(self, phi, step, rel):
        import spherecurv.pde as pde

        lam, h = 2 * np.pi, 1e-4
        res = solve_phi_system(phi, lam, SolveConfig(l_max=24))
        ws = _Workspace(phi, build_grid(24, step))
        assert res.converged and res.x.shape == (ws.n,)
        tangent = ws.tangent(ws.evaluate(res.x, lam)[2])
        (x_up, *_, ok_up, _, _), (x_down, *_, ok_down, _, _) = (pde._newton(ws, res.x, lam + s * h) for s in (1, -1))
        assert ok_up and ok_down
        fd = (x_up - x_down) / (2 * h)
        assert np.linalg.norm(tangent - fd) <= rel * np.linalg.norm(fd)


class TestRadial:
    def test_k2_constant(self):
        r = solve_radial(monomial(2, 0), 4 * np.pi, SolveConfig(l_max=16))
        assert r.converged
        assert np.abs(r.u.total).max() < 1e-8
        assert r.degenerate_family

    @pytest.mark.parametrize("k", [3, 4])
    def test_polish_line_search_never_overflows(self, k):
        # z^0's sweep minimum starts a polish whose line search tries trials
        # where e^{2u} overflows: they fail on TRIAL_U_MAX before it is formed
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = solve_radial(monomial(k, 0), 4 * np.pi, SolveConfig(l_max=24))
        assert r.reason == "polish" and not r.converged and r.root_alpha < -7

    def test_two_pole_divisor_has_root(self):
        r = solve_radial(monomial(4, 1), 4 * np.pi, SolveConfig(l_max=24))
        assert r.converged
        assert r.residual_sup < 1e-8

    def test_radial_full_consistency(self):
        cfg = SolveConfig(l_max=24)
        rad = solve_radial(monomial(4, 1), 4 * np.pi, cfg)
        full = solve_phi_system(monomial(4, 1), 4 * np.pi, cfg)
        assert np.abs(rad.u.total - full.u.total).max() < 1e-6

    def test_concentrated_divisor_no_root(self):
        r = solve_radial(monomial(4, 2), 4 * np.pi, SolveConfig(l_max=16))
        assert not r.converged
        assert r.mismatch_min > 10 * r.error_estimate

    def test_k3_no_root(self):
        r = solve_radial(monomial(3, 1), 4 * np.pi, SolveConfig(l_max=16))
        assert not r.converged
        assert r.mismatch_min > 10 * r.error_estimate

    def test_polish_without_integration_is_not_converged(self, monkeypatch):
        # every candidate root found by the sweep fails to re-integrate:
        # the result is a non-converged record of the sweep, not a crash
        import spherecurv.pde as pde

        shoot = pde._shoot
        monkeypatch.setattr(pde, "_shoot", lambda *args, **kw: (shoot(*args, **kw)[0], None))
        r = solve_radial(monomial(4, 1), 2 * np.pi, SolveConfig(l_max=16))
        assert not r.converged and r.reason == "polish"
        # the bracketed root is still reported, inside the sweep
        assert r.mismatch_alphas[0] < r.root_alpha < r.mismatch_alphas[-1]
        assert r.residual_sup is None and r.u is None
        assert r.mismatch_values.shape == r.mismatch_alphas.shape
        assert np.isfinite(r.mismatch_min)

    def test_failed_shots_are_an_unconverged_result(self, monkeypatch):
        # most integrations of the sweep fail: an inconclusive record, not an exception
        import spherecurv.pde as pde

        monkeypatch.setattr(pde, "_shoot", lambda *args, **kw: (np.nan, None))
        r = solve_radial(monomial(4, 1), 2 * np.pi, SolveConfig(l_max=16))
        assert not r.converged and r.reason == "shots_failed"
        assert r.root_alpha is None and r.residual_sup is None and r.u is None
        assert r.mismatch_values.shape == r.mismatch_alphas.shape

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_invalid_lambda(self, lam):
        # an infinite coupling used to reach scipy as a non-finite initial state
        with pytest.raises(InvalidLambda):
            solve_radial(monomial(4, 1), lam, SolveConfig(l_max=16))

    def test_overflowing_shots_are_failed_shots(self):
        # at this coupling e^{2u} leaves the float range on every shot, which
        # used to raise OverflowError from the first integration
        r = solve_radial(monomial(4, 1), 1e30, SolveConfig(l_max=16))
        assert not r.converged and r.reason == "shots_failed"
        assert not np.isfinite(r.mismatch_values).any()

    def test_defect_within_noise_is_an_unconverged_result(self, monkeypatch):
        # a defect of 0.01 everywhere that moves by 0.005 with the tolerance:
        # no sign change, and the minimum sits within the integration noise
        import spherecurv.pde as pde

        monkeypatch.setattr(pde, "_shoot", lambda profile, lam, alpha, rtol=1e-11: (0.01 if rtol < 1e-9 else 0.015, None))
        r = solve_radial(monomial(4, 1), 2 * np.pi, SolveConfig(l_max=16))
        assert not r.converged and r.reason == "within_noise"
        assert r.root_alpha is None and r.u is None
        assert r.mismatch_min == pytest.approx(0.01) and r.error_estimate == pytest.approx(0.005)

    def test_converged_polish_wins_over_earlier_filter_stall(self, monkeypatch):
        # k=2 at 4*pi leaves 9 candidate roots.  The first polish is made a
        # filter stall: Newton converged, so its residual_sup is tiny (0 here).
        # A later converged polish must be the result, however its residual compares
        import spherecurv.pde as pde

        polishes = []

        def first_is_filter_stall(*args, **kw):
            res = solve_phi_system(*args, **kw)
            polishes.append(res)
            return dataclasses.replace(res, converged=False, stop_reason="filter") if len(polishes) == 1 else res

        monkeypatch.setattr(pde, "solve_phi_system", first_is_filter_stall)
        r = solve_radial(monomial(2, 0), 4 * np.pi, SolveConfig(l_max=16))
        assert len(polishes) >= 2 and polishes[-1].converged
        assert r.converged
        assert r.u is polishes[-1].u and r.residual_sup == polishes[-1].residual_sup

    def test_profile_requires_monomial(self):
        with pytest.raises(ValueError):
            RadialProfile.from_class(HoloClass(spec_k(4), np.array([1.0, 1.0, 0.0])))

    @pytest.mark.parametrize("l_max", [24, 256])
    def test_profile_matches_the_class_norm(self, l_max):
        # the closed form amp cos^{2a}(t/2) sin^{2b}(t/2) against bundles' K on the zonal grid
        grid = build_grid(l_max, 0)
        for k in range(3, 9):
            for a in range(k - 1):
                phi = monomial(k, a, amp=1.3)
                k_vals = phi_norm_sq(phi, ConformalFactor.zero(grid), grid)[:, 0]
                profile = RadialProfile.from_class(phi)(grid.colat)
                assert np.abs(profile - k_vals).max() <= 1e-13 * np.abs(k_vals).max(), (k, a)

    def test_profile_mass_matches_grid(self, grid16):
        # the closed-form flat mass that centres the sweep (and opens every
        # cold solve) against the l_max-16 quadrature of 2K
        rng = np.random.default_rng(53)
        for k in range(3, 13):
            phis = [monomial(k, a, amp=1.3) for a in range(k - 1)]
            phis += [HoloClass(spec_k(k), rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)) for _ in range(3)]
            for phi in phis:
                grid_mass = grid16.integrate(2 * phi_norm_sq(phi, ConformalFactor.zero(grid16), grid16)).real
                assert abs(flat_mass(phi) - grid_mass) < 1e-13 * grid_mass, (k, phi.a)
