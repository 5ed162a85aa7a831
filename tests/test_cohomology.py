import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from math import factorial
from scipy.integrate import quad

from spherecurv.bundles import BundleSpec, ConformalFactor, HoloClass, divisor_of
from spherecurv.cohomology import (
    DualCoords,
    IsometryAction,
    b_coords,
    coupling,
    dbar_solve,
    dual_map_H0,
    dual_map_H0_inverse,
    dualization_condition,
    gram,
    projective_angle,
    pullback_class,
    pullback_dual,
)
from spherecurv.errors import SpecMismatch, ZeroClass

from conftest import random_real_field
from oracles import norm_equivariance_profile, pullback_conformal


def spec_k(k, deg_L1=0):
    return BundleSpec(deg_L1, deg_L1 + k)


def basis_class(spec, i):
    a = np.zeros(spec.k - 1, dtype=complex)
    a[i] = 1.0
    return HoloClass(spec, a)


def basis_dual(spec, j):
    b = np.zeros(spec.k - 1, dtype=complex)
    b[j - 1] = 1.0
    return DualCoords(spec, b)


class TestCoupling:
    def test_duality_algebraic(self):
        spec = spec_k(5)
        for i in range(spec.k - 1):
            for j in range(1, spec.k):
                val = coupling(basis_class(spec, i), basis_dual(spec, j))
                assert val == (1.0 if i == j - 1 else 0.0)

    def test_duality_quadrature_path(self, grid16):
        # run each dual-basis class back through the quadrature integrand
        spec = spec_k(4)
        u0 = ConformalFactor.zero(grid16)
        for j in range(1, spec.k):
            phi_j = dual_map_H0_inverse(basis_dual(spec, j), grid16)
            got = b_coords(phi_j, u0, grid16).b
            expect = np.zeros(spec.k - 1)
            expect[j - 1] = 1.0
            assert np.abs(got - expect).max() < 1e-8

    def test_spec_mismatch(self, grid16):
        with pytest.raises(SpecMismatch):
            coupling(basis_class(spec_k(4), 0), basis_dual(spec_k(5), 1))

    def test_agrees_with_quadrature_of_wedge(self, grid16):
        # coupling by coordinates vs the 2-D quadrature of the wedge integrand
        rng = np.random.default_rng(40)
        spec = spec_k(4)
        u = ConformalFactor.from_values(0.2 * random_real_field(grid16, rng, l_hi=5), grid16)
        psi = HoloClass(spec, rng.normal(size=3) + 1j * rng.normal(size=3))
        eta = b_coords(psi, u, grid16)
        phi = HoloClass(spec, rng.normal(size=3) + 1j * rng.normal(size=3))
        from spherecurv.bundles import TANGENT_NORMALIZATION, pair_weight_h0

        wedge = TANGENT_NORMALIZATION * pair_weight_h0(phi.a, psi.a, spec, grid16) * np.exp(2 * u.total)
        assert abs(coupling(phi, eta) - grid16.integrate(wedge)) < 1e-8


class TestBCoords:
    def test_constant_class_pattern(self, grid16):
        # flat metric, constant class: only the first coordinate survives
        spec = spec_k(5)
        b = b_coords(basis_class(spec, 0), ConformalFactor.zero(grid16), grid16).b
        assert abs(b[0]) > 0.1
        assert np.abs(b[1:]).max() < 1e-10 * abs(b[0])

    def test_axisymmetric_u_pattern(self, grid16):
        # any metric invariant under polar rotations keeps the pattern
        spec = spec_k(5)
        zonal = 0.3 * np.cos(grid16.colat)[:, None] * np.ones((1, grid16.n_lon))
        u = ConformalFactor.from_values(zonal, grid16)
        b = b_coords(basis_class(spec, 0), u, grid16).b
        assert np.abs(b[1:]).max() < 1e-10 * abs(b[0])

    def test_concentrated_divisor_geometric(self, grid16):
        spec = spec_k(5)
        a0 = 0.3 + 0.5j
        coeffs = np.array([np.prod([-a0] * (3 - i)) * factorial(3) / (factorial(i) * factorial(3 - i)) for i in range(4)])
        coeffs = np.array([(-a0) ** (3 - i) * factorial(3) / (factorial(i) * factorial(3 - i)) for i in range(4)])
        phi = HoloClass(spec, coeffs)  # (z - a0)^3
        b = b_coords(phi, ConformalFactor.zero(grid16), grid16).b
        for j in range(len(b) - 2):
            assert abs(b[j] * b[j + 2] - b[j + 1] ** 2) < 1e-8 * abs(b[j + 1] ** 2)

    def test_radial_metric_oracle(self, grid24):
        # independent 1-D quadrature of the closed-form integrand, u = a*cos(theta)
        spec = spec_k(4)
        amp = 0.37
        u_vals = amp * np.cos(grid24.colat)[:, None] * np.ones((1, grid24.n_lon))
        u = ConformalFactor.from_values(u_vals, grid24)
        rng = np.random.default_rng(41)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        phi = HoloClass(spec, a)
        got = b_coords(phi, u, grid24).b

        k = spec.k
        for j in range(1, k):
            def integrand(r, j=j):
                cos_t = (r * r - 1.0) / (r * r + 1.0)
                gauge = np.exp(2.0 * (amp * cos_t + u.offset))
                return (
                    2 * np.pi
                    * r ** (2 * (j - 1))
                    * (1 + r * r) ** (2 - k)
                    * gauge
                    * (1 / np.pi) * (1 + r * r) ** -2
                    * 2 * np.pi * r
                )

            oracle, _ = quad(integrand, 0, np.inf, epsabs=1e-12, limit=400)
            expect = oracle * np.conj(a[j - 1])
            assert abs(got[j - 1] - expect) < 1e-8 * max(1.0, abs(expect)), j

    def test_metric_independence_dblquad(self, grid16):
        # full 2-D quadrature oracle for one coordinate, no symmetry used
        from scipy.integrate import dblquad

        spec = spec_k(3)
        amp = 0.3
        u_vals = amp * np.cos(grid16.colat)[:, None] * np.ones((1, grid16.n_lon))
        u = ConformalFactor.from_values(u_vals, grid16)
        a = np.array([0.7 - 0.2j, 0.4 + 1.1j])
        phi = HoloClass(spec, a)
        got = b_coords(phi, u, grid16).b

        def integrand(s, t, j, part):
            # compactified radius r = s/(1-s), dr = ds/(1-s)^2
            r = s / (1.0 - s)
            z = r * np.exp(1j * t)
            gz = a[0] + a[1] * z
            cos_t = (r * r - 1.0) / (r * r + 1.0)
            val = (
                2 * np.pi
                * z ** (j - 1)
                * np.conj(gz)
                * (1 + r * r) ** (2 - spec.k)
                * np.exp(2.0 * (amp * cos_t + u.offset))
                * (1 / np.pi) * (1 + r * r) ** -2
                * r
                / (1.0 - s) ** 2
            )
            return val.real if part == "re" else val.imag

        for j in (1, 2):
            re, _ = dblquad(lambda t, s: integrand(s, t, j, "re"), 0, 1.0, 0, 2 * np.pi, epsabs=1e-11)
            im, _ = dblquad(lambda t, s: integrand(s, t, j, "im"), 0, 1.0, 0, 2 * np.pi, epsabs=1e-11)
            assert abs(got[j - 1] - (re + 1j * im)) < 1e-8

    def test_zero_class(self, grid16):
        with pytest.raises(ZeroClass):
            HoloClass(spec_k(4), np.zeros(3, dtype=complex))

    def test_direct_z_chart_quadrature(self, grid24):
        # the defining integral summed node by node in the z chart alone
        rng = np.random.default_rng(47)
        f = random_real_field(grid24, rng, l_hi=4)
        u = ConformalFactor.from_values(0.3 * f / np.abs(f).max(), grid24, offset=0.1)
        z = grid24.z
        for k in (2, 3, 6, 9):
            a = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
            got = b_coords(HoloClass(spec_k(k), a), u, grid24).b
            weight = np.conj(np.polynomial.polynomial.polyval(z, a)) * (1 + np.abs(z) ** 2) ** (2 - k) * np.exp(2 * u.total)
            direct = np.array([2 * np.pi * grid24.integrate(z**j * weight) for j in range(k - 1)])
            assert np.abs(got - direct).max() < 1e-12 * np.abs(direct).max(), k


class TestGram:
    def test_hermitian_positive_definite(self, grid16):
        rng = np.random.default_rng(48)
        for k in range(2, 13):
            f = random_real_field(grid16, rng, l_hi=6)
            u = ConformalFactor.from_values(0.5 * f / np.abs(f).max(), grid16)
            g = gram(spec_k(k), u, grid16)
            assert g.shape == (k - 1, k - 1)
            assert np.abs(g - g.conj().T).max() < 1e-14 * np.abs(g).max(), k
            assert np.linalg.eigvalsh(g).min() > 0.0, k


class TestDualMapH0:
    def test_beta_closed_form(self, grid16):
        # diagonal entries are 2*pi*(j-1)!(k-1-j)!/(k-1)!; oracle by 1-D quadrature
        spec = spec_k(4)
        for j in range(1, spec.k):
            b = dual_map_H0(basis_class(spec, j - 1), grid16).b
            def integrand(r, j=j):
                return (
                    2 * np.pi * r ** (2 * (j - 1)) * (1 + r * r) ** (2 - spec.k)
                    * (1 / np.pi) * (1 + r * r) ** -2 * 2 * np.pi * r
                )
            oracle, _ = quad(integrand, 0, np.inf)
            assert abs(b[j - 1] - oracle) < 1e-12
            assert abs(oracle - 2 * np.pi * factorial(j - 1) * factorial(spec.k - 1 - j) / factorial(spec.k - 1)) < 1e-10

    def test_injective_and_conditioned(self, grid16):
        cond = dualization_condition(spec_k(4), grid16)
        assert np.isfinite(cond) and cond < 10.0

    def test_antilinearity(self, grid16):
        rng = np.random.default_rng(42)
        spec = spec_k(5)
        phi = HoloClass(spec, rng.normal(size=4) + 1j * rng.normal(size=4))
        c = 1.3 - 2.2j
        lhs = dual_map_H0(phi.scaled(c), grid16).b
        rhs = np.conj(c) * dual_map_H0(phi, grid16).b
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_inverse_roundtrip(self, grid16):
        rng = np.random.default_rng(43)
        spec = spec_k(6)
        phi = HoloClass(spec, rng.normal(size=5) + 1j * rng.normal(size=5))
        back = dual_map_H0_inverse(dual_map_H0(phi, grid16), grid16)
        assert np.abs(back.a - phi.a).max() < 1e-10 * np.abs(phi.a).max()


class TestHankelCharacterization:
    def test_forward(self, grid16):
        # single-point divisors produce rank-one Hankel coordinate vectors
        for k in (4, 5, 6):
            spec = spec_k(k)
            a0 = 0.6 - 0.2j
            coeffs = np.array([(-a0) ** (k - 2 - i) * factorial(k - 2) / (factorial(i) * factorial(k - 2 - i)) for i in range(k - 1)])
            b = dual_map_H0(HoloClass(spec, coeffs), grid16).b
            for j in range(k - 3):
                rel = abs(b[j] * b[j + 2] - b[j + 1] ** 2) / abs(b[j + 1] ** 2)
                assert rel < 1e-8, (k, j)

    def test_reverse(self, grid16):
        # rank-one vectors pull back to single-point divisors; a root of
        # multiplicity m computed via the companion matrix scatters by
        # ~eps^(1/m), so the cluster radius must match that scale
        for k in (4, 5, 6):
            spec = spec_k(k)
            rho = 0.45 + 0.3j
            b = DualCoords(spec, np.array([rho ** j for j in range(k - 1)]))
            phi = dual_map_H0_inverse(b, grid16)
            div = divisor_of(phi, cluster_tol=5e-3)
            assert len(div.points) == 1 and div.points[0][1] == k - 2, k

    def test_reverse_fails_off_rank_one(self, grid16):
        spec = spec_k(5)
        b = DualCoords(spec, np.array([1.0, 0.5, 0.5, 0.1], dtype=complex))
        phi = dual_map_H0_inverse(b, grid16)
        div = divisor_of(phi, cluster_tol=1e-5)
        assert len(div.points) > 1


class TestPullbacks:
    def test_identity(self):
        spec = spec_k(5)
        rng = np.random.default_rng(44)
        phi = HoloClass(spec, rng.normal(size=4) + 1j * rng.normal(size=4))
        assert np.abs(pullback_class(IsometryAction.identity(), phi).a - phi.a).max() < 1e-14

    def test_rotation_monomial_phase(self):
        spec = spec_k(5)
        iso = IsometryAction.rotation_about_axis(0.9)
        phi = basis_class(spec, 2)
        pb = pullback_class(iso, phi)
        assert projective_angle(pb.a, phi.a) < 1e-12
        # zeros rotate to zeros: divisor of the pullback is rotated back
        assert abs(abs(pb.a[2]) - 1.0) < 1e-12

    def test_divisor_maps_by_inverse(self):
        spec = spec_k(4)
        rng = np.random.default_rng(45)
        iso = IsometryAction.random_rotation(rng)
        root = 0.3 + 0.8j
        phi = HoloClass(spec, np.array([root * root, -2 * root, 1.0]))  # (z - root)^2
        pb = pullback_class(iso, phi)
        div = divisor_of(pb, cluster_tol=1e-5)
        assert len(div.points) == 1
        got = div.points[0][0].z
        # iso(got) must be the original root
        assert abs(iso.apply_z(np.array([got]))[0] - root) < 1e-6

    def test_norm_equivariance(self, grid16):
        rng = np.random.default_rng(46)
        spec = spec_k(4)
        vals = random_real_field(grid16, rng, l_hi=5)
        u = ConformalFactor.from_values(0.25 * vals / np.abs(vals).max(), grid16)
        iso = IsometryAction.random_rotation(rng)
        cs = []
        for _ in range(20):
            phi = HoloClass(spec, rng.normal(size=3) + 1j * rng.normal(size=3))
            c, dev = norm_equivariance_profile(iso, phi, u, grid16)
            assert c > 0 and dev < 1e-8
            cs.append(c)
        cs = np.array(cs)
        assert cs.std() / cs.mean() < 1e-6

    def test_reflection_conjugates(self):
        spec = spec_k(4)
        a = np.array([0.5 + 0.1j, -1.2j, 2.0])
        pb = pullback_class(IsometryAction.reflection(), HoloClass(spec, a))
        assert np.abs(pb.a - np.conj(a)).max() < 1e-14

    def test_dual_rotation_fixes_e1(self, grid16):
        spec = spec_k(4)
        iso = IsometryAction.rotation_about_axis(1.3)
        out = pullback_dual(iso, basis_dual(spec, 1), grid16)
        assert projective_angle(out.b, basis_dual(spec, 1).b) < 1e-10

    def test_dual_contravariant(self, grid16):
        rng = np.random.default_rng(47)
        spec = spec_k(5)
        i1 = IsometryAction.random_rotation(rng)
        i2 = IsometryAction.random_rotation(rng)
        eta = DualCoords(spec, rng.normal(size=4) + 1j * rng.normal(size=4))
        lhs = pullback_dual(i1.compose(i2), eta, grid16)
        rhs = pullback_dual(i2, pullback_dual(i1, eta, grid16), grid16)
        assert projective_angle(lhs.b, rhs.b) < 1e-8

    @given(k=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_class_contravariant(self, k, seed):
        # pullbacks compose in reverse: (i1 o i2)^* = i2^* i1^*, so the class
        # pulled back along i1.compose(i2) is i1's pullback pulled back by i2
        rng = np.random.default_rng(seed)
        i1 = IsometryAction.random_rotation(rng)
        i2 = IsometryAction.random_rotation(rng)
        phi = HoloClass(spec_k(k), rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1))
        lhs = pullback_class(i1.compose(i2), phi)
        rhs = pullback_class(i2, pullback_class(i1, phi))
        assert projective_angle(lhs.a, rhs.a) < 1e-12

    def test_dual_identity(self, grid16):
        rng = np.random.default_rng(48)
        spec = spec_k(4)
        eta = DualCoords(spec, rng.normal(size=3) + 1j * rng.normal(size=3))
        out = pullback_dual(IsometryAction.identity(), eta, grid16)
        assert projective_angle(out.b, eta.b) < 1e-12

    def test_pullback_conformal_rotation(self, grid16):
        # rotating about the axis leaves zonal fields alone
        zonal = np.cos(grid16.colat)[:, None] * np.ones((1, grid16.n_lon))
        u = ConformalFactor.from_values(0.4 * zonal, grid16)
        iso = IsometryAction.rotation_about_axis(0.77)
        u2 = pullback_conformal(iso, u, grid16)
        assert np.abs(u2.total - u.total).max() < 1e-10


@pytest.fixture(scope="module")
def solution_k3(grid32):
    spec = spec_k(3)
    phi = HoloClass(spec, np.array([1.0, 0.0], dtype=complex))
    return phi, dbar_solve(phi, ConformalFactor.zero(grid32), grid32), grid32


class TestDbarSolve:
    def test_closed_form_nodes(self, solution_k3):
        phi, sol, grid = solution_k3
        z = grid.z
        f_exact = -2 * np.pi * (1.0 / (2 * z)) * (1.0 - (1.0 + np.abs(z) ** 2) ** -2)
        rel = np.abs(sol.f - f_exact).max() / np.abs(f_exact).max()
        assert rel < 1e-5

    def test_north_value(self, solution_k3):
        _, sol, _ = solution_k3
        assert abs(sol.f_north) < 1e-8

    def test_p1_pattern(self, solution_k3):
        _, sol, _ = solution_k3
        assert abs(sol.p_f[0]) > 1.0
        assert abs(sol.p_f[1]) < 1e-5 * abs(sol.p_f[0])

    def test_residual(self, solution_k3):
        _, sol, _ = solution_k3
        assert sol.report["dbar_rel_l2"] < 1e-4

    def test_pf_matches_b_coords(self, solution_k3):
        phi, sol, grid = solution_k3
        b = b_coords(phi, ConformalFactor.zero(grid), grid).b
        assert np.abs(sol.p_f - b).max() < 1e-4 * np.abs(b).max()

    def test_remainder_order(self, solution_k3):
        _, sol, _ = solution_k3
        assert sol.report["remainder_slope"] >= 3 - 0.2

    def test_general_class_with_metric(self, grid32):
        rng = np.random.default_rng(49)
        spec = spec_k(4)
        vals = random_real_field(grid32, rng, l_hi=6)
        u = ConformalFactor.from_values(0.2 * vals / np.abs(vals).max(), grid32)
        phi = HoloClass(spec, rng.normal(size=3) + 1j * rng.normal(size=3))
        sol = dbar_solve(phi, u, grid32)
        b = b_coords(phi, u, grid32).b
        assert sol.report["dbar_rel_l2"] < 1e-4
        assert np.abs(sol.p_f - b).max() < 1e-4 * np.abs(b).max()
        assert sol.report["remainder_slope"] >= spec.k - 0.2

    def test_two_analyses_and_one_table_per_solve(self, monkeypatch):
        # per input only h and the Poisson right-hand side are analyzed; f's
        # coefficients are reused, the pole table is the grid's, and evaluate
        # builds the one Legendre table of its three colatitudes
        from spherecurv import cohomology, geometry

        grid = geometry.SphereGrid(24)
        counts = {"analyze": 0, "legendre": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(grid, "analyze", counted("analyze", grid.analyze))
        legendre = counted("legendre", geometry._normalized_legendre)
        for module in (geometry, cohomology):  # a table built in dbar_solve itself counts too
            monkeypatch.setattr(module, "_normalized_legendre", legendre, raising=False)
        phi = HoloClass(spec_k(4), np.array([1.0, 0.5j, -0.25]))
        sol = dbar_solve(phi, ConformalFactor.zero(grid), grid)
        assert counts == {"analyze": 2, "legendre": 1}
        b = b_coords(phi, ConformalFactor.zero(grid), grid).b
        assert np.abs(sol.p_f - b).max() < 1e-4 * np.abs(b).max()

    def test_minimal_degree_bundle(self, grid24):
        # k=2: single coordinate, linear polynomial part
        spec = spec_k(2)
        phi = HoloClass(spec, np.array([1.0 + 0j]))
        u = ConformalFactor.zero(grid24)
        sol = dbar_solve(phi, u, grid24)
        b = b_coords(phi, u, grid24).b
        assert sol.report["dbar_rel_l2"] < 1e-4
        assert abs(sol.p_f[0] - b[0]) < 1e-4 * abs(b[0])
        assert sol.report["remainder_slope"] >= 2 - 0.2

    @staticmethod
    def _under_resolved(grid48, amp):
        # e^{2u} with sup|u| = amp, u a random field of degree <= 5
        phi = HoloClass(spec_k(5), np.array([1.0, 0.5, 0.2, 1j]))
        f = grid48.synthesize(grid48.embed_packed(np.random.default_rng(3).normal(size=36)))
        u = ConformalFactor.from_values(amp * f / np.abs(f).max(), grid48)
        return phi, u, dbar_solve(phi, u, grid48)

    @pytest.mark.parametrize("amp", [2.5, 3.0])
    def test_under_resolved_metric_reports_rhs_mean(self, grid48, amp):
        # e^{2u} is under-resolved at l_max 48 for these amplitudes.  d/dphi
        # acts on the band-limited part of the source, so the Poisson
        # right-hand side keeps a quadrature mean of only 1e-11 and 2e-11
        phi, u, sol = self._under_resolved(grid48, amp)
        assert abs(sol.report["rhs_mean"]) < 1e-8
        assert sol.report["dbar_rel_l2"] < 1e-4
        assert abs(sol.f_north) < 1e-8
        # the under-resolution shows in p_f: 9e-5 (amp 2.5) and 5e-4 (amp 3) off b
        b = b_coords(phi, u, grid48).b
        assert np.abs(sol.p_f - b).max() < 1e-3 * np.abs(b).max()

    def test_rhs_mean_above_tolerance_is_projected_out(self, grid48):
        # at sup|u| = 7 the mean is 7e-8, above the 1e-8 solvability
        # tolerance: it is projected out and reported instead of raising
        phi, u, sol = self._under_resolved(grid48, 7.0)
        assert abs(sol.report["rhs_mean"]) > 1e-8
        assert sol.report["dbar_rel_l2"] < 1e-4
        assert abs(sol.f_north) < 1e-8

    def test_spectral_accuracy_on_solved_metric(self, grid48):
        # the Poisson solve is exact up to the transform: the polynomial part
        # lands on the quadrature b-coordinates far below the 1e-4 contract
        from spherecurv.pde import SolveConfig, solve_phi_system

        rng = np.random.default_rng(50)
        spec = spec_k(5)
        phi = HoloClass(spec, rng.normal(size=4) + 1j * rng.normal(size=4))
        res = solve_phi_system(phi, 2 * np.pi, SolveConfig(l_max=48))
        assert res.converged
        sol = dbar_solve(phi, res.u, grid48)
        b = b_coords(phi, res.u, grid48).b
        assert np.abs(sol.p_f - b).max() < 1e-8 * np.abs(b).max()
        assert sol.report["dbar_rel_l2"] < 1e-10
        assert sol.report["remainder_slope"] >= spec.k - 0.2
