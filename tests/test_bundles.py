import numpy as np
import pytest
from scipy.integrate import quad

from spherecurv.bundles import (
    BundleSpec,
    ConformalFactor,
    HoloClass,
    chart_monomials,
    curvature_scalar,
    degree_by_integration,
    divisor_of,
    pair_weight_values,
    phi_norm_sq,
)
from spherecurv.errors import ZeroClass
from spherecurv.lab import gen_family

from conftest import random_real_field
from oracles import at_pole, h0_norm_zeta, laplacian_local, log_norm_zeta_callable


def spec_k(k, deg_L1=0):
    return BundleSpec(deg_L1, deg_L1 + k)


class TestBundleSpec:
    def test_k(self):
        assert spec_k(4).k == 4

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            BundleSpec(0, 1)


class TestH0Norm:
    def test_at_origin(self):
        assert h0_norm_zeta(0.0, 3) == 1.0

    def test_on_unit_circle(self):
        assert h0_norm_zeta(np.exp(0.7j), 2) == pytest.approx(0.25)

    def test_chart_consistency(self):
        # z-chart value vs |w|^{2k} (1+|w|^2)^{-k} through the gauge factor
        z = 2.0 * np.exp(1.2j)
        w = 1.0 / z
        k = 5
        gauge = np.abs(w) ** (2 * k) * (np.abs(w) ** 2 + 1.0) ** (-k)
        assert abs(h0_norm_zeta(z, k) - gauge) < 1e-14


class TestPhiNormSq:
    def test_constant_class_k2(self, grid16):
        phi = HoloClass(spec_k(2), np.array([1.0 + 0j]))
        f = phi_norm_sq(phi, ConformalFactor.zero(grid16), grid16)
        assert np.abs(f - 2 * np.pi).max() < 1e-12

    def test_zero_at_section_zero(self):
        # g = z^{k-2} vanishes at z = 0
        k = 5
        a = np.zeros(k - 1, dtype=complex)
        a[-1] = 1.0
        val = pair_weight_values(a, a, k, np.array([0j]), np.array([complex(np.inf)]))
        assert val[0] == 0.0

    def test_total_mass_oracle(self, grid16):
        # g = 1, k = 3: 1-D radial quadrature of the closed-form integrand
        phi = HoloClass(spec_k(3), np.array([1.0, 0.0], dtype=complex))
        f = phi_norm_sq(phi, ConformalFactor.zero(grid16), grid16)
        oracle, _ = quad(
            lambda r: 2 * np.pi / (1 + r * r) * (1 / np.pi) * (1 + r * r) ** -2 * 2 * np.pi * r,
            0,
            np.inf,
        )
        assert abs(grid16.integrate(f) - oracle) < 1e-10

    def test_chart_covariance(self, grid16):
        # on the overlap annulus the z-chart and w-chart rows of V differ by
        # one unimodular factor common to every column, so the pairing weight
        # is the z-chart formula in either chart
        rng = np.random.default_rng(5)
        k = 6
        a = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
        band = (np.abs(grid16.z) >= 0.5) & (np.abs(grid16.z) <= 2.0)
        z = grid16.z[band][:, None]
        w = grid16.w[band][:, None]
        j = np.arange(k - 1)
        v_z = z**j * (1 + np.abs(z) ** 2) ** (1 - k / 2)
        v_w = w ** (k - 2 - j) * (1 + np.abs(w) ** 2) ** (1 - k / 2)
        ratio = v_w / v_z
        assert np.abs(ratio - ratio[:, :1]).max() < 1e-13
        assert np.abs(np.abs(ratio) - 1.0).max() < 1e-13
        v = chart_monomials(k, z[:, 0], w[:, 0])
        north = np.abs(z[:, 0]) > 1.0
        assert north.any() and not north.all()
        assert np.abs(v - np.where(north[:, None], v_w, v_z)).max() < 1e-15 * np.abs(v).max()
        f_z = np.abs(np.polynomial.polynomial.polyval(z[:, 0], a)) ** 2 * (1 + np.abs(z[:, 0]) ** 2) ** (2 - k)
        f = pair_weight_values(a, a, k, z[:, 0], w[:, 0])
        assert np.abs(f - f_z).max() < 1e-13 * np.abs(f_z).max()

    def test_positive_and_small_near_roots(self, grid32):
        k = 4
        phi = HoloClass(spec_k(k), np.array([-1.0, 0.0, 1.0], dtype=complex))  # g = z^2 - 1
        f = phi_norm_sq(phi, ConformalFactor.zero(grid32), grid32)
        assert f.min() >= 0.0
        spacing = np.pi / grid32.n_lat
        for root in (1.0, -1.0):
            dist = np.abs(grid32.z - root)
            near = dist < 2 * np.sin(spacing)  # chart radius of ~one spacing at |z|=1
            assert f[near].min() < 2 * np.pi * (4 * np.sin(spacing)) ** 2


class TestCurvature:
    def test_flat_case(self, grid16):
        f = curvature_scalar(ConformalFactor.zero(grid16), spec_k(5), grid16)
        assert np.abs(f - 10 * np.pi).max() < 1e-10

    def test_total_curvature(self, grid16):
        rng = np.random.default_rng(8)
        u = ConformalFactor.from_values(random_real_field(grid16, rng, l_hi=8), grid16)
        f = curvature_scalar(u, spec_k(3), grid16)
        assert abs(grid16.integrate(f) - 6 * np.pi) < 1e-9

    def test_meromorphic_section_route(self, grid24):
        # -lap(ln |zeta|_{H_u}) computed by local finite differences on the
        # closed form must match the spectral curvature field away from the
        # chart pole.
        rng = np.random.default_rng(9)
        spec = spec_k(3)
        u_vals = 0.3 * random_real_field(grid24, rng, l_hi=6)
        u = ConformalFactor.from_values(u_vals, grid24)
        cs = curvature_scalar(u, spec, grid24)

        fn = log_norm_zeta_callable(grid24.analyze(u.u), u.offset, spec, grid24)
        TH, PH = np.meshgrid(grid24.colat, grid24.lon, indexing="ij")
        cap = 2 * np.pi / grid24.n_lat
        mask = TH > cap
        lap_fd = laplacian_local(fn, TH[mask], PH[mask], h=1.5e-3)
        assert np.abs(-lap_fd - cs[mask]).max() < 1e-6 * max(1.0, np.abs(cs).max())


class TestDegree:
    def test_flat(self, grid16):
        assert degree_by_integration(ConformalFactor.zero(grid16), spec_k(3), grid16) == pytest.approx(3.0, abs=1e-10)

    def test_random_u(self, grid16):
        rng = np.random.default_rng(10)
        u = ConformalFactor.from_values(random_real_field(grid16, rng, l_hi=10), grid16)
        assert degree_by_integration(u, spec_k(4), grid16) == pytest.approx(4.0, abs=1e-8)

    def test_y2_bump(self, grid16):
        x = np.zeros(grid16.n_packed)
        x[2] = 0.3  # packed entry 2 is the zonal (l, m) = (2, 0) one
        u = ConformalFactor.from_values(grid16.synthesize(x), grid16)
        assert degree_by_integration(u, spec_k(2), grid16) == pytest.approx(2.0, abs=1e-8)

    def test_invariance_over_many_u(self, grid16):
        rng = np.random.default_rng(11)
        spec = spec_k(3)
        degs = []
        for _ in range(20):
            u = ConformalFactor.from_values(0.5 * random_real_field(grid16, rng, l_hi=12), grid16)
            degs.append(degree_by_integration(u, spec, grid16))
        assert np.ptp(degs) < 1e-8


class TestDivisor:
    def test_double_root(self):
        phi = HoloClass(spec_k(4), np.array([0.0, 0.0, 1.0], dtype=complex))  # g = z^2
        d = divisor_of(phi)
        assert d.total == 2
        assert len(d.points) == 1
        assert abs(d.points[0][0].z) < 1e-7 and d.points[0][1] == 2

    def test_constant_class_all_at_pole(self):
        phi = HoloClass(spec_k(4), np.array([1.0, 0.0, 0.0], dtype=complex))
        d = divisor_of(phi)
        assert d.total == 2
        assert at_pole(d) == 2

    def test_simple_roots_plus_pole(self):
        # k=5, g = z(z-1): roots 0 and 1 plus one order at the pole
        phi = HoloClass(spec_k(5), np.array([0.0, -1.0, 1.0, 0.0], dtype=complex))
        d = divisor_of(phi)
        assert d.total == 3
        assert at_pole(d) == 1
        finite = sorted(p.z.real for p, m in d.points if p.w != 0)
        assert finite == pytest.approx([0.0, 1.0], abs=1e-8)

    def test_degree_reads_the_symmetry_support(self):
        # a coefficient at 1e-13 of the largest is outside the support that
        # puts this class on the m = 0 grid as z^2, so the degree and the
        # divisor drop it too: no zeros at |z| ~ 4.5e6
        phi = HoloClass(spec_k(7), np.array([0, 0, 2, 0, -1e-13, 0], dtype=complex))
        assert phi.rotation_symmetry() == (0, 2) and phi.poly_degree() == 2
        d = divisor_of(phi)
        assert d.total == 5 and at_pole(d) == 3
        assert [(abs(p.z) < 1e-7, m) for p, m in d.points if p.w != 0] == [(True, 2)]

    def test_zero_class_rejected(self):
        with pytest.raises(ZeroClass):
            HoloClass(spec_k(4), np.zeros(3, dtype=complex))

    @pytest.mark.parametrize(
        "a,bad", [([np.nan, 1, 0], 0), ([1, np.inf, 0], 1), ([1, 0, -np.inf], 2), ([0, 1, 1j * np.inf], 2)]
    )
    def test_non_finite_class_rejected(self, a, bad):
        # a non-finite coefficient used to construct, and the support readers
        # (degree, divisor, symmetry) then failed with a bare IndexError
        with pytest.raises(ValueError, match=f"coefficient a_{bad} = .* is not finite"):
            HoloClass(spec_k(4), a)


class TestRotationSymmetry:
    # (n, r): the support's index differences have gcd n, and its indices are r mod n
    def test_ring_from_family_and_from_coefficients(self):
        ring = gen_family(2, {"a": 1, "n": 4}, spec_k(7))  # g = z (z^4 - 1)
        assert ring.rotation_symmetry() == (4, 1)
        assert HoloClass(spec_k(7), [0, -1, 0, 0, 0, 1]).rotation_symmetry() == (4, 1)

    def test_monomial(self):
        assert HoloClass(spec_k(6), [0, 0, 3j, 0, 0]).rotation_symmetry() == (0, 2)

    def test_generic_class(self):
        rng = np.random.default_rng(31)
        assert HoloClass(spec_k(6), rng.normal(size=5) + 1j * rng.normal(size=5)).rotation_symmetry() == (1, 0)

    @pytest.mark.parametrize(
        "params,k", [({"a": 1, "n": 3, "q": [0.5, [0.2, 0.3]]}, 10), ({"a": 2, "n": 5, "q": [1.5]}, 10)]
    )
    def test_kind3_family(self, params, k):
        phi = gen_family(3, params, spec_k(k))
        assert phi.rotation_symmetry() == (params["n"], params["a"] % params["n"])

    def test_support_threshold(self):
        # a coefficient at 1e-13 of the largest is not in the support; one at 1e-11 is
        assert HoloClass(spec_k(7), [1e-13, -1, 0, 0, 0, 1]).rotation_symmetry() == (4, 1)
        assert HoloClass(spec_k(7), [0, 0, 2, 0, -1e-13, 0]).rotation_symmetry() == (0, 2)
        assert HoloClass(spec_k(7), [1e-11, -1, 0, 0, 0, 1]).rotation_symmetry() == (1, 0)


class TestConformalFactor:
    def test_mean_split(self, grid16):
        rng = np.random.default_rng(12)
        vals = random_real_field(grid16, rng, zero_mean=False) + 1.7
        u = ConformalFactor.from_values(vals, grid16)
        assert abs(grid16.integrate(u.u)) < 1e-10
        assert np.abs(u.total - vals).max() < 1e-12
