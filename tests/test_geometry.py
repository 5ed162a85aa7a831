import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from spherecurv.errors import SpecMismatch
from spherecurv.geometry import (
    GAUSS_CURVATURE,
    ChartPoint,
    build_grid,
    longitudes,
    symmetric_step,
)

from conftest import random_real_field
from oracles import chart_point_from_angles, d_dz_from_dtheta_table, laplacian_local, normalized_legendre_stepwise


def packed_harmonic(grid, l, m):
    """Packed coefficients of Y_lm = sqrt(2) Pbar_l^|m| e^{i m phi}: (cos + i sign(m) sin) / sqrt(2) for m != 0."""
    h = np.zeros((grid.l_max + 1, grid.l_max + 1, 2), dtype=complex)
    h[abs(m), l] = (1.0, 0.0) if m == 0 else (np.sqrt(0.5), 1j * np.sign(m) * np.sqrt(0.5))
    return h.reshape(-1)[grid._flat]


def unit_harmonic(grid, l, m):
    return grid.synthesize(packed_harmonic(grid, l, m))


class TestGridConstruction:
    def test_weights_sum_to_one(self, grid16):
        assert abs(grid16.weights.sum() - 1.0) < 1e-12

    def test_integrate_constant(self, grid16):
        assert abs(grid16.integrate(np.ones((grid16.n_lat, grid16.n_lon))) - 1.0) < 1e-12

    def test_rejects_small_lmax(self):
        with pytest.raises(ValueError):
            build_grid(3)

    def test_resolution_bounds(self, grid16):
        assert grid16.n_lon >= 2 * grid16.l_max + 1
        assert grid16.n_lat >= grid16.l_max + 1

    def test_chart_density(self, grid16):
        # Grid integral of a radial chart function must match planar quadrature
        # against (1/pi) (1+r^2)^{-2} dA; confirms the z-chart area element.
        mass, _ = quad(lambda r:etc_density(r), 0.0, np.inf)
        assert abs(mass - 1.0) < 1e-10
        f = 1.0 / (1.0 + np.abs(grid16.z) ** 2)
        oracle, _ = quad(lambda r: etc_density(r) / (1.0 + r * r), 0.0, np.inf)
        assert abs(grid16.integrate(f) - oracle) < 1e-10

    def test_nodes_exclude_poles(self, grid16):
        assert grid16.colat.min() > 0.0
        assert grid16.colat.max() < np.pi
        assert np.isfinite(grid16.z).all() and np.isfinite(grid16.w).all()


def etc_density(r):
    # planar density of the normalized round measure in the z-chart
    return (1.0 / np.pi) * (1.0 + r * r) ** -2 * 2.0 * np.pi * r


class TestIntegrate:
    def test_odd_zonal(self, grid16):
        f = np.cos(grid16.colat)[:, None] * np.ones((1, grid16.n_lon))
        assert abs(grid16.integrate(f)) < 1e-12

    def test_chart_form_of_one(self, grid16):
        f = (1.0 + np.abs(grid16.z) ** 2) ** -2 * (1.0 + np.abs(grid16.z) ** 2) ** 2
        assert abs(grid16.integrate(f) - 1.0) < 1e-12

    def test_harmonics_integrate_to_zero(self, grid16):
        # exactness through degree 2*l_max
        for l, m in [(1, 0), (2, 1), (7, -5), (16, 16), (25, 3), (32, -20), (32, 32)]:
            y = unit_harmonic_ext(grid16, l, m)
            assert abs(grid16.integrate(y)) < 1e-12, (l, m)

    def test_shape_mismatch(self, grid16):
        with pytest.raises(SpecMismatch):
            grid16.integrate(np.ones((3, 3)))


def unit_harmonic_ext(grid, l, m):
    """Y_l^m sampled on the grid for l possibly above l_max (direct evaluation)."""
    from spherecurv.geometry import _normalized_legendre

    p = _normalized_legendre(l, grid.mu)
    return np.sqrt(2.0) * p[abs(m), l][:, None] * np.exp(1j * m * grid.lon)[None, :]


class TestLegendreTable:
    def test_matches_scipy(self):
        # scipy orders the table [l, m] and carries the Condon-Shortley phase too
        from scipy.special import assoc_legendre_p_all

        from spherecurv.geometry import _normalized_legendre

        mu = build_grid(40).mu
        p = _normalized_legendre(40, mu)
        ref = assoc_legendre_p_all(40, 40, mu, norm=True)[0][:, :41].transpose(1, 0, 2)
        assert np.abs(p - ref).max() < 1e-13 * np.abs(ref).max()

    def test_cached_recurrence_is_bitwise_stepwise(self, grid48):
        # the cached coefficients and the vectorized diagonals multiply in the
        # order of one step per degree, so every table is the same to the bit
        from spherecurv.geometry import _normalized_legendre

        repeated = np.cos(np.array([0.3, 1.2, 0.3, 2.9, 1.2, 0.3]))
        cases = [(grid48.mu, False), (np.array(1.0), True), (repeated, False), (np.array([[0.5, -0.25], [0.9, 0.5]]), False)]
        for l_max in (0, 1, 5, 48):
            for mu, unit_sin in cases:
                p = _normalized_legendre(l_max, mu, _unit_sin=unit_sin)
                assert np.array_equal(p, normalized_legendre_stepwise(l_max, mu, _unit_sin=unit_sin))
        assert np.array_equal(grid48._plm, normalized_legendre_stepwise(48, grid48.mu))
        assert np.array_equal(grid48._pole, normalized_legendre_stepwise(48, np.array(1.0), _unit_sin=True))

    def test_evaluate_on_shared_colatitudes(self, grid48):
        # dbar_solve's layout: many longitudes on a few colatitudes, one table per colatitude
        rng = np.random.default_rng(48)
        y = rng.normal(size=grid48.n_packed) + 1j * rng.normal(size=grid48.n_packed)
        theta = np.concatenate([[0.0], np.repeat([0.39, 0.2], 64), rng.uniform(0, np.pi, 5)])
        phi = rng.uniform(0, 2 * np.pi, theta.size)
        together = grid48.evaluate(y, theta, phi)
        alone = np.array([grid48.evaluate(y, t, p)[0] for t, p in zip(theta, phi)])
        assert np.abs(together - alone).max() < 1e-14 * np.abs(alone).max()
        assert np.array_equal(grid48.evaluate(y.real, theta, phi), together.real)


class TestLaplacian:
    def test_constant(self, grid16):
        # quadrature noise ~1e-15 is amplified by the top eigenvalue ~ 4*pi*l^2
        lap = grid16.laplacian(np.ones((grid16.n_lat, grid16.n_lon)))
        assert np.abs(lap).max() < 1e-10

    def test_degree_one_eigenvalue_vs_fd_oracle(self, grid16):
        # spectral route vs independent finite differences on the callable
        y = unit_harmonic(grid16, 1, 1)
        lap = grid16.laplacian(y)
        assert_allclose(lap, -8 * np.pi * y, atol=1e-10)

        def fn(th, ph):
            from spherecurv.geometry import _normalized_legendre

            p = _normalized_legendre(1, np.cos(th))
            return np.sqrt(2.0) * p[1, 1] * np.exp(1j * ph)

        TH, PH = np.meshgrid(grid16.colat, grid16.lon, indexing="ij")
        lap_fd = laplacian_local(fn, TH, PH, h=2e-3)
        assert np.abs(lap_fd + 8 * np.pi * y).max() < 1e-6

    def test_chart_log_potential(self, grid32):
        # Delta[(k/2) ln(1+|z|^2)] = 2*pi*k, checked away from a one-spacing
        # polar cap; the potential is not band-limited so the local FD path
        # is the legitimate evaluation route.
        k = 3
        fn = lambda th, ph: -k * np.log(np.sin(th / 2.0))
        TH, PH = np.meshgrid(grid32.colat, grid32.lon, indexing="ij")
        cap = np.pi / grid32.n_lat
        mask = TH > cap
        lap = laplacian_local(fn, TH, PH, h=1e-3)
        rel = np.abs(lap[mask] - 2 * np.pi * k) / (2 * np.pi * k)
        assert rel.max() < 1e-6

    def test_eigenvalue_table(self, grid16):
        for l, m in [(2, 0), (5, -3), (10, 7)]:
            y = unit_harmonic(grid16, l, m)
            lap = grid16.laplacian(y)
            assert_allclose(lap, -GAUSS_CURVATURE * l * (l + 1) * y, atol=1e-9)


def solve_poisson(grid, rhs):
    """The mean-zero u with laplacian(u) = rhs - mean, on the grid, and that mean."""
    x, mean = grid.poisson_coeffs(rhs)
    return grid.synthesize(x), mean


class TestPoisson:
    def test_zero_rhs(self, grid16):
        u, mean = solve_poisson(grid16, np.zeros((grid16.n_lat, grid16.n_lon)))
        assert np.abs(u).max() == 0.0 and mean == 0.0

    def test_inverse_property(self, grid16):
        rng = np.random.default_rng(3)
        g = random_real_field(grid16, rng)
        g = g - grid16.integrate(g)
        u, mean = solve_poisson(grid16, grid16.laplacian(g))
        assert np.abs(u - g).max() < 1e-9
        assert abs(mean) < 1e-8

    def test_constant_rhs_is_all_mean(self, grid16):
        # a constant has no mean-zero part: mean 1, every coefficient zero
        x, mean = grid16.poisson_coeffs(np.ones((grid16.n_lat, grid16.n_lon)))
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert np.abs(x).max() < 1e-12

    def test_log_potential_coefficients(self, grid24):
        # Solve with the band-limited part of 2*pi*k*(1 - delta_N); the zonal
        # coefficients of the recovered field must match 1-D quadrature of the
        # closed-form potential against each Legendre function.
        from spherecurv.geometry import _normalized_legendre

        # packed entries 0..l_max are the zonal (m = 0) ones, entry l of degree l
        k, L = 2, grid24.l_max
        rhs_x = np.zeros(grid24.n_packed)
        rhs_x[1 : L + 1] = -2 * np.pi * k * np.sqrt(2.0 * np.arange(1, L + 1) + 1.0)
        rhs = grid24.synthesize(rhs_x)
        u, mean = solve_poisson(grid24, rhs)
        assert abs(mean) < 1e-8
        got = grid24.analyze(u)

        for l in (1, 2, 5, 11, 24):
            def integrand(x, l=l):
                p = _normalized_legendre(l, np.array([x]))
                return -(k / 2.0) * np.log((1.0 - x) / 2.0) * p[0, l][0]

            # c_l = (sqrt(2)/2) * int f(mu) Pbar_l(mu) dmu
            val, _ = quad(integrand, -1.0, 1.0, epsabs=1e-13, limit=200)
            oracle = np.sqrt(2.0) / 2.0 * val
            assert abs(got[l] - oracle) < 1e-10, l


class TestInvariants:
    def test_self_adjointness(self, grid16):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_real_field(grid16, rng)
            g = random_real_field(grid16, rng)
            a = grid16.integrate(f * grid16.laplacian(g))
            b = grid16.integrate(g * grid16.laplacian(f))
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_divergence_identity(self, grid16):
        rng = np.random.default_rng(12)
        for _ in range(5):
            f = random_real_field(grid16, rng, zero_mean=False)
            assert abs(grid16.integrate(grid16.laplacian(f))) < 1e-10

    def test_chart_consistency(self, grid16):
        # same closed form expressed through z and through w must agree on the
        # overlap annulus 0.5 <= |z| <= 2
        f_z = (1.0 + np.abs(grid16.z) ** 2) ** -2
        f_w = np.abs(grid16.w) ** 4 * (1.0 + np.abs(grid16.w) ** 2) ** -2
        band = (np.abs(grid16.z) >= 0.5) & (np.abs(grid16.z) <= 2.0)
        assert np.abs(f_z - f_w)[band].max() < 1e-10

    def test_roundtrip_bandlimited(self, grid16):
        rng = np.random.default_rng(13)
        f = random_real_field(grid16, rng)
        f2 = grid16.synthesize(grid16.analyze(f))
        assert np.abs(f2 - f).max() < 1e-10 * max(1.0, np.abs(f).max())


class TestChartDerivatives:
    # (f, d_z f, d_zbar f, d_phi f) with s = 1+|z|^2; band-limited, so
    # spectrally exact.  2z/s = sin(t) e^{i phi} is (l, m) = (1, 1) alone;
    # 1/s and z/s^2 also carry l > |m|, where d/dtheta uses the Pbar_{l-1}^m
    # term.  z^a conj(z)^b g(|z|) has d/dphi = i (a - b) times itself
    CLOSED_FORMS = {
        "2z_over_s": (
            lambda z, s: 2 * z / s,
            lambda z, s: 2 / s**2,
            lambda z, s: -2 * z**2 / s**2,
            lambda z, s: 2j * z / s,
        ),
        "1_over_s": (
            lambda z, s: 1 / s,
            lambda z, s: -np.conj(z) / s**2,
            lambda z, s: -z / s**2,
            lambda z, s: 0 * z,
        ),
        "z_over_s2": (
            lambda z, s: z / s**2,
            lambda z, s: (2 - s) / s**3,
            lambda z, s: -2 * z**2 / s**3,
            lambda z, s: 1j * z / s**2,
        ),
    }

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_closed_form(self, grid16, name):
        f, dz, dzbar, dphi = self.CLOSED_FORMS[name]
        z = grid16.z
        s = 1.0 + np.abs(z) ** 2
        x = grid16.analyze(f(z, s))
        assert np.abs(grid16.d_dz(x) - dz(z, s)).max() < 1e-12
        assert np.abs(grid16.d_dzbar(x) - dzbar(z, s)).max() < 1e-12
        # packed d/dphi: each cos entry takes m times its sin partner and back
        assert np.abs(grid16.synthesize(grid16.d_dphi(grid16.analyze(f(z, s)))) - dphi(z, s)).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_dtheta_table_at_48(self, seed):
        # the dbar grid: the recurrence shift against synthesis with d/dtheta Pbar_l^m
        grid = build_grid(48)
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=grid.n_packed) + 1j * rng.normal(size=grid.n_packed)) / (1.0 + grid.packed_entries[:, 2])
        for got, ref in ((grid.d_dz(x), d_dz_from_dtheta_table(grid, x)),
                         (grid.d_dzbar(x), np.conj(d_dz_from_dtheta_table(grid, np.conj(x))))):
            assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("l_max", [16, 48])
    def test_grid_holds_one_legendre_node_table(self, l_max):
        for step in (1, 4, 0):
            grid = build_grid(l_max, step)
            shape = (np.unique(grid.packed_entries[:, 0]).size, l_max + 1, grid.n_lat)
            tables = [v for v in vars(grid).values() if isinstance(v, np.ndarray) and v.shape == shape]
            assert len(tables) == 1

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_north_taylor(self, grid16, j):
        # conj(z)/s = w/(1+|w|^2) = w + O(|w|^3): (conj(z)/s)^j contributes
        # w^j alone; z/s = conj(w)/(1+|w|^2) is antiholomorphic at N and
        # contributes nothing, and the constant is f(N)
        z = grid16.z
        s = 1.0 + np.abs(z) ** 2
        f_north, taylor = grid16.north_taylor(grid16.analyze(3.0 + 0.5 * z / s + (np.conj(z) / s) ** j), 4)
        assert abs(f_north - 3.0) < 1e-12
        assert np.abs(taylor - np.eye(4)[j - 1]).max() < 1e-10  # 2^j A[j, l] amplifies roundoff


class TestRealCore:
    # packed real coefficients of random band-limited fields, l_max 4..24,
    # and the truncations the solver and its benchmark run at
    @settings(max_examples=40)
    @given(l_max=st.integers(4, 24), seed=st.integers(0, 2**32 - 1))
    @example(l_max=32, seed=1)
    @example(l_max=33, seed=2)
    @example(l_max=48, seed=3)
    def test_transform_invariants(self, l_max, seed):
        grid = build_grid(l_max)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=grid.n_packed)
        v = grid.synthesize(x)
        assert np.abs(grid.analyze(v) - x).max() < 1e-12 * np.abs(x).max()
        # Parseval: the packed basis is orthonormal for the normalized measure
        assert abs(grid.integrate(v * v) - x @ x) < 1e-12 * (x @ x)
        y = x + 1j * rng.normal(size=grid.n_packed)
        w = grid.synthesize(y)
        assert np.abs(w.real - v).max() == 0.0
        assert np.abs(grid.analyze(w) - y).max() < 1e-12 * np.abs(y).max()
        # the basis is real, so analysis commutes with conjugation
        assert np.abs(grid.analyze(np.conj(w)) - np.conj(grid.analyze(w))).max() < 1e-15 * np.abs(y).max()
        # off-grid synthesis of a complex vector at the nodes themselves
        j = rng.integers(grid.n_lat, size=8)
        k = rng.integers(grid.n_lon, size=8)
        assert np.abs(grid.evaluate(y, grid.colat[j], grid.lon[k]) - w[j, k]).max() < 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("l_max", [72, 128])
    def test_large_truncations_add_nothing_to_the_quadrature(self, l_max):
        # Past l_max 48 the round trips above miss their 1e-12 bounds on the
        # FFT core as well: the Gauss nodes are rounded to doubles, and the
        # Legendre Gram matrix sum_j glw_j P[m,l,j] P[m,l',j] misses the
        # identity by 1.6e-13 (l_max 72) and 6e-13 (l_max 128) even with exact
        # Legendre values.  So the round trip is checked against that Gram
        # matrix, and a complex field's single batched transform against two
        # real ones.
        grid = build_grid(l_max)
        rng = np.random.default_rng(l_max)
        # packed entry (m, cos|sin, l) is the basis function b_m Pbar_l^m {cos, sin}(m phi)
        for i in rng.integers(grid.n_packed, size=12):
            m, p, l = grid.packed_entries[i]
            basis = (2.0 if m else np.sqrt(2.0)) * np.outer(grid._plm[m, l], (np.cos, np.sin)[p](m * grid.lon))
            e = np.zeros(grid.n_packed)
            e[i] = 1.0
            assert np.abs(grid.synthesize(e) - basis).max() < 1e-13 * np.abs(basis).max()
        x = rng.normal(size=grid.n_packed)
        v = grid.synthesize(x)
        h = np.zeros(2 * (l_max + 1) ** 2)
        h[grid._flat] = x
        gram = np.matmul(grid._plm * grid.glw, grid._plm.transpose(0, 2, 1))
        expected = np.matmul(gram, h.reshape(l_max + 1, l_max + 1, 2)).reshape(-1)[grid._flat]
        assert np.abs(grid.analyze(v) - expected).max() < 1e-13 * np.abs(x).max()
        assert abs(grid.integrate(v * v) - x @ x) < 1e-12 * (x @ x)
        w = v + 1j * grid.synthesize(rng.normal(size=grid.n_packed))
        real_path = sum(f * grid.synthesize(grid.analyze(part)) for f, part in ((1, w.real), (1j, w.imag)))
        assert np.abs(grid.synthesize(grid.analyze(w)) - real_path).max() < 1e-13 * np.abs(w).max()


class TestOrderCap:
    # step 0 caps the orders at m = 0: its table is the leading row of the full one

    @pytest.mark.parametrize("l_max", [16, 48])
    def test_capped_table_is_the_leading_rows(self, l_max):
        from spherecurv.geometry import _normalized_legendre

        for mu, unit_sin in ((build_grid(l_max).mu, False), (np.array(1.0), True)):
            full = _normalized_legendre(l_max, mu, _unit_sin=unit_sin)
            for stride in (l_max + 1, 2 * l_max + 3):  # any stride above l_max keeps m = 0 alone
                table = _normalized_legendre(l_max, mu, _unit_sin=unit_sin, step=stride)
                assert np.array_equal(table, full[:1])
        assert np.array_equal(build_grid(l_max, 0)._plm, build_grid(l_max)._plm[:1])


class TestWedge:
    # a grid of order step n keeps the packed entries with m in nZ on the wedge [0, 2 pi/n) of the full circle;
    # step 0, its limit, keeps m = 0 alone on one longitude

    @pytest.mark.parametrize("l_max", [16, 48])
    def test_step_table_is_every_step_th_row(self, l_max):
        from spherecurv.geometry import _normalized_legendre

        for mu, unit_sin in ((build_grid(l_max).mu, False), (np.array(1.0), True)):
            full = _normalized_legendre(l_max, mu, _unit_sin=unit_sin)
            for step in (1, 2, 4):
                table = _normalized_legendre(l_max, mu, _unit_sin=unit_sin, step=step)
                assert np.array_equal(table, full[::step])

    @pytest.mark.parametrize("l_max", [16, 48])
    def test_step_1_is_the_full_grid(self, l_max):
        from spherecurv.geometry import SphereGrid

        grid = build_grid(l_max)
        assert build_grid(l_max, 1) is grid
        spelled = SphereGrid(l_max, step=1)
        rng = np.random.default_rng(l_max)
        x = rng.normal(size=grid.n_packed)
        v = grid.synthesize(x) + 1j * random_real_field(grid, rng)
        assert np.array_equal(spelled.synthesize(x), grid.synthesize(x))
        assert np.array_equal(spelled.analyze(v), grid.analyze(v))
        assert np.array_equal(spelled.packed_entries, grid.packed_entries) and spelled.n_lon == grid.n_lon

    def test_step_must_divide_the_circle(self):
        with pytest.raises(ValueError, match="does not divide"):
            build_grid(16, 8)  # 36 longitudes
        with pytest.raises(ValueError, match="does not divide"):
            build_grid(16, -1)

    @pytest.mark.parametrize("l_max", [16, 48])
    @pytest.mark.parametrize("step", [0, 2, 4])
    def test_wedge_matches_the_full_grid(self, l_max, step):
        grid, wedge = build_grid(l_max), build_grid(l_max, step)
        stride = step or l_max + 1  # step 0: m = 0 alone
        kept = grid.packed_entries[:, 0] % stride == 0
        assert np.array_equal(wedge.packed_entries, grid.packed_entries[kept])
        assert wedge.n_lon == (grid.n_lon // step if step else 1) and np.array_equal(wedge.lon, grid.lon[: wedge.n_lon])
        assert np.array_equal(wedge.colat, grid.colat) and abs(wedge.weights.sum() - 1.0) < 1e-14
        # a band-limited Z_n field: packed entries with m in nZ only (a zonal one on step 0)
        rng = np.random.default_rng(l_max + step)
        x = np.zeros(grid.n_packed, dtype=complex)
        x[kept] = rng.normal(size=wedge.n_packed) + 1j * rng.normal(size=wedge.n_packed)
        y, v = x[kept], grid.synthesize(x)
        scale = np.abs(v).max()
        assert np.abs(np.roll(v, wedge.n_lon, axis=1) - v).max() < 1e-12 * scale
        assert np.abs(wedge.synthesize(y) - v[:, : wedge.n_lon]).max() < 1e-13 * scale
        assert np.abs(wedge.analyze(wedge.synthesize(y)) - y).max() < 1e-12 * np.abs(y).max()
        # analysis of a Z_n field that is not band-limited: the full grid's m in nZ entries
        f = np.exp(0.3 * v.real) + 1j * np.cos(v.imag)
        ref = grid.analyze(f)[kept]
        assert np.abs(wedge.analyze(f[:, : wedge.n_lon]) - ref).max() < 1e-13 * np.abs(ref).max()
        # of any field: the wedge's analysis of the mean of its rotated copies (on step 0 its longitude mean)
        g = random_real_field(grid, rng)
        ref = grid.analyze(g)[kept]
        assert np.abs(wedge.analyze(g.reshape(grid.n_lat, -1, wedge.n_lon).mean(axis=1)) - ref).max() < 1e-14 * np.abs(ref).max()
        assert np.array_equal(wedge.d_dphi(y), grid.d_dphi(x)[kept])
        theta, phi = rng.uniform(0.0, np.pi, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
        assert np.abs(wedge.evaluate(y, theta, phi) - grid.evaluate(x, theta, phi)).max() < 1e-13 * scale
        (n_wedge, t_wedge), (n_full, t_full) = wedge.north_taylor(y, 9), grid.north_taylor(x, 9)
        assert abs(n_wedge - n_full) < 1e-13 * scale
        assert np.abs(t_wedge - t_full).max() <= 1e-13 * np.abs(t_full).max()  # both 0 on step 0
        assert not t_wedge[np.arange(1, 10) % stride != 0].any()
        # zero-padding keeps the step: a coarser grid's entries are the degree <= its l_max ones
        coarse = build_grid(l_max // 2, step)
        z = rng.normal(size=coarse.n_packed)
        padded = wedge.embed_packed(z, coarse)
        low = wedge.packed_entries[:, 2] <= coarse.l_max
        assert np.array_equal(padded[low], z) and not padded[~low].any()

    @pytest.mark.parametrize("source", [(8, 2), (8, 0), (8, 1), (24, 4)], ids=["step2", "step0", "full", "finer"])
    def test_embed_packed_keeps_step_and_degree(self, source):
        # coefficients embed only from a grid of this step and at most this degree:
        # the step-4 l_max-16 wedge refuses another step's and a finer grid's
        grid, src = build_grid(16, 4), build_grid(*source)
        with pytest.raises(SpecMismatch, match=f"step {src.step}, l_max {src.l_max} do not embed in step 4, l_max 16"):
            grid.embed_packed(np.zeros(src.n_packed), src)

    @pytest.mark.parametrize("l_max", [16, 48])
    @pytest.mark.parametrize("step", [0, 2, 4])
    def test_fold_undoes_tile(self, l_max, step):
        # a wedge's node values tiled over the circle fold back to themselves;
        # the tiled values are a Z_n field's full-grid ones
        grid, wedge = build_grid(l_max), build_grid(l_max, step)
        v = random_real_field(wedge, np.random.default_rng(l_max + step))
        full = wedge.tile(v)
        assert full.shape == (grid.n_lat, grid.n_lon)
        assert np.array_equal(full[:, : wedge.n_lon], v) and np.array_equal(np.roll(full, wedge.n_lon, axis=1), full)
        assert np.abs(wedge.fold(full) - v).max() <= 1e-15 * np.abs(v).max()
        assert np.array_equal(wedge.fold(v), v)  # this grid's own values pass through
        for shape in ((grid.n_lat, 2 * grid.n_lon), (grid.n_lat, 7), (grid.n_lat - 1, grid.n_lon)):
            with pytest.raises(SpecMismatch, match=rf"\({shape[0]}, {shape[1]}\) is neither grid"):
                wedge.fold(np.zeros(shape))
        with pytest.raises(SpecMismatch):
            wedge.tile(full)

    def test_symmetric_step_divides_every_circle(self):
        # gcd(n, 4) for a rotation order n >= 1, 0 for a monomial; every longitude count is a multiple of 4
        assert [symmetric_step(n) for n in range(9)] == [0, 1, 2, 1, 4, 1, 2, 1, 4]
        assert all(longitudes(l_max) % 4 == 0 for l_max in range(4, 300))


class TestBasisOracle:
    def test_matches_scipy_harmonics(self, grid16):
        # basis functions against an independent implementation: for m >= 0
        # Y_lm = (b_m cos + i b_m sin entries) / sqrt(2) is 2*sqrt(pi) times
        # the standard orthonormal harmonic, which checks both packed entries
        try:
            from scipy.special import sph_harm_y
            def harm(m, l, th, ph):
                return sph_harm_y(l, m, th, ph)
        except ImportError:  # older scipy
            from scipy.special import sph_harm
            def harm(m, l, th, ph):
                return sph_harm(m, l, ph, th)

        rng = np.random.default_rng(78)
        th = rng.uniform(0.2, np.pi - 0.2, size=7)
        ph = rng.uniform(0, 2 * np.pi, size=7)
        for l, m in [(0, 0), (1, 0), (1, 1), (4, 2), (9, 7), (12, 0), (16, 16)]:
            mine = grid16.evaluate(packed_harmonic(grid16, l, m), th, ph)
            ref = 2 * np.sqrt(np.pi) * harm(m, l, th, ph)
            assert np.abs(mine - ref).max() < 1e-12, (l, m)


class TestChartPoint:
    def test_zw_product(self):
        p = ChartPoint.from_z(0.3 + 1.1j)
        assert abs(p.z * p.w - 1.0) < 1e-12

    def test_pole_points(self):
        north = ChartPoint.from_w(0j)
        assert np.isinf(abs(north.z)) and north.theta == 0.0
        south = ChartPoint.from_z(0j)
        assert south.theta == pytest.approx(np.pi)

    @pytest.mark.parametrize(
        "point,z,w,phi",
        [
            (lambda: ChartPoint.from_z(complex(np.inf)), complex(np.inf), 0j, 0.0),
            (lambda: ChartPoint.from_w(complex(np.inf)), 0j, complex(np.inf), 0.0),
            (lambda: ChartPoint.from_w(0.5 - 2j), 1.0 / (0.5 - 2j), 0.5 - 2j, np.angle(1.0 / (0.5 - 2j))),
        ],
        ids=["z_infinite", "w_infinite", "w_finite"],
    )
    def test_either_chart(self, point, z, w, phi):
        # an infinite coordinate is the other chart's origin, where the longitude reads 0
        p = point()
        assert (p.z, p.w) == (z, w)
        assert p.phi == pytest.approx(phi, abs=1e-15)

    def test_angles_roundtrip(self):
        p = chart_point_from_angles(1.1, 2.2)
        assert p.theta == pytest.approx(1.1, abs=1e-12)
        assert p.phi == pytest.approx(2.2, abs=1e-12)
