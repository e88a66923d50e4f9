"""Tests for PLM/PPM reconstruction and the Riemann solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydro.ppm import sweep_numpy
from repro.hydro.reconstruction import plm_reconstruct, ppm_reconstruct
from repro.hydro.riemann import (
    exact_riemann,
    hll_flux,
    hllc_flux,
    _conserved_flux,
)

GAMMA = 1.4  # classic shock-tube gamma for the reference solutions
RECONSTRUCT = {"plm": plm_reconstruct, "ppm": ppm_reconstruct}


class TestReconstruction:
    @pytest.mark.parametrize("method", ["plm", "ppm"])
    def test_constant_preserved(self, method):
        q = np.full(16, 3.7)
        ql, qr = RECONSTRUCT[method](q)
        np.testing.assert_allclose(ql, 3.7)
        np.testing.assert_allclose(qr, 3.7)

    @pytest.mark.parametrize("method", ["plm", "ppm"])
    def test_linear_exact_in_interior(self, method):
        q = np.linspace(0.0, 1.0, 20)
        ql, qr = RECONSTRUCT[method](q)
        dx = q[1] - q[0]
        expected = q[:-1] + 0.5 * dx  # interface values of a linear profile
        # interior faces reproduce the linear profile exactly
        np.testing.assert_allclose(ql[3:-3], expected[3:-3], atol=1e-14)
        np.testing.assert_allclose(qr[3:-3], expected[3:-3], atol=1e-14)

    @pytest.mark.parametrize("method", ["plm", "ppm"])
    def test_no_new_extrema(self, method):
        rng = np.random.default_rng(0)
        q = rng.random(32)
        ql, qr = RECONSTRUCT[method](q)
        lo = np.minimum(q[:-1], q[1:]) - 1e-13
        hi = np.maximum(q[:-1], q[1:]) + 1e-13
        assert np.all(ql >= lo) and np.all(ql <= hi)
        assert np.all(qr >= lo) and np.all(qr <= hi)

    def test_ppm_sharper_than_plm_on_smooth(self):
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        q = np.sin(x)
        exact = np.sin(x[:-1] + 0.5 * (x[1] - x[0]))
        ql_p, _ = ppm_reconstruct(q)
        ql_l, _ = plm_reconstruct(q)
        # mean error: at the sine extrema both schemes clip to first order
        # (the limiter), so the max norm ties; away from extrema PPM wins.
        err_ppm = np.abs(ql_p[5:-5] - exact[5:-5]).mean()
        err_plm = np.abs(ql_l[5:-5] - exact[5:-5]).mean()
        assert err_ppm < 0.6 * err_plm

    def test_multidimensional_broadcast(self):
        q = np.random.default_rng(1).random((10, 4, 5))
        ql, qr = ppm_reconstruct(q)
        assert ql.shape == (9, 4, 5)
        assert qr.shape == (9, 4, 5)

    def test_small_arrays_fall_back(self):
        q = np.array([1.0, 2.0, 3.0])
        ql, qr = ppm_reconstruct(q)  # falls back to plm/donor
        assert ql.shape == (2,)

    def test_unknown_method(self):
        fields = [np.ones((3, 3, 3)) for _ in range(6)]
        with pytest.raises(ValueError, match="unknown reconstruction"):
            sweep_numpy(fields, 0, 1, (0, 3, 0, 3), 0.1, 0.1, GAMMA, "weno",
                        "hllc", 1e-12, 1e-30)

    @given(st.integers(min_value=6, max_value=40), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ppm_bounded_property(self, n, seed):
        q = np.random.default_rng(seed).random(n) * 10 - 5
        ql, qr = ppm_reconstruct(q)
        lo = np.minimum(q[:-1], q[1:]) - 1e-12
        hi = np.maximum(q[:-1], q[1:]) + 1e-12
        assert np.all((ql >= lo) & (ql <= hi))
        assert np.all((qr >= lo) & (qr <= hi))


def _state(rho, u, p, v=0.0, w=0.0):
    return tuple(np.atleast_1d(np.float64(x)) for x in (rho, u, v, w, p))


class TestApproximateRiemann:
    @pytest.mark.parametrize("solver", [hll_flux, hllc_flux])
    def test_identical_states_give_physical_flux(self, solver):
        s = _state(1.0, 0.5, 2.0, v=0.1, w=-0.2)
        f = solver(s, s, GAMMA)
        expected = _conserved_flux(*s, GAMMA)
        for a, b in zip(f, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("solver", [hll_flux, hllc_flux])
    def test_mirror_symmetry(self, solver):
        left = _state(1.0, 0.3, 1.0)
        right = _state(0.5, -0.2, 0.4)
        f1 = solver(left, right, GAMMA)
        # mirrored problem: swap sides, flip normal velocities
        left_m = _state(0.5, 0.2, 0.4)
        right_m = _state(1.0, -0.3, 1.0)
        f2 = solver(left_m, right_m, GAMMA)
        np.testing.assert_allclose(f1[0], -f2[0], atol=1e-12)  # mass flux flips
        np.testing.assert_allclose(f1[1], f2[1], atol=1e-12)  # momentum flux even
        np.testing.assert_allclose(f1[4], -f2[4], atol=1e-12)  # energy flux flips

    def test_hllc_resolves_stationary_contact(self):
        # stationary contact: only density jumps; HLLC mass/energy flux must
        # vanish and the momentum flux reduce to the static pressure
        left = _state(1.0, 0.0, 1.0)
        right = _state(0.125, 0.0, 1.0)
        f = hllc_flux(left, right, GAMMA)
        np.testing.assert_allclose(f[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(f[1], 1.0, atol=1e-12)
        np.testing.assert_allclose(f[4], 0.0, atol=1e-12)

    def test_hll_smears_stationary_contact(self):
        left = _state(1.0, 0.0, 1.0)
        right = _state(0.125, 0.0, 1.0)
        f = hll_flux(left, right, GAMMA)
        assert abs(f[0].item()) > 1e-3  # HLL leaks mass across the contact

    def test_supersonic_upwinding(self):
        # flow faster than any wave: flux must equal the upwind physical flux
        left = _state(1.0, 10.0, 1.0)
        right = _state(0.5, 10.0, 0.3)
        f = hllc_flux(left, right, GAMMA)
        expected = _conserved_flux(*left, GAMMA)
        for a, b in zip(f, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_vectorised(self):
        n = 64
        rng = np.random.default_rng(2)
        left = (rng.random(n) + 0.5, rng.standard_normal(n), np.zeros(n), np.zeros(n), rng.random(n) + 0.5)
        right = (rng.random(n) + 0.5, rng.standard_normal(n), np.zeros(n), np.zeros(n), rng.random(n) + 0.5)
        f = hllc_flux(left, right, GAMMA)
        assert all(comp.shape == (n,) for comp in f)
        assert all(np.all(np.isfinite(comp)) for comp in f)


class TestExactRiemann:
    def test_sod_star_state(self):
        """Toro's Test 1 (Sod): p* = 0.30313, u* = 0.92745."""
        rho, u, p = exact_riemann((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), GAMMA, np.array([0.0]))
        # at xi=0 we are in the left star region (u* > 0)
        assert abs(u[0] - 0.92745) < 1e-4
        assert abs(p[0] - 0.30313) < 1e-4

    def test_sod_densities(self):
        # contact sits at xi = u* = 0.9274, shock at xi = 1.7522
        xi = np.array([-2.0, 0.5, 1.2, 2.0])
        rho, u, p = exact_riemann((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), GAMMA, xi)
        assert abs(rho[0] - 1.0) < 1e-12  # undisturbed left
        assert abs(rho[3] - 0.125) < 1e-12  # undisturbed right
        assert abs(rho[1] - 0.42632) < 1e-3  # left star region
        assert abs(rho[2] - 0.26557) < 1e-3  # shocked right state

    def test_123_problem(self):
        """Toro's Test 2: strong double rarefaction, near-vacuum centre."""
        rho, u, p = exact_riemann((1.0, -2.0, 0.4), (1.0, 2.0, 0.4), GAMMA, np.array([0.0]))
        assert u[0] == pytest.approx(0.0, abs=1e-10)
        assert p[0] < 0.01

    def test_symmetric_shock_collision(self):
        rho, u, p = exact_riemann((1.0, 2.0, 0.4), (1.0, -2.0, 0.4), GAMMA, np.array([0.0]))
        assert abs(u[0]) < 1e-10
        assert p[0] > 0.4  # compression raises pressure

    def test_vacuum_raises(self):
        with pytest.raises(ValueError):
            exact_riemann((1.0, -20.0, 0.4), (1.0, 20.0, 0.4), GAMMA, np.array([0.0]))
