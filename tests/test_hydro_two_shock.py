"""Tests for the two-shock Riemann solver (the paper's PPM companion)."""

import numpy as np
import pytest

from repro.hydro import PPMSolver
from repro.hydro.riemann import _conserved_flux, exact_riemann, two_shock_flux
from repro.problems import SodShockTube

GAMMA = 1.4


def _state(rho, u, p, v=0.0, w=0.0):
    return tuple(np.atleast_1d(np.float64(x)) for x in (rho, u, v, w, p))


class TestTwoShock:
    def test_identical_states(self):
        s = _state(1.0, 0.4, 2.0, v=0.2)
        f = two_shock_flux(s, s, GAMMA)
        expected = _conserved_flux(*s, GAMMA)
        for a, b in zip(f, expected):
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_star_pressure_matches_exact_for_shocks(self):
        """Colliding streams (both waves are shocks): two-shock is exact."""
        left = _state(1.0, 2.0, 0.4)
        right = _state(1.0, -2.0, 0.4)
        f = two_shock_flux(left, right, GAMMA)
        # interface state: u*=0 by symmetry, momentum flux = p*
        rho_ex, u_ex, p_ex = exact_riemann((1.0, 2.0, 0.4), (1.0, -2.0, 0.4),
                                           GAMMA, np.array([0.0]))
        assert abs(f[0].item()) < 1e-10  # no mass flux by symmetry
        assert f[1].item() == pytest.approx(p_ex[0], rel=1e-3)

    def test_sod_interface_close_to_exact(self):
        """Sod has a rarefaction: two-shock is approximate but close."""
        left = _state(1.0, 0.0, 1.0)
        right = _state(0.125, 0.0, 0.1)
        f = two_shock_flux(left, right, GAMMA)
        rho_ex, u_ex, p_ex = exact_riemann((1.0, 0.0, 1.0), (0.125, 0.0, 0.1),
                                           GAMMA, np.array([0.0]))
        f_ex = _conserved_flux(
            rho_ex, u_ex, np.zeros(1), np.zeros(1), p_ex, GAMMA
        )
        for a, b in zip(f, f_ex):
            assert abs(a.item() - b.item()) < 0.08 * max(abs(b.item()), 0.1)

    def test_supersonic_upwind(self):
        left = _state(1.0, 10.0, 1.0)
        right = _state(0.5, 10.0, 0.3)
        f = two_shock_flux(left, right, GAMMA)
        expected = _conserved_flux(*left, GAMMA)
        for a, b in zip(f, expected):
            np.testing.assert_allclose(a, b, rtol=1e-8)

    def test_vectorised_and_finite(self):
        rng = np.random.default_rng(0)
        n = 128
        left = (rng.random(n) + 0.2, rng.standard_normal(n), np.zeros(n),
                np.zeros(n), rng.random(n) + 0.2)
        right = (rng.random(n) + 0.2, rng.standard_normal(n), np.zeros(n),
                 np.zeros(n), rng.random(n) + 0.2)
        f = two_shock_flux(left, right, GAMMA)
        for comp in f:
            assert comp.shape == (n,)
            assert np.all(np.isfinite(comp))

    def test_sod_tube_with_two_shock_solver(self):
        """The full PPM + two-shock combination converges on Sod."""
        sod = SodShockTube(n=96)
        sod.run(0.2, solver=PPMSolver(gamma=GAMMA, riemann_solver="two_shock"))
        assert sod.l1_error() < 0.03

    def test_dispatch(self):
        """The step kernel takes the two-shock solver by name and refuses
        an unknown one."""
        from repro import kernels

        fields = [np.ones((3, 3, 3)) for _ in range(6)]
        window = np.full((2, 5, 1, 1), np.nan)
        counts = kernels.get("hydro.step")(
            fields, None, 1, 1.0, 0.1, 1.0, 0, False, GAMMA, "ppm",
            "two_shock", 1e-12, 1e-30, 1e-3, None,
            np.array([[0, 0, 1, 0, 1, 0, 1]]), [window])
        assert len(counts) == 16 and np.isfinite(window).all()
        with pytest.raises(ValueError, match="unknown riemann solver"):
            kernels.get("hydro.step")(
                fields, None, 1, 1.0, 0.1, 1.0, 0, False, GAMMA, "ppm",
                "nope", 1e-12, 1e-30, 1e-3, None)
