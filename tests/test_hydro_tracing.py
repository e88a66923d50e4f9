"""Tests for PPM characteristic tracing (the full CW84 predictor)."""

import numpy as np
import pytest

from repro.hydro import PPMSolver, hydro_timestep
from repro.hydro.state import fill_ghosts_periodic, make_fields, total_energy
from repro.hydro.tracing import trace_states_numpy
from repro.problems import SodShockTube

GAMMA = 1.4
NG = 3


class TestTraceStates:
    def test_uniform_state_unchanged(self):
        n = 16
        rho = np.full(n, 2.0)
        u = np.full(n, 0.3)
        v = np.full(n, -0.1)
        w = np.zeros(n)
        p = np.full(n, 1.5)
        sl, sr = trace_states_numpy(rho, u, v, w, p, dtdx=0.2, gamma=GAMMA)
        for arr, val in zip(sl, (2.0, 0.3, -0.1, 0.0, 1.5)):
            np.testing.assert_allclose(arr, val, rtol=1e-12)
        for arr, val in zip(sr, (2.0, 0.3, -0.1, 0.0, 1.5)):
            np.testing.assert_allclose(arr, val, rtol=1e-12)

    def test_face_array_shapes(self):
        n = 12
        rng = np.random.default_rng(0)
        args = [rng.random(n) + 0.5 for _ in range(2)] + [rng.standard_normal(n) * 0.1 for _ in range(2)]
        rho, p, u, v = args
        w = np.zeros(n)
        sl, sr = trace_states_numpy(rho, u, v, w, p, 0.1, GAMMA)
        assert all(a.shape == (n - 1,) for a in sl)
        assert all(a.shape == (n - 1,) for a in sr)

    def test_supersonic_left_state_upwinded(self):
        """Supersonic right-moving flow: all waves from the left cell reach
        the face, so the traced left state is a pure parabola average —
        bounded by the cell's neighbourhood, no characteristic splitting."""
        n = 16
        x = np.arange(n, dtype=float)
        rho = 1.0 + 0.1 * np.sin(x)
        u = np.full(n, 10.0)  # Mach ~ 8
        p = np.ones(n)
        v = w = np.zeros(n)
        sl, _ = trace_states_numpy(rho, u, v, w, p, 0.02, GAMMA)
        lo = np.minimum(rho[:-1], rho[1:]) - 0.12
        hi = np.maximum(rho[:-1], rho[1:]) + 0.12
        assert np.all((sl[0] > lo) & (sl[0] < hi))

    def test_zero_dt_reduces_to_edges(self):
        """dtdx -> 0: traced states equal the plain PPM edge states."""
        from repro.hydro.reconstruction import ppm_reconstruct

        n = 20
        rng = np.random.default_rng(1)
        rho = rng.random(n) + 0.5
        u = 0.1 * rng.standard_normal(n)
        p = rng.random(n) + 0.5
        v = w = np.zeros(n)
        sl, sr = trace_states_numpy(rho, u, v, w, p, 0.0, GAMMA)
        el, er = ppm_reconstruct(rho)
        np.testing.assert_allclose(sl[0], el, atol=1e-12)
        np.testing.assert_allclose(sr[0], er, atol=1e-12)


class TestTracedSolver:
    def test_sod_sharper_than_untraced(self):
        errs = {}
        for trace in (False, True):
            sod = SodShockTube(n=96)
            sod.run(0.2, solver=PPMSolver(gamma=GAMMA,
                                          characteristic_tracing=trace))
            errs[trace] = sod.l1_error()
        assert errs[True] < 0.7 * errs[False]

    def test_conservation_preserved(self):
        rng = np.random.default_rng(2)
        n = 12
        shape = (n + 2 * NG,) * 3
        f = make_fields(shape, density=1.0, internal_energy=1.0)
        f["density"][:] = 1.0 + 0.3 * rng.random(shape)
        f["vx"][:] = 0.2 * rng.standard_normal(shape)
        fill_ghosts_periodic(f, NG)
        f["energy"] = total_energy(f)
        sl = (slice(NG, -NG),) * 3
        m0 = f["density"][sl].sum()
        solver = PPMSolver(characteristic_tracing=True)
        for step in range(8):
            fill_ghosts_periodic(f, NG)
            dt = hydro_timestep(f, 1.0 / n, cfl=0.4)
            solver.step(f, 1.0 / n, dt, permute=step)
        assert abs(f["density"][sl].sum() - m0) < 1e-10 * m0

    def test_positivity_strong_rarefaction(self):
        n = 48
        shape = (n + 2 * NG, 1 + 2 * NG, 1 + 2 * NG)
        f = make_fields(shape, density=1.0, internal_energy=1.0)
        x = (np.arange(n + 2 * NG) - NG + 0.5) / n
        f["vx"][:] = np.where(x < 0.5, -2.0, 2.0)[:, None, None]
        f["energy"][:] = total_energy(f)
        solver = PPMSolver(gamma=GAMMA, characteristic_tracing=True)
        from repro.hydro.state import fill_ghosts_outflow

        for step in range(30):
            fill_ghosts_outflow(f, NG)
            dt = hydro_timestep(f, 1.0 / n, cfl=0.4, gamma=GAMMA)
            solver.step(f, 1.0 / n, dt, permute=step)
        assert np.all(f["density"] > 0)
        assert np.all(f["internal"] > 0)

    def test_uniform_flow_exact(self):
        shape = (10 + 2 * NG,) * 3
        f = make_fields(shape, density=2.0, velocity=(0.4, -0.2, 0.1),
                        internal_energy=1.0)
        solver = PPMSolver(characteristic_tracing=True)
        for step in range(6):
            fill_ghosts_periodic(f, NG)
            solver.step(f, 0.1, 0.01, permute=step)
        sl = (slice(NG, -NG),) * 3
        np.testing.assert_allclose(f["density"][sl], 2.0, rtol=1e-12)
        np.testing.assert_allclose(f["vx"][sl], 0.4, rtol=1e-11)
