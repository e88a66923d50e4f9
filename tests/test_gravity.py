"""Tests for the FFT and multigrid Poisson solvers."""

import numpy as np
import pytest

from repro.amr.gravity import MG_BUDGET, MG_MIN_SIZE, MG_POST, MG_PRE
from repro.gravity import (
    acceleration_from_potential,
    gravity_source,
    laplacian,
    solve_periodic,
)
from repro.gravity.multigrid import solve_numpy


def _solve(source, dx, boundary, tol, budget=MG_BUDGET):
    """The reference subgrid solve at the hierarchy's V-cycle settings,
    from a copy of the rim-padded ``boundary`` (its rim the Dirichlet
    values, its interior the initial guess).  Returns the solution and
    ``(cycles, relative_residual, converged)``."""
    phi = boundary.copy()
    return phi, solve_numpy(phi, source, dx, MG_PRE, MG_POST, MG_MIN_SIZE,
                            tol, budget, False)


class TestFFTPoisson:
    def test_discrete_laplacian_inverse(self):
        """laplacian(solve(S)) must reproduce S to machine precision."""
        rng = np.random.default_rng(0)
        n = 16
        s = rng.standard_normal((n, n, n))
        s -= s.mean()
        dx = 1.0 / n
        phi = solve_periodic(s, dx)
        np.testing.assert_allclose(laplacian(phi, dx), s, atol=1e-9 * np.abs(s).max())

    def test_single_mode(self):
        """A sinusoidal source has the analytic eigenvalue solution."""
        n = 32
        dx = 1.0 / n
        x = (np.arange(n) + 0.5) * dx
        kx = 2.0 * np.pi
        s = np.sin(kx * x)[:, None, None] * np.ones((1, n, n))
        phi = solve_periodic(s, dx)
        # discrete eigenvalue for this mode
        eig = -2.0 / dx**2 * (1.0 - np.cos(kx * dx))
        np.testing.assert_allclose(phi, s / eig, atol=1e-12)

    def test_zero_mean_output(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal((8, 8, 8))
        phi = solve_periodic(s, 0.125)
        assert abs(phi.mean()) < 1e-14

    def test_mean_projected_out(self):
        """A constant offset in the source must not change the answer."""
        rng = np.random.default_rng(2)
        s = rng.standard_normal((8, 8, 8))
        s -= s.mean()
        phi1 = solve_periodic(s, 0.125)
        phi2 = solve_periodic(s + 5.0, 0.125)
        np.testing.assert_allclose(phi1, phi2, atol=1e-12)

    def test_point_mass_potential_shape(self):
        """Potential of a point mass falls off and is deepest at the mass."""
        n = 32
        dx = 1.0 / n
        rho = np.zeros((n, n, n))
        rho[n // 2, n // 2, n // 2] = 1.0 / dx**3
        s = gravity_source(rho, g_code=1.0 / (4 * np.pi))
        phi = solve_periodic(s, dx)
        assert np.argmin(phi) == np.ravel_multi_index((n // 2,) * 3, (n,) * 3)
        # radial monotonicity along an axis (away from the periodic image)
        line = phi[n // 2, n // 2, n // 2 : n // 2 + 12]
        assert np.all(np.diff(line) > 0)

    def test_point_mass_inverse_r(self):
        """Far from the mass (but << box) the potential approaches -Gm/r."""
        n = 64
        dx = 1.0 / n
        rho = np.zeros((n, n, n))
        rho[0, 0, 0] = 1.0 / dx**3
        s = gravity_source(rho, g_code=1.0 / (4 * np.pi))  # G=1/(4pi): del^2 phi = rho - rhobar
        phi = solve_periodic(s, dx)
        # close to the mass (r << box) the periodic images contribute little:
        # phi approaches the free-space -1/(4 pi r)
        for r, tol in ((2, 0.05), (4, 0.2)):
            expected = -1.0 / (4 * np.pi * r * dx)
            assert abs(phi[r, 0, 0] - expected) < tol * abs(expected)

    def test_gravity_source_subtracts_mean(self):
        rho = np.full((4, 4, 4), 3.0)
        s = gravity_source(rho, g_code=2.0, a=0.5)
        np.testing.assert_allclose(s, 0.0, atol=1e-14)

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            solve_periodic(np.zeros((4, 4)), 0.25)


class TestAcceleration:
    def test_uniform_potential_no_force(self):
        phi = np.full((8, 8, 8), 2.5)
        g = acceleration_from_potential(phi, 0.125)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_linear_potential_constant_force(self):
        n = 8
        dx = 1.0 / n
        x = np.arange(n) * dx
        phi = np.broadcast_to(x[:, None, None], (n, n, n)).copy()
        g = acceleration_from_potential(phi, dx, periodic=False)
        np.testing.assert_allclose(g[0][2:-2], -1.0, atol=1e-12)
        np.testing.assert_allclose(g[1], 0.0, atol=1e-12)

    def test_a_scaling(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((8, 8, 8))
        g1 = acceleration_from_potential(phi, 0.125, a=1.0)
        g2 = acceleration_from_potential(phi, 0.125, a=2.0)
        np.testing.assert_allclose(g2, g1 / 2.0)


class TestMultigrid:
    def _sinusoid_problem(self, n):
        """Dirichlet problem with known solution phi = sin(pi x) sin(pi y) sin(pi z)."""
        dx = 1.0 / n
        x = (np.arange(n) + 0.5) * dx
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        phi_exact = np.sin(np.pi * xx) * np.sin(np.pi * yy) * np.sin(np.pi * zz)
        # use the DISCRETE operator for the rhs so the test isolates solver
        # convergence from discretisation error
        padded = np.zeros((n + 2,) * 3)
        padded[1:-1, 1:-1, 1:-1] = phi_exact
        xb = np.concatenate([[-0.5 * dx], x, [1 + 0.5 * dx]])
        xxb, yyb, zzb = np.meshgrid(xb, xb, xb, indexing="ij")
        padded = np.sin(np.pi * xxb) * np.sin(np.pi * yyb) * np.sin(np.pi * zzb)
        lap = (
            padded[2:, 1:-1, 1:-1] + padded[:-2, 1:-1, 1:-1]
            + padded[1:-1, 2:, 1:-1] + padded[1:-1, :-2, 1:-1]
            + padded[1:-1, 1:-1, 2:] + padded[1:-1, 1:-1, :-2]
            - 6 * padded[1:-1, 1:-1, 1:-1]
        ) / dx**2
        boundary = padded.copy()
        boundary[1:-1, 1:-1, 1:-1] = 0.0  # interior: zero initial guess
        return lap, dx, boundary, padded

    @pytest.mark.parametrize("n", [8, 16])
    def test_converges_to_discrete_solution(self, n):
        src, dx, boundary, exact = self._sinusoid_problem(n)
        phi, _ = _solve(src, dx, boundary, 1e-10)
        err = np.abs(phi[1:-1, 1:-1, 1:-1] - exact[1:-1, 1:-1, 1:-1]).max()
        assert err < 1e-7 * np.abs(exact).max()

    def test_residual_reported(self):
        src, dx, boundary, _ = self._sinusoid_problem(8)
        _, (cycles, residual, converged) = _solve(src, dx, boundary, 1e-10)
        assert residual < 1e-10 and converged
        assert cycles >= 1

    def test_empty_budget_is_refused(self):
        """A budget below one V-cycle runs none: a ValueError, never a
        return with cycles and a residual no V-cycle produced."""
        src, dx, boundary, _ = self._sinusoid_problem(8)
        for budget in (0, -3):
            with pytest.raises(ValueError, match="budget"):
                _solve(src, dx, boundary, 1e-10, budget)

    def test_vcycle_faster_than_smoothing(self):
        """V-cycles must converge in far fewer relaxations than plain GS."""
        src, dx, boundary, _ = self._sinusoid_problem(16)
        _, (cycles, _, converged) = _solve(src, dx, boundary, 1e-8)
        assert converged and cycles < 20  # plain GS would need O(n^2) ~ 256 sweeps

    def test_zero_source_keeps_harmonic_interior(self):
        """With zero source and linear boundary data the solution is linear."""
        n = 8
        dx = 1.0 / n
        xb = np.arange(-1, n + 1)[:, None, None] * np.ones((1, n + 2, n + 2))
        boundary = xb * dx
        src = np.zeros((n, n, n))
        phi, _ = _solve(src, dx, boundary, 1e-12)
        expected = boundary[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(phi[1:-1, 1:-1, 1:-1], expected, atol=1e-9)

    def test_odd_size_grid_supported(self):
        """Non-power-of-two grids fall back to smoothing and still converge."""
        n = 7
        dx = 1.0 / n
        rng = np.random.default_rng(4)
        src = rng.standard_normal((n, n, n))
        boundary = np.zeros((n + 2,) * 3)
        _, (_, residual, _) = _solve(src, dx, boundary, 1e-8, 400)
        assert residual < 1e-6

    def test_boundary_shape_validated(self):
        with pytest.raises(ValueError, match="pad source"):
            _solve(np.zeros((4, 4, 4)), 0.25, np.zeros((4, 4, 4)), 1e-8)

    def test_matches_fft_on_matching_problem(self):
        """Multigrid with exact boundary values reproduces the FFT solution."""
        n = 16
        dx = 1.0 / n
        rng = np.random.default_rng(5)
        s = rng.standard_normal((n, n, n))
        s -= s.mean()
        phi_fft = solve_periodic(s, dx)
        # wrap-around padded boundary from the FFT solution
        padded = np.pad(phi_fft, 1, mode="wrap")
        boundary = padded.copy()
        boundary[1:-1, 1:-1, 1:-1] = 0.0
        phi_mg, _ = _solve(s, dx, boundary, 1e-12)
        np.testing.assert_allclose(
            phi_mg[1:-1, 1:-1, 1:-1], phi_fft, atol=1e-8 * np.abs(phi_fft).max()
        )


class TestProlongation:
    def test_trilinear_reproduces_linear_fields_exactly(self):
        """Cell-centered trilinear prolongation is exact on linear data."""
        from repro.gravity.multigrid import _prolong_into

        m = 4
        c = np.arange(m + 2) - 0.5  # coarse centers incl. one-cell rim
        cx, cy, cz = np.meshgrid(c, c, c, indexing="ij")
        coarse = 2.0 * cx - 0.7 * cy + 0.3 * cz + 1.5
        fine = _prolong_into(coarse, (2 * m, 2 * m, 2 * m))
        f = (np.arange(2 * m) + 0.5) / 2.0  # fine centers, coarse units
        fx, fy, fz = np.meshgrid(f, f, f, indexing="ij")
        expected = 2.0 * fx - 0.7 * fy + 0.3 * fz + 1.5
        np.testing.assert_allclose(fine, expected, atol=1e-12)

    def test_trilinear_vcycle_count_is_pinned(self):
        """32^3 white noise to 1e-8: the trilinear coarse-grid correction
        takes 13 V-cycles (piecewise-constant injection needed 19)."""
        n = 32
        dx = 1.0 / n
        rng = np.random.default_rng(7)
        src = rng.standard_normal((n, n, n))
        boundary = np.zeros((n + 2,) * 3)
        _, (cycles, residual, _) = _solve(src, dx, boundary, 1e-8)
        assert residual <= 1e-8
        assert cycles == 13


class TestRestriction:
    def test_written_order_is_numpys_mean_order(self):
        """``_restrict`` writes out the order in which NumPy's block
        ``mean`` sums the eight cells whenever every axis has at least four
        — every array a V-cycle restricts at ``min_size >= 2`` (it only
        restricts when ``min(shape) > min_size``).  A last axis of exactly
        two cells is the exception: NumPy sums it differently, and
        ``_restrict`` (hence both kernel tiers) keeps the written order."""
        import itertools

        from repro.gravity.multigrid import _restrict

        rng = np.random.default_rng(3)
        axes = (4, 6, 8, 10, 12, 14, 16, 22, 24, 26, 32)
        for shape in itertools.product(axes, repeat=3):
            # sixteen decades of dynamic range: a different order shows
            fine = rng.standard_normal(shape) * 10.0 ** rng.integers(
                -8, 8, shape)
            blocks = fine.reshape(shape[0] // 2, 2, shape[1] // 2, 2,
                                  shape[2] // 2, 2)
            np.testing.assert_array_equal(
                _restrict(fine), blocks.mean(axis=(1, 3, 5)),
                err_msg=str(shape))
        fine = rng.standard_normal((6, 4, 2))
        np.testing.assert_allclose(
            _restrict(fine),
            fine.reshape(3, 2, 2, 2, 1, 2).mean(axis=(1, 3, 5)), rtol=1e-14)


class TestSmootherCaches:
    def test_checkerboard_masks_cached_and_correct(self):
        from repro.gravity.multigrid import _MASK_CACHE, _checkerboard

        shape = (6, 5, 4)
        red, black = _checkerboard(shape)
        assert _checkerboard(shape)[0] is red  # cached per shape
        assert shape in _MASK_CACHE
        idx = np.indices(shape).sum(axis=0)
        np.testing.assert_array_equal(red, idx % 2 == 0)
        np.testing.assert_array_equal(black, idx % 2 == 1)
        assert not np.any(red & black)
        assert np.all(red | black)

    def test_smoother_matches_naive_sweep(self):
        """The buffered red-black sweep is bitwise the naive expression."""
        from repro.gravity.multigrid import (
            _checkerboard,
            redblack_smooth_numpy,
        )

        n = 8
        dx = 0.125
        rng = np.random.default_rng(11)
        phi = rng.standard_normal((n + 2,) * 3)
        src = rng.standard_normal((n, n, n))
        ref = phi.copy()
        h2 = dx * dx
        for mask in _checkerboard((n, n, n)):
            nb = (
                (((ref[2:, 1:-1, 1:-1] + ref[:-2, 1:-1, 1:-1])
                  + ref[1:-1, 2:, 1:-1]) + ref[1:-1, :-2, 1:-1])
                + ref[1:-1, 1:-1, 2:]
            ) + ref[1:-1, 1:-1, :-2]
            upd = (nb - h2 * src) / 6.0
            ref[1:-1, 1:-1, 1:-1][mask] = upd[mask]
        redblack_smooth_numpy(phi, src, dx, sweeps=1)
        np.testing.assert_array_equal(phi, ref)
