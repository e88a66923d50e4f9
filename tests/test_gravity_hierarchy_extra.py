"""Extra coverage: sibling-iterated gravity, nested IC velocities, corner
ghosts, literature rate spot-checks."""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy
from repro.amr.boundary import set_boundary_values
from repro.amr.gravity import HierarchyGravity
from repro.amr.projection import block_average


class TestSiblingIteratedGravity:
    """Two adjacent subgrids must converge to a consistent joint potential
    (the paper's iterate: solve separately, exchange, solve again)."""

    @pytest.fixture(scope="class")
    def setup(self):
        n = 16
        h = Hierarchy(n_root=n)
        root = h.root
        x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
        r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
        root.fields["density"][root.interior] = 1.0 + 20.0 * np.exp(-r2 / 0.004)
        set_boundary_values(h, 0)
        # two children sharing a face, splitting the blob down the middle
        a = Grid(1, (8, 8, 8), (8, 16, 16), n_root=n)
        b = Grid(1, (16, 8, 8), (8, 16, 16), n_root=n)
        h.add_grid(a, root)
        h.add_grid(b, root)
        from repro.amr.rebuild import _fill_level

        grav = HierarchyGravity(
            g_code=1.0,
            mean_density=float(root.field_view("density").mean()),
            sibling_iterations=3,
        )
        counts = [grav.solve_level(h, 0)]
        _fill_level([(a, root, False)], [])
        _fill_level([(b, root, False)], [])
        counts.append(grav.solve_level(h, 1))
        return h, a, b, grav, counts

    def test_solve_level_reports_passes_solves_and_vcycles(self, setup):
        *_, counts = setup
        assert counts[0] == (0, 0, 0)          # the root level is one FFT
        passes, solves, vcycles = counts[1]
        # the exchange moves rim values after every pass, so all three run
        assert passes == 3 and solves == passes * 2
        assert vcycles >= solves

    def test_potential_continuous_across_shared_face(self, setup):
        h, a, b, grav, _ = setup
        ng = a.nghost
        # last interior plane of a vs first of b
        phi_a = a.phi[ng + 7, ng : ng + 16, ng : ng + 16]
        phi_b = b.phi[ng, ng : ng + 16, ng : ng + 16]
        scale = np.abs(h.root.phi[h.root.interior]).max()
        jump = np.abs(phi_a - phi_b).max()
        # adjacent fine cells differ by ~ dx * dphi/dx; require no wild jump
        assert jump < 0.3 * scale

    def test_children_match_root_solution(self, setup):
        h, a, b, grav, _ = setup
        for child in (a, b):
            child_avg = block_average(child.phi[child.interior], 2)
            lo, hi = child.parent_index_region()
            ng = h.root.nghost
            root_phi = h.root.phi[
                ng + lo[0] : ng + hi[0], ng + lo[1] : ng + hi[1],
                ng + lo[2] : ng + hi[2],
            ]
            scale = np.abs(h.root.phi[h.root.interior]).max()
            assert np.abs(child_avg - root_phi).max() < 0.15 * scale

    def test_acceleration_symmetric_about_blob(self, setup):
        h, a, b, grav, _ = setup
        (acc_a, acc_b), _ = grav.accelerations([a, b])
        ng = a.nghost
        # x-acceleration points toward the blob centre (x=0.5): positive in
        # a (left of centre... a spans [0.25,0.5]) and negative in b
        ax = acc_a[0][ng + 2, ng + 8, ng + 8]
        bx = acc_b[0][ng + 5, ng + 8, ng + 8]
        assert ax > 0 and bx < 0


class TestNestedICVelocities:
    def test_level_velocities_consistent(self):
        """The static-level velocity fields average to the coarse ones."""
        from repro.cosmology import CodeUnits, NestedGridIC, STANDARD_CDM
        from repro.cosmology.gaussian_field import degrade_field

        units = CodeUnits.for_cosmology(STANDARD_CDM, 256.0, 100.0)
        nested = NestedGridIC(STANDARD_CDM, units, 100.0, n_root=8,
                              static_levels=1, seed=11)
        lv = nested.level_fields()
        vx_coarse_region = lv[0].velocity[0][2:6, 2:6, 2:6]
        vx_avg = degrade_field(lv[1].velocity[0], 2)
        np.testing.assert_allclose(vx_avg, vx_coarse_region, rtol=1e-10)


class TestCornerGhosts:
    def test_corner_ghosts_filled_from_parent(self):
        """Corner ghost cells (no sibling, off every face) must still be
        physical after SetBoundaryValues — they feed the 3-d sweeps."""
        h = Hierarchy(n_root=8)
        root = h.root
        root.fields["density"][:] = 3.0
        set_boundary_values(h, 0)
        child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        h.add_grid(child, root)
        child.fields["density"][child.interior] = 5.0
        set_boundary_values(h, 1)
        # the very corner of the ghost region
        assert child.fields["density"][0, 0, 0] == pytest.approx(3.0)
        assert child.fields["density"][-1, -1, -1] == pytest.approx(3.0)


class TestRateSpotChecks:
    """Anchor a few coefficients to literature values (order-of-magnitude
    checks that would catch unit or exponent slips)."""

    def test_h2_formation_hm_channel_scale(self):
        from repro.chemistry.rates import RateTable

        # associative detachment ~1.3e-9 cm^3/s
        assert RateTable.k8_H2_from_HM(500.0) == pytest.approx(1.3e-9, rel=0.1)

    def test_three_body_at_1000K(self):
        from repro.chemistry.rates import RateTable

        # PSS83: 5.5e-29/T -> 5.5e-32 at 1000 K
        assert RateTable.k22_threebody_H2(1000.0) == pytest.approx(5.5e-32, rel=1e-6)

    def test_case_b_at_1e4(self):
        from repro.chemistry.rates import RateTable

        # alpha ~ 2.6e-13 at 1e4 K (Cen fit gives ~4e-13; same decade)
        val = RateTable.k2_HII_recombination(1e4)
        assert 1e-13 < val < 1e-12

    def test_h2_cooling_at_1000K_lowdensity(self):
        """GP98 LDL cooling per (n_H2 n_H) at 1000 K is ~1e-24 erg cm^3/s."""
        from repro.chemistry.cooling import h2_cooling

        n = {"H2I": np.atleast_1d(1.0), "HI": np.atleast_1d(1.0)}
        lam = h2_cooling(n, np.atleast_1d(1000.0)).item()
        assert 1e-26 < lam < 1e-23
