"""Tests for profiles, slices/zoom and clump diagnostics."""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy
from repro.amr.boundary import set_boundary_values
from repro.analysis import (
    composite_slice,
    cooling_time,
    find_clumps,
    find_densest_point,
    freefall_time,
    inertia_tensor,
    radial_profiles,
    xray_luminosity,
    zoom_stack,
)
from repro.analysis.clumps import axis_ratios, two_body_relaxation_time
from repro.analysis.profiles import enclosed_mass_profile
from repro.analysis.projections import ascii_render


def _centrally_condensed(n_root=16, with_child=True):
    """Hierarchy with rho ~ 1 + A/(r^2+eps): peak at box centre."""
    h = Hierarchy(n_root=n_root)
    root = h.root
    x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
    root.fields["density"][root.interior] = 1.0 + 0.05 / (r2 + 1e-3)
    set_boundary_values(h, 0)
    if with_child:
        q = n_root // 4
        child = Grid(1, (2 * q, 2 * q, 2 * q) + np.array([q, q, q]), (2 * q,) * 3, n_root=n_root)
        # place child centred on the peak
        child = Grid(1, (n_root - q, n_root - q, n_root - q), (2 * q,) * 3, n_root=n_root)
        h.add_grid(child, root)
        xc, yc, zc = np.meshgrid(*child.cell_centres(), indexing="ij")
        r2c = (xc - 0.5) ** 2 + (yc - 0.5) ** 2 + (zc - 0.5) ** 2
        child.fields["density"][child.interior] = 1.0 + 0.05 / (r2c + 1e-3)
        set_boundary_values(h, 1)
    return h


class TestDensestPoint:
    def test_on_root(self):
        h = _centrally_condensed(with_child=False)
        p = find_densest_point(h)
        assert np.all(np.abs(p - 0.5) < 2.0 / 16)

    def test_prefers_finest(self):
        h = _centrally_condensed(with_child=True)
        p = find_densest_point(h)
        assert np.all(np.abs(p - 0.5) < 1.0 / 16)


class TestRadialProfiles:
    def test_density_decreases_outward(self):
        h = _centrally_condensed()
        prof = radial_profiles(h, nbins=10, rmax=0.4)
        rho = prof["density"]
        ok = np.isfinite(rho)
        assert np.all(np.diff(rho[ok]) <= 1e-6)

    def test_enclosed_mass_monotone(self):
        h = _centrally_condensed()
        prof = radial_profiles(h, nbins=10)
        m = prof["enclosed_gas_mass"]
        assert np.all(np.diff(m) >= -1e-15)

    def test_total_mass_recovered(self):
        h = _centrally_condensed(with_child=False)
        prof = radial_profiles(h, nbins=16, rmax=0.9)
        total = h.root.field_view("density").sum() * h.root.dx**3
        assert prof["enclosed_gas_mass"][-1] == pytest.approx(total, rel=0.02)

    def test_radial_velocity_sign(self):
        h = _centrally_condensed(with_child=False)
        root = h.root
        # uniform inflow toward the centre
        x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
        r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2) + 1e-10
        root.fields["vx"][root.interior] = -(x - 0.5) / r
        root.fields["vy"][root.interior] = -(y - 0.5) / r
        root.fields["vz"][root.interior] = -(z - 0.5) / r
        set_boundary_values(h, 0)
        prof = radial_profiles(h, centre=[0.5, 0.5, 0.5], nbins=8, rmax=0.4)
        vr = prof["radial_velocity"]
        assert np.all(vr[np.isfinite(vr)] < 0)

    def test_units_conversion(self):
        from repro.cosmology import CodeUnits, STANDARD_CDM

        units = CodeUnits.for_cosmology(STANDARD_CDM, 256.0, 100.0)
        h = _centrally_condensed(with_child=False)
        prof = radial_profiles(h, nbins=8, units=units, a=units.a_initial)
        assert "number_density" in prof and "temperature" in prof
        assert np.all(prof["temperature"][np.isfinite(prof["temperature"])] > 0)

    def test_species_fractions(self):
        h = Hierarchy(n_root=8, advected=["H2I", "HI"])
        root = h.root
        root.fields["HI"][:] = 0.7 * root.fields["density"]
        root.fields["H2I"][:] = 1e-4 * root.fields["density"]
        set_boundary_values(h, 0)
        prof = radial_profiles(h, centre=[0.5] * 3, nbins=6, species=True)
        f = prof["f_H2"][np.isfinite(prof["f_H2"])]
        np.testing.assert_allclose(f, 1e-4, rtol=1e-6)

    def test_enclosed_mass_profile_fn(self):
        h = _centrally_condensed(with_child=False)
        r, m = enclosed_mass_profile(h, centre=[0.5] * 3)
        assert np.all(np.diff(m) >= 0)


class TestSlicesAndZoom:
    def test_composite_slice_uses_finest(self):
        h = _centrally_condensed(with_child=True)
        child = h.level_grids(1)[0]
        child.fields["density"][child.interior] = 99.0
        img = composite_slice(h, resolution=32)
        assert np.nanmax(img) == 99.0

    def test_slice_shape_and_finite(self):
        h = _centrally_condensed(with_child=False)
        img = composite_slice(h, resolution=16)
        assert img.shape == (16, 16)
        assert np.all(np.isfinite(img))

    def test_zoom_stack_magnifies(self):
        h = _centrally_condensed()
        frames = zoom_stack(h, n_frames=3, zoom_factor=10.0, resolution=16)
        assert len(frames) == 3
        widths = [f["width"] for f in frames]
        assert widths[1] == pytest.approx(widths[0] / 10)
        # deeper zooms concentrate on the peak: max stays, min rises
        assert frames[-1]["log10_min"] >= frames[0]["log10_min"]

    def test_ascii_render(self):
        img = np.array([[1.0, 10.0], [100.0, 1000.0]])
        s = ascii_render(img)
        assert len(s.splitlines()) == 2


class TestClumps:
    def test_find_clumps(self):
        h = _centrally_condensed(with_child=False)
        clumps = find_clumps(h, overdensity=5.0)
        assert len(clumps) == 1
        assert np.all(np.abs(clumps[0]["position"] - 0.5) < 0.15)

    def test_no_clumps_when_uniform(self):
        h = Hierarchy(n_root=8)
        assert find_clumps(h, overdensity=5.0) == []

    def test_clump_across_periodic_face_is_one(self):
        # one 8-cell blob split by the x = 0 face of the periodic root
        h = Hierarchy(n_root=8)
        rho = h.root.field_view("density")
        rho[...] = 1.0
        rho[0, 3:5, 3:5] = 20.0
        rho[7, 3:5, 3:5] = 20.0
        clumps = find_clumps(h, overdensity=5.0)
        assert len(clumps) == 1
        assert clumps[0]["n_cells"] == 8
        assert clumps[0]["gas_mass"] == pytest.approx(8 * 20.0 / 8**3)
        # the centre of mass sits on the face, wrapped into the box
        x = clumps[0]["position"]
        assert min(x[0], 1.0 - x[0]) == pytest.approx(0.0, abs=1e-12)
        assert 0.0 <= x[0] < 1.0
        assert x[1:] == pytest.approx([0.5, 0.5])

    def test_clump_across_face_keeps_unrelated_clumps(self):
        # a wrapped blob on y plus a separate blob inside the box
        h = Hierarchy(n_root=8)
        rho = h.root.field_view("density")
        rho[...] = 1.0
        rho[3, 0, 3] = rho[3, 7, 3] = 30.0
        rho[5, 4, 5] = 10.0
        clumps = find_clumps(h, overdensity=5.0)
        assert [c["n_cells"] for c in clumps] == [2, 1]
        assert clumps[0]["position"] == pytest.approx([3.5 / 8, 0.0, 3.5 / 8])
        assert clumps[1]["position"] == pytest.approx([5.5 / 8, 4.5 / 8, 5.5 / 8])

    def test_freefall_time_scaling(self):
        assert freefall_time(1e-20) / freefall_time(1e-18) == pytest.approx(10.0)

    def test_freefall_magnitude(self):
        # rho ~ 1e-24 g/cc (n~1 cm^-3): t_ff ~ 50 Myr
        from repro import constants as const

        t = freefall_time(1e-24) / const.MEGAYEAR
        assert 30 < t < 100

    def test_cooling_time_positive(self):
        from repro.chemistry import primordial_initial_fractions, SPECIES
        from repro.chemistry.species import SPECIES_NAMES
        from repro import constants as const

        fr = primordial_initial_fractions(x_e=1e-2, f_h2=1e-4)
        rho = 100 * const.HYDROGEN_MASS
        n = {s: np.atleast_1d(fr[s] * rho / (SPECIES[s].mass_amu * const.HYDROGEN_MASS))
             for s in SPECIES_NAMES}
        t = cooling_time(n, np.atleast_1d(1000.0), rho, z=20.0)
        assert np.all(t > 0)

    def test_two_body_relaxation(self):
        assert two_body_relaxation_time(int(1e6), 1.0) > 1e3

    def test_inertia_tensor_sphere(self):
        rng = np.random.default_rng(0)
        pos = rng.standard_normal((5000, 3))
        t = inertia_tensor(pos, np.ones(5000))
        b_a, c_a = axis_ratios(t)
        assert 0.9 < b_a <= 1.001
        assert 0.9 < c_a <= 1.001

    def test_inertia_tensor_flattened(self):
        rng = np.random.default_rng(1)
        pos = rng.standard_normal((5000, 3)) * np.array([1.0, 1.0, 0.1])
        b_a, c_a = axis_ratios(inertia_tensor(pos, np.ones(5000)))
        assert c_a < 0.2 and b_a > 0.9

    def test_xray_luminosity_scales(self):
        l1 = xray_luminosity(1.0, 1.0, 1e7, 1e60)
        l2 = xray_luminosity(2.0, 2.0, 1e7, 1e60)
        assert l2 == pytest.approx(4 * l1)
