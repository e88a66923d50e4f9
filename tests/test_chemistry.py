"""Tests for the 12-species network, rates and cooling."""

import numpy as np
import pytest

from repro import constants as const
from repro.chemistry import (
    ChemistryNetwork,
    RateTable,
    SPECIES,
    cooling_rate,
    electron_density,
    primordial_initial_fractions,
)
from repro.chemistry.cooling import atomic_cooling, compton, h2_cooling
from repro.chemistry.species import SPECIES_NAMES, charge_total, nuclei_totals

YEAR = const.YEAR


def _number_densities(n_h=1.0, x_e=2e-4, f_h2=2e-6, T=None):
    """Uniform primordial composition at H number density n_h (cm^-3)."""
    fr = primordial_initial_fractions(x_e=x_e, f_h2=f_h2)
    rho = n_h * const.HYDROGEN_MASS / const.HYDROGEN_MASS_FRACTION
    n = {
        s: np.atleast_1d(fr[s] * rho / (SPECIES[s].mass_amu * const.HYDROGEN_MASS))
        for s in SPECIES_NAMES
    }
    return n, np.atleast_1d(rho)


class TestRates:
    def test_all_rates_positive_finite(self):
        T = np.logspace(0.5, 8, 50)
        rates = RateTable()(T)
        for name, val in rates.items():
            assert np.all(np.isfinite(val)), name
            assert np.all(val >= 0.0), name

    def test_recombination_decreases_with_T(self):
        r = RateTable()
        assert r.k2_HII_recombination(1e3) > r.k2_HII_recombination(1e5)

    def test_collisional_ionisation_activates_above_1e4K(self):
        r = RateTable()
        assert r.k1_HI_ionisation(5e3) < 1e-20
        assert r.k1_HI_ionisation(2e5) > 1e-12

    def test_case_b_magnitude(self):
        # alpha_B(1e4 K) ~ 2.6e-13 cm^3/s; the Cen fit is close
        r = RateTable().k2_HII_recombination(1e4)
        assert 1e-13 < r < 6e-13

    def test_three_body_grows_toward_low_T(self):
        r = RateTable()
        assert r.k22_threebody_H2(200.0) > r.k22_threebody_H2(2000.0)

    def test_h2_dissociation_negligible_cold(self):
        r = RateTable()
        assert r.k13_H2_H_dissociation(300.0) < 1e-30
        assert r.k13_H2_H_dissociation(1e4) > 1e-15

    def test_deuterium_exchange_asymmetry(self):
        # the 43 K endothermicity suppresses D -> D+ at low T
        r = RateTable()
        assert r.d2_D_charge_exchange(50.0) < r.d3_DII_charge_exchange(50.0)


class TestCooling:
    def test_atomic_cooling_peaks_near_1e4(self):
        n, _ = _number_densities(n_h=1.0, x_e=0.5)
        lam_lo = atomic_cooling(n, np.atleast_1d(8e3))
        lam_mid = atomic_cooling(n, np.atleast_1d(2e4))
        assert lam_mid > lam_lo  # Ly-alpha switches on

    def test_h2_cooling_dominates_below_1e4(self):
        """The paper's key physics: H2 is 'the primary cooling agent' < 1e4 K."""
        n, _ = _number_densities(n_h=100.0, x_e=1e-4, f_h2=1e-3)
        T = np.atleast_1d(800.0)
        assert h2_cooling(n, T) > atomic_cooling(n, T)

    def test_h2_cooling_density_regimes(self):
        """LDL: Lambda ~ n_H2 * n_H (quadratic); LTE: ~ n_H2 (linear)."""
        T = np.atleast_1d(1000.0)
        lams = []
        for nh in (1.0, 100.0):
            n, _ = _number_densities(n_h=nh, f_h2=1e-3)
            lams.append(float(h2_cooling(n, T)[0]))
        # low-density: 100x density -> ~1e4x cooling
        assert 3e3 < lams[1] / lams[0] < 3e4
        lams_hi = []
        for nh in (1e12, 1e14):
            n, _ = _number_densities(n_h=nh, f_h2=1e-3)
            lams_hi.append(float(h2_cooling(n, T)[0]))
        # LTE: 100x density -> ~100x cooling
        assert 30 < lams_hi[1] / lams_hi[0] < 300

    def test_compton_sign(self):
        n, _ = _number_densities(x_e=1e-2)
        z = 20.0
        t_cmb = const.CMB_TEMPERATURE_Z0 * (1 + z)
        assert compton(n, np.atleast_1d(2 * t_cmb), z) > 0  # cooling
        assert compton(n, np.atleast_1d(0.5 * t_cmb), z) < 0  # heating

    def test_total_positive_for_hot_gas(self):
        n, _ = _number_densities(n_h=1.0, x_e=0.5)
        assert cooling_rate(n, np.atleast_1d(1e5), z=0.0) > 0


class TestNetworkEquilibria:
    def test_collisional_ionisation_equilibrium_hot(self):
        """At T=2e5 K (held fixed), hydrogen ionises almost completely."""
        n, rho = _number_densities(n_h=1.0, x_e=1e-3)
        net = ChemistryNetwork()
        T = 2e5
        e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        # hold temperature fixed by resetting e each call (pure network test)
        for _ in range(40):
            n, _e = net.advance(n, e, rho, 3e4 * YEAR, z=0.0)
            e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        x = (n["HII"] / (n["HI"] + n["HII"])).item()
        assert x > 0.98

    def test_recombination_cold_dense(self):
        """Ionised gas at low T recombines on the alpha*n timescale."""
        n, rho = _number_densities(n_h=1e4, x_e=0.9)
        net = ChemistryNetwork()
        T = 1e3
        e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        for _ in range(20):
            n, _ = net.advance(n, e, rho, 1e4 * YEAR, z=0.0)
            e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        x = (n["HII"] / (n["HI"] + n["HII"])).item()
        assert x < 0.01

    def test_h2_forms_via_hm_channel(self):
        """Warm slightly-ionised gas builds f_H2 ~ 1e-4..1e-3 (paper Sec. 4)."""
        n, rho = _number_densities(n_h=100.0, x_e=1e-3, f_h2=1e-8)
        net = ChemistryNetwork()
        T = 1000.0
        e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        f0 = (2 * n["H2I"] / (n["HI"] + 2 * n["H2I"])).item()
        for _ in range(30):
            n, _ = net.advance(n, e, rho, 1e5 * YEAR, z=20.0)
            e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        f1 = (2 * n["H2I"] / (n["HI"] + 2 * n["H2I"])).item()
        assert f1 > 10 * f0
        assert 1e-5 < f1 < 1e-2

    def test_three_body_converts_fully_molecular(self):
        """At n ~ 1e12 cm^-3 three-body formation makes the gas molecular —
        the transition the paper reports at central densities 1e9-1e11."""
        n, rho = _number_densities(n_h=1e12, x_e=1e-8, f_h2=1e-3)
        net = ChemistryNetwork()
        T = 800.0
        e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        for _ in range(30):
            n, _ = net.advance(n, e, rho, 300.0 * YEAR, z=20.0)
            e = ChemistryNetwork.energy_from_temperature(n, T, rho)
        f = (2 * n["H2I"] / (n["HI"] + 2 * n["H2I"])).item()
        assert f > 0.5


class TestConservation:
    def _advance_many(self, n, rho, e, steps=20, dt=1e4 * YEAR):
        net = ChemistryNetwork()
        for _ in range(steps):
            n, e = net.advance(n, e, rho, dt, z=20.0)
        return n, e

    def test_nuclei_conserved(self):
        n, rho = _number_densities(n_h=100.0, x_e=1e-2, f_h2=1e-5)
        e = ChemistryNetwork.energy_from_temperature(n, 2000.0, rho)
        before = nuclei_totals(n)
        n2, _ = self._advance_many(n, rho, e)
        after = nuclei_totals(n2)
        for key in ("H", "He", "D"):
            assert np.allclose(after[key], before[key], rtol=1e-3), key

    def test_charge_neutral(self):
        n, rho = _number_densities(n_h=10.0, x_e=0.3)
        e = ChemistryNetwork.energy_from_temperature(n, 5000.0, rho)
        n2, _ = self._advance_many(n, rho, e)
        net_charge = charge_total(n2) - (-n2["de"] * 0 + 0)  # charge incl. de
        # charge_total counts de with charge -1 already
        assert np.all(np.abs(net_charge) <= 1e-6 * n2["HII"] + 1e-20)

    def test_positivity(self):
        n, rho = _number_densities(n_h=1e6, x_e=0.5, f_h2=1e-4)
        e = ChemistryNetwork.energy_from_temperature(n, 300.0, rho)
        n2, e2 = self._advance_many(n, rho, e, steps=10, dt=1e6 * YEAR)
        for s in SPECIES_NAMES:
            assert np.all(n2[s] >= 0.0), s
        assert np.all(e2 > 0.0)


class TestThermalEvolution:
    def test_hot_gas_cools(self):
        n, rho = _number_densities(n_h=1.0, x_e=0.5)
        net = ChemistryNetwork()
        e0 = ChemistryNetwork.energy_from_temperature(n, 3e4, rho)
        n2, e1 = net.advance(n, e0, rho, 3e6 * YEAR, z=0.0)
        assert e1.item() < 0.8 * e0.item()

    def test_cmb_floor_respected(self):
        """Gas cannot radiate below T_cmb(z): the paper's Compton coupling."""
        z = 20.0
        t_cmb = const.CMB_TEMPERATURE_Z0 * (1 + z)
        n, rho = _number_densities(n_h=1e4, x_e=1e-3, f_h2=1e-3)
        net = ChemistryNetwork()
        e = ChemistryNetwork.energy_from_temperature(n, 500.0, rho)
        for _ in range(20):
            n, e = net.advance(n, e, rho, 1e6 * YEAR, z=z)
        T = ChemistryNetwork.temperature(n, e, rho).item()
        assert T >= 0.9 * t_cmb

    def test_substep_count_reported(self):
        n, rho = _number_densities(n_h=100.0, x_e=0.3)
        net = ChemistryNetwork()
        e = ChemistryNetwork.energy_from_temperature(n, 2e4, rho)
        state = np.stack([n[s] for s in SPECIES_NAMES])
        stats = net.advance_stacked(state, e.copy(), rho, 1e6 * YEAR, z=10.0)
        assert stats["substeps_max"] >= 1


class TestInitialFractions:
    def test_sum_to_unity(self):
        fr = primordial_initial_fractions()
        total = sum(v for k, v in fr.items() if k != "de")
        assert abs(total - 1.0) < 1e-6

    def test_hydrogen_split(self):
        fr = primordial_initial_fractions(x_e=1e-3)
        assert abs(fr["HII"] - 0.76e-3) < 1e-9
        assert fr["HI"] > 0.75

    def test_electron_consistent(self):
        fr = primordial_initial_fractions()
        rho = 1.0
        n = {s: fr[s] * rho / SPECIES[s].mass_amu for s in SPECIES_NAMES}
        assert np.isclose(n["de"], electron_density(n), rtol=1e-10)


class TestAdvanceFields:
    def test_code_unit_roundtrip(self):
        from repro.cosmology import CodeUnits, STANDARD_CDM
        from repro.hydro.state import make_fields

        units = CodeUnits.for_cosmology(STANDARD_CDM, 256.0, 100.0)
        a = units.a_initial
        shape = (4, 4, 4)
        fr = primordial_initial_fractions()
        f = make_fields(shape, density=0.06, internal_energy=1.0,
                        advected=list(SPECIES_NAMES))
        for s in SPECIES_NAMES:
            f[s][:] = fr[s] * f["density"]
        f["internal"][:] = units.energy_from_temperature(300.0, 1.22, a)
        f["energy"][:] = f["internal"]
        net = ChemistryNetwork()
        net.advance_fields(f, dt_code=1e-6, units=units, a=a)
        # species still sum to the gas density
        total = sum(f[s] for s in SPECIES_NAMES if s != "de")
        np.testing.assert_allclose(total, f["density"], rtol=1e-3)
        assert np.all(f["internal"] > 0)
