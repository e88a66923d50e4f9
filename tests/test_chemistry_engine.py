"""Tests for the tabulated-rate / active-set chemistry engine (PR 4).

Covers the tentpole properties the issue demands: tabulated-vs-analytic
agreement on random log-T draws, positivity, exact elemental-nuclei
conservation after renormalisation, active-set equality with the
cell-by-cell path on mixed hot/cold grids, and the stats plumbing
(network -> evolver ``chem_stats`` -> telemetry record).
"""

from __future__ import annotations


import numpy as np
import pytest

from repro import constants as const
from repro.chemistry import cooling as cool_mod
from repro.chemistry.network import (ChemistryNetwork, integrator_stats,
                                     primordial_initial_fractions)
from repro.chemistry.rates import RateTable, _get_table
from repro.chemistry.species import SPECIES, SPECIES_NAMES

RNG = np.random.default_rng(1234)


def mixed_state(n_cells: int, seed: int = 7):
    """Random mixed hot/cold, thin/dense state (proper cgs)."""
    rng = np.random.default_rng(seed)
    T = 10 ** rng.uniform(1.5, 6.0, n_cells)
    rho = 10 ** rng.uniform(-24.0, -19.0, n_cells)
    x_e = 10 ** rng.uniform(-4.0, -0.3, n_cells)
    f_h2 = 10 ** rng.uniform(-7.0, -4.0, n_cells)
    fr = primordial_initial_fractions(x_e=x_e, f_h2=f_h2)
    n = {
        s: fr[s] * rho / (SPECIES[s].mass_amu * const.HYDROGEN_MASS)
        for s in SPECIES_NAMES
    }
    e = ChemistryNetwork.energy_from_temperature(n, T, rho)
    return n, e, rho


# --------------------------------------------------------- tabulated rates
def test_tabulated_rates_match_analytic_on_random_draws():
    T = 10 ** RNG.uniform(0.0, 9.0, 30000)
    ana = RateTable(mode="analytic")
    tab = RateTable()
    ka, ca = ana.channels(T)
    kt, ct = tab.channels(T)
    for name in RateTable.RATE_NAMES:
        err = np.abs(kt[name] - ka[name]) / np.maximum(np.abs(ka[name]), 1e-280)
        assert err.max() <= 1e-3, (name, err.max())
    for name in ca:
        err = np.abs(ct[name] - ca[name]) / np.maximum(np.abs(ca[name]), 1e-280)
        assert err.max() <= 1e-3, (name, err.max())


def test_analytic_mode_is_bitwise_the_static_fits():
    T = 10 ** RNG.uniform(0.0, 9.0, 5000)
    ana = RateTable(mode="analytic")
    k = ana(T)
    np.testing.assert_array_equal(k["k1"], RateTable.k1_HI_ionisation(T))
    np.testing.assert_array_equal(k["k9"], RateTable.k9_H2II_formation(T))
    np.testing.assert_array_equal(k["k14"], RateTable.k14_HM_e_detachment(T))
    np.testing.assert_array_equal(k["d1"], RateTable.d1_DII_recombination(T))


def test_piecewise_branch_switches_are_exact():
    # values straddling the k9 (6700 K) and k14 (0.04 eV) discontinuities
    T = np.array([6699.0, 6700.0, 6701.0, 0.04 * 11604.5 * 0.999,
                  0.04 * 11604.5 * 1.001])
    tab = RateTable()
    k = tab(T)
    assert k["k14"][3] == 0.0 and k["k14"][4] > 0.0
    # the branch choice must match the analytic where() exactly
    ana = RateTable(mode="analytic")(T)
    assert np.all((k["k9"] > 0) == (ana["k9"] > 0))


def test_table_accuracy_guard_raises_on_coarse_table():
    with pytest.raises(ValueError, match="rtol"):
        RateTable(n_bins=64)


def test_table_cached_per_configuration():
    assert _get_table(8192) is _get_table(8192)
    a = RateTable()
    b = RateTable()
    assert a._ensure_table() is b._ensure_table()


def test_cooling_channels_assembly_matches_direct_evaluation():
    n, e, rho = mixed_state(2000, seed=3)
    T = ChemistryNetwork.temperature(n, e, rho)
    ch = cool_mod.cooling_channels(T)
    direct = cool_mod.cooling_rate(n, T, 12.0)
    assembled = cool_mod.cooling_rate_from_channels(n, T, 12.0, ch)
    np.testing.assert_array_equal(assembled, direct)


# ------------------------------------------------------- active-set solver
def test_active_set_matches_cell_by_cell_integration():
    n, e, rho = mixed_state(64, seed=11)
    net = ChemistryNetwork()
    dt = 1.0e12
    n_full, e_full = net.advance(n, e, rho, dt, z=18.0)
    for idx in range(0, 64, 7):
        n_one = {s: np.array([n[s][idx]]) for s in SPECIES_NAMES}
        n1, e1 = net.advance(n_one, np.array([e[idx]]), np.array([rho[idx]]),
                             dt, z=18.0)
        for s in SPECIES_NAMES:
            np.testing.assert_array_equal(n1[s][0], n_full[s][idx])
        np.testing.assert_array_equal(e1[0], e_full[idx])


def test_positivity_on_random_mixed_states():
    for seed in (1, 2, 3):
        n, e, rho = mixed_state(512, seed=seed)
        net = ChemistryNetwork()
        n_out, e_out = net.advance(n, e, rho, 3.0e13, z=15.0)
        for s in SPECIES_NAMES:
            assert np.all(n_out[s] >= 0.0), s
        assert np.all(e_out > 0.0)


def test_exact_nuclei_conservation_after_renormalisation():
    n, e, rho = mixed_state(512, seed=5)
    net = ChemistryNetwork()
    n_out, _ = net.advance(n, e, rho, 3.0e13, z=15.0)
    for budget in (
        lambda d: d["HI"] + d["HII"] + d["HM"]
        + 2.0 * (d["H2I"] + d["H2II"]) + d["HDI"],
        lambda d: d["HeI"] + d["HeII"] + d["HeIII"],
        lambda d: d["DI"] + d["DII"] + d["HDI"],
    ):
        before, after = budget(n), budget(n_out)
        np.testing.assert_allclose(after, before, rtol=1e-12)


def test_tabulated_and_analytic_networks_agree_physically():
    n, e, rho = mixed_state(256, seed=9)
    dt = 1.0e13
    n_tab, e_tab = ChemistryNetwork().advance(n, e, rho, dt, z=15.0)
    n_ana, e_ana = ChemistryNetwork(rates=RateTable(mode="analytic")).advance(
        n, e, rho, dt, z=15.0
    )
    T_tab = ChemistryNetwork.temperature(n_tab, e_tab, rho)
    T_ana = ChemistryNetwork.temperature(n_ana, e_ana, rho)
    assert np.max(np.abs(T_tab - T_ana) / T_ana) < 0.05
    n_h = n["HI"] + n["HII"]
    for s in SPECIES_NAMES:
        assert np.max(np.abs(n_tab[s] - n_ana[s]) / np.maximum(n_h, 1e-300)) < 1e-3, s


def test_advance_handles_scalars_and_3d_shapes():
    n, e, rho = mixed_state(8, seed=2)
    net = ChemistryNetwork()
    n3 = {s: n[s].reshape(2, 2, 2) for s in SPECIES_NAMES}
    n_out, e_out = net.advance(n3, e.reshape(2, 2, 2), rho.reshape(2, 2, 2), 1e11)
    assert e_out.shape == (2, 2, 2)
    n1 = {s: float(n[s][0]) for s in SPECIES_NAMES}
    n_out1, e_out1 = net.advance(n1, float(e[0]), float(rho[0]), 1e11)
    assert np.shape(e_out1) == ()
    assert float(e_out1) > 0.0


def _stacked(n, e, rho):
    """The ``(12, N)`` species block, energy and density
    ``advance_stacked`` integrates, as fresh arrays."""
    return (np.stack([n[s] for s in SPECIES_NAMES]), np.array(e, float),
            np.array(rho, float))


def test_zero_dt_is_identity():
    n, e, rho = mixed_state(16, seed=4)
    net = ChemistryNetwork()
    n_out, e_out = net.advance(n, e, rho, 0.0)
    for s in SPECIES_NAMES:
        np.testing.assert_array_equal(n_out[s], n[s])
    np.testing.assert_array_equal(e_out, e)
    assert net.advance_stacked(*_stacked(n, e, rho), 0.0) == {
        "cells": 16, "substeps_total": 0, "substeps_max": 0,
        "iterations": 0}


# ------------------------------------------------------------ stats plumbing
def test_advance_publishes_stats():
    n, e, rho = mixed_state(128, seed=6)
    net = ChemistryNetwork()
    stats = integrator_stats(
        net.advance_stacked(*_stacked(n, e, rho), 1.0e13, z=15.0))
    assert stats["cells"] == 128
    assert stats["substeps_max"] == stats["iterations"] >= 1
    assert stats["substeps_total"] >= stats["substeps_max"]
    assert 0.0 < stats["active_fraction_mean"] <= 1.0
    # compaction must actually retire cells on a mixed grid
    assert stats["substeps_total"] < stats["substeps_max"] * stats["cells"]


def test_chemistry_step_stats_aggregation():
    """The evolver's per-grid chemistry aggregation is a StepStats: sums,
    a peak, a cells-weighted mean; zero weight omits the mean."""
    import json

    from repro.perf import StepStats

    agg = StepStats()
    assert not agg and agg.snapshot() == {}
    for cells, total, peak, frac in ((100, 500, 9, 0.5), (300, 600, 4, 0.25)):
        agg.add("tasks")
        agg.add("cells", cells)
        agg.add("substeps_total", total)
        agg.peak("substeps_max", peak)
        agg.mean("active_fraction_mean", frac, cells)
    agg.mean("unweighted", 0.7, 0)
    assert agg
    snap = agg.snapshot()
    assert snap == {"tasks": 2, "cells": 400, "substeps_total": 1100,
                    "substeps_max": 9, "active_fraction_mean": 0.3125}
    assert json.loads(json.dumps(snap)) == snap
    agg.reset()
    assert not agg and agg.snapshot() == {}


@pytest.fixture(scope="module")
def collapse_step():
    """One root step of a refined collapse with gravity, chemistry and
    dark matter: the evolver and its telemetry step record."""
    from repro.problems.collapse import PrimordialCollapse
    from repro.runtime.telemetry import step_record

    pc = PrimordialCollapse(
        n_root=8, max_level=1, amplitude_boost=4.0,
        mass_refine_factor=8.0, with_chemistry=True,
    )
    pc.initial_rebuild()
    dt = pc.evolver.advance_root_step(pc.code_time_of_redshift(99.0))
    assert dt is not None and dt > 0.0
    return pc.evolver, step_record(pc.evolver, step=1, dt=dt)


def test_telemetry_step_record_includes_chemistry_block(collapse_step):
    _, record = collapse_step
    chem = record["chemistry"]
    assert chem["tasks"] >= 1
    assert chem["cells"] >= 8**3
    assert chem["substeps_total"] >= chem["substeps_max"] >= 1
    assert 0.0 < chem["active_fraction_mean"] <= 1.0


def test_chem_stats_snapshot_is_the_record_block(collapse_step):
    """benchmarks/e2e/tracing.py reads these three keys from
    ``evolver.chem_stats.snapshot()`` after every root step."""
    evolver, record = collapse_step
    snap = evolver.chem_stats.snapshot()
    assert {"cells", "substeps_total", "active_fraction_mean"} <= set(snap)
    assert snap == record["chemistry"]


def test_step_record_blocks_on_a_refined_collapse(collapse_step):
    import json

    evolver, record = collapse_step
    blocks = {name for name in evolver.step_stats if name in record}
    assert blocks - {"defense"} == {"exec", "chemistry", "gravity",
                                    "rebuild", "kernels"}
    totals = evolver.defense.totals
    fired = bool(totals["rungs"] or totals["floors"])
    assert ("defense" in record) == fired
    for name in blocks:
        for key, value in record[name].items():
            assert type(value) in (int, float), (name, key, value)
    assert json.loads(json.dumps(record)) == record
    gravity = record["gravity"]
    assert 1 <= gravity["passes.L1"] <= gravity["solves.L1"] \
        <= gravity["vcycles.L1"]
