"""Passive-scalar transport: conservation guarantees and the zero-scalar
bitwise-identity contract.

``n_scalars`` adds ``scalar00..`` to the advected list, so scalars ride
the same consistent-transport path as chemical species: solver fluxes,
flux correction at coarse-fine faces, projection, prolongation, and the
defense ladder's floor repair.  The contract tested here is round-off
conservation through all of that — and that asking for zero scalars
changes nothing at all, bit for bit, on every execution backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Simulation, SimulationConfig
from repro.hydro.state import scalar_names
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.telemetry import read_events, telemetry_path


def build_amr_sim(n_scalars: int, blob=(0.5, 0.5, 0.5), amp: float = 10.0,
                  backend: str | None = None) -> Simulation:
    """A refining blob advected across the box, with dyed scalars."""
    sim = Simulation(SimulationConfig(
        n_root=8, max_level=1, refine_overdensity=3.0, cfl=0.3,
        n_scalars=n_scalars, exec_backend=backend,
    ))
    bx, by, bz = blob
    sim.set_density(lambda x, y, z: 1 + amp * np.exp(
        -((x - bx) ** 2 + (y - by) ** 2 + (z - bz) ** 2) / 0.01))
    sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.1))
    sim.set_field("vx", lambda x, y, z: np.full_like(x, 0.5))
    for i, name in enumerate(scalar_names(n_scalars)):
        # distinct dyes so cross-contamination would show up
        sim.set_field(name, lambda x, y, z, i=i: (i + 1.0) * np.exp(
            -((x - bx) ** 2 + (y - by) ** 2) / 0.02))
    sim.initialize()
    return sim


def root_mass(sim: Simulation, name: str) -> float:
    root = sim.hierarchy.root
    return float(root.fields[name][root.interior].sum()) * root.dx**3


def advance(sim: Simulation, steps: int) -> None:
    for _ in range(steps):
        sim.evolver.advance_root_step(10.0)


# ------------------------------------------------------------- conservation
class TestScalarConservation:
    def test_conserved_through_refluxing_and_regrids(self):
        sim = build_amr_sim(n_scalars=2)
        assert sim.hierarchy.max_level == 1  # the blob actually refines
        before = {n: root_mass(sim, n) for n in scalar_names(2)}
        advance(sim, 4)
        for name, m0 in before.items():
            assert root_mass(sim, name) == pytest.approx(m0, rel=1e-12)

    @settings(max_examples=4, deadline=None)
    @given(
        bx=st.floats(0.3, 0.7), amp=st.floats(5.0, 20.0),
    )
    def test_conservation_is_setup_independent(self, bx, amp):
        """Property: any blob position/contrast conserves dye mass across
        the full AMR step (fluxes + flux correction + projection)."""
        sim = build_amr_sim(n_scalars=1, blob=(bx, 0.5, 0.5), amp=amp)
        m0 = root_mass(sim, "scalar00")
        advance(sim, 2)
        assert root_mass(sim, "scalar00") == pytest.approx(m0, rel=1e-12)

    def test_kelvin_helmholtz_dye_conserved(self):
        from repro.problems import KelvinHelmholtz

        kh = KelvinHelmholtz(n_root=16)
        m0 = kh.scalar_mass()
        kh.run(t_end=0.2)
        assert kh.steps > 3
        assert kh.scalar_mass() == pytest.approx(m0, rel=1e-13)

    def test_rayleigh_taylor_dye_conserved_at_walls(self):
        from repro.problems import RayleighTaylor

        rt = RayleighTaylor(n=8)
        m0 = rt.scalar_mass()
        rt.run(t_end=0.5, max_steps=12)
        assert rt.steps > 3
        # reflecting walls: the mirrored-gravity ghost kick keeps wall
        # faces flux-free, so dye (and gas) mass stay at round-off
        assert rt.scalar_mass() == pytest.approx(m0, rel=1e-13)


# ------------------------------------------------------ floor-repair ledger
class TestFloorRepairAccounting:
    def _run_with_floor_repair(self, n_scalars: int, tmp_path) -> list[dict]:
        run_dir = str(tmp_path / f"repair{n_scalars}")
        sim = build_amr_sim(n_scalars=n_scalars)
        sim.evolver.faults = FaultInjector([
            FaultSpec("nan_cell", level=0,
                      grid_id=sim.hierarchy.root.grid_id, step=0, count=4),
        ], seed=7)
        out = sim.make_controller(run_dir).run(10.0, max_root_steps=2)
        assert out["status"] == "max_steps"
        events = read_events(telemetry_path(run_dir))
        return [e for e in events
                if e["event"] == "defense" and e.get("rung") == "floor_repair"]

    def test_scalar_mass_delta_reported(self, tmp_path):
        repairs = self._run_with_floor_repair(2, tmp_path)
        assert repairs and repairs[-1]["ok"]
        assert "scalar_mass_delta" in repairs[-1]
        assert abs(repairs[-1]["scalar_mass_delta"]) < 1e-6

    def test_no_scalars_no_ledger_entry(self, tmp_path):
        repairs = self._run_with_floor_repair(0, tmp_path)
        assert repairs and repairs[-1]["ok"]
        assert "scalar_mass_delta" not in repairs[-1]


# --------------------------------------------------------- bitwise identity
def assert_hierarchies_identical(ha, hb):
    assert ha.grids_per_level() == hb.grids_per_level()
    for ga, gb in zip(ha.all_grids(), hb.all_grids()):
        for name, arr in ga.fields.array_items():
            np.testing.assert_array_equal(arr, gb.fields[name], err_msg=name)


class TestZeroScalarIdentity:
    def test_zero_scalars_allocates_nothing(self):
        sim = build_amr_sim(n_scalars=0)
        assert "scalar00" not in sim.hierarchy.root.fields
        assert tuple(sim.hierarchy.advected) == ()

    def test_scalar_names_compose_with_explicit_advected(self):
        sim = Simulation(SimulationConfig(
            n_root=8, advected=("HI",), n_scalars=2))
        assert tuple(sim.hierarchy.advected) == ("HI", "scalar00", "scalar01")

    @pytest.mark.parametrize("backend", ["thread"])
    def test_backends_bitwise_identical_without_scalars(self, backend):
        base = build_amr_sim(n_scalars=0, backend=None)
        other = build_amr_sim(n_scalars=0, backend=backend)
        advance(base, 2)
        advance(other, 2)
        assert_hierarchies_identical(base.hierarchy, other.hierarchy)

    def test_gas_state_independent_of_scalar_count(self):
        """Adding dye must not perturb the gas solution bitwise: scalars
        are strictly passive."""
        plain = build_amr_sim(n_scalars=0)
        dyed = build_amr_sim(n_scalars=2)
        advance(plain, 3)
        advance(dyed, 3)
        for name in ("density", "energy", "vx", "vy", "vz", "internal"):
            for ga, gb in zip(plain.hierarchy.all_grids(),
                              dyed.hierarchy.all_grids()):
                np.testing.assert_array_equal(
                    ga.fields[name], gb.fields[name], err_msg=name)
