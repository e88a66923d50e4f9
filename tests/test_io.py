"""Tests for checkpoint save/restore (bit-exactness included)."""

import os

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy
from repro.io import (
    CheckpointError,
    checkpoint_info,
    load_hierarchy,
    save_hierarchy,
)
from repro.io.checkpoint import verify_run_dir, write_npz
from repro.nbody.particles import ParticleSet
from repro.precision.doubledouble import DDArray, DoubleDouble


@pytest.fixture
def populated_hierarchy():
    rng = np.random.default_rng(0)
    h = Hierarchy(n_root=8, advected=["HI", "H2I"])
    root = h.root
    for name, arr in root.fields.array_items():
        arr[:] = rng.random(arr.shape)
    child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
    h.add_grid(child, root)
    for name, arr in child.fields.array_items():
        arr[:] = rng.random(arr.shape)
    child.phi[:] = rng.standard_normal(child.phi.shape)
    child.time = DoubleDouble(0.125, 1e-25)
    root.time = DoubleDouble(0.125, 1e-25)
    n_p = 50
    h.particles = ParticleSet(
        DDArray(rng.random((n_p, 3)), 1e-20 * rng.random((n_p, 3))),
        rng.standard_normal((n_p, 3)),
        rng.random(n_p),
    )
    return h


class TestCheckpoint:
    def test_roundtrip_structure(self, populated_hierarchy, tmp_path):
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        h2 = load_hierarchy(p)
        assert h2.grids_per_level() == populated_hierarchy.grids_per_level()
        assert h2.validate_nesting()
        assert h2.advected == ["HI", "H2I"]

    def test_roundtrip_fields_bitexact(self, populated_hierarchy, tmp_path):
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        h2 = load_hierarchy(p)
        for g1, g2 in zip(populated_hierarchy.all_grids(), h2.all_grids()):
            for name, arr in g1.fields.array_items():
                np.testing.assert_array_equal(arr, g2.fields[name])
            np.testing.assert_array_equal(g1.phi, g2.phi)

    def test_roundtrip_epa_exact(self, populated_hierarchy, tmp_path):
        """Low words of dd times and particle positions must survive."""
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        h2 = load_hierarchy(p)
        assert float(h2.root.time.lo) == 1e-25
        np.testing.assert_array_equal(
            h2.particles.positions.lo, populated_hierarchy.particles.positions.lo
        )

    def test_roundtrip_particles(self, populated_hierarchy, tmp_path):
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        h2 = load_hierarchy(p)
        np.testing.assert_array_equal(
            h2.particles.velocities, populated_hierarchy.particles.velocities
        )
        np.testing.assert_array_equal(
            h2.particles.masses, populated_hierarchy.particles.masses
        )

    def test_info(self, populated_hierarchy, tmp_path):
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        info = checkpoint_info(p)
        assert info["n_grids"] == 2
        assert info["grids_per_level"] == [1, 1]
        assert info["n_particles"] == 50
        assert info["time"] == 0.125

    def test_info_reports_hierarchy_wide_state(self, populated_hierarchy,
                                               tmp_path):
        """deepest level / finest dx / total cells, not just the root."""
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        info = checkpoint_info(p)
        assert info["deepest_level"] == 1
        assert info["finest_dx"] == 1.0 / 16  # 8 root cells, refined once
        assert info["total_cells"] == 8**3 + 8**3
        assert info["sdr"] == 16.0
        assert info["format_version"] == 1

    def test_save_is_atomic(self, populated_hierarchy, tmp_path):
        """No temp debris, and a crash mid-save preserves the old dump."""
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        assert sorted(x.name for x in tmp_path.iterdir()) == ["dump.npz"]
        # simulate a torn in-progress rewrite: the .tmp never replaces p
        with open(p + ".tmp", "wb") as fh:
            fh.write(b"garbage from a crashed writer")
        h2 = load_hierarchy(p)  # the published dump is untouched
        assert h2.grids_per_level() == [1, 1]

    def test_truncated_file_raises_checkpoint_error(
            self, populated_hierarchy, tmp_path):
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        with open(p, "r+b") as fh:
            fh.truncate(120)
        with pytest.raises(CheckpointError):
            load_hierarchy(p)
        with pytest.raises(CheckpointError):
            checkpoint_info(p)

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        p = str(tmp_path / "junk.npz")
        with open(p, "wb") as fh:
            fh.write(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError):
            load_hierarchy(p)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_hierarchy(str(tmp_path / "nope.npz"))

    def test_io_timer_section(self, populated_hierarchy, tmp_path):
        """The checkpoint functions take no timers: the run controller books
        each save and load under its evolver's "io" section."""
        from repro.amr import HierarchyEvolver
        from repro.hydro import PPMSolver
        from repro.perf.timers import SECTIONS
        from repro.runtime import RunController

        assert "io" in SECTIONS
        run_dir = str(tmp_path / "run")
        ev = HierarchyEvolver(populated_hierarchy, PPMSolver())
        t_now = float(populated_hierarchy.root.time)
        RunController(ev, run_dir).run(t_now, max_root_steps=0)
        assert ev.timers.counts["io"] == 1  # the initial checkpoint
        assert ev.timers.totals["io"] > 0.0

        ev2 = HierarchyEvolver(Hierarchy(n_root=8, advected=["HI", "H2I"]),
                               PPMSolver())
        RunController(ev2, run_dir).resume(max_root_steps=0)
        assert ev2.timers.counts["io"] == 2  # the load, the closing save
        assert ev2.hierarchy.timers is ev2.timers

    def test_restart_continues_evolution(self, tmp_path):
        """Save mid-run, restore, continue: the physics must keep working."""
        from repro.amr import HierarchyEvolver, RefinementCriteria
        from repro.amr.boundary import set_boundary_values
        from repro.hydro import PPMSolver

        h = Hierarchy(n_root=8)
        x, y, z = np.meshgrid(*h.root.cell_centres(), indexing="ij")
        h.root.fields["density"][h.root.interior] = (
            1 + 5 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2) / 0.01)
        )
        set_boundary_values(h, 0)
        ev = HierarchyEvolver(h, PPMSolver(), cfl=0.3)
        ev.advance_to(0.01)
        p = str(tmp_path / "mid.npz")
        save_hierarchy(h, p)

        h2 = load_hierarchy(p)
        ev2 = HierarchyEvolver(h2, PPMSolver(), cfl=0.3)
        ev2.advance_to(0.02)
        assert float(h2.root.time) == pytest.approx(0.02)
        assert np.all(np.isfinite(h2.root.field_view("density")))

    def test_version_check(self, populated_hierarchy, tmp_path):
        import json

        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        # tamper with the version
        data = dict(np.load(p))
        manifest = json.loads(bytes(data["manifest"]).decode())
        manifest["format_version"] = 99
        data["manifest"] = np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8
        )
        write_npz(p, data)
        with pytest.raises(ValueError):
            load_hierarchy(p)

    def test_particle_words_of_two_shapes_are_refused(self,
                                                      populated_hierarchy,
                                                      tmp_path):
        """A low-word array that would broadcast against the high words
        is a corrupt checkpoint, not a particle load."""
        p = str(tmp_path / "dump.npz")
        save_hierarchy(populated_hierarchy, p)
        data = dict(np.load(p))
        data["particles_pos_lo"] = data["particles_pos_lo"][:1]
        write_npz(p, data)
        with pytest.raises(CheckpointError, match="shape"):
            load_hierarchy(p)

    def test_legacy_compressed_dump_still_loads(self, populated_hierarchy,
                                                tmp_path):
        """Dumps written before the stored container were deflated;
        ``np.load`` reads both, so there is one read path: the old bytes
        restore the same hierarchy and pass the strict scrub."""
        import zipfile

        from repro.runtime.checkpoint_policy import (
            CheckpointPolicy,
            RunState,
            write_digest,
        )

        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        npz = CheckpointPolicy.data_path(run_dir, 4)
        save_hierarchy(populated_hierarchy, npz)
        with zipfile.ZipFile(npz) as zf:
            assert {i.compress_type for i in zf.infolist()} == \
                {zipfile.ZIP_STORED}
        # re-encode the same arrays the way save_hierarchy used to
        with np.load(npz) as data:
            np.savez_compressed(npz, **{k: data[k] for k in data.files})
        with zipfile.ZipFile(npz) as zf:
            assert {i.compress_type for i in zf.infolist()} == \
                {zipfile.ZIP_DEFLATED}
        write_digest(npz)
        state = CheckpointPolicy.state_path(run_dir, 4)
        RunState(step=4).save(state)
        write_digest(state)

        assert load_hierarchy(npz).fingerprint() == \
            populated_hierarchy.fingerprint()
        report = verify_run_dir(run_dir, strict=True)
        assert [e["status"] for e in report["checked"]] == ["ok"]
