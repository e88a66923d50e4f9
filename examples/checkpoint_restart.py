"""Checkpoint/restart workflow: run, dump, restore, continue, verify.

The hero run's outputs were multi-GB dumps; analysis, visualisation and
restarts all flowed through them.  This example runs a collapse, saves a
checkpoint mid-flight, restores it in a fresh hierarchy, continues both to
the same final time and verifies the restart is faithful.  A second demo
puts the same machinery under the fault-tolerant run-control layer
(`repro.runtime`): rotated atomic checkpoints, a watchdog that rolls a
NaN-poisoned run back to the last good dump, and a JSONL telemetry stream
(see docs/RUNTIME.md).

Run:  python examples/checkpoint_restart.py
"""

import os
import tempfile

import numpy as np

from repro.amr import HierarchyEvolver
from repro.amr.gravity import HierarchyGravity
from repro.hydro import PPMSolver
from repro.io import checkpoint_info, load_hierarchy, save_hierarchy
from repro.problems import SphereCollapse


def main():
    print("running a sphere collapse to mid-flight...")
    sc = SphereCollapse(n_root=8, max_level=2, overdensity=20.0)
    t_mid = 0.8 * sc.free_fall_time()
    t_end = 1.1 * sc.free_fall_time()
    sc.run(t_end=t_mid, max_root_steps=60)
    print(f"  t = {float(sc.hierarchy.root.time):.4f}, "
          f"peak density = {sc.peak_density:.1f}, "
          f"{sc.hierarchy.n_grids} grids")

    path = os.path.join(tempfile.gettempdir(), "repro_demo_checkpoint.npz")
    save_hierarchy(sc.hierarchy, path)
    size_mb = os.path.getsize(path) / 1e6
    print(f"\ncheckpoint written: {path} ({size_mb:.1f} MB)")
    print("checkpoint_info:", checkpoint_info(path))

    print("\ncontinuing the original run...")
    sc.run(t_end=t_end, max_root_steps=60)
    peak_original = sc.peak_density

    print("restoring the checkpoint into a fresh hierarchy...")
    h2 = load_hierarchy(path)
    grav = HierarchyGravity(g_code=sc.g_code, mean_density=sc.mean_density)
    ev2 = HierarchyEvolver(h2, PPMSolver(), gravity=grav,
                           criteria=sc.criteria, cfl=0.3,
                           max_level=sc.max_level, jeans_floor_cells=4.0)
    ev2.advance_to(t_end)
    peak_restarted = max(g.field_view("density").max() for g in h2.all_grids())

    print(f"\npeak density, uninterrupted run : {peak_original:.2f}")
    print(f"peak density, restarted run     : {peak_restarted:.2f}")
    rel = abs(peak_restarted - peak_original) / peak_original
    print(f"relative difference             : {rel:.2e}")
    if rel < 0.05:
        print("restart is faithful.")
    os.remove(path)


def run_control_demo():
    """The fault-tolerant loop: checkpoints, NaN rollback, telemetry."""
    import shutil

    from repro import Simulation, SimulationConfig
    from repro.runtime import CheckpointPolicy, read_events, telemetry_path

    print("\n--- run control: watchdog recovery + telemetry ---")
    run_dir = os.path.join(tempfile.gettempdir(), "repro_demo_run")
    shutil.rmtree(run_dir, ignore_errors=True)

    sim = Simulation(SimulationConfig(n_root=8, self_gravity=True,
                                      max_level=1, refine_overdensity=3.0,
                                      g_code=2.0, cfl=0.3))
    sim.set_density(lambda x, y, z: 1 + 10 * np.exp(
        -((x - .5) ** 2 + (y - .5) ** 2 + (z - .5) ** 2) / 0.01))
    sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.05))
    sim.initialize()

    poisoned = []

    def cosmic_ray(controller):
        """Flip a cell to NaN mid-run, once — the watchdog catches it."""
        if controller.step == 3 and not poisoned:
            poisoned.append(True)
            controller.hierarchy.root.fields["density"][5, 5, 5] = np.nan

    controller = sim.make_controller(
        run_dir, pre_step=cosmic_ray,
        policy=CheckpointPolicy(every_steps=2, keep_last=3))
    out = controller.run(t_end=0.8, max_root_steps=6)
    print(f"status = {out['status']}, steps = {out['steps']}, "
          f"recoveries = {out['recoveries']}, cfl now {sim.evolver.cfl}")
    for event in read_events(telemetry_path(run_dir)):
        if event["event"] in ("recovery", "checkpoint", "finish"):
            print(f"  telemetry: {event}")
    shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
    run_control_demo()
