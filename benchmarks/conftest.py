"""Shared fixtures for the reproduction benchmarks.

Heavy simulation states are built once per session and reused by every
bench that reads them; `benchmark.pedantic(..., rounds=1)` keeps the
actual simulations from being re-run by the timing machinery.
"""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def collapse_run():
    """A scaled primordial-collapse run with full physics, shared by the
    Fig. 3/4/5 and component-table benches."""
    from repro.problems import PrimordialCollapse

    run = PrimordialCollapse(
        n_root=8, max_level=2, z_init=100.0, seed=7, amplitude_boost=4.0,
        jeans_number=4.0, mass_refine_factor=8.0,
        with_chemistry=True, with_dark_matter=True,
    )
    run.initial_rebuild()
    for z_stop in (75.0, 65.0, 58.0):
        run.run_to_redshift(z_stop, max_root_steps=250)
        run.snapshot(label=f"z={run.current_redshift:.1f}")
    # freeze the component fractions now: the timers' wall clock keeps
    # ticking while unrelated benches run, which would dilute them
    run.final_fractions = run.evolver.timers.fractions()
    return run


@pytest.fixture(scope="session")
def sphere_run():
    """A deep isothermal-collapse hierarchy (fast driver for Fig. 3/5).

    Driven root step by root step to the end time ``SphereCollapse.run``
    uses; ``sc.step_records`` keeps the telemetry step record of the
    initial hierarchy and of every root step after it.
    """
    from repro.problems import SphereCollapse
    from repro.runtime.telemetry import step_record

    sc = SphereCollapse(n_root=16, max_level=3, overdensity=25.0, max_dims=8)
    ev = sc.evolver
    t_end = 1.5 * sc.free_fall_time(sc.peak_density)
    sc.step_records = [step_record(ev, 0, 0.0)]
    for step in range(1, 26):
        dt = ev.advance_root_step(t_end)
        if dt is None:
            break
        sc.step_records.append(step_record(ev, step, dt))
    return sc
