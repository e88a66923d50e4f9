"""The paper's collapse, followed past the point where it dies today.

The paper's result is this run carried through 34 levels (Sec. 4,
Fig. 5).  At ``max_level=2`` the reproduction's collapse does not get
that far: a face runaway on the box-spanning level-1 grid exhausts the
defense ladder in root step 31 on the way to z = 20, and the step raises
``StateCorruptionError`` (ROADMAP item 1).  This bench drives the
``collapse_chem`` problem (the same arguments) through root steps 1-31
and asserts they complete.  It is a strict xfail: the fix has to flip it.

Collected only when named (about 20 s with the compiled tier):

    PYTHONPATH=src python -m pytest -q benchmarks/bench_collapse_late.py
"""

import pytest

from repro.runtime.recovery import StateCorruptionError

#: root steps toward z = 20 that must complete
ROOT_STEPS = 31


@pytest.mark.xfail(strict=True, raises=StateCorruptionError,
                   reason="the collapse dies in root step 31 (ROADMAP 1)")
def test_collapse_survives_root_steps_1_to_31():
    from repro.problems import PrimordialCollapse

    run = PrimordialCollapse(
        n_root=16, max_level=2, z_init=100.0, seed=7, amplitude_boost=4.0,
        jeans_number=4.0, mass_refine_factor=8.0, with_chemistry=True,
        with_dark_matter=True, max_dims=16)
    run.initial_rebuild()
    evolver = run.evolver
    t_end = run.code_time_of_redshift(20.0)
    for step in range(1, ROOT_STEPS + 1):
        assert evolver.advance_root_step(t_end) is not None, (
            f"the run reached z = 20 before root step {step}")
