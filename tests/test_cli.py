"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main
from repro.io import load_hierarchy
from repro.runtime import CheckpointPolicy, RunState
from repro.service.specs import RunJob
from repro.validation import list_problems

COLLAPSE = ["-n", "8", "--levels", "1", "--z-end", "80", "--no-chemistry"]

#: every launchable problem: the ``repro run`` flags, the run spec they
#: translate to, and the config the parent commit's ``repro run`` stored in
#: its checkpoints (the format old run directories resume from)
LAUNCH = {
    "collapse": (
        COLLAPSE,
        {"kwargs": {"n_root": 8, "max_level": 1, "with_chemistry": False,
                    "mass_refine_factor": 8.0}, "z_end": 80.0},
        {"problem": "collapse", "kwargs": {
            "n_root": 8, "box_kpc": 256.0, "z_init": 100.0, "seed": 7,
            "max_level": 1, "jeans_number": 4.0, "static_levels": 0,
            "amplitude_boost": 4.0, "with_chemistry": False,
            "with_dark_matter": True, "mass_refine_factor": 8.0,
            "region_left": [0.25, 0.25, 0.25],
            "region_right": [0.75, 0.75, 0.75], "cfl": 0.4, "max_dims": 16,
            "exec_backend": None, "workers": None}, "z_end": 80.0},
    ),
    "sedov": (
        ["-n", "16", "--t-end", "0.02"],
        {"kwargs": {"n_root": 16}, "t_end": 0.02},
        {"problem": "sedov", "kwargs": {
            "n_root": 16, "energy": 1.0, "rho0": 1.0, "e_ambient": 1e-06,
            "deposit_radius_cells": 3.5, "max_level": 0,
            "refine_shock": None, "solver": "ppm", "cfl": 0.4,
            "characteristic_tracing": True, "n_scalars": 0,
            "exec_backend": None, "workers": None, "max_grid_dims": 16}},
    ),
    "kelvin_helmholtz": (
        ["-n", "8", "--t-end", "0.05"],
        {"kwargs": {"n_root": 8}, "t_end": 0.05},
        {"problem": "kelvin_helmholtz", "kwargs": {
            "n_root": 8, "rho_inner": 2.0, "rho_outer": 1.0, "u_flow": 1.0,
            "pressure": 2.5, "shear_width": 0.05, "perturb": 0.05, "kx": 1,
            "n_scalars": 1, "max_level": 0, "refine_vorticity": None,
            "solver": "ppm", "cfl": 0.4, "characteristic_tracing": True,
            "exec_backend": None, "workers": None, "max_grid_dims": 16}},
    ),
    "simulation": (
        ["-n", "8", "--levels", "1", "--t-end", "0.5"],
        {"kwargs": {"n_root": 8, "max_level": 1}, "t_end": 0.5},
        {"problem": "simulation", "kwargs": {
            "n_root": 8, "max_level": 1, "refine_factor": 2, "solver": "ppm",
            "solver_options": {}, "cfl": 0.4, "self_gravity": False,
            "g_code": 1.0, "refine_overdensity": None,
            "refine_gas_mass": None, "jeans_number": None,
            "refine_shock": None, "refine_vorticity": None, "advected": [],
            "n_scalars": 0, "max_grid_dims": 16, "exec_backend": None,
            "workers": None, "kernels": None,
            "checkpoint_every": 10, "checkpoint_keep_last": 3}},
    ),
}


def _fingerprint(run_dir):
    return load_hierarchy(CheckpointPolicy.latest(run_dir)[1]).fingerprint()


def _run(problem, flags, run_dir, steps):
    return main(["run", "--problem", problem, *flags, "--dir", run_dir,
                 "--max-steps", str(steps)])


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro.amr" in out
        assert "SC2001" in out
        assert "kernel tiers: numpy" in out

    def test_collapse_quick(self, tmp_path, capsys):
        assert _run("collapse", COLLAPSE, str(tmp_path / "run"), 8) == 0
        assert "status = max_steps  steps = 8" in capsys.readouterr().out

    def test_collapse_with_checkpoint_and_inspect(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert _run("collapse", COLLAPSE, run_dir, 4) == 0
        capsys.readouterr()
        assert main(["inspect", f"{run_dir}/chk_0000004.npz"]) == 0
        out = capsys.readouterr().out
        assert "n_grids" in out

    def test_inspect_prints_hierarchy_wide_fields(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert _run("collapse", COLLAPSE, run_dir, 2) == 0
        capsys.readouterr()
        assert main(["inspect", f"{run_dir}/chk_0000002.npz"]) == 0
        out = capsys.readouterr().out
        for field in ("deepest_level", "finest_dx", "total_cells", "sdr"):
            assert field in out

    def test_run_resume_tail(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        rc = main(["run", "-n", "8", "--levels", "1", "--z-end", "80",
                   "--max-steps", "3", "--no-chemistry",
                   "--dir", run_dir, "--checkpoint-every", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status = max_steps" in out
        # telemetry is valid JSONL with one step record per root step
        import json

        with open(f"{run_dir}/telemetry.jsonl") as fh:
            events = [json.loads(line) for line in fh]
        assert sum(e["event"] == "step" for e in events) == 3
        assert any("timers" in e for e in events if e["event"] == "step")

        assert main(["resume", "--dir", run_dir, "--max-steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "steps = 5" in out

        assert main(["tail", run_dir]) == 0
        out = capsys.readouterr().out
        assert "step" in out and "resume" in out and "checkpoints" in out

    def test_tail_missing_dir(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nothing")]) == 1

    def test_resume_missing_dir(self, tmp_path, capsys):
        assert main(["resume", "--dir", str(tmp_path / "nothing")]) == 1

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["sod"], ["pancake"], ["collapse"],
        ["run", "--telemetry", "x"], ["run", "--keep", "3"],
        ["resume", "--dir", "x", "--keep", "3"],
    ])
    def test_second_spellings_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("problem,message", [
        ("nonesuch", "unknown problem 'nonesuch' (known: collapse,"),
        ("shock_tube", "problem 'shock_tube' does not support run control"),
    ])
    def test_unlaunchable_problem_exits_1(self, problem, message, tmp_path,
                                          capsys):
        assert _run(problem, [], str(tmp_path / "run"), 1) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestExecBackendValues:
    """Only ``serial`` and ``thread`` exist; any other value, however it
    arrives, is refused with the same message."""

    @pytest.mark.parametrize("command", [["run"], ["resume", "--dir", "x"]])
    def test_flag_refuses_unknown_backend(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--exec-backend", "process"])
        assert exc.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

    @pytest.mark.parametrize("stale", ["process", "mpi"])
    def test_stored_unknown_backend_exits_1_and_override_resumes(
            self, stale, tmp_path, capsys):
        from repro.runtime.checkpoint_policy import write_digest

        flags = LAUNCH["simulation"][0]
        whole, split = str(tmp_path / "whole"), str(tmp_path / "split")
        assert _run("simulation", flags, whole, 3) == 0
        assert main(["run", "--problem", "simulation", *flags, "--dir", split,
                     "--max-steps", "1", "--checkpoint-every", "1"]) == 0
        # a run directory whose stored config names a backend that does
        # not exist (written by an older version, or edited by hand)
        state_path = CheckpointPolicy.latest(split)[2]
        state = RunState.load(state_path)
        state.config["kwargs"]["exec_backend"] = stale
        state.save(state_path)
        write_digest(state_path)
        capsys.readouterr()

        assert main(["resume", "--dir", split, "--max-steps", "3"]) == 1
        err = capsys.readouterr().err
        assert f"unknown exec backend {stale!r}" in err
        assert "('serial', 'thread')" in err
        assert "Traceback" not in err

        assert main(["resume", "--dir", split, "--max-steps", "3",
                     "--exec-backend", "thread", "--workers", "2"]) == 0
        assert RunState.load(CheckpointPolicy.latest(split)[2]).step == 3
        assert _fingerprint(split) == _fingerprint(whole)


class TestOneLauncher:
    """``run``, ``resume`` and the service build every run through
    ``build_job``: any spelling of the same spec is the same run."""

    def test_table_covers_every_launchable_problem(self):
        assert set(LAUNCH) == {e.name for e in list_problems()
                               if e.controllable}

    @pytest.mark.parametrize("alias", [
        alias for e in list_problems() if e.controllable
        for alias in e.aliases])
    def test_alias_launches_like_its_canonical_name(self, alias, tmp_path):
        from repro.validation import get_problem

        name = get_problem(alias).name
        flags = LAUNCH[name][0]
        for problem in (name, alias):
            assert _run(problem, flags, str(tmp_path / problem), 1) == 0
        assert _fingerprint(tmp_path / alias) == _fingerprint(tmp_path / name)
        stored = [RunState.load(CheckpointPolicy.latest(tmp_path / p)[2])
                  for p in (name, alias)]
        assert stored[0].config == stored[1].config

    @pytest.mark.parametrize("name", sorted(LAUNCH))
    def test_run_equals_run_then_resume_cli_and_service(self, name, tmp_path):
        flags, stop_and_kwargs, parent_config = LAUNCH[name]
        spec = {"problem": name, "max_steps": 3, "checkpoint_every": 1,
                **stop_and_kwargs}
        # CLI: 3 root steps at once == 1 step, then resume to 3
        whole, split = str(tmp_path / "whole"), str(tmp_path / "split")
        assert _run(name, flags, whole, 3) == 0
        assert _run(name, flags, split, 1) == 0
        first = RunState.load(CheckpointPolicy.latest(split)[2])
        assert first.step == 1
        assert first.config == parent_config  # old run dirs still resume
        assert main(["resume", "--dir", split, "--max-steps", "3"]) == 0
        assert RunState.load(CheckpointPolicy.latest(split)[2]).step == 3
        reference = _fingerprint(whole)
        assert _fingerprint(split) == reference
        # service: one episode == drained after one step, then a second
        job_whole, job_split = str(tmp_path / "jw"), str(tmp_path / "js")
        done = RunJob(spec, job_whole).execute()
        assert (done["outcome"], done["steps"]) == ("done", 3)
        job = RunJob(spec, job_split)
        job.request_drain("test")  # drains at the first step boundary
        assert job.execute()["outcome"] == "preempted"
        resumed = RunJob(spec, job_split).execute()
        assert (resumed["outcome"], resumed["steps"]) == ("done", 3)
        assert done["fingerprint"] == resumed["fingerprint"] == reference
        stored = RunState.load(CheckpointPolicy.latest(job_split)[2])
        assert stored.config == parent_config

    def test_service_resume_builds_no_initial_conditions(self, tmp_path,
                                                          monkeypatch):
        from repro.problems import PrimordialCollapse
        from repro.simulation import Simulation

        calls = []

        def count(cls, method):
            original = getattr(cls, method)

            def counted(self):
                calls.append(method)
                return original(self)

            monkeypatch.setattr(cls, method, counted)

        count(PrimordialCollapse, "initial_rebuild")
        count(Simulation, "initialize")
        for name in ("collapse", "simulation"):
            spec = {"problem": name, "max_steps": 2, **LAUNCH[name][1]}
            run_dir = str(tmp_path / name)
            job = RunJob(spec, run_dir)
            job.request_drain("test")
            assert job.execute()["outcome"] == "preempted"
            assert RunJob(spec, run_dir).execute()["outcome"] == "done"
        # once per problem: the fresh episode, not the resumed one
        assert calls == ["initial_rebuild", "initialize"]
