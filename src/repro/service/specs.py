"""Run specs: the one input every launcher builds a run from.

A run spec is the complete, self-contained recipe for a run::

    {"problem": "collapse",            # any C-flagged `repro problems` name
     "kwargs": {"n_root": 8, ...},     # the problem's constructor kwargs
     "z_end": 80.0,                    # stop redshift (collapse), or
     "t_end": 0.5,                     # stop time in code units
     "max_steps": 40,                  # root-step budget (optional)
     "max_wall_seconds": 3600,         # wall budget, enforced daemon-side
     "checkpoint_every": 2,            # checkpoint cadence
     "keep_last": 3,                   # checkpoint retention
     "preset": "blob",                 # simulation: named initial state
     "preset_args": {"seed": 3},       #   (specs must be pure JSON)
     "faults": "nan_cell:level=0,...", # chaos gate (subprocess runs only)
     "fault_seed": 7}

Minus the budget keys it is also what every ``make_controller`` stores as
the checkpointed ``RunState.config``.  :func:`build_job` is the only
function that turns one into a problem and its controller: ``repro run``
translates its flags into a spec, ``repro resume`` reads the spec back
from the newest checkpoint, and the service's launchers (in-process and
the ``repro service-worker`` subprocess) hand over what the client
submitted.  A run preempted under one of them therefore resumes
identically under any other.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.checkpoint_policy import CheckpointPolicy


class SpecError(ValueError):
    """A run spec the service cannot build a problem from."""


# ------------------------------------------------------------------ presets
def _preset_blob(sim, args: dict) -> None:
    """Self-gravitating Gaussian overdensity with a cold particle cloud —
    the small deterministic workload the runtime tests evolve."""
    amplitude = float(args.get("amplitude", 10.0))
    width = float(args.get("width", 0.01))
    centre = args.get("centre", (0.5, 0.5, 0.5))
    cx, cy, cz = (float(c) for c in centre)
    sim.set_density(lambda x, y, z: 1 + amplitude * np.exp(
        -((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / width))
    sim.set_field("internal", lambda x, y, z: np.full_like(
        x, float(args.get("internal", 0.05))))
    n_particles = int(args.get("n_particles", 0))
    if n_particles > 0:
        from repro.nbody.particles import ParticleSet

        rng = np.random.default_rng(int(args.get("seed", 3)))
        sim.hierarchy.particles = ParticleSet.from_arrays(
            rng.random((n_particles, 3)),
            0.01 * rng.standard_normal((n_particles, 3)),
            np.full(n_particles, 1e-3),
        )


PRESETS = {"blob": _preset_blob}


# -------------------------------------------------------------------- build
def launchable(name: str):
    """The registry entry of a problem a run spec may name (aliases resolve)."""
    from repro.validation import get_problem

    try:
        entry = get_problem(name)
    except KeyError as exc:
        raise SpecError(exc.args[0]) from None
    if not entry.controllable:
        raise SpecError(
            f"problem {entry.name!r} does not support run control; "
            f"use 'repro validate --problem {entry.name}' instead")
    return entry


def build_job(spec: dict, run_dir: str, fresh: bool = True):
    """Build ``(problem, controller, t_end)`` from a run spec.

    ``fresh`` says whether the run starts from its initial conditions; a
    resume skips building them (the checkpoint replaces the hierarchy) and
    gets ``t_end = None`` (the checkpoint carries the stop time).
    Otherwise ``t_end`` is in code time.  Raises :class:`SpecError` on
    anything unbuildable.
    """
    entry = launchable(str(spec.get("problem")))
    try:
        problem = entry.factory(**spec.get("kwargs", {}))
    except (TypeError, ValueError) as exc:
        # unknown kwargs, or a value the problem refuses (an exec backend
        # or kernel tier that does not exist)
        raise SpecError(f"problem {entry.name!r}: {exc}") from exc
    z_end, t_end = spec.get("z_end"), None
    if fresh:
        # the stop time, resolved by the problem: a redshift through its
        # cosmology, else the spec's code time, else the problem's default
        t_end = spec.get("t_end")
        if z_end is not None:
            if not hasattr(problem, "code_time_of_redshift"):
                raise SpecError(f"problem {entry.name!r} has no redshift: "
                                f"give t_end, not z_end")
            t_end = problem.code_time_of_redshift(float(z_end))
        elif t_end is None:
            t_end = getattr(problem, "default_t_end", None)
        if t_end is None:
            raise SpecError(f"{entry.name} spec needs z_end or t_end")
        t_end = float(t_end)
        preset = spec.get("preset")
        if preset is not None:
            fn = PRESETS.get(preset)
            if fn is None:
                raise SpecError(
                    f"unknown preset {preset!r}; have {sorted(PRESETS)}")
            fn(problem, dict(spec.get("preset_args", {})))
        if entry.fresh_start:
            getattr(problem, entry.fresh_start)()
    # a redshift stop is part of the config the controller stores
    redshift = {} if z_end is None else {"z_end": float(z_end)}
    policy = CheckpointPolicy(
        every_steps=int(spec.get("checkpoint_every", 2)),
        keep_last=int(spec.get("keep_last", 3)))
    controller = problem.make_controller(run_dir, policy=policy, **redshift)
    return problem, controller, t_end


class RunJob:
    """One RUNNING episode of a registered run (fresh start or resume).

    Thin ownership wrapper: builds the problem/controller pair lazily in
    :meth:`execute` (construction does real work — initial conditions,
    hierarchy rebuild) but accepts :meth:`request_drain` at any time, so
    a preemption that lands during construction still drains at the first
    root-step boundary.
    """

    def __init__(self, spec: dict, run_dir: str):
        self.spec = dict(spec)
        self.run_dir = str(run_dir)
        self.controller = None
        self._drain_reason: str | None = None

    def request_drain(self, reason: str = "preempt") -> None:
        self._drain_reason = str(reason)
        if self.controller is not None:
            self.controller.request_drain(reason)

    def execute(self) -> dict:
        """Run to completion, budget, or drain; returns the result record.

        ``outcome`` is ``"done"`` (finished or hit the step budget),
        ``"preempted"`` (drained to checkpoint) or ``"failed"``; the
        hierarchy fingerprint is included so clients can compare a
        preempted-and-resumed trajectory against an uninterrupted one
        without reloading checkpoints.
        """
        from repro.runtime.recovery import RunFailedError
        from repro.runtime.supervision import HeartbeatWriter

        # liveness during construction: initial conditions + the first
        # hierarchy rebuild can take a while, and a worker that wedges
        # there must still look alive-then-stalled to the supervisor
        HeartbeatWriter(self.run_dir).beat(phase="build", force=True)
        fresh = CheckpointPolicy.latest(self.run_dir) is None
        _problem, controller, t_end = build_job(self.spec, self.run_dir, fresh)
        self.controller = controller
        if self._drain_reason is not None:
            controller.request_drain(self._drain_reason)
        max_steps = self.spec.get("max_steps")
        try:
            if fresh:
                summary = controller.run(t_end, max_root_steps=max_steps)
            else:
                summary = controller.resume()
        except RunFailedError as exc:
            return {"outcome": "failed", "error": str(exc),
                    "steps": controller.step,
                    "recoveries": controller.recoveries}
        outcome = ("preempted" if summary["status"] == "interrupted"
                   else "done")
        result = {
            "outcome": outcome,
            "status": summary["status"],
            "steps": summary["steps"],
            "t": summary["t"],
            "recoveries": summary["recoveries"],
            "wall": summary["wall"],
            "fingerprint": controller.hierarchy.fingerprint(),
        }
        if "drain" in summary:
            result["drain"] = summary["drain"]
        if "signal" in summary:
            result["signal"] = summary["signal"]
        return result
