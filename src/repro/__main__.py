"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info        — package/subsystem summary
problems    — list the registered problems and their capabilities
validate    — convergence harness: fitted error orders vs analytic or
              self-converged reference (docs/VALIDATION.md)
inspect F   — summarise a checkpoint file
run         — a registered problem (default: primordial collapse) under
              run control (checkpoints, crash recovery, JSONL
              telemetry); survives SIGTERM
resume      — continue an interrupted/crashed run bit-exactly from its
              newest loadable checkpoint
tail D      — summarise a run directory's telemetry stream (``-f`` to
              follow it live)
service     — multi-tenant run service: ``start`` a daemon, then
              ``submit``/``ps``/``cancel``/``preempt``/``logs``/``wait``/
              ``stop`` against its root directory (see docs/SERVICE.md)
"""

from __future__ import annotations

import argparse
import os
import sys


def cmd_info(args) -> int:
    import repro

    print(f"repro {repro.__version__} — Enzo-style cosmological AMR")
    print("reproduction of Bryan, Abel & Norman (SC2001)")
    subsystems = [
        ("repro.amr", "structured AMR hierarchy, EvolveLevel W-cycle"),
        ("repro.hydro", "PPM + ZEUS solvers, HLLC/two-shock/exact Riemann"),
        ("repro.gravity", "FFT + multigrid Poisson"),
        ("repro.nbody", "adaptive particle-mesh dark matter"),
        ("repro.chemistry", "12-species primordial network + cooling"),
        ("repro.cosmology", "Friedmann, P(k), Zel'dovich ICs, top-hat"),
        ("repro.precision", "double-double extended precision"),
        ("repro.parallel", "simulated cluster: sterile objects, pipelining"),
        ("repro.exec", "execution engine: per-grid tasks, serial or threads"),
        ("repro.analysis", "profiles, zooms, halos, Jacques"),
        ("repro.perf", "component timers, op counting"),
        ("repro.io", "checkpoint/restart"),
        ("repro.runtime", "run control: atomic checkpoints, recovery, telemetry"),
    ]
    for mod, desc in subsystems:
        print(f"  {mod:<18s} {desc}")
    from repro import kernels

    lanes = kernels.lanes()
    print(f"kernel tiers: {', '.join(kernels.available_backends())}"
          + (f" (compiled lanes: {lanes})" if lanes else ""))
    return 0


def cmd_problems(args) -> int:
    """List the registered problems (``repro run --problem ...`` names)."""
    from repro.validation import list_problems

    print(f"{'NAME':<20}{'FLAGS':<8}{'RESOLUTIONS':<14}DESCRIPTION")
    for spec in list_problems():
        flags = "".join([
            "M" if spec.measurable else "-",
            "A" if spec.analytic else "-",
            "C" if spec.controllable else "-",
        ])
        res = ",".join(str(n) for n in spec.default_resolutions) or "-"
        desc = spec.description
        if spec.aliases:
            desc += f"  (aliases: {', '.join(spec.aliases)})"
        print(f"{spec.name:<20}{flags:<8}{res:<14}{desc}")
    print("\nflags: M = measurable (convergence harness), "
          "A = analytic reference, C = launchable from a run spec "
          "('repro run --problem', service specs)")
    return 0


def cmd_validate(args) -> int:
    """Run the convergence harness on a problem and report fitted orders."""
    import json

    from repro.validation import run_convergence

    resolutions = tuple(args.resolutions) if args.resolutions else None
    fields = args.fields.split(",") if args.fields else None
    report = run_convergence(
        args.problem, resolutions=resolutions, fields=fields,
        t_end=args.t_end,
    )
    print(f"{report.problem}: {report.mode} convergence at "
          f"n = {', '.join(str(n) for n in report.resolutions)} "
          f"(t_end = {report.t_end})")
    for fname in report.fields:
        rows = report.norms[fname]
        errs = "  ".join(f"{row['l1']:.3e}" for row in rows)
        print(f"  {fname:<14} L1 = {errs}   order = "
              f"{report.order(fname):.2f}")
    if args.out:
        report.save(args.out)
        print(f"report written: {args.out}")
    if args.floor is not None:
        worst = min(report.order(f) for f in report.fields)
        ok = worst >= args.floor
        print(f"floor check: min order {worst:.2f} "
              f"{'>=' if ok else '<'} {args.floor}")
        return 0 if ok else 1
    return 0


def cmd_inspect(args) -> int:
    from repro.io import checkpoint_info

    info = checkpoint_info(args.file)
    for key, val in info.items():
        if isinstance(val, float):
            print(f"{key:<16s} {val:.6g}")
        else:
            print(f"{key:<16s} {val}")
    return 0


def cmd_chk_verify(args) -> int:
    from repro.io.checkpoint import verify_run_dir

    report = verify_run_dir(args.dir, quarantine=args.quarantine,
                            strict=args.strict)
    if not report["checked"]:
        print(f"no checkpoint pairs in {args.dir}")
        return 0
    for entry in report["checked"]:
        line = f"chk_{entry['step']:07d}  {entry['status']}"
        if entry["detail"]:
            line += f"  ({entry['detail']})"
        print(line)
    n_bad = len(report["corrupt"])
    print(f"{len(report['checked'])} pair(s) checked, {n_bad} corrupt"
          + (f", {len(report['quarantined'])} quarantined"
             if args.quarantine else ""))
    return 1 if n_bad else 0


def _report_run(out: dict) -> int:
    print(f"status = {out['status']}  steps = {out['steps']}  "
          f"t = {out['t']:.6g}  recoveries = {out['recoveries']}  "
          f"wall = {out['wall']:.1f}s  dir = {out['run_dir']}")
    return 2 if out["status"] == "interrupted" else 0


def _apply_process_flags(args) -> None:
    """Apply ``--kernels`` before any physics runs.

    The kernel tier goes through :func:`repro.kernels.set_backend` with env
    export, so child processes spawned later inherit it; an unavailable
    compiled backend degrades to numpy with a warning rather than failing
    the run.
    """
    if args.kernels:
        from repro import kernels

        kernels.set_backend(args.kernels)


def _given(flags: dict) -> dict:
    return {key: val for key, val in flags.items() if val is not None}


def _fault_flags(args) -> dict:
    """``--faults`` / ``--fault-seed`` as run-spec keys (never checkpointed)."""
    return _given({"faults": args.faults, "fault_seed": args.fault_seed})


def cmd_run(args) -> int:
    """Flags -> run spec -> ``build_job`` -> ``controller.run``."""
    from repro.service.specs import SpecError, build_job, launchable

    _apply_process_flags(args)
    try:
        entry = launchable(args.problem)
        flags = {entry.size_arg: args.n, "max_level": args.levels,
                 "with_chemistry": False if args.no_chemistry else None,
                 "exec_backend": args.exec_backend, "workers": args.workers}
        stop = {"z_end": args.z_end, "t_end": args.t_end}
        spec = {
            "problem": entry.name,
            "kwargs": {**entry.factory_kwargs, **_given(flags)},
            **(_given(stop) or entry.run_kwargs),
            "checkpoint_every": args.checkpoint_every,
            "keep_last": args.keep_last,
            **_fault_flags(args),
        }
        _problem, controller, t_end = build_job(
            spec, args.dir or f"runs/{entry.name}")
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 1
    return _report_run(controller.run(t_end, max_root_steps=args.max_steps))


def cmd_resume(args) -> int:
    """Checkpointed config (+ overrides) -> ``build_job`` -> ``controller.resume``."""
    from repro.runtime import CheckpointPolicy, RunState
    from repro.service.specs import SpecError, build_job

    _apply_process_flags(args)
    latest = CheckpointPolicy.latest(args.dir)
    if latest is None:
        print(f"no checkpoint found in {args.dir!r}", file=sys.stderr)
        return 1
    spec = dict(RunState.load(latest[2]).config or {})
    if not spec.get("problem"):
        print("checkpoint carries no rebuildable problem config",
              file=sys.stderr)
        return 1
    # the exec backend does not affect results (bitwise identical), so a
    # resume may freely override what the original run used
    overrides = {"exec_backend": args.exec_backend, "workers": args.workers}
    spec["kwargs"] = {**spec.get("kwargs", {}), **_given(overrides)}
    spec.update(checkpoint_every=args.checkpoint_every,
                keep_last=args.keep_last, **_fault_flags(args))
    try:
        _problem, controller, _ = build_job(spec, args.dir, fresh=False)
    except SpecError as exc:
        print(f"checkpoint config: {exc}", file=sys.stderr)
        return 1
    return _report_run(controller.resume(max_root_steps=args.max_steps))


def _follow_and_print(path: str) -> int:
    """Shared ``-f`` loop for ``tail`` and ``service logs``."""
    from repro.runtime.telemetry import follow_events, format_events

    try:
        for record in follow_events(path, from_start=False):
            print(format_events([record]))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_tail(args) -> int:
    from repro.runtime import telemetry_path
    from repro.runtime.telemetry import format_events, read_events, summarise

    path = args.dir
    if os.path.isdir(path):
        path = telemetry_path(path)
    if not os.path.exists(path) and not args.follow:
        print(f"no telemetry at {path!r}", file=sys.stderr)
        return 1
    events = read_events(path) if os.path.exists(path) else []
    shown = events[-args.n:]
    if len(events) > len(shown):
        print(f"... ({len(events) - len(shown)} earlier events)")
    if shown:
        print(format_events(shown))
    if args.follow:
        return _follow_and_print(path)
    s = summarise(path)
    line = (f"-- {s['steps']} steps, {s['checkpoints']} checkpoints, "
            f"{s['recoveries']} recoveries, lifecycle: "
            f"{' -> '.join(s['lifecycle']) or 'none'}")
    if "t" in s:
        line += f"; t = {s['t']:.6g}, grids = {s['grids']}, cells = {s['cells']}"
    print(line)
    return 0


# ------------------------------------------------------------------ service
def _load_spec_arg(args) -> dict:
    import json

    if getattr(args, "spec_json", None):
        return json.loads(args.spec_json)
    if not getattr(args, "spec", None):
        raise SystemExit("submit needs --spec FILE or --spec-json STRING")
    with open(args.spec, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_service_start(args) -> int:
    from repro.runtime.supervision import SupervisionPolicy
    from repro.service import RunService

    if args.no_supervision:
        supervision = False
    else:
        supervision = SupervisionPolicy(
            deadline_ceiling=args.stall_ceiling,
            grace_seconds=args.stall_grace,
            max_strikes=args.max_strikes,
        )
    service = RunService(args.root, total_workers=args.workers,
                         launcher=args.launcher,
                         tick_interval=args.tick_interval,
                         supervision=supervision)
    print(f"run service on {args.root}: {args.workers} workers, "
          f"{args.launcher} launcher (ctrl-c or 'repro service stop' "
          f"to shut down)")
    service.serve_forever()
    return 0


def cmd_service_submit(args) -> int:
    from repro.service import ServiceClient

    spec = _load_spec_arg(args)
    client = ServiceClient(args.root)
    run_id = client.submit(spec, tenant=args.tenant,
                           priority=args.priority, workers=args.workers)
    print(run_id)
    if args.wait:
        entries = client.wait(run_id, timeout=args.timeout)
        entry = entries[run_id]
        print(f"{run_id}: {entry['state']}"
              + (f" ({entry['result'].get('outcome')})"
                 if entry.get("result") else ""))
        return 0 if entry["state"] == "DONE" else 1
    return 0


def cmd_service_ps(args) -> int:
    from repro.service import ServiceClient

    reply = ServiceClient(args.root).ps()
    workers = reply["workers"]
    print(f"workers: {workers['in_use']}/{workers['total']} in use")
    header = (f"{'RUN':<9}{'STATE':<11}{'TENANT':<12}{'PRI':>4}"
              f"{'WRK':>4}{'ATT':>4}{'PRE':>4}{'POS':>4}{'ETA':>8}"
              f"{'HB':>7}  NOTE")
    print(header)
    for entry in reply["runs"]:
        note = entry.get("note", "")
        pos = entry.get("queue_position")
        eta = entry.get("eta_seconds")
        age = entry.get("heartbeat_age_seconds")
        if entry.get("held_seconds") is not None:
            note = (note + f" held {entry['held_seconds']}s").strip()
        print(f"{entry['run']:<9}{entry['state']:<11}"
              f"{entry['tenant']:<12}{entry['priority']:>4}"
              f"{entry['workers']:>4}{entry['attempts']:>4}"
              f"{entry['preemptions']:>4}"
              f"{pos if pos is not None else '-':>4}"
              f"{f'{eta:.0f}s' if eta is not None else '-':>8}"
              f"{f'{age:.1f}s' if age is not None else '-':>7}"
              f"  {note}")
    return 0


def cmd_service_cancel(args) -> int:
    from repro.service import ServiceClient

    reply = ServiceClient(args.root).cancel(args.run)
    print(f"{args.run}: {reply.get('state')}"
          + (" (draining)" if reply.get("draining") else ""))
    return 0


def cmd_service_preempt(args) -> int:
    from repro.service import ServiceClient

    ServiceClient(args.root).preempt(args.run)
    print(f"{args.run}: draining to checkpoint")
    return 0


def cmd_service_logs(args) -> int:
    from repro.runtime.telemetry import format_events
    from repro.service import ServiceClient

    reply = ServiceClient(args.root).logs(args.run, n=args.n)
    if reply["total"] > len(reply["events"]):
        print(f"... ({reply['total'] - len(reply['events'])} "
              f"earlier events)")
    if reply["events"]:
        print(format_events(reply["events"]))
    if args.follow:
        return _follow_and_print(reply["path"])
    return 0


def cmd_service_wait(args) -> int:
    from repro.service import ServiceClient

    entries = ServiceClient(args.root).wait(args.runs, timeout=args.timeout)
    bad = 0
    for run_id in args.runs:
        entry = entries[run_id]
        print(f"{run_id}: {entry['state']}")
        if entry["state"] != "DONE":
            bad += 1
    return 1 if bad else 0


def cmd_service_stop(args) -> int:
    from repro.service import ServiceClient

    ServiceClient(args.root).shutdown()
    print("service stopping (live runs drain to checkpoint)")
    return 0


def cmd_service_worker(args) -> int:
    """Internal: one RUNNING episode, spawned by the subprocess launcher.

    Exit codes: 0 done, 2 preempted (drained to checkpoint), 3 failed.
    The result record is dropped atomically next to the controller dir so
    the daemon reads either nothing or a complete record, never a torn
    one.  The episode number comes from the ``state.json`` next to the
    spec, which the daemon commits (RUNNING, ``attempts`` counted) before
    it launches the worker.
    """
    import json

    from repro.service.launcher import result_path
    from repro.service.registry import atomic_write_json
    from repro.service.specs import RunJob

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    attempt = None
    state = os.path.join(os.path.dirname(args.spec), "state.json")
    if os.path.exists(state):
        with open(state, encoding="utf-8") as fh:
            attempt = json.load(fh).get("attempts")
    job = RunJob(spec, args.run_dir, attempt)
    try:
        result = job.execute()
    except KeyboardInterrupt:
        # SIGINT landed before the controller installed its SignalGuard
        # (problem construction); there is no checkpoint yet, so the
        # daemon will requeue and the next episode starts fresh
        result = {"outcome": "preempted", "status": "interrupted",
                  "drain": "signal before first step"}
    except Exception as exc:
        result = {"outcome": "failed", "error": repr(exc)}
    atomic_write_json(result_path(args.run_dir), result)
    return {"done": 0, "preempted": 2}.get(result.get("outcome"), 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package summary").set_defaults(fn=cmd_info)

    p = sub.add_parser("problems", help="list registered problems")
    p.set_defaults(fn=cmd_problems)

    p = sub.add_parser(
        "validate",
        help="convergence harness: run a problem at several resolutions "
             "and fit the L1/L2/Linf error orders (docs/VALIDATION.md)")
    p.add_argument("--problem", default="shock_tube")
    p.add_argument("-r", "--resolutions", type=int, nargs="+", default=None,
                   help="grid sizes, ascending (default: the problem's)")
    p.add_argument("--fields", default=None,
                   help="comma-separated fields (default: the problem's)")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--floor", type=float, default=None,
                   help="exit nonzero unless every fitted L1 order "
                        "reaches this")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("inspect", help="summarise a checkpoint")
    p.add_argument("file")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser(
        "chk", help="checkpoint maintenance (see docs/RUNTIME.md)")
    chk = p.add_subparsers(dest="chk_command", required=True)
    q = chk.add_parser(
        "verify", help="scrub a run directory's checkpoint pairs against "
                       "their sha256 sidecars")
    q.add_argument("dir", help="run directory")
    q.add_argument("--quarantine", action="store_true",
                   help="rename corrupt pairs out of recovery's sight "
                        "(*.quarantine) instead of just reporting them")
    q.add_argument("--strict", action="store_true",
                   help="treat a missing digest sidecar as a failure "
                        "(pre-digest checkpoints pass by default)")
    q.set_defaults(fn=cmd_chk_verify)

    # allow_abbrev off: '--keep' must not reach '--keep-last' as a prefix
    p = sub.add_parser(
        "run", allow_abbrev=False,
        help="a registered problem under fault-tolerant run control "
             "(default: primordial collapse)")
    p.add_argument("--problem", default="collapse",
                   help="registry name ('repro problems' lists them; "
                        "needs the C flag)")
    p.add_argument("-n", type=int, default=None,
                   help="root-grid size (default: the problem's own)")
    p.add_argument("--levels", type=int, default=None,
                   help="refinement depth cap, the problem's max_level "
                        "(default: the problem's own)")
    p.add_argument("--z-end", type=float, default=None,
                   help="stop redshift (collapse; default 80)")
    p.add_argument("--t-end", type=float, default=None,
                   help="stop time in code units "
                        "(default: the problem's own)")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--no-chemistry", action="store_true")
    p.add_argument("--dir", default=None,
                   help="run directory: telemetry.jsonl, checkpoints and "
                        "run state live here (default: runs/<problem>)")
    p.add_argument("--checkpoint-every", type=int, default=5,
                   help="root steps between checkpoints")
    p.add_argument("--keep-last", type=int, default=3,
                   help="rotated checkpoint pairs to retain (the pair a "
                        "resumed run restarted from is pinned until a "
                        "newer one lands)")
    p.add_argument("--exec-backend", default=None,
                   choices=["serial", "thread"],
                   help="per-grid execution backend "
                        "(default: REPRO_EXEC_BACKEND or serial)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the thread backend "
                        "(default: REPRO_WORKERS or CPU count)")
    p.add_argument("--kernels", default=None,
                   choices=["numpy", "cffi", "auto"],
                   help="inner-loop kernel tier (default: REPRO_KERNELS or "
                        "numpy; results are backend-independent, see "
                        "docs/PERFORMANCE.md)")
    p.add_argument("--faults", default=None,
                   help="chaos-test fault spec for this run, e.g. "
                        "'nan_cell:level=1,grid=3,count=2;mg_diverge:level=1' "
                        "(syntax in docs/ROBUSTNESS.md)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="RNG seed for fault payloads (default 0)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "resume", allow_abbrev=False,
        help="continue a run from its newest loadable checkpoint")
    p.add_argument("--dir", required=True, help="run directory")
    p.add_argument("--max-steps", type=int, default=None,
                   help="override the stored root-step budget")
    p.add_argument("--checkpoint-every", type=int, default=5)
    p.add_argument("--keep-last", type=int, default=3)
    p.add_argument("--exec-backend", default=None,
                   choices=["serial", "thread"],
                   help="override the execution backend for the resumed run "
                        "(results are backend-independent)")
    p.add_argument("--workers", type=int, default=None,
                   help="override the worker count for the resumed run")
    p.add_argument("--kernels", default=None,
                   choices=["numpy", "cffi", "auto"],
                   help="override the kernel tier for the resumed run "
                        "(results are backend-independent)")
    p.add_argument("--faults", default=None,
                   help="chaos-test fault spec for the resumed episode "
                        "(syntax in docs/ROBUSTNESS.md)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="RNG seed for fault payloads (default 0)")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("tail", help="summarise a run's telemetry stream")
    p.add_argument("dir", help="run directory or telemetry.jsonl path")
    p.add_argument("-n", type=int, default=12, help="events to show")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep printing records as they are appended")
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser(
        "service", help="multi-tenant run service (see docs/SERVICE.md)")
    svc = p.add_subparsers(dest="service_command", required=True)

    q = svc.add_parser("start", help="run the daemon in the foreground")
    q.add_argument("--root", required=True, help="service root directory")
    q.add_argument("--workers", type=int, default=4,
                   help="shared worker budget the scheduler packs into")
    q.add_argument("--launcher", default="subprocess",
                   choices=["subprocess", "inprocess"],
                   help="run episodes as child processes (isolated, "
                        "default) or daemon threads")
    q.add_argument("--tick-interval", type=float, default=0.05,
                   help="seconds between scheduling rounds")
    q.add_argument("--no-supervision", action="store_true",
                   help="disable external stall/budget enforcement")
    q.add_argument("--stall-ceiling", type=float, default=900.0,
                   help="max seconds without a heartbeat before a run "
                        "is drained as stalled (see docs/ROBUSTNESS.md)")
    q.add_argument("--stall-grace", type=float, default=10.0,
                   help="seconds between the soft drain and the hard kill")
    q.add_argument("--max-strikes", type=int, default=3,
                   help="stall strikes before a run is quarantined")
    q.set_defaults(fn=cmd_service_start)

    q = svc.add_parser("submit", help="queue a run spec")
    q.add_argument("--root", required=True)
    q.add_argument("--spec", default=None, help="run spec JSON file")
    q.add_argument("--spec-json", default=None,
                   help="run spec as an inline JSON string")
    q.add_argument("--tenant", default="default")
    q.add_argument("--priority", type=int, default=0,
                   help="larger = more important; may preempt strictly "
                        "lower priorities")
    q.add_argument("--workers", type=int, default=1,
                   help="worker slots this run occupies while RUNNING")
    q.add_argument("--wait", action="store_true",
                   help="block until the run reaches a terminal state")
    q.add_argument("--timeout", type=float, default=600.0)
    q.set_defaults(fn=cmd_service_submit)

    q = svc.add_parser("ps", help="list runs and the worker budget")
    q.add_argument("--root", required=True)
    q.set_defaults(fn=cmd_service_ps)

    q = svc.add_parser("cancel", help="cancel a run (drains if RUNNING)")
    q.add_argument("--root", required=True)
    q.add_argument("run")
    q.set_defaults(fn=cmd_service_cancel)

    q = svc.add_parser(
        "preempt", help="drain a RUNNING run to checkpoint (resumable)")
    q.add_argument("--root", required=True)
    q.add_argument("run")
    q.set_defaults(fn=cmd_service_preempt)

    q = svc.add_parser("logs", help="show a run's telemetry")
    q.add_argument("--root", required=True)
    q.add_argument("run")
    q.add_argument("-n", type=int, default=20)
    q.add_argument("-f", "--follow", action="store_true",
                   help="keep printing records as they are appended")
    q.set_defaults(fn=cmd_service_logs)

    q = svc.add_parser("wait", help="block until runs are terminal")
    q.add_argument("--root", required=True)
    q.add_argument("runs", nargs="+")
    q.add_argument("--timeout", type=float, default=600.0)
    q.set_defaults(fn=cmd_service_wait)

    q = svc.add_parser("stop", help="shut the daemon down (runs drain)")
    q.add_argument("--root", required=True)
    q.set_defaults(fn=cmd_service_stop)

    p = sub.add_parser("service-worker")  # internal: launched by the daemon
    p.add_argument("--run-dir", required=True)
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=cmd_service_worker)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
