"""Measure one workload in this process and print its metrics.

    python3 benchmarks/e2e/run.py --workload sedov_amr --seed 7 \
        --seconds 30 --trace 0

``--trace 0`` repeats set-up + window and reports the end-to-end metrics
(medians over the reps); ``--trace 1`` runs one traced window, one
untraced and one under ``thread x 2`` and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  harness.py runs this
file once per workload and mode, each in a fresh child process.
"""

import time

_T0 = time.perf_counter()  # child start, as close as Python lets us see it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from unittest import mock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes lives here (ignored by git)
SCRATCH = os.path.join(ROOT, ".bench_build", "e2e")

ENV = {
    "REPRO_KERNELS": "auto",
    "REPRO_EXEC_BACKEND": "serial",
    "REPRO_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNELS_CACHE": os.path.join(SCRATCH, "kernels"),
}
THREAD_ENV = {"REPRO_EXEC_BACKEND": "thread", "REPRO_WORKERS": "2"}


def prepare_environment() -> None:
    """Pin the run configuration; must precede the first numpy import."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"e2e benchmark: no program to measure ({SRC}/repro missing)")
    for key in [k for k in os.environ if k.startswith("REPRO_FAULT")]:
        del os.environ[key]
    os.environ.update(ENV)
    os.makedirs(ENV["REPRO_KERNELS_CACHE"], exist_ok=True)
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def warm_kernels() -> tuple[str, float]:
    """Load (or, once per checkout, compile) the kernel tier.

    Returns (resolved tier, seconds spent *compiling*): a cached load is
    part of start-up, a compile is reported apart as ``kernel_build_s``.
    """
    import warnings

    from repro.kernels import dispatch

    cached = bool(glob.glob(os.path.join(ENV["REPRO_KERNELS_CACHE"], "*.so")))
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # `auto` probes numba first; its absence is expected here
        warnings.simplefilter("ignore", RuntimeWarning)
        tier = dispatch.active_backend()
        dispatch.warm()
    spent = time.perf_counter() - t0
    return tier, (0.0 if cached else spent)


def environment_record(tier: str) -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or commit
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "kernel_tier": tier,
        "exec_backend": ENV["REPRO_EXEC_BACKEND"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
    }


class CellUpdates:
    """``evolver.stats`` recorder counting interior cells x sub-steps.

    The evolver calls ``record_step`` once per level step; the level's
    grids are exactly the ones that step advanced (a rebuild only touches
    finer levels).  Forwards to the problem's own recorder.
    """

    def __init__(self, evolver):
        self.inner = evolver.stats
        self.count = 0
        evolver.stats = self

    def record_step(self, hierarchy, level, dt, time_now):
        self.count += sum(g.n_cells for g in hierarchy.level_grids(level))
        if hasattr(self.inner, "record_step"):
            self.inner.record_step(hierarchy, level, dt, time_now)

    def record_rebuild(self, hierarchy, level):
        if hasattr(self.inner, "record_rebuild"):
            self.inner.record_rebuild(hierarchy, level)


def set_up(wl, smoke: bool, run_dir: str, reference: bool) -> tuple:
    """Build the problem and take its warm-up root steps.

    Returns (problem, t_end, root gas mass, reference fingerprint or None,
    seconds spent on the reference pass, which are not set-up time).
    """
    from workloads import root_gas_mass

    warmup, window = wl.steps(smoke)
    first = wl.build(smoke)
    t_end = wl.t_end(first)
    evolver = wl.evolver(first)
    if not wl.controlled:
        for _ in range(warmup):
            wl.pre_step(first)
            evolver.advance_root_step(t_end)
        return first, t_end, root_gas_mass(evolver.hierarchy), None, 0.0
    # warm-up = a controlled run that leaves checkpoints; the window
    # resumes them in a problem built afresh, exactly as `repro resume` does
    wl.controller(first, run_dir).run(t_end, max_root_steps=warmup)
    mass = root_gas_mass(evolver.hierarchy)
    t_ref = time.perf_counter()
    fingerprint = None
    if reference:
        # run(N+M) == run(N) -> resume(M): carry the warm-up problem on,
        # uninterrupted, through the window's steps
        evolver.phase_hook = None  # its controller has returned
        for _ in range(window):
            wl.pre_step(first)
            evolver.advance_root_step(t_end)
        fingerprint = evolver.hierarchy.fingerprint()
    # the window's problem must be alone in memory (peak RSS)
    first = evolver = None
    gc.collect()
    reference_s = time.perf_counter() - t_ref
    return wl.construct(smoke), t_end, mass, fingerprint, reference_s


def run_rep(wl, smoke: bool, tracer=None, exec_env=None,
            reference: bool = False) -> dict:
    """One set-up and one window of ``wl``; never raises.

    An op is one root step of the window plus one correctness check; a
    step that raises (or a run that aborts) fails itself and every op
    after it.
    """
    from workloads import common_checks

    warmup, window = wl.steps(smoke)
    rep = {"attempted": window + 1, "failed": window + 1, "checks": []}
    run_dir = os.path.join(SCRATCH, "runs", f"{wl.name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    problem = evolver = None
    try:
        with mock.patch.dict(os.environ, exec_env or {}):
            t0 = time.perf_counter()
            problem, t_end, mass_before, expected, reference_s = set_up(
                wl, smoke, run_dir, reference)
            evolver = wl.evolver(problem)
            cells = CellUpdates(evolver)
            rep["setup_s"] = time.perf_counter() - t0 - reference_s
        tracing = (tracer.installed(evolver, wl.controlled) if tracer
                   else contextlib.nullcontext())
        done = 0
        with tracing:
            t1 = time.perf_counter()
            if wl.controlled:
                out = wl.controller(problem, run_dir).resume(
                    max_root_steps=warmup + window)
                # a rollback replays a step: the replayed step failed once
                done = out["steps"] - warmup - out["recoveries"]
            else:
                for _ in range(window):
                    wl.pre_step(problem)
                    if evolver.advance_root_step(t_end) is None:
                        break
                    done += 1
            rep["wall_s"] = time.perf_counter() - t1
        rep["failed"] = window - done + 1

        hierarchy = evolver.hierarchy
        rep["fingerprint"] = hierarchy.fingerprint()
        rep["cell_updates"] = cells.count
        rep["grids_per_level"] = hierarchy.grids_per_level()
        checks = common_checks(wl, hierarchy, mass_before)
        checks += wl.extra_checks(problem, smoke)
        if wl.controlled:
            from repro.io.checkpoint import verify_run_dir

            corrupt = verify_run_dir(run_dir, strict=True)["corrupt"]
            checks.append(("verify_run_dir", not corrupt, str(corrupt)))
        if expected is not None:
            checks.append(("resume_identity",
                           expected == rep["fingerprint"], ""))
        rep["checks"] = [{"name": n, "ok": bool(ok), "detail": d}
                         for n, ok, d in checks]
        if done == window and all(c["ok"] for c in rep["checks"]):
            rep["failed"] = 0
    except Exception as exc:  # the boundary: report, count, keep going
        import traceback

        traceback.print_exc()
        rep["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # hierarchies are cyclic (parent <-> children): collect before the
    # next rep so peak RSS is one problem's, not the sum of the reps'
    problem = evolver = hierarchy = None
    gc.collect()
    return rep


def identical(reps: list, key: str) -> dict:
    values = {json.dumps(r.get(key)) for r in reps}
    return {"name": f"reps_identical.{key}", "ok": len(values) == 1,
            "detail": "" if len(values) == 1 else sorted(values)}


def measure_end_to_end(wl, args, startup_s: float) -> dict:
    n_reps = 1 if args.smoke else max(2, round(args.seconds / wl.nominal_rep_s))
    reps = [run_rep(wl, args.smoke,
                    reference=(i == n_reps - 1)) for i in range(n_reps)]
    ok = [r for r in reps if "wall_s" in r]
    metrics = {}
    if ok:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            # start-up (imports, cached kernel load) is paid once per
            # process; problem set-up is repeated and its median taken
            "setup_s": startup_s + statistics.median(r["setup_s"] for r in ok),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"reps": reps, "metrics": metrics,
            "cross_checks": [identical(reps, "fingerprint"),
                             identical(reps, "cell_updates")]}


def measure_layers(wl, args, host_cpus: int, trace_dir: str) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    traced = run_rep(wl, args.smoke, tracer=tracer)
    plain = run_rep(wl, args.smoke, reference=True)
    reps = [traced, plain]
    out = {"reps": reps, "metrics": {}, "cross_checks": []}
    if "wall_s" not in traced or "wall_s" not in plain:
        return out
    out["layer_table"] = tracer.layer_table()
    metrics = tracer.metrics(out["layer_table"])
    metrics["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    out["trace_file"] = os.path.join(trace_dir, f"trace_{wl.name}.json")
    tracer.write_chrome_trace(out["trace_file"], wl.name)
    # MODELLED: measured serial task times replayed on two workers
    metrics["exec.scheduled_speedup"] = tracer.scheduled_speedup(2)
    # MEASURED: the same window under thread x 2, on this host's cpus
    metrics["exec.measured_speedup"] = 0.0
    if host_cpus < 2:
        out["exec_scaling_skipped"] = f"host_cpus={host_cpus}"
    else:
        threaded = run_rep(wl, args.smoke, exec_env=THREAD_ENV)
        reps.append(threaded)
        if "wall_s" in threaded:
            metrics["exec.measured_speedup"] = (
                plain["wall_s"] / threaded["wall_s"])
    out["metrics"] = metrics
    out["cross_checks"] = [
        identical(reps, "fingerprint"), identical(reps, "cell_updates"),
        {"name": "traced_cell_updates",
         "ok": metrics["hydro.cell_updates"] == traced.get("cell_updates"),
         "detail": ""},
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; sets the number of reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small problems, short windows (tests only)")
    parser.add_argument("--record", help="also write the full record here")
    parser.add_argument("--trace-dir", default=SCRATCH,
                        help="where trace_<workload>.json goes")
    args = parser.parse_args(argv)

    prepare_environment()
    contract = load_contract()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tier, kernel_build_s = warm_kernels()
    import repro.problems  # noqa: F401  (pay the import before timing)
    import repro.runtime  # noqa: F401

    startup_s = time.perf_counter() - _T0 - kernel_build_s
    env = environment_record(tier)

    if args.trace:
        result = measure_layers(wl, args, env["host_cpus"], args.trace_dir)
        wanted = contract["per_layer"]
    else:
        result = measure_end_to_end(wl, args, startup_s)
        wanted = contract["end_to_end"]

    reps = result["reps"]
    attempted = sum(r["attempted"] for r in reps) + len(result["cross_checks"])
    failed = (sum(r["failed"] for r in reps)
              + sum(not c["ok"] for c in result["cross_checks"]))
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]}
               for m in wanted if m["name"] not in missing}
    correct = failed == 0 and not missing

    last = next((r for r in reversed(reps) if "fingerprint" in r), {})
    record = {
        **result, "workload": wl.name, "seed": args.seed,
        "seed_feeds_inputs": False, "trace": args.trace, "smoke": args.smoke, "env": env,
        "startup_s": startup_s, "kernel_build_s": kernel_build_s,
        "steps": dict(zip(("warmup", "window"), wl.steps(args.smoke))),
        "fingerprint": last.get("fingerprint"),
        "cell_updates": last.get("cell_updates"),
        "grids_per_level": last.get("grids_per_level"),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"tier={tier} backend={env['exec_backend']} "
          f"cpus={env['host_cpus']} reps={len(reps)} "
          f"cell_updates={record['cell_updates']} "
          f"grids_per_level={record['grids_per_level']}")
    for rep in reps:
        for check in rep["checks"]:
            if not check["ok"]:
                print(f"# CHECK FAILED {check['name']}: {check['detail']}")
        if "error" in rep:
            print(f"# REP FAILED {rep['error']}")
    for check in result["cross_checks"]:
        if not check["ok"]:
            print(f"# CHECK FAILED {check['name']}: {check['detail']}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if missing:
        print(f"# metrics not measured: {missing}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
