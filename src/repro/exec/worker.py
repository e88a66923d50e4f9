"""Worker-side task runners for the process backend.

Everything here must be importable at module level (the pool pickles only
the function reference plus small metadata).  The bulk data travels through
the shared-memory block named in the payload: the kernel maps ndarray views
over it, computes **in place**, and returns only small picklable results
(the hydro fluxes are fresh arrays produced by the sweep, never views of
the shared block).

Determinism: each kernel runs the *same* NumPy code the serial path runs,
on a bit-exact copy of the same inputs, so the outputs are bitwise
identical to serial execution regardless of worker count or scheduling.
"""

from __future__ import annotations

import os
import pickle
import signal
from time import perf_counter

import numpy as np

from repro.exec import shm as shm_codec
from repro.hydro.state import FieldSet, META_KEY
from repro.kernels import dispatch as kernel_dispatch
from repro.runtime.faults import InjectedFaultError


def _build_fields(views: dict, meta: dict) -> FieldSet:
    fields = FieldSet()
    fields[META_KEY] = list(meta["advected"])
    for name in meta["field_names"]:
        fields[name] = views[f"f:{name}"]
    return fields


def _sync_fields(fields: FieldSet, views: dict, meta: dict) -> None:
    """Write rebound field arrays back into the shared block.

    Solver/network code mostly updates in place, but a few updates rebind
    dict keys to fresh arrays (e.g. the dual-energy sync); those values
    must be copied into the shared views before the parent reads them.
    """
    for name in meta["field_names"]:
        view = views[f"f:{name}"]
        if fields[name] is not view:
            view[...] = fields[name]


def _hydro_kernel(views: dict, meta: dict):
    fields = _build_fields(views, meta)
    accel = views.get("accel") if meta["has_accel"] else None
    fluxes = meta["solver"].step(
        fields, meta["dx"], meta["dt"], meta["a"], meta["adot"], accel,
        meta["permute"],
    )
    _sync_fields(fields, views, meta)
    # parent-side fault decision: corrupt the named cell after the solve,
    # exactly where the inline path does
    plan = meta.get("fault_nan")
    if plan is not None:
        views[f"f:{plan['field']}"][tuple(plan["index"])] = np.nan
    # flux arrays are freshly computed (never shared-block views) but make
    # them contiguous so the return pickle is a straight memcpy
    return {
        "fluxes": {
            axis: {name: np.ascontiguousarray(arr)
                   for name, arr in per.items()}
            for axis, per in fluxes.fluxes.items()
        },
        "diag": dict(fluxes.diagnostics),
    }


def _chemistry_kernel(views: dict, meta: dict):
    if meta.get("fault_raise"):
        raise InjectedFaultError(meta["fault_raise"], ("worker",))
    fields = _build_fields(views, meta)
    stats = meta["network"].advance_fields(
        fields, meta["dt"], meta["units"], meta["a"]
    )
    _sync_fields(fields, views, meta)
    return stats


def _gravity_kernel(views: dict, meta: dict):
    phi = views["phi"]
    acc = views["acc"]
    for axis in range(3):
        acc[axis] = -np.gradient(phi, meta["dx"], axis=axis) / meta["a"]
    return None


KERNELS = {
    "hydro": _hydro_kernel,
    "chemistry": _chemistry_kernel,
    "gravity": _gravity_kernel,
}


def run_packed_task(kernel: str, shm_name: str, layout, meta: dict) -> dict:
    """Pool entry point: map the block, run the kernel, report timing.

    Kernel exceptions are *returned* (``error`` key) rather than raised:
    a raising future would poison the dispatch of every healthy sibling
    grid, and the defense ladder needs per-task failure attribution.
    """
    if meta.pop("fault_kill", False):
        # injected worker death: indistinguishable from the OOM killer
        os.kill(os.getpid(), signal.SIGKILL)
    t0 = perf_counter()
    kernel_mark = kernel_dispatch.counters_totals()
    block, views = shm_codec.attach(shm_name, layout)
    error = None
    ret = None
    try:
        try:
            ret = KERNELS[kernel](views, meta)
        except Exception as exc:
            try:  # ship the original exception when it pickles
                pickle.dumps(exc)
                error = exc
            except Exception:
                from repro.exec.tasks import TaskFailure

                error = TaskFailure(f"{type(exc).__name__}: {exc}")
    finally:
        del views
        block.close()
    return {"pid": os.getpid(), "seconds": perf_counter() - t0, "ret": ret,
            "error": error,
            # per-kernel call/time deltas, merged into the parent's
            # counters by the dispatcher so telemetry sees worker activity
            "kernel_counters": kernel_dispatch.counters_delta(kernel_mark)}
