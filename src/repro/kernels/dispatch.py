"""Backend registry for the compiled kernel tier.

The hot inner loops (Riemann fluxes, PPM reconstruction, characteristic
tracing, the fused per-grid hydro sweep built from them, the chemistry
rate-table blend, the AMR parent->child prolongation and the multigrid
smoother) are registered here once per *backend*:

``numpy``
    The always-available reference — the exact vectorised code the repo
    has always run.  Every other backend is parity-gated against it.
``numba``
    ``@njit``-compiled flat loops (:mod:`repro.kernels._loops`), used when
    numba imports cleanly.  Preferred compiled tier.
``cffi``
    The same loops hand-written in C, compiled once per machine with the
    system compiler through cffi (:mod:`repro.kernels.backend_cffi`).
    Covers hosts without numba but with a C toolchain.

Selection: ``REPRO_KERNELS=numpy|numba|cffi|auto`` in the environment,
``--kernels`` on the CLI, or ``SimulationConfig(kernels=...)``; ``auto``
picks the first compiled backend that loads, ``numpy`` (the default) keeps
the reference path.  A backend that fails to import or compile degrades to
NumPy with a single :class:`RuntimeWarning` — never an error, so a broken
numba install cannot take down test collection or a production run.

Every registered kernel is wrapped with a per-kernel call/seconds counter;
the evolver drains the deltas into the ``"kernels"`` timer section and the
step-record telemetry, so ``repro tail`` shows which tier actually ran.

Parity policy (enforced by ``tests/test_kernels.py``): compiled kernels
preserve the NumPy op order element-for-element and are therefore required
to be **bitwise** identical — the compile flags forbid FP contraction and
every ``np.where``/``np.maximum`` NaN semantic is replicated.  The one op
the compiled tier does not take over is the final ``exp`` of the chemistry
blend, which stays in NumPy precisely so the tier never depends on libm
vs. SIMD ``exp`` agreeing to the last ulp.
"""

from __future__ import annotations

import os
import threading
import warnings
from time import perf_counter

ENV_KERNELS = "REPRO_KERNELS"

#: compiled backends in ``auto`` preference order
COMPILED_BACKENDS = ("numba", "cffi")
BACKENDS = ("numpy",) + COMPILED_BACKENDS

#: every kernel the tier can take over (numpy registers all of them; a
#: compiled backend may register a subset — missing ones fall back)
KERNEL_NAMES = (
    "riemann.two_shock",
    "riemann.hllc",
    "riemann.hll",
    "reconstruct.ppm",
    "reconstruct.plm",
    "trace.states",
    "hydro.sweep",
    "chem.blend",
    "prolong.linear",
    "mg.smooth",
)

_lock = threading.Lock()
_impls: dict = {}  # (backend, kernel_name) -> wrapped callable
_load_attempted: dict = {}  # backend -> bool
_available: dict = {}  # backend -> bool
_active: str | None = None
_counters: dict = {}  # kernel_name -> [calls, seconds]


# ----------------------------------------------------------------- registry
def register(backend: str, name: str, fn) -> None:
    """Register one kernel implementation (wrapped with call counters)."""

    def timed(*args, __fn=fn, __name=name, **kwargs):
        t0 = perf_counter()
        out = __fn(*args, **kwargs)
        dt = perf_counter() - t0
        with _lock:
            slot = _counters.get(__name)
            if slot is None:
                slot = _counters[__name] = [0, 0.0]
            slot[0] += 1
            slot[1] += dt
        return out

    timed.__name__ = f"{backend}:{name}"
    timed.raw = fn
    _impls[(backend, name)] = timed


def _load(backend: str) -> bool:
    """Import (and for compiled tiers, build) one backend; warn-once on
    failure and report availability."""
    if backend in _load_attempted:
        return _available[backend]
    _load_attempted[backend] = True
    try:
        if backend not in BACKENDS:
            raise ValueError(f"unknown kernel backend {backend!r}")
        # import_module (not ``from repro.kernels import ...``) so a
        # module dropped from sys.modules by _reset_for_tests really is
        # re-imported and re-registers its kernels
        import importlib

        importlib.import_module(f"repro.kernels.backend_{backend}")
        _available[backend] = True
    except Exception as exc:  # ImportError, compile failure, ...
        _available[backend] = False
        if backend != "numpy":
            warnings.warn(
                f"repro.kernels: backend '{backend}' unavailable "
                f"({type(exc).__name__}: {exc}); falling back to NumPy",
                RuntimeWarning,
                stacklevel=3,
            )
        else:  # the reference tier must never be missing
            raise
    return _available[backend]


def available_backends() -> tuple:
    """Backends that load cleanly on this host (probes each once)."""
    return tuple(b for b in BACKENDS if _load(b))


# ---------------------------------------------------------------- selection
def resolve_backend(name: str | None = None) -> str:
    """Normalise a requested backend name to one that actually loads.

    ``None`` reads ``REPRO_KERNELS`` (default ``numpy``); ``auto`` probes
    the compiled tiers in preference order; an unavailable explicit choice
    degrades to ``numpy`` (with the load-time warning already emitted).
    """
    if name is None:
        name = os.environ.get(ENV_KERNELS, "").strip() or "numpy"
    name = name.lower()
    if name == "auto":
        for cand in COMPILED_BACKENDS:
            if _load(cand):
                return cand
        return "numpy"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{BACKENDS + ('auto',)}"
        )
    if name != "numpy" and not _load(name):
        return "numpy"
    return name


def set_backend(name: str | None = None, env: bool = True) -> str:
    """Select the active backend; returns the resolved name.

    With ``env`` true the resolution is exported to ``REPRO_KERNELS`` so
    spawned worker processes resolve identically (fork workers inherit the
    live module state as well).
    """
    global _active
    resolved = resolve_backend(name)
    _load("numpy")
    _active = resolved
    if env:
        os.environ[ENV_KERNELS] = resolved
    return resolved


def active_backend() -> str:
    """The currently selected backend (resolved lazily from the env)."""
    global _active
    if _active is None:
        set_backend(None, env=False)
    return _active


def get(name: str):
    """The active backend's implementation of one kernel (NumPy fallback
    per kernel when the backend does not provide it)."""
    backend = active_backend()
    fn = _impls.get((backend, name))
    if fn is None:
        _load("numpy")
        fn = _impls[("numpy", name)]
    return fn


def warm() -> None:
    """Force-compile every kernel of the active backend (tiny inputs).

    Process pools call this from their worker initializer so the njit /
    cffi compile cost is paid once per worker process, not on the first
    task that happens to land there.
    """
    backend = active_backend()
    if backend == "numpy":
        return
    import numpy as np

    one = np.full(2, 1.0)
    zero = np.zeros(2)
    face = (one, zero, zero, zero, one)
    for solver in ("two_shock", "hllc", "hll"):
        fn = _impls.get((backend, f"riemann.{solver}"))
        if fn is not None:
            fn(face, face, 5.0 / 3.0)
    q = np.linspace(1.0, 2.0, 8).reshape(8, 1)
    for rec in ("ppm", "plm"):
        fn = _impls.get((backend, f"reconstruct.{rec}"))
        if fn is not None:
            fn(q)
    fn = _impls.get((backend, "trace.states"))
    if fn is not None:
        col = np.linspace(1.0, 2.0, 8)
        fn(col, 0.0 * col, 0.0 * col, 0.0 * col, col, 0.1, 5.0 / 3.0)
    fn = _impls.get((backend, "hydro.sweep"))
    if fn is not None:
        fn([np.ones((3, 3, 3)) for _ in range(6)], 0, 1, 0.1, 0.1,
           5.0 / 3.0, "ppm", "hllc", 1e-12, 1e-30)
    fn = _impls.get((backend, "chem.blend"))
    if fn is not None:
        tab = np.zeros((2, 4))
        fn(tab, np.zeros(3, dtype=np.intp), np.full(3, 0.5))
    fn = _impls.get((backend, "prolong.linear"))
    if fn is not None:
        fn([np.ones((3, 3, 3))], None, 1.0, [True], (0, 0, 0), 2,
           [np.empty((2, 2, 2))], (2, 2, 2), [((2, 2, 2), (4, 4, 4))])
    fn = _impls.get((backend, "mg.smooth"))
    if fn is not None:
        fn(np.zeros((4, 4, 4)), np.zeros((2, 2, 2)), 1.0, 1)


# ----------------------------------------------------------------- counters
def counters_totals() -> dict:
    """Monotonic absolute counters: ``{kernel: (calls, seconds)}``."""
    with _lock:
        return {k: (v[0], v[1]) for k, v in _counters.items()}


def counters_delta(mark: dict) -> dict:
    """Per-kernel activity since ``mark`` (a ``counters_totals`` snapshot)."""
    out = {}
    for name, (calls, seconds) in counters_totals().items():
        c0, s0 = mark.get(name, (0, 0.0))
        if calls > c0:
            out[name] = {"calls": calls - c0,
                         "seconds": round(seconds - s0, 6)}
    return out


def merge_counters(delta: dict) -> None:
    """Fold worker-process counter deltas into this process's totals.

    The process exec backend runs kernels in pool workers; each task ships
    its counter delta home in the result payload so telemetry still sees
    every call regardless of where it executed.
    """
    if not delta:
        return
    with _lock:
        for name, d in delta.items():
            slot = _counters.get(name)
            if slot is None:
                slot = _counters[name] = [0, 0.0]
            slot[0] += int(d.get("calls", 0))
            slot[1] += float(d.get("seconds", 0.0))


def reset_counters() -> None:
    with _lock:
        _counters.clear()


def _reset_for_tests() -> None:
    """Forget load state and selection (test helper, not public API).

    Backend modules register their kernels at import time, so they are
    also dropped from ``sys.modules`` — the next ``_load`` re-imports and
    re-registers (the cffi tier re-imports its cached extension, so this
    is cheap).
    """
    global _active
    import sys

    with _lock:
        _counters.clear()
    for key in [k for k in _impls]:
        del _impls[key]
    _load_attempted.clear()
    _available.clear()
    _active = None
    for backend in BACKENDS:
        sys.modules.pop(f"repro.kernels.backend_{backend}", None)
