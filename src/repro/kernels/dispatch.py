"""Backend registry for the compiled kernel tier.

The hot inner loops (the fused per-grid hydro step — gravity kicks, the
three sweeps of reconstruction or characteristic tracing, Riemann solve
and conservative update, expansion drag, dual-energy sync and energy floor
in one call —, the chemistry rate-table blend and the fused per-grid
chemistry substep, the parent->child fill of a whole level — prolongation
plus same-level copies —, one sibling pass of a level's subgrid
multigrid solves, the potential gradient of one grid, the coarse-fine
flux correction of one parent and the cloud-in-cell particle deposit and
gather) are registered
here once per *backend* — each kernel exists in exactly two
transcriptions:

``numpy``
    The always-available reference — the exact vectorised code the repo
    has always run, and the definition of correct.
``cffi``
    The same arithmetic as per-element C, compiled once per machine with
    the system compiler through cffi (:mod:`repro.kernels.backend_cffi`,
    which also holds the parity rulebook and the compile-flag rationale).
    The tier every measured run executes; parity-gated against ``numpy``.

Selection: ``REPRO_KERNELS=numpy|cffi|auto`` in the environment,
``--kernels`` on the CLI, or ``SimulationConfig(kernels=...)``; ``auto``
picks ``cffi`` when it loads, ``numpy`` (the default) keeps the reference
path; any other value is a :class:`ValueError` naming the accepted ones.
A compiled tier that fails to import or compile degrades to NumPy with a
single :class:`RuntimeWarning` — never an error, so a missing cffi or C
compiler cannot take down test collection or a production run.

Every registered kernel is wrapped with a per-kernel call/seconds counter;
the evolver drains each root step's deltas into the step record's
``kernels`` block, and the ``start`` / ``resume`` records name the tier,
so ``repro tail`` shows which tier actually ran and what it cost.

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

BACKENDS = ("numpy", "cffi")

#: the kernel names telemetry and the benchmark's tracer report; both
#: backends register the same ones, so :func:`get` never mixes tiers
#: (``tests/test_kernels.py`` asserts it)
KERNEL_NAMES = (
    # retired: hydro.step calls their bodies; kept so the benchmark
    # contract's kernels.<name>.calls / .s metrics still report 0
    "riemann.two_shock",
    "riemann.hllc",
    "riemann.hll",
    "reconstruct.ppm",
    "reconstruct.plm",
    "trace.states",
    "hydro.step",
    "chem.blend",
    "chem.step",
    "fill.level",
    "mg.level",
    "gravity.accel",
    "flux.correct",
    "cic.deposit",
    "cic.gather",
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


def lanes() -> str | None:
    """The SIMD copy the compiled tier runs on this host
    (``backend_cffi.LANES``), or None when the tier does not load."""
    if not _load("cffi"):
        return None
    import importlib

    return importlib.import_module("repro.kernels.backend_cffi").LANES


# ---------------------------------------------------------------- selection
def resolve_backend(name: str | None = None) -> str:
    """Normalise a requested backend name to one that actually loads.

    ``None`` reads ``REPRO_KERNELS`` (default ``numpy``); ``auto`` is
    ``cffi`` when it loads; an unavailable explicit choice degrades to
    ``numpy`` (with the load-time warning already emitted).
    """
    if name is None:
        name = os.environ.get(ENV_KERNELS, "").strip() or "numpy"
    name = name.lower()
    if name == "auto":
        name = "cffi"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{BACKENDS + ('auto',)}"
        )
    return name if _load(name) else "numpy"


def set_backend(name: str | None = None, env: bool = True) -> str:
    """Select the active backend; returns the resolved name.

    With ``env`` true the resolution is exported to ``REPRO_KERNELS`` so
    child processes (the service-worker subprocess) resolve identically.
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
    """The active backend's implementation of one kernel."""
    return _impls[(active_backend(), name)]


def warm() -> None:
    """Force-compile every kernel of the active backend (tiny inputs).

    Callers that time runs (the benchmarks) call this first so the cost of
    loading (or, first time on a machine, compiling) the cffi extension is
    paid up front, not inside the first timed kernel call.
    """
    if active_backend() == "numpy":
        return
    from types import SimpleNamespace

    import numpy as np

    from repro.amr.interpolation import FillPlan
    from repro.chemistry.rates import CHANNEL_NAMES
    from repro.chemistry.species import SPECIES_NAMES

    get("hydro.step")([np.ones((3, 3, 3)) for _ in range(6)], None, 1, 1.0,
                      0.1, 1.0, 0, False, 5.0 / 3.0, "ppm", "hllc", 1e-12,
                      1e-30, 1e-3, None, np.array([[0, 0, 1, 0, 1, 0, 1]]),
                      [np.zeros((2, 5, 1, 1))])
    get("chem.blend")(np.zeros((2, 4)), np.zeros(3, dtype=np.intp),
                      np.full(3, 0.5))
    get("chem.step")(np.ones((len(SPECIES_NAMES), 1)), np.ones(1), np.ones(1),
                     None, np.zeros(1), np.zeros(1, dtype=np.int64),
                     np.zeros(1, dtype=np.intp), np.full(1, 100.0), None,
                     np.ones((len(CHANNEL_NAMES), 1)), 1.0, 0.0, 0.1, 200,
                     False, False, False)
    get("fill.level")(FillPlan([([np.empty((2, 2, 2))], (2, 2, 2), 0, 1.0)],
                               [([np.ones((3, 3, 3))], None, (0, 0, 0))],
                               [], [(0, 2, 2, 2, 4, 4, 4)], (), 2, [True]))
    # a one-grid level with no sibling, in the layout of a PoissonPlan
    rims = np.zeros(6 ** 3)
    get("mg.level")(SimpleNamespace(
        phis=[np.zeros((8, 8, 8))], dims=np.full((1, 3), 4), nghost=2,
        dx=1.0, rims=rims, rim_views=[rims.reshape(6, 6, 6)],
        rim_offsets=np.array([0, 216]), cell_offsets=np.array([0, 64]),
        rim_rows=np.empty((0, 11), dtype=np.int64), native=None,
        interiors=lambda src: [src.reshape(4, 4, 4)]),
        np.zeros(64), 0, 1, 1, 1, 2, 1e-6, 1, False, False, True,
        np.zeros((1, 3)))
    get("gravity.accel")(np.zeros((2, 2, 2)), 1.0, 1.0)
    names = ("density", "vx", "vy", "vz", "energy")
    fields = {name: np.ones((3, 3, 3)) for name in names + ("internal",)}
    fine = [np.zeros((2, 5, 2, 2)) for _ in range(3)]
    coarse = [np.zeros((2, 5, 1, 1)) for _ in range(3)]
    get("flux.correct")(fields, names, 1, 1.0, [False] * 3, 2,
                        [((0, 0, 0), (1, 1, 1), fine, coarse,
                          np.zeros((3, 5), dtype=bool))])
    get("cic.deposit")(np.zeros((2, 2, 2)), np.full((1, 3), 0.5), np.ones(1),
                       1.0, 1.0, True)
    get("cic.gather")(np.zeros((3, 2, 2, 2)), np.full((1, 3), 0.5), 1.0,
                      False)


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
