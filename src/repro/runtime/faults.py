"""Deterministic, seeded fault injection for chaos-testing the defense ladder.

Production AMR runs die in a handful of well-known ways: a hydro update
goes NaN on a deep subgrid, the multigrid solver burns its cycle budget
without converging, the chemistry integrator blows up on a pathological
cell, a checkpoint is truncated by a full disk.  This module lets CI
*cause* each of those failures on demand — at an exact (level, grid id,
per-level step) site, a deterministic number of times — so every rung of
the grid-scoped defense ladder (:mod:`repro.amr.defense`) can be proven
to fire and recover.

Fault kinds
-----------
``nan_cell``
    Corrupt one deterministic interior cell of a grid's density field with
    NaN after the hydro task completes.  Repeated firings at the same site
    drive the ladder up one rung per firing (see ``docs/ROBUSTNESS.md``).
``mg_diverge``
    Force one multigrid solve to report non-convergence (budget exhausted)
    so the doubled-budget retry path runs.
``chem_blowup``
    Raise :class:`InjectedFaultError` from a chemistry task before the
    network integrates (the state is untouched, as with a real stiff-solver
    overflow raised from :func:`numpy.linalg.solve`).
``checkpoint_truncate``
    Truncate the checkpoint npz written for a matching root step, so
    recovery must skip it and fall back to an older checkpoint.
``hang``
    Block inside a level step for ``seconds`` (default: an hour) —
    a deadlocked worker.  The controller's SIGINT drain cannot interrupt
    it (the signal handler only sets a flag and ``time.sleep`` resumes),
    which is exactly why the service daemon's supervisor escalates from
    soft drain to hard kill (see :mod:`repro.runtime.supervision`).
``slow_step``
    Inject a per-step delay of ``seconds`` (default 0.25) — degraded
    hardware.  Purely timing: results stay bitwise identical.
``io_stall``
    Block the checkpoint write for ``seconds`` (default: an hour) —
    dead or hung storage.
``checkpoint_bitflip``
    Silently corrupt one float64 payload bit of the checkpoint written
    for a matching root step.  The corrupted npz is *re-encoded*, so it
    still loads cleanly without digest verification — the failure mode
    sha256 sidecars exist to catch.

Configuration
-------------
Programmatic::

    from repro.runtime import faults
    faults.install(faults.FaultInjector([
        faults.FaultSpec("nan_cell", level=0, grid_id=0, step=1, count=2),
    ]))

or from the environment (read lazily on first use)::

    REPRO_FAULTS="nan_cell:level=0,grid=0,step=1,count=2;mg_diverge:level=1"
    REPRO_FAULTS_SEED=42

Determinism: which cell a ``nan_cell`` firing corrupts depends only on the
injector seed, the site, and how many times that site has fired — never on
scheduling order — so the serial and thread backends corrupt the *same*
cell.  Specs should pin ``level``/``grid``/``step`` for full determinism
under parallel dispatch; an unpinned spec is consumed by whichever matching
site queries first.

This module deliberately imports nothing from the rest of ``repro`` so any
layer (hydro tasks, the multigrid solver, the exec engine, the run
controller) can hook into it without import cycles.  With no injector
installed every hook is a single ``is None`` check.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

ENV_FAULTS = "REPRO_FAULTS"
ENV_FAULTS_SEED = "REPRO_FAULTS_SEED"
#: RUNNING-episode number (1-based) the launcher exports so specs can be
#: scoped to a single attempt ("hang only the first episode")
ENV_FAULT_ATTEMPT = "REPRO_FAULT_ATTEMPT"

#: fault kinds the hooks understand (parse-time validation)
FAULT_KINDS = (
    "nan_cell",
    "mg_diverge",
    "chem_blowup",
    "checkpoint_truncate",
    "hang",
    "slow_step",
    "io_stall",
    "checkpoint_bitflip",
)

#: default sleep payloads for the timing faults (seconds); a ``hang`` or
#: ``io_stall`` without an explicit duration blocks long enough that only
#: external supervision ends the run
DEFAULT_SLEEP_SECONDS = {
    "hang": 3600.0,
    "io_stall": 3600.0,
    "slow_step": 0.25,
}


class InjectedFaultError(RuntimeError):
    """Raised by hooks that simulate a component blowing up."""

    def __init__(self, kind: str, site: tuple):
        self.kind = kind
        self.site = site
        super().__init__(f"injected fault {kind!r} at site {site}")


@dataclass
class FaultSpec:
    """One addressable fault: kind + optional site filter + firing budget.

    ``level``/``grid_id``/``step`` of ``None`` match any value; ``step`` is
    the *per-level* step counter for in-step faults and the root-step
    number for controller-level faults (``checkpoint_truncate``,
    ``io_stall``, ``checkpoint_bitflip``).
    ``count`` is the total number of firings before the spec goes inert.
    ``seconds`` is the sleep payload for the timing faults (``hang``,
    ``slow_step``, ``io_stall``).  ``attempt`` pins the spec to one
    RUNNING-episode number (the launcher exports ``REPRO_FAULT_ATTEMPT``),
    so a chaos test can hang the first episode and let the supervised
    requeue-and-resume run clean.
    """

    kind: str
    level: int | None = None
    grid_id: int | None = None
    step: int | None = None
    count: int = 1
    seconds: float | None = None
    attempt: int | None = None
    remaining: int = field(init=False)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.count < 1:
            raise ValueError("fault count must be >= 1")
        self.remaining = int(self.count)

    def matches(self, level, grid_id, step) -> bool:
        if self.remaining <= 0:
            return False
        if self.level is not None and level != self.level:
            return False
        if self.grid_id is not None and grid_id != self.grid_id:
            return False
        if self.step is not None and step != self.step:
            return False
        return True


class FaultInjector:
    """Holds the live fault specs and answers "does X fail here, now?".

    The injector also keeps a per-site fire counter so payloads that need
    randomness (the ``nan_cell`` target cell) can derive a fresh,
    order-independent RNG per firing.
    """

    def __init__(self, specs=(), seed: int | None = None,
                 attempt: int | None = None):
        self.specs = list(specs)
        if seed is None:
            env = os.environ.get(ENV_FAULTS_SEED, "").strip()
            seed = int(env) if env else 0
        self.seed = int(seed)
        if attempt is None:
            env = os.environ.get(ENV_FAULT_ATTEMPT, "").strip()
            attempt = int(env) if env else None
        #: RUNNING-episode number attempt-scoped specs match against
        self.attempt = attempt
        #: (kind, level, grid_id) -> number of firings so far
        self.site_fires: dict[tuple, int] = {}
        #: every firing, in order, for test assertions
        self.fired: list[dict] = []
        #: level -> current per-level step counter (set by the evolver)
        self._step_ctx: dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- context
    def set_step(self, level: int, step: int) -> None:
        """Publish the per-level step counter in-step hooks match against."""
        self._step_ctx[int(level)] = int(step)

    # -------------------------------------------------------------- firing
    def take(self, kind: str, level=None, grid_id=None, step=None):
        """Consume one firing of a matching spec, or return ``None``.

        ``step`` defaults to the published per-level step context for
        ``level``; controller-level hooks pass it explicitly.
        """
        if step is None and level is not None:
            step = self._step_ctx.get(int(level))
        with self._lock:
            for spec in self.specs:
                if spec.attempt is not None and spec.attempt != self.attempt:
                    continue
                if spec.kind == kind and spec.matches(level, grid_id, step):
                    spec.remaining -= 1
                    site = (kind, level, grid_id)
                    fire_index = self.site_fires.get(site, 0)
                    self.site_fires[site] = fire_index + 1
                    record = {
                        "kind": kind,
                        "level": level,
                        "grid_id": grid_id,
                        "step": step,
                        "fire_index": fire_index,
                        "seconds": spec.seconds,
                    }
                    self.fired.append(record)
                    return record
        return None

    # ------------------------------------------------------------ payloads
    def plan_nan_cell(self, level, grid_id, interior_shape, nghost: int):
        """Decide the absolute (ghost-inclusive) cell a firing corrupts.

        Returns ``{"field": name, "index": (i, j, k)}`` or ``None``.  The
        cell is drawn from an RNG seeded by (injector seed, site, firing
        number), so it does not depend on dispatch order or backend.
        """
        fire = self.take("nan_cell", level=level, grid_id=grid_id)
        if fire is None:
            return None
        rng = np.random.default_rng(
            [self.seed, fire["fire_index"],
             (level if level is not None else -1) + 1,
             (grid_id if grid_id is not None else -1) + 1]
        )
        ijk = tuple(
            int(rng.integers(0, s)) + int(nghost) for s in interior_shape
        )
        return {"field": "density", "index": ijk}


# ------------------------------------------------------------- global state
_UNSET = object()
_INJECTOR = _UNSET
_INSTALL_LOCK = threading.Lock()


def install(injector: FaultInjector | None) -> None:
    """Install (or clear, with ``None``) the process-wide injector."""
    global _INJECTOR
    with _INSTALL_LOCK:
        _INJECTOR = injector


def clear() -> None:
    install(None)


def active() -> FaultInjector | None:
    """The installed injector, lazily built from ``REPRO_FAULTS`` once."""
    global _INJECTOR
    if _INJECTOR is _UNSET:
        with _INSTALL_LOCK:
            if _INJECTOR is _UNSET:
                _INJECTOR = from_env()
    return _INJECTOR


def from_env() -> FaultInjector | None:
    spec = os.environ.get(ENV_FAULTS, "").strip()
    if not spec:
        return None
    return FaultInjector(parse_spec(spec))


def parse_spec(text: str) -> list[FaultSpec]:
    """Parse the compact CLI/env fault syntax.

    ``kind[:key=value,...]`` tokens joined by ``;`` — keys are ``level``,
    ``grid``, ``step``, ``count``, ``attempt`` (ints) and ``seconds``
    (float, for the timing faults).  Example::

        nan_cell:level=1,grid=3,step=2,count=4;hang:step=3,seconds=60,attempt=1
    """
    specs: list[FaultSpec] = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        kind, _, rest = token.partition(":")
        kwargs: dict = {}
        for item in filter(None, (p.strip() for p in rest.split(","))):
            key, _, value = item.partition("=")
            key = {"grid": "grid_id"}.get(key.strip(), key.strip())
            if key == "seconds":
                kwargs[key] = float(value)
            elif key in ("level", "grid_id", "step", "count", "attempt"):
                kwargs[key] = int(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r} in {token!r}")
        specs.append(FaultSpec(kind.strip(), **kwargs))
    return specs


# ----------------------------------------------------------- hook shortcuts
def take(kind: str, level=None, grid_id=None, step=None):
    """Module-level ``take`` against the active injector (``None`` if none)."""
    inj = active()
    if inj is None:
        return None
    return inj.take(kind, level=level, grid_id=grid_id, step=step)


def maybe_raise(kind: str, level=None, grid_id=None) -> None:
    """Raise :class:`InjectedFaultError` if a matching spec fires."""
    fire = take(kind, level=level, grid_id=grid_id)
    if fire is not None:
        raise InjectedFaultError(kind, (level, grid_id, fire.get("step")))


def maybe_sleep(kind: str, level=None, grid_id=None, step=None):
    """Sleep out a matching timing fault (``hang``/``slow_step``/
    ``io_stall``); returns the fire record, or ``None`` if nothing fired.
    """
    fire = take(kind, level=level, grid_id=grid_id, step=step)
    if fire is not None:
        seconds = fire.get("seconds")
        if seconds is None:
            seconds = DEFAULT_SLEEP_SECONDS.get(kind, 1.0)
        time.sleep(float(seconds))
    return fire


def plan_nan_cell(level, grid_id, interior_shape, nghost: int):
    inj = active()
    if inj is None:
        return None
    return inj.plan_nan_cell(level, grid_id, interior_shape, nghost)


def apply_checkpoint_bitflip(path: str) -> dict:
    """Silently corrupt one payload bit of a saved npz checkpoint.

    Flipping raw file bytes would be caught by the zip CRC long before
    any digest check, so this models the scarier failure: the npz is
    decoded, one mantissa bit of the first float64 array's first element
    is flipped, and the file is re-encoded in place.  The result loads
    cleanly and carries silently-wrong physics — detectable only by the
    sha256 sidecar written over the original bytes.  Deterministic:
    same file, same corruption.
    """
    # local import: this module stays importable from every layer
    from repro.io.checkpoint import write_npz

    with np.load(path) as data:
        arrays = {key: np.array(data[key]) for key in data.files}
    target = None
    for key in sorted(arrays):
        arr = arrays[key]
        if arr.dtype == np.float64 and arr.size > 0:
            target = key
            break
    if target is None:
        raise ValueError(f"no float64 payload to corrupt in {path!r}")
    flat = arrays[target].reshape(-1)
    bits = flat.view(np.uint64)
    bits[0] ^= np.uint64(1) << np.uint64(51)  # high mantissa bit
    write_npz(path, arrays)
    return {"path": path, "array": target, "bit": 51}


def apply_nan_cell(fields, plan: dict | None) -> None:
    """Apply a planned corruption to a FieldSet / dict of ndarrays."""
    if plan is None:
        return
    fields[plan["field"]][tuple(plan["index"])] = np.nan
