"""Execution-engine configuration and environment resolution.

The backend and worker count can be fixed programmatically (``ExecConfig``
passed to :class:`repro.amr.evolve.HierarchyEvolver`), from the CLI
(``--exec-backend`` / ``--workers``), or from the environment:

* ``REPRO_EXEC_BACKEND`` — ``serial`` (default) or ``thread``
* ``REPRO_WORKERS``      — worker count (defaults to the host's CPU count
  for the thread backend)

The environment path is what lets the whole test suite run through the
thread pool unchanged (the CI matrix job sets
``REPRO_EXEC_BACKEND=thread REPRO_WORKERS=2``): results are bitwise
identical across backends by construction, so every test must pass either
way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

BACKENDS = ("serial", "thread")

ENV_BACKEND = "REPRO_EXEC_BACKEND"
ENV_WORKERS = "REPRO_WORKERS"


def _default_workers(backend: str) -> int:
    if backend == "serial":
        return 1
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ExecConfig:
    """Backend selection for per-grid dispatch."""

    backend: str = "serial"
    workers: int = 1

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown exec backend {self.backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def resolve(cls, value=None, backend: str | None = None,
                workers: int | None = None) -> "ExecConfig":
        """Normalise any user-facing spelling into an ExecConfig.

        Precedence: explicit ``value`` (ExecConfig or dict) > explicit
        ``backend``/``workers`` arguments > environment > serial default.
        """
        if isinstance(value, ExecConfig):
            return value
        if isinstance(value, dict):
            return cls(**value)
        if backend is None:
            backend = os.environ.get(ENV_BACKEND, "").strip() or None
        if workers is None:
            env = os.environ.get(ENV_WORKERS, "").strip()
            workers = int(env) if env else None
        if backend is None:
            # asking for several workers without naming a backend means
            # the thread pool
            backend = "thread" if (workers or 1) > 1 else "serial"
        if workers is None:
            workers = _default_workers(backend)
        if backend == "serial":
            workers = 1
        return cls(backend=backend, workers=int(workers))
