"""Compiled kernel tier for the hydro/chemistry inner loops.

Public surface re-exported from :mod:`repro.kernels.dispatch`; see that
module's docstring for backend selection and the parity policy.
"""

from repro.kernels.dispatch import (  # noqa: F401
    BACKENDS,
    ENV_KERNELS,
    KERNEL_NAMES,
    active_backend,
    available_backends,
    counters_delta,
    counters_totals,
    get,
    lanes,
    register,
    reset_counters,
    resolve_backend,
    set_backend,
    warm,
)
