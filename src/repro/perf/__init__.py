"""Performance instrumentation (paper Sec. 5).

* :mod:`repro.perf.timers` — per-component wall-time fractions (the paper's
  usage table: hydro 36 %, Poisson 17 %, chemistry 11 %, ...) and the
  per-root-step ``StepStats`` blocks of the telemetry step record.
* :mod:`repro.perf.flops` — the paper's operation-count methodology:
  per-module analytic op counts, the sustained-rate estimate, and the
  "virtual flop rate" arithmetic for an equivalent unigrid calculation.
"""

from repro.perf.timers import ComponentTimers, SECTIONS, StepStats
from repro.perf.flops import OperationCounts, virtual_flop_rate, sustained_flop_rate
from repro.perf.opcount import OperationRecorder

__all__ = [
    "ComponentTimers",
    "SECTIONS",
    "StepStats",
    "OperationCounts",
    "OperationRecorder",
    "virtual_flop_rate",
    "sustained_flop_rate",
]
