"""Per-component wall-clock accounting (the paper's Sec. 5 usage table)."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: canonical section names used by the evolver and hierarchy, in the order
#: of the paper's Sec. 5 component table.  "topology" is the hierarchy's
#: cached same-level overlap tables (rebuilt only when a level's or its
#: parent level's grids change) and each grid's face windows and hydro
#: step plan (rebuilt only when its children change) — the cost Enzo's
#: boundary lists amortise; a separate section lets the component table
#: attribute it instead of folding it into "other overhead".  "io" is
#: checkpoint save/load — material once the run-control layer checkpoints
#: every few root steps.  "exec" is the
#: execution engine's scheduling + dispatch overhead (task planning, data
#: staging, worker synchronisation) — everything the engine spends that is
#: not physics-kernel time; see :mod:`repro.exec`.  "defense" is the
#: validation of every grid's hydro and chemistry result and any rescue
#: (:mod:`repro.amr.defense`).
SECTIONS = (
    "hydro",
    "gravity",
    "chemistry",
    "nbody",
    "rebuild",
    "boundary",
    "flux_correction",
    "projection",
    "topology",
    "io",
    "exec",
    "defense",
)


class ComponentTimers:
    """Nested-safe section timers with fraction reporting.

    Nested sections attribute time to the innermost section only (like the
    paper's exclusive per-component fractions), so fractions sum to <= 1
    with the remainder as "other overhead".
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[tuple[str, float]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def section(self, name: str):
        now = time.perf_counter()
        if self._stack:
            # pause the enclosing section
            parent, started = self._stack[-1]
            self.totals[parent] += now - started
        self._stack.append((name, now))
        try:
            yield
        finally:
            end = time.perf_counter()
            name_, started = self._stack.pop()
            self.totals[name_] += end - started
            self.counts[name_] += 1
            if self._stack:
                parent, _ = self._stack[-1]
                self._stack[-1] = (parent, end)

    def add_seconds(self, name: str, seconds: float, count: int = 1) -> None:
        """Attribute externally-measured seconds to a section.

        The execution engine measures every task once, on every backend
        (the ``section`` context manager is not thread-safe), and reports
        the seconds here.  Note that worker-measured seconds are
        CPU-seconds: with more than one worker the per-component fractions
        can sum to more than 1 while "exec" (dispatch overhead) stays
        wall-based.
        """
        if seconds > 0.0:
            self.totals[name] += float(seconds)
        self.counts[name] += int(count)

    @property
    def wall_time(self) -> float:
        return time.perf_counter() - self._t0

    def fractions(self, include_other: bool = True) -> dict[str, float]:
        """Fraction of total wall time per component (paper-table format)."""
        wall = max(self.wall_time, 1e-12)
        out = {k: v / wall for k, v in self.totals.items()}
        if include_other:
            out["other overhead"] = max(0.0, 1.0 - sum(out.values()))
        return out

    def report(self) -> str:
        """Formatted like the paper's table."""
        lines = ["component            usage"]
        for name, frac in sorted(self.fractions().items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<20s} {100 * frac:5.1f} %")
        return "\n".join(lines)

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
        self._stack.clear()
        self._t0 = time.perf_counter()


class StepStats:
    """One component's statistics for one root step, under flat keys.

    :meth:`add` sums, :meth:`peak` keeps the maximum and :meth:`mean` keeps
    a weighted mean, which :meth:`snapshot` reports as
    sum(value * weight) / sum(weight) and leaves out while the weight is 0.
    Per-level keys are spelled ``name.L<k>``.  The evolver owns one per
    component, resets them all at the top of each root step, and the
    telemetry step record serialises every non-empty one as a block.

    There is no lock: every write happens on the evolver's thread after a
    dispatch joins.  Kernel counters, which pool threads write, keep their
    own lock in :mod:`repro.kernels.dispatch`.
    """

    def __init__(self):
        self._values: dict = {}
        #: key -> [sum of value * weight, sum of weight]
        self._means: dict = {}

    def add(self, key: str, value=1) -> None:
        self._values[key] = self._values.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        if key not in self._values or value > self._values[key]:
            self._values[key] = value

    def mean(self, key: str, value: float, weight: float) -> None:
        acc = self._means.setdefault(key, [0.0, 0.0])
        acc[0] += value * weight
        acc[1] += weight

    def reset(self) -> None:
        self._values.clear()
        self._means.clear()

    def __bool__(self) -> bool:
        return bool(self._values or self._means)

    def snapshot(self) -> dict:
        """Plain ``{key: number}`` dict, unrounded."""
        out = dict(self._values)
        out.update((key, total / weight)
                   for key, (total, weight) in self._means.items() if weight)
        return out
