"""Per-component wall-clock accounting (the paper's Sec. 5 usage table)."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: canonical section names used by the evolver and hierarchy, in the order
#: of the paper's Sec. 5 component table.  "topology" is the hierarchy's
#: cached-sibling-map / particle-level bookkeeping (rebuilt once per
#: structural epoch) — the cost Enzo's boundary lists amortise; a separate
#: section lets the component table attribute it instead of folding it
#: into "other overhead".  "io" is checkpoint save/load — material once the
#: run-control layer checkpoints every few root steps.  "exec" is the
#: execution engine's scheduling + dispatch overhead (task planning, data
#: staging, worker synchronisation) — everything the engine spends that is
#: not physics-kernel time; see :mod:`repro.exec`.
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
    # time spent inside registered inner-loop kernels (repro.kernels),
    # summed across whichever backend tier ran them; a *subset* of the
    # hydro/chemistry sections above, recorded separately so speedups of
    # the compiled tier are visible without re-deriving them from BENCH
    # runs.  Pool-thread kernel time is summed in, so (like "exec"
    # CPU-seconds) it can exceed the step's wall time.
    "kernels",
)

#: sections that measure time *inside* other sections rather than a slice
#: of the exclusive partition.  They accumulate in ``totals``/``counts``
#: (and telemetry reports them with real seconds, e.g. the step-record
#: "kernels" block) but are excluded from :meth:`ComponentTimers.fractions`
#: so the serial per-component fractions still sum to 1.
OVERLAY_SECTIONS = frozenset({"kernels"})


class ComponentTimers:
    """Nested-safe section timers with fraction reporting.

    Nested sections attribute time to the innermost section only (like the
    paper's exclusive per-component fractions), so fractions sum to <= 1
    with the remainder as "other overhead".
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        #: per-section auxiliary scalar stats, (section, key) -> value;
        #: written via :meth:`add_stat` (e.g. chemistry substep counts)
        self.stats: dict[tuple[str, str], float] = {}
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

        The parallel execution backends measure kernel time inside their
        workers (the ``section`` context manager is not thread-safe) and
        report it here.  Note that worker-measured seconds are CPU-seconds:
        with more than one worker the per-component fractions can sum to
        more than 1 while "exec" (dispatch overhead) stays wall-based.
        """
        if seconds > 0.0:
            self.totals[name] += float(seconds)
        self.counts[name] += int(count)

    def add_stat(self, section: str, key: str, value, mode: str = "set") -> None:
        """Record an auxiliary scalar stat for a section.

        ``mode``: ``"set"`` overwrites (latest value wins), ``"sum"``
        accumulates, ``"max"`` keeps the running maximum.  Used by the
        evolver for non-time diagnostics that belong with a component —
        e.g. the chemistry integrator's substep totals and mean
        active-cell fraction.
        """
        value = float(value)
        slot = (section, key)
        if mode == "sum":
            self.stats[slot] = self.stats.get(slot, 0.0) + value
        elif mode == "max":
            self.stats[slot] = max(self.stats.get(slot, value), value)
        elif mode == "set":
            self.stats[slot] = value
        else:
            raise ValueError(f"unknown add_stat mode {mode!r}")

    def section_stats(self, section: str) -> dict[str, float]:
        """All auxiliary stats recorded for one section."""
        return {k: v for (s, k), v in self.stats.items() if s == section}

    @property
    def wall_time(self) -> float:
        return time.perf_counter() - self._t0

    def fractions(self, include_other: bool = True) -> dict[str, float]:
        """Fraction of total wall time per component (paper-table format).

        Overlay sections (``OVERLAY_SECTIONS``) are excluded: their time is
        already inside hydro/chemistry, and including them would
        double-count the partition.
        """
        wall = max(self.wall_time, 1e-12)
        out = {k: v / wall for k, v in self.totals.items()
               if k not in OVERLAY_SECTIONS}
        if include_other:
            out["other overhead"] = max(0.0, 1.0 - sum(out.values()))
        return out

    def report(self) -> str:
        """Formatted like the paper's table."""
        lines = ["component            usage"]
        for name, frac in sorted(self.fractions().items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<20s} {100 * frac:5.1f} %")
        for (section, key), value in sorted(self.stats.items()):
            lines.append(f"{section + '.' + key:<20s} {value:g}")
        return "\n".join(lines)

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
        self.stats.clear()
        self._stack.clear()
        self._t0 = time.perf_counter()
