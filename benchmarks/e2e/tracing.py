"""Per-layer attribution, timed from outside the program.

Spans are recorded by wrappers this file installs *around* public entry
points — the names ``repro.amr.evolve`` and ``repro.runtime.controller``
imported, and instance attributes of the live evolver — never by editing
``src/``.  Each span is ``(name, level, start, end, parent)``; spans nest
through an open-span stack, so the W-cycle recursion is preserved.  They
stay in memory and are written once, after the window, as Chrome-trace
JSON plus a per-layer table.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: span name -> layer (module) whose self time it is.  Dispatch spans are
#: split: task seconds go to the task kind's layer, the rest to ``exec``.
LAYER_OF = {
    "window": "window",
    "evolve": "amr.evolve",
    "boundary": "amr.boundary",
    "rebuild": "amr.rebuild",
    "flux_correction": "amr.flux_correction",
    "projection": "amr.projection",
    "gravity.solve": "gravity",
    "io.write": "io",
    "io.load": "io",
    "runtime.step_record": "runtime",
    "runtime.emit": "runtime",
    "runtime.heartbeat": "runtime",
    "runtime.digest": "runtime",
}
TASK_LAYER = {"hydro": "hydro", "chemistry": "chemistry",
              "gravity": "gravity"}
MAX_LEVELS = 4  # per-level metric names cover L0..L3


class Tracer:
    def __init__(self):
        #: [name, level, start, end, parent_index, args]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: per-kernel calls/seconds over the window (dispatch counters)
        self.kernel_delta: dict = {}

    # ------------------------------------------------------------- recording
    def open(self, name: str, level=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, level, perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, args: dict | None = None) -> None:
        span = self.spans[idx]
        span[3] = perf_counter()
        span[5] = args
        self._stack.pop()

    def wrap(self, name: str, fn, level_arg: int | None = None, level=None,
             after=None):
        """``fn`` timed as a span; ``after(args, result)`` adds span args."""
        fixed_level = level

        def traced(*args, **kwargs):
            level = args[level_arg] if level_arg is not None else fixed_level
            idx = self.open(name, level)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, after(args, result) if after else None)

        return traced

    # ----------------------------------------------------------- installation
    @contextmanager
    def installed(self, evolver, controlled: bool = False):
        """Wrap the layer boundaries for one window; restore on exit."""
        import repro.amr.evolve as evolve_mod
        from repro.kernels import dispatch

        undo = []

        def rebind(obj, attr, new, instance=False):
            if instance:  # shadow the bound method on the instance
                undo.append(lambda: obj.__dict__.pop(attr, None))
            else:
                old = getattr(obj, attr)
                undo.append(lambda: setattr(obj, attr, old))
            setattr(obj, attr, new)

        for name, attr in (("boundary", "set_boundary_values"),
                           ("flux_correction", "correct_level"),
                           ("projection", "project_level")):
            rebind(evolve_mod, attr,
                   self.wrap(name, getattr(evolve_mod, attr), level_arg=1))
        rebind(evolve_mod, "rebuild_hierarchy", self._wrap_rebuild(
            evolve_mod.rebuild_hierarchy))
        # chem_stats is reset at every root-step start: snapshot it per step
        rebind(evolver, "advance_root_step",
               self.wrap("evolve", evolver.advance_root_step, level=0,
                         after=lambda _a, _r: evolver.chem_stats.snapshot()),
               instance=True)
        rebind(evolver, "evolve_level",
               self.wrap("evolve", evolver.evolve_level, level_arg=0),
               instance=True)
        rebind(evolver.engine, "run", self._wrap_dispatch(evolver.engine.run),
               instance=True)
        if evolver.gravity is not None:
            rebind(evolver.gravity, "solve_level",
                   self.wrap("gravity.solve", evolver.gravity.solve_level,
                             level_arg=1), instance=True)
        if controlled:
            self._install_controller(rebind)
        kernel_mark = dispatch.counters_totals()
        root = self.open("window")
        try:
            yield self
        finally:
            self.close(root)
            self.kernel_delta = dispatch.counters_delta(kernel_mark)
            for restore in reversed(undo):
                restore()

    def _wrap_rebuild(self, fn):
        def counters(h):
            return (h.grids_created, h.grids_reused,
                    h.pool.acquires, h.pool.hits)

        def traced(hierarchy, level, *args, **kwargs):
            before = counters(hierarchy)
            idx = self.open("rebuild", level)
            try:
                return fn(hierarchy, level, *args, **kwargs)
            finally:
                delta = [a - b for a, b in zip(counters(hierarchy), before)]
                self.close(idx, dict(zip(
                    ("created", "reused", "pool_acquires", "pool_hits"),
                    delta)))

        return traced

    def _wrap_dispatch(self, fn):
        def traced(tasks, level=None, timers=None):
            tasks = list(tasks)
            if not tasks:
                return fn(tasks, level=level, timers=timers)
            idx = self.open("exec." + tasks[0].kind, level)
            report = None
            try:
                report = fn(tasks, level=level, timers=timers)
                return report
            finally:
                times = report.task_times if report is not None else []
                self.close(idx, {
                    "kind": tasks[0].kind,
                    "task_s": [t[3] for t in times],
                    "cells": sum(t[2] for t in times),
                })

        return traced

    def _install_controller(self, rebind) -> None:
        import repro.runtime.controller as ctl

        tracer = self

        def written(args, _result):
            return {"bytes": os.path.getsize(args[1])}

        rebind(ctl, "save_hierarchy",
               self.wrap("io.write", ctl.save_hierarchy, after=written))
        rebind(ctl, "load_hierarchy",
               self.wrap("io.load", ctl.load_hierarchy))
        rebind(ctl, "step_record",
               self.wrap("runtime.step_record", ctl.step_record))
        for attr in ("write_digest", "verify_digest"):
            rebind(ctl, attr, self.wrap("runtime.digest", getattr(ctl, attr)))

        class TracedTelemetry(ctl.TelemetryWriter):
            def emit(self, event, **payload):
                idx = tracer.open("runtime.emit")
                try:
                    return super().emit(event, **payload)
                finally:
                    tracer.close(idx)

        class TracedHeartbeat(ctl.HeartbeatWriter):
            def beat(self, *args, **kwargs):
                idx = tracer.open("runtime.heartbeat")
                try:
                    return super().beat(*args, **kwargs)
                finally:
                    tracer.close(idx)

        rebind(ctl, "TelemetryWriter", TracedTelemetry)
        rebind(ctl, "HeartbeatWriter", TracedHeartbeat)

    # --------------------------------------------------------------- analysis
    def self_times(self) -> list[float]:
        """Span duration minus the part its child spans cover."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def layer_table(self) -> dict:
        """layer -> {count, busy_s, self_s, per_level: {L: self_s}}."""
        table: dict = defaultdict(lambda: {
            "count": 0, "busy_s": 0.0, "self_s": 0.0,
            "per_level": defaultdict(float)})

        def add(layer, level, busy, self_s, count=1):
            row = table[layer]
            row["count"] += count
            row["busy_s"] += busy
            row["self_s"] += self_s
            if level is not None:
                row["per_level"][int(level)] += self_s

        for span, self_s in zip(self.spans, self.self_times()):
            name, level, start, end, _parent, args = span
            if name.startswith("exec."):
                task_s = sum(args["task_s"])
                add(TASK_LAYER[args["kind"]], level, task_s, task_s,
                    count=len(args["task_s"]))
                add("exec", level, end - start, self_s - task_s)
            else:
                add(LAYER_OF[name], level, end - start, self_s)
        return {layer: {**row, "per_level": dict(row["per_level"])}
                for layer, row in table.items()}

    def metrics(self, table: dict) -> dict:
        """The flat per-layer metrics (names fixed in BENCHMARK.json), from
        the spans and their ``layer_table()``."""
        from repro.kernels import dispatch

        def row(layer, key):
            return table.get(layer, {}).get(key, 0)

        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[0]].append(span)

        def calls_per_level(name):
            out = [0] * MAX_LEVELS
            for s in by_name[name]:
                out[min(int(s[1]), MAX_LEVELS - 1)] += 1
            return out

        def dur(name):
            return sum(s[3] - s[2] for s in by_name[name])

        def task_s(kind):
            return sum(sum(s[5]["task_s"]) for s in by_name["exec." + kind])

        m: dict = {}
        hydro_s = [0.0] * MAX_LEVELS
        hydro_cells = [0] * MAX_LEVELS
        for s in by_name["exec.hydro"]:
            lvl = min(int(s[1]), MAX_LEVELS - 1)
            hydro_s[lvl] += sum(s[5]["task_s"])
            hydro_cells[lvl] += s[5]["cells"]
        m["hydro.task_s"] = sum(hydro_s)
        m["hydro.cell_updates"] = sum(hydro_cells)
        for lvl in range(MAX_LEVELS):
            m[f"hydro.us_per_cell.L{lvl}"] = (
                1e6 * hydro_s[lvl] / hydro_cells[lvl] if hydro_cells[lvl]
                else 0.0)
        delta = self.kernel_delta
        m["kernels.calls"] = sum(d["calls"] for d in delta.values())
        m["kernels.s"] = sum(d["seconds"] for d in delta.values())
        for kernel in dispatch.KERNEL_NAMES:
            d = delta.get(kernel, {"calls": 0, "seconds": 0.0})
            m[f"kernels.{kernel}.calls"] = d["calls"]
            m[f"kernels.{kernel}.s"] = d["seconds"]
        m["gravity.solve_s"] = dur("gravity.solve")
        m["gravity.accel_task_s"] = task_s("gravity")
        for lvl, n in enumerate(calls_per_level("gravity.solve")):
            m[f"gravity.solve_calls.L{lvl}"] = n
        m["chemistry.task_s"] = task_s("chemistry")
        chem = [s[5] for s in by_name["evolve"] if s[5]]
        chem_cells = sum(c["cells"] for c in chem)
        m["chemistry.substeps"] = sum(c["substeps_total"] for c in chem)
        m["chemistry.active_fraction"] = (
            sum(c["active_fraction_mean"] * c["cells"] for c in chem)
            / chem_cells if chem_cells else 0.0)
        m["boundary.s"] = dur("boundary")
        for lvl, n in enumerate(calls_per_level("boundary")):
            m[f"boundary.calls.L{lvl}"] = n
        rebuilds = [s[5] for s in by_name["rebuild"]]
        created = sum(r["created"] for r in rebuilds)
        reused = sum(r["reused"] for r in rebuilds)
        acquires = sum(r["pool_acquires"] for r in rebuilds)
        m["rebuild.s"] = dur("rebuild")
        m["rebuild.calls"] = len(rebuilds)
        m["rebuild.reuse_rate"] = reused / max(reused + created, 1)
        m["pool.hit_rate"] = (
            sum(r["pool_hits"] for r in rebuilds) / max(acquires, 1))
        m["flux_correction.s"] = dur("flux_correction")
        m["projection.s"] = dur("projection")
        m["evolve.self_s"] = row("amr.evolve", "self_s")
        m["exec.dispatches"] = row("exec", "count")
        m["exec.tasks"] = sum(len(s[5]["task_s"]) for kind in TASK_LAYER
                              for s in by_name["exec." + kind])
        m["exec.overhead_s"] = row("exec", "self_s")
        m["io.write_s"] = dur("io.write")
        m["io.write_bytes"] = sum(s[5]["bytes"] for s in by_name["io.write"])
        m["io.writes"] = len(by_name["io.write"])
        m["io.load_s"] = dur("io.load")
        m["runtime.step_record_s"] = dur("runtime.step_record")
        m["runtime.emit_s"] = dur("runtime.emit")
        m["runtime.self_s"] = row("runtime", "self_s")
        window = self.spans[0][3] - self.spans[0][2]
        m["window.unattributed_frac"] = row("window", "self_s") / window
        return m

    def scheduled_speedup(self, workers: int) -> float:
        """MODELLED speed-up of the window if every dispatch's measured
        serial task times were replayed through an LPT schedule on
        ``workers`` workers (dispatches are barriers, so makespans add;
        everything outside the tasks is left as measured)."""
        window = self.spans[0][3] - self.spans[0][2]
        saved = 0.0
        for span in self.spans:
            if span[0].startswith("exec."):
                times = span[5]["task_s"]
                saved += sum(times) - lpt_makespan(times, workers)
        return window / (window - saved)

    # ----------------------------------------------------------------- export
    def write_chrome_trace(self, path: str, label: str) -> None:
        """Complete ("X") events, one track; open in ui.perfetto.dev."""
        t0 = self.spans[0][2]
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": label}}]
        for name, level, start, end, _parent, args in self.spans:
            ev_args = {} if level is None else {"level": int(level)}
            if args:
                ev_args.update({k: v for k, v in args.items()
                                if k != "task_s"})
                if "task_s" in args:
                    ev_args["tasks"] = len(args["task_s"])
                    ev_args["task_s"] = round(sum(args["task_s"]), 6)
            events.append({
                "name": name if level is None else f"{name} L{int(level)}",
                "cat": (TASK_LAYER[args["kind"]] if name.startswith("exec.")
                        else LAYER_OF[name]),
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round(1e6 * (start - t0), 3),
                "dur": round(1e6 * (end - start), 3),
                "args": ev_args,
            })
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def lpt_makespan(times, workers: int) -> float:
    """Longest-processing-time-first makespan of ``times`` on ``workers``."""
    loads = [0.0] * workers
    for t in sorted(times, reverse=True):
        i = min(range(workers), key=loads.__getitem__)
        loads[i] += t
    return max(loads) if times else 0.0
