"""Structured run telemetry: a JSONL event stream plus a monitor API.

One record per root-level step (the cadence an operator actually follows a
multi-week AMR run at), plus lifecycle / checkpoint / recovery events.
Records are append-only JSON lines flushed per write, so ``tail -f`` — or
``python -m repro tail`` — works on a live run, and a crash mid-line loses
at most that line (the reader tolerates a torn final record).

Every record shape — the lifecycle records, the step record and its
per-component blocks, one key table with the kind of every key — is
described once, in ``docs/RUNTIME.md`` ("Telemetry schema").
"""

from __future__ import annotations

import json
import os
import time

from repro.kernels import dispatch

TELEMETRY_NAME = "telemetry.jsonl"


def telemetry_path(run_dir: str) -> str:
    return os.path.join(run_dir, TELEMETRY_NAME)


class TelemetryWriter:
    """Append-only JSONL emitter with per-record flush."""

    def __init__(self, path: str):
        self.path = str(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._t0 = time.monotonic()

    def emit(self, event: str, **payload) -> dict:
        record = {"event": event,
                  "wall": round(time.monotonic() - self._t0, 6)}
        record.update(payload)
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_setup(evolver) -> dict:
    """How the run executes, for the ``start`` and ``resume`` records."""
    config = evolver.engine.config
    return {"exec_backend": config.backend, "workers": config.workers,
            "kernels": dispatch.active_backend()}


def step_record(evolver, step: int, dt: float) -> dict:
    """Build the per-root-step payload from live simulation objects."""
    h = evolver.hierarchy
    t = float(h.root.time)
    a = evolver.clock.a_of(h.root.time)
    record = {
        "step": int(step),
        "t": t,
        "dt": float(dt),
        "a": float(a),
        "levels": [
            {
                "level": lvl,
                "grids": len(grids),
                "cells": int(sum(
                    int(d0) * int(d1) * int(d2) for (d0, d1, d2) in
                    (g.dims for g in grids)
                )),
            }
            for lvl, grids in enumerate(h.levels) if grids
        ],
        "max_density": float(
            max(g.field_view("density").max() for g in h.all_grids())
        ),
    }
    if hasattr(evolver.clock, "redshift_of"):
        record["z"] = float(evolver.clock.redshift_of(h.root.time))
    for name, stats in evolver.step_stats.items():
        if stats:
            record[name] = stats.snapshot()
    record["timers"] = {
        k: round(v, 6) for k, v in evolver.timers.fractions().items()
    }
    return record


# ------------------------------------------------------------------ monitor
def read_events(path: str) -> list[dict]:
    """Parse a telemetry stream, returning every *complete* record.

    Torn lines are skipped wherever they appear, not only at the end of
    the file: a live writer leaves a partial final line, and a crashed
    writer that was later resumed (the writer opens in append mode) leaves
    the torn record mid-file with complete records after it.  Live
    monitors — ``ps``, ``logs``, ``tail -f`` — read concurrently with the
    writer, so raising on a torn line would make them flaky by design.
    """
    events: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn write (crash or in-flight writer)
    return events


class JsonlFollower:
    """Incremental reader over a growing JSONL file.

    Keeps a byte offset and a partial-line buffer between polls, so each
    :meth:`poll` returns only the records appended since the last call —
    a half-written final line stays buffered until its newline arrives.
    The file may not exist yet; ``poll`` then returns nothing.  One
    implementation serves ``repro tail --follow``, ``repro service logs
    -f`` and the daemon's per-run telemetry multiplexer.
    """

    def __init__(self, path: str, from_start: bool = True):
        self.path = str(path)
        self._offset = 0
        self._buffer = ""
        if not from_start:
            try:
                self._offset = os.path.getsize(self.path)
            except OSError:
                self._offset = 0

    def poll(self) -> list[dict]:
        """Complete records appended since the previous poll."""
        try:
            with open(self.path, encoding="utf-8") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except OSError:
            return []
        if not chunk:
            return []
        self._buffer += chunk
        records: list[dict] = []
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn write from a crashed earlier writer
        return records


def follow_events(path: str, poll_interval: float = 0.25, stop=None,
                  from_start: bool = True):
    """Yield telemetry records as they are appended (``tail -f``).

    ``stop``: optional zero-argument callable checked between polls; the
    generator returns once it is truthy *and* the file has been drained.
    """
    follower = JsonlFollower(path, from_start=from_start)
    while True:
        records = follower.poll()
        yield from records
        if not records and stop is not None and stop():
            return
        if not records:
            time.sleep(poll_interval)


def summarise(run_dir_or_path: str) -> dict:
    """Digest of a run directory's telemetry for dashboards / `repro tail`."""
    path = run_dir_or_path
    if os.path.isdir(path):
        path = telemetry_path(path)
    events = read_events(path)
    steps = [e for e in events if e.get("event") == "step"]
    checkpoints = [e for e in events if e.get("event") == "checkpoint"]
    recoveries = [e for e in events if e.get("event") == "recovery"]
    defenses = [e for e in events if e.get("event") == "defense"]
    out = {
        "events": len(events),
        "steps": len(steps),
        "checkpoints": len(checkpoints),
        "recoveries": len(recoveries),
        "defense_events": len(defenses),
        "lifecycle": [e["event"] for e in events
                      if e.get("event") in ("start", "resume", "finish",
                                            "interrupted", "failed")],
    }
    if steps:
        last = steps[-1]
        out.update({
            "t": last.get("t"),
            "dt": last.get("dt"),
            "a": last.get("a"),
            "z": last.get("z"),
            "max_density": last.get("max_density"),
            "levels": len(last.get("levels", [])),
            "grids": sum(l["grids"] for l in last.get("levels", [])),
            "cells": sum(l["cells"] for l in last.get("levels", [])),
            "wall": last.get("wall"),
        })
    return out


def format_events(events: list[dict]) -> str:
    """Human-readable rendering of telemetry records (newest last)."""
    lines = []
    for e in events:
        kind = e.get("event", "?")
        if kind == "step":
            levels = e.get("levels", [])
            grids = sum(l["grids"] for l in levels)
            zbit = f" z={e['z']:.2f}" if "z" in e else ""
            lines.append(
                f"step {e.get('step', '?'):>6}  t={e.get('t', 0.0):.6g}  "
                f"dt={e.get('dt', 0.0):.3g}{zbit}  levels={len(levels)}  "
                f"grids={grids}  max_rho={e.get('max_density', 0.0):.4g}"
            )
        elif kind == "checkpoint":
            lines.append(
                f"checkpoint @ step {e.get('step', '?')} -> {e.get('path')}"
            )
        elif kind == "checkpoint_rejected":
            lines.append(
                f"CHECKPOINT REJECTED @ step {e.get('step', '?')}: "
                f"{e.get('path')} ({e.get('reason')})"
            )
        elif kind == "recovery":
            lines.append(
                f"RECOVERY @ step {e.get('step', '?')}: {e.get('reason')} "
                f"(rolled back to step {e.get('rollback_step')}, "
                f"cfl -> {e.get('cfl')})"
            )
        elif kind == "defense":
            if e.get("escalate"):
                lines.append(
                    f"DEFENSE @ step {e.get('step', '?')}: grid "
                    f"{e.get('grid')} (level {e.get('level')}) exhausted "
                    f"rungs {e.get('rungs')} -> rollback"
                )
            else:
                status = "rescued" if e.get("ok") else "failed"
                lines.append(
                    f"DEFENSE @ step {e.get('step', '?')}: grid "
                    f"{e.get('grid')} (level {e.get('level')}) rung "
                    f"{e.get('rung')} {status}"
                )
        else:
            extras = {k: v for k, v in e.items()
                      if k not in ("event", "wall")}
            lines.append(f"{kind}  {json.dumps(extras)}")
    return "\n".join(lines)
