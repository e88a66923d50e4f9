"""Hierarchy checkpointing to one stored (uncompressed) npz container.

Layout: one flat npz with a JSON-encoded manifest describing the tree
structure and one array entry per grid field.  Members are stored, not
deflated: field data is float64 noise to zlib (it saved 29 % of a 13.8 MB
dump at 0.45 s per write against 0.035 s stored — docs/PERFORMANCE.md,
"Checkpoint container"), and ``np.load`` reads either kind, so dumps
written by older versions still load.  Extended-precision values
(particle positions, per-grid times) are stored as their (hi, lo) word
pairs so restarts are bit-exact — a float64 round-trip would silently
destroy exactly the precision the paper's Sec. 3.5 exists to protect.

Durability: :func:`save_hierarchy` is atomic — it writes to ``<path>.tmp``,
fsyncs, then ``os.replace``s onto the final name — so a crash mid-write
(the failure mode that ends a weeks-long hero run) can never leave a torn
checkpoint where a good one used to be.  :func:`load_hierarchy` and
:func:`checkpoint_info` raise :class:`CheckpointError` (a ``ValueError``)
on truncated or corrupt files instead of leaking ``KeyError`` /
``BadZipFile`` internals.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zipfile
import zlib

import numpy as np

from repro.amr.grid import Grid
from repro.amr.hierarchy import Hierarchy
from repro.hydro.state import META_KEY
from repro.nbody.particles import ParticleSet
from repro.precision.doubledouble import DDArray, DoubleDouble

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is missing pieces, truncated, or corrupt."""


#: low-level exceptions a damaged npz can surface while reading
_CORRUPTION_ERRORS = (
    KeyError,
    EOFError,
    OSError,
    zipfile.BadZipFile,
    zlib.error,
    struct.error,
    json.JSONDecodeError,
    ValueError,
)


@contextlib.contextmanager
def _checkpoint_errors(path: str, action: str):
    """Translate low-level read failures into a clear CheckpointError."""
    try:
        yield
    except FileNotFoundError:
        raise
    except CheckpointError:
        raise
    except _CORRUPTION_ERRORS as exc:
        raise CheckpointError(
            f"cannot {action} checkpoint {path!r}: file is truncated or "
            f"corrupt ({type(exc).__name__}: {exc})"
        ) from exc


def save_hierarchy(hierarchy: Hierarchy, path: str) -> None:
    """Write the full state (grids, fields, phi, particles, times).

    The write is atomic: readers either see the previous checkpoint or the
    complete new one, never a partial file.
    """
    manifest = {
        "format_version": FORMAT_VERSION,
        "n_root": hierarchy.n_root,
        "refine_factor": hierarchy.refine_factor,
        "nghost": hierarchy.nghost,
        "advected": hierarchy.advected,
        "grids": [],
    }
    arrays = {}
    ids = {}
    for i, g in enumerate(hierarchy.all_grids()):
        ids[g.grid_id] = i
    for g in hierarchy.all_grids():
        i = ids[g.grid_id]
        entry = {
            "index": i,
            "level": g.level,
            "start_index": [int(s) for s in g.start_index],
            "dims": [int(d) for d in g.dims],
            "parent": ids[g.parent.grid_id] if g.parent is not None else None,
            "time_hi": float(g.time.hi),
            "time_lo": float(g.time.lo),
            "fields": [],
        }
        for name, arr in g.fields.array_items():
            key = f"g{i}_{name}"
            arrays[key] = arr
            entry["fields"].append(name)
        arrays[f"g{i}_phi"] = g.phi
        manifest["grids"].append(entry)

    parts = hierarchy.particles
    arrays["particles_pos_hi"] = parts.positions.hi
    arrays["particles_pos_lo"] = parts.positions.lo
    arrays["particles_vel"] = parts.velocities
    arrays["particles_mass"] = parts.masses
    arrays["particles_ids"] = parts.ids
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8
    )

    write_npz(str(path), arrays)


def write_npz(path: str, arrays: dict) -> None:
    """The one way a checkpoint container reaches disk: temp file, fsync,
    ``os.replace`` onto ``path``, fsync of the directory."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def _fsync_dir(dirname: str) -> None:
    """Make the rename itself durable (best effort on exotic filesystems)."""
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_hierarchy(path: str) -> Hierarchy:
    """Restore a hierarchy saved by :func:`save_hierarchy` (bit-exact)."""
    with _checkpoint_errors(path, "load"):
        data = np.load(path)
        manifest = json.loads(bytes(data["manifest"]).decode())
        if manifest["format_version"] != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {manifest['format_version']} not supported"
            )
        h = Hierarchy(
            n_root=manifest["n_root"],
            refine_factor=manifest["refine_factor"],
            nghost=manifest["nghost"],
            advected=manifest["advected"],
        )
        # the constructor made a fresh root; rebuild all grids in order
        by_index: dict[int, Grid] = {}
        entries = sorted(
            manifest["grids"], key=lambda e: (e["level"], e["index"])
        )
        for entry in entries:
            i = entry["index"]
            if entry["level"] == 0:
                g = h.root
            else:
                g = Grid(
                    entry["level"], entry["start_index"], entry["dims"],
                    manifest["n_root"], manifest["refine_factor"],
                    manifest["nghost"],
                )
                h.add_grid(g, by_index[entry["parent"]])
            by_index[i] = g
            for name in entry["fields"]:
                if name == META_KEY:
                    continue
                g.fields[name][...] = data[f"g{i}_{name}"]
            g.phi[...] = data[f"g{i}_phi"]
            g.time = DoubleDouble(
                float(entry["time_hi"]), float(entry["time_lo"])
            )

        pos_hi, pos_lo = data["particles_pos_hi"], data["particles_pos_lo"]
        if pos_hi.shape != pos_lo.shape:
            # DDArray would broadcast a low word array of another shape
            raise CheckpointError(
                f"particle position words differ in shape: {pos_hi.shape} "
                f"vs {pos_lo.shape}")
        h.particles = ParticleSet(
            DDArray(pos_hi, pos_lo),
            data["particles_vel"],
            data["particles_mass"],
            data["particles_ids"],
        )
    return h


def checkpoint_info(path: str) -> dict:
    """Summary of a checkpoint without loading the field data.

    Reports hierarchy-wide state — deepest level, finest cell width, total
    cells, spatial dynamic range — not just the root grid's clock.
    """
    with _checkpoint_errors(path, "inspect"):
        data = np.load(path)
        manifest = json.loads(bytes(data["manifest"]).decode())
        levels: dict[int, int] = {}
        total_cells = 0
        for entry in manifest["grids"]:
            levels[entry["level"]] = levels.get(entry["level"], 0) + 1
            total_cells += int(np.prod(entry["dims"]))
        deepest = max(levels) if levels else 0
        n_root = manifest["n_root"]
        refine = manifest["refine_factor"]
        n_particles = int(data["particles_mass"].shape[0])
    return {
        "format_version": manifest["format_version"],
        "n_root": n_root,
        "n_grids": len(manifest["grids"]),
        "grids_per_level": [levels[k] for k in sorted(levels)],
        "n_particles": n_particles,
        "time": manifest["grids"][0]["time_hi"],
        "deepest_level": deepest,
        "total_cells": total_cells,
        "finest_dx": 1.0 / (n_root * refine**deepest),
        "sdr": float(n_root * refine**deepest),
    }


QUARANTINE_SUFFIX = ".quarantine"


def verify_run_dir(run_dir: str, quarantine: bool = False,
                   strict: bool = False) -> dict:
    """Scrub every checkpoint pair in a run directory.

    For each pair this checks, in order: the sha256 sidecars of both
    halves (``strict=True`` makes a *missing* sidecar a failure), that
    the npz parses (:func:`checkpoint_info`), and that the RunState
    loads.  With ``quarantine=True`` every file of a corrupt pair
    (including its sidecars) is renamed with a ``.quarantine`` suffix so
    recovery and rotation stop seeing it, but the bytes survive for
    forensics.

    Returns ``{"checked": [...], "corrupt": [...], "quarantined": [...]}``
    where each entry is ``{"step", "status", "detail"}``.
    """
    # local import: checkpoint_policy imports nothing from this module, but
    # keeping the top-level import surface small avoids an amr<->runtime cycle
    from repro.runtime.checkpoint_policy import (
        CheckpointPolicy,
        RunState,
        digest_path,
        verify_digest,
    )

    report = {"checked": [], "corrupt": [], "quarantined": []}
    for step, npz, state_path in CheckpointPolicy.list_checkpoints(run_dir):
        detail = None
        missing_ok = not strict
        for half in (npz, state_path):
            if not verify_digest(half, missing_ok=missing_ok):
                detail = f"digest mismatch: {os.path.basename(half)}"
                break
        if detail is None:
            try:
                checkpoint_info(npz)
                RunState.load(state_path)
            except (CheckpointError, OSError, ValueError) as exc:
                detail = f"unreadable: {exc}"
        entry = {"step": step,
                 "status": "ok" if detail is None else "corrupt",
                 "detail": detail}
        report["checked"].append(entry)
        if detail is None:
            continue
        report["corrupt"].append(entry)
        if quarantine:
            for path in (npz, state_path,
                         digest_path(npz), digest_path(state_path)):
                try:
                    os.replace(path, path + QUARANTINE_SUFFIX)
                except OSError:
                    pass
            report["quarantined"].append(step)
    return report
