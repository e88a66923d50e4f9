"""Durable checkpoint policy: naming, rotation, and the RunState record.

A run directory holds paired files per checkpoint::

    chk_0000012.npz    — the full hierarchy (atomic, see repro.io.checkpoint)
    chk_0000012.json   — the RunState: everything *outside* the hierarchy
                         that the trajectory depends on (clock words, step
                         counters, CFL, RNG state, problem config)

Both halves are written atomically (temp file + ``os.replace``), the state
file second, so a pair is complete iff its ``.json`` exists.  Rotation
keeps the newest ``keep_last`` pairs; recovery walks pairs newest-first and
uses the first one that still loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

STATE_FORMAT_VERSION = 1

_CHK_RE = re.compile(r"^chk_(\d+)\.json$")

DIGEST_SUFFIX = ".sha256"


def digest_path(path: str) -> str:
    """The sha256 sidecar next to a checkpoint half (npz or state json)."""
    return str(path) + DIGEST_SUFFIX


def file_sha256(path: str) -> str:
    """Streamed sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_digest(path: str) -> str:
    """Hash ``path`` and atomically write its ``.sha256`` sidecar.

    Written inside the same atomic-replace protocol as the checkpoint
    halves themselves (temp + fsync + ``os.replace``), *after* the data
    file is durably in place — so a sidecar never vouches for bytes that
    were not fully written.  Returns the hex digest.
    """
    digest = file_sha256(path)
    _atomic_write_text(
        digest_path(path),
        f"{digest}  {os.path.basename(path)}\n",
    )
    return digest


def verify_digest(path: str, missing_ok: bool = True) -> bool:
    """Re-hash ``path`` against its sidecar; False means corruption.

    A missing sidecar verifies (``missing_ok``) by default so checkpoint
    pairs written before digests existed stay loadable; pass
    ``missing_ok=False`` for strict scrubs.
    """
    try:
        with open(digest_path(path), encoding="utf-8") as fh:
            expected = fh.read().split()[0]
    except OSError:
        return missing_ok
    except IndexError:
        return False  # torn/empty sidecar vouches for nothing
    try:
        return file_sha256(path) == expected
    except OSError:
        return False


def _atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def serialize_rng_state(state=None) -> dict:
    """JSON-encode the legacy global numpy RNG state (MT19937)."""
    if state is None:
        state = np.random.get_state()
    name, keys, pos, has_gauss, cached = state
    return {
        "name": str(name),
        "keys": [int(k) for k in keys],
        "pos": int(pos),
        "has_gauss": int(has_gauss),
        "cached_gaussian": float(cached),
    }


def restore_rng_state(record: dict) -> None:
    np.random.set_state((
        record["name"],
        np.asarray(record["keys"], dtype=np.uint32),
        int(record["pos"]),
        int(record["has_gauss"]),
        float(record["cached_gaussian"]),
    ))


@dataclass
class RunState:
    """Everything besides the hierarchy that ``resume()`` needs to continue
    bit-exactly where ``run()`` left off."""

    step: int = 0
    t_hi: float = 0.0
    t_lo: float = 0.0
    t_end: float = 0.0
    max_root_steps: int | None = None
    cfl: float = 0.4
    #: per-level root-subcycle counters (drive the hydro sweep permutation)
    step_counter: dict = field(default_factory=dict)
    #: per-level clock words: [{"level", "time_hi", "time_lo", "n_grids"}]
    level_times: list = field(default_factory=list)
    rng_state: dict = field(default_factory=serialize_rng_state)
    gravity_mean_density: float | None = None
    #: problem spec the CLI uses to rebuild the evolver on resume
    config: dict = field(default_factory=dict)
    checkpoint: str = ""
    recoveries: int = 0
    wall_time: float = 0.0
    format_version: int = STATE_FORMAT_VERSION

    @classmethod
    def capture(cls, evolver, **overrides) -> "RunState":
        """Snapshot an evolver's run-relevant state."""
        h = evolver.hierarchy
        level_times = [
            {
                "level": lvl,
                "time_hi": float(grids[0].time.hi),
                "time_lo": float(grids[0].time.lo),
                "n_grids": len(grids),
            }
            for lvl, grids in enumerate(h.levels)
            if grids
        ]
        state = cls(
            t_hi=float(h.root.time.hi),
            t_lo=float(h.root.time.lo),
            cfl=float(evolver.cfl),
            step_counter={str(k): int(v)
                          for k, v in evolver.step_counter.items()},
            level_times=level_times,
            rng_state=serialize_rng_state(),
            gravity_mean_density=(
                float(evolver.gravity.mean_density)
                if evolver.gravity is not None else None
            ),
        )
        for key, val in overrides.items():
            setattr(state, key, val)
        return state

    def save(self, path: str) -> None:
        _atomic_write_text(path, json.dumps(self.__dict__, indent=1))

    @classmethod
    def load(cls, path: str) -> "RunState":
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        version = record.pop("format_version", STATE_FORMAT_VERSION)
        if version != STATE_FORMAT_VERSION:
            raise ValueError(f"run-state format {version} not supported")
        state = cls(**record)
        state.format_version = version
        return state


class CheckpointPolicy:
    """When to checkpoint and how many to keep.

    Parameters
    ----------
    every_steps:
        Write a checkpoint every this many root steps (plus one at step 0
        and one at exit, written by the controller regardless).
    keep_last:
        Newest pairs retained after rotation; older ones are deleted.
        Independently of the count, :meth:`rotate` never deletes a
        *pinned* step — the controller pins the checkpoint a
        preempted/resumed run restarted from until a newer one is durably
        on disk.
    """

    def __init__(self, every_steps: int = 10, keep_last: int = 3):
        if every_steps < 1:
            raise ValueError("every_steps must be >= 1")
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.every_steps = int(every_steps)
        self.keep_last = int(keep_last)

    def due(self, step: int) -> bool:
        return step % self.every_steps == 0

    # ------------------------------------------------------------- layout
    @staticmethod
    def data_path(run_dir: str, step: int) -> str:
        return os.path.join(run_dir, f"chk_{step:07d}.npz")

    @staticmethod
    def state_path(run_dir: str, step: int) -> str:
        return os.path.join(run_dir, f"chk_{step:07d}.json")

    @staticmethod
    def list_checkpoints(run_dir: str) -> list[tuple[int, str, str]]:
        """Complete (step, npz_path, state_path) pairs, oldest first."""
        out = []
        try:
            names = os.listdir(run_dir)
        except FileNotFoundError:
            return out
        for name in names:
            m = _CHK_RE.match(name)
            if m is None:
                continue
            step = int(m.group(1))
            npz = CheckpointPolicy.data_path(run_dir, step)
            if os.path.exists(npz):
                out.append((step, npz, os.path.join(run_dir, name)))
        out.sort()
        return out

    @staticmethod
    def latest(run_dir: str) -> tuple[int, str, str] | None:
        pairs = CheckpointPolicy.list_checkpoints(run_dir)
        return pairs[-1] if pairs else None

    def rotate(self, run_dir: str, pin: int | None = None) -> list[int]:
        """Delete the oldest pairs beyond ``keep_last``; returns removed steps.

        A pair whose step equals ``pin`` is never deleted, whatever the
        count says: it is the checkpoint a preempted run will resume from
        (or just resumed from), and losing it would turn a clean preempt
        into data loss.
        """
        pairs = self.list_checkpoints(run_dir)
        removed = []
        for step, npz, state in pairs[: max(0, len(pairs) - self.keep_last)]:
            if pin is not None and step == pin:
                continue
            for path in (npz, state, digest_path(npz), digest_path(state)):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
            removed.append(step)
        return removed
