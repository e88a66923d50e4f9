"""The one header of every benchmark record: where it was measured.

Each ``BENCH_*.json`` a bench script writes carries the keys in
:data:`KEYS` at its top level, under the names ``benchmarks/e2e/run.py``
uses for its records::

    payload = {"bench": "deeprun", **record.header(), ...}

Run as a script it checks records instead, exiting 1 if any lacks a
header key::

    python benchmarks/record.py BENCH_exec.json BENCH_kernels.json
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: the header keys, in the order a record lists them
KEYS = ("host_cpus", "kernel_tier", "commit", "python", "machine")


def commit() -> str:
    """The checkout's HEAD commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).parent), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False)
    except OSError:  # no git on this host
        return "unknown"
    return out.stdout.strip() or "unknown"


def header(kernel_tier: str | None = None) -> dict:
    """The header keys; ``kernel_tier`` defaults to the active kernel tier."""
    if kernel_tier is None:
        from repro.kernels import dispatch

        kernel_tier = dispatch.active_backend()
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "kernel_tier": kernel_tier,
        "commit": commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(paths) -> int:
    status = 0
    for path in paths:
        missing = [k for k in KEYS if k not in json.loads(Path(path).read_text())]
        if missing:
            print(f"{path}: header lacks {', '.join(missing)}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: header OK")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
