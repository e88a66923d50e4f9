"""Checkpoint / restart and data outputs.

The paper's outputs were "in the 2-4 GB range" with "at least 50-100 GB
disk storage" per run; analysis and visualisation read those dumps.  This
package serialises the full hierarchy state (grids, fields, particles with
their double-double positions, times) to a single stored
(uncompressed) ``.npz`` and restores it bit-exactly.
"""

from repro.io.checkpoint import (
    CheckpointError,
    checkpoint_info,
    load_hierarchy,
    save_hierarchy,
)

__all__ = [
    "CheckpointError",
    "save_hierarchy",
    "load_hierarchy",
    "checkpoint_info",
]
