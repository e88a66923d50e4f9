"""Build communication workloads from real hierarchies.

Bridges the AMR layer and the virtual cluster: given a (serial) Hierarchy
and a grid->rank assignment, derive the boundary-exchange transfer list for
one level update and simulate the whole update (compute + communication)
under the paper's different strategies.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import VirtualCluster
from repro.exec.distribution import grid_work
from repro.parallel.pipeline import Transfer, run_blocking_exchange, run_pipelined_exchange
from repro.parallel.sterile import SterileGrid, SterileHierarchy, find_siblings_with_probes

BYTES_PER_CELL_FIELD = 8
N_FIELDS = 18  # 5 hydro + internal + 12 species
#: seconds of compute per cell-update in the virtual machine's work model
SECONDS_PER_CELL = 2e-7


def boundary_exchange_transfers(sterile_hierarchy: SterileHierarchy,
                                assignment: dict[int, int], level: int,
                                n_fields: int = N_FIELDS) -> list[Transfer]:
    """Sibling ghost-exchange transfer list for one level.

    Message size = overlap volume x fields x 8 bytes; need_order follows
    grid id (the order grids are stepped, hence the order their boundary
    data is consumed).
    """
    out = []
    grids = sterile_hierarchy.level(level)
    for g in grids:
        for o in sterile_hierarchy.find_siblings(g):
            ov = g.ghost_overlap(o)
            lo, hi = ov
            cells = int(np.prod([h - l for l, h in zip(lo, hi)]))
            out.append(
                Transfer(
                    src=assignment[o.grid_id],
                    dst=assignment[g.grid_id],
                    size_bytes=cells * n_fields * BYTES_PER_CELL_FIELD,
                    need_order=g.grid_id,
                )
            )
    return out


def simulate_level_update(hierarchy_or_steriles, assignment: dict[int, int],
                          n_ranks: int, level: int,
                          use_sterile: bool = True,
                          use_pipeline: bool = True,
                          latency: float = 2e-5,
                          bandwidth: float = 1e8) -> dict:
    """Simulate one level update: neighbour lookup + ghost exchange + compute.

    Returns the cluster statistics plus the makespan, for each combination
    of the paper's strategies:

    * ``use_sterile=False`` — neighbour lookup costs probes to every rank
      per grid;
    * ``use_pipeline=False`` — blocking one-at-a-time exchange.
    """
    if isinstance(hierarchy_or_steriles, SterileHierarchy):
        sh = hierarchy_or_steriles
    else:
        sh = SterileHierarchy.from_hierarchy(hierarchy_or_steriles)
    cluster = VirtualCluster(n_ranks, latency=latency, bandwidth=bandwidth)

    grids = sh.level(level)
    # 1. neighbour lookup
    if not use_sterile:
        by_rank: dict[int, list[SterileGrid]] = {}
        for g in grids:
            by_rank.setdefault(assignment[g.grid_id], []).append(g)
        for g in grids:
            find_siblings_with_probes(g, cluster, assignment[g.grid_id], by_rank)
    # sterile: lookup is free (local metadata)

    # 2. ghost exchange
    transfers = boundary_exchange_transfers(sh, assignment, level)
    if use_pipeline:
        run_pipelined_exchange(cluster, transfers)
    else:
        run_blocking_exchange(cluster, transfers)

    # 3. local compute (solver work per rank)
    for g in grids:
        cluster.compute(assignment[g.grid_id], grid_work(g) * SECONDS_PER_CELL)
    cluster.barrier()

    out = cluster.stats.as_dict()
    out["makespan"] = cluster.makespan
    out["n_transfers"] = len(transfers)
    return out
