"""Simulated distributed-memory parallelisation (paper Sec. 3.4).

This package is the Sec. 3.4 simulated-cluster experiment, not the
production path: a live run schedules its per-grid tasks through
:mod:`repro.exec` and never imports this package.

No MPI runtime exists in this environment, so the paper's parallel
*algorithms* run on a deterministic virtual cluster: logical ranks with
simulated clocks, a latency+bandwidth message model, and explicit queues.
The three optimisation techniques the paper describes are implemented
against that machine and their effects measured exactly as the paper
argues them:

* **Distributed objects** (:mod:`repro.exec.distribution`, re-exported
  here) — whole grids are the unit of distribution; strategies from naive
  round-robin to load-greedy assignment are compared by load-balance
  efficiency.  The execution engine schedules its tasks with the same
  strategies.
* **Sterile objects** (:mod:`repro.parallel.sterile`) — metadata-only grid
  replicas on every rank make neighbour lookup local, eliminating probe
  messages ("almost all messages are direct data sends; very few probes
  are required").
* **Pipelined communication** (:mod:`repro.parallel.pipeline`) — two-phase
  ordered asynchronous sends ("the data that are required first are sent
  first"), cutting receive-side wait time relative to blocking exchange.
"""

from repro.parallel.comm import VirtualCluster, CommStats
from repro.parallel.message import Message
from repro.parallel.sterile import SterileGrid, SterileHierarchy
from repro.exec.distribution import balance_grids, load_imbalance, WORK_PER_CELL
from repro.parallel.pipeline import Transfer, run_blocking_exchange, run_pipelined_exchange
from repro.parallel.amr_model import boundary_exchange_transfers, simulate_level_update
from repro.parallel.dynamic import DynamicLoadBalancer

__all__ = [
    "VirtualCluster",
    "CommStats",
    "Message",
    "SterileGrid",
    "SterileHierarchy",
    "balance_grids",
    "load_imbalance",
    "WORK_PER_CELL",
    "Transfer",
    "run_blocking_exchange",
    "run_pipelined_exchange",
    "boundary_exchange_transfers",
    "DynamicLoadBalancer",
    "simulate_level_update",
]
