"""Run-service scheduling benchmark: fair-share + backfill vs FIFO.

A 12-run mixed queue on a 4-worker budget — the shape of a night of
parameter-study collapses: two tenants, a couple of wide high-priority
runs, a tail of narrow cheap ones, arrivals staggered over the first
"hour".  The queue is replayed through the *production*
:class:`~repro.service.scheduler.FairShareScheduler` twice — once with
every feature on, once as the strict-FIFO baseline — under the
virtual-time cluster, so the comparison measures the decision logic
itself rather than simulation noise.  Reported per scheduler: makespan,
utilisation of the worker budget, runs per hour, mean wait, preemptions.

Writes ``BENCH_service.json`` next to this file, with the header of
``benchmarks/record.py``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--out X.json]

or via pytest (asserts the scheduled queue beats FIFO)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.service import FairShareScheduler, SimJob, VirtualCluster

import record

TOTAL_WORKERS = 4


def mixed_queue() -> list[SimJob]:
    """12 runs, two tenants, mixed widths/priorities, staggered arrivals.

    Durations are in virtual minutes; ``cells`` carries the analytic size
    estimate the cost model sees before any run has been measured.
    """
    jobs = [
        # tenant A: a wide long survey run, then narrow follow-ups
        SimJob("a-survey", duration=90.0, tenant="alice", workers=4,
               arrival=0.0, cells=4096),
        SimJob("a-follow1", duration=12.0, tenant="alice", workers=1,
               arrival=5.0, cells=512),
        SimJob("a-follow2", duration=12.0, tenant="alice", workers=1,
               arrival=5.0, cells=512),
        SimJob("a-follow3", duration=12.0, tenant="alice", workers=1,
               arrival=10.0, cells=512),
        SimJob("a-hero", duration=60.0, tenant="alice", workers=2,
               priority=5, arrival=30.0, cells=2048),
        SimJob("a-follow4", duration=8.0, tenant="alice", workers=1,
               arrival=45.0, cells=256),
        # tenant B: a steady stream of medium runs plus one urgent one
        SimJob("b-sweep1", duration=25.0, tenant="bob", workers=2,
               arrival=0.0, cells=1024),
        SimJob("b-sweep2", duration=25.0, tenant="bob", workers=2,
               arrival=15.0, cells=1024),
        SimJob("b-sweep3", duration=25.0, tenant="bob", workers=2,
               arrival=30.0, cells=1024),
        SimJob("b-urgent", duration=10.0, tenant="bob", workers=1,
               priority=5, arrival=40.0, cells=512),
        SimJob("b-tail1", duration=6.0, tenant="bob", workers=1,
               arrival=50.0, cells=256),
        SimJob("b-tail2", duration=6.0, tenant="bob", workers=1,
               arrival=55.0, cells=256),
    ]
    assert len(jobs) == 12
    return jobs


def replay(scheduler: FairShareScheduler, tick: float) -> dict:
    result = VirtualCluster(
        scheduler, TOTAL_WORKERS, tick=tick, preempt_overhead=1.0,
    ).run(mixed_queue())
    waits = [j["wait"] for j in result.jobs.values()
             if j["wait"] is not None]
    return {
        "makespan_min": round(result.makespan, 2),
        "utilisation": round(result.utilisation, 4),
        "runs_per_hour": round(12 / (result.makespan / 60.0), 3),
        "mean_wait_min": round(sum(waits) / len(waits), 2),
        "max_wait_min": round(max(waits), 2),
        "preemptions": sum(j["preemptions"]
                           for j in result.jobs.values()),
        "completed": sum(1 for j in result.jobs.values()
                         if j["finish"] is not None),
        "tenant_usage": {t: round(u, 1)
                         for t, u in result.tenant_usage.items()},
    }


def run_bench(smoke: bool = False) -> dict:
    tick = 2.0 if smoke else 0.5
    scheduled = replay(
        FairShareScheduler({"alice": 1.0, "bob": 1.0}, aging_rounds=25),
        tick)
    fifo = replay(FairShareScheduler.fifo(), tick)
    return {
        "bench": "service_scheduler",
        **record.header(),
        "workers": TOTAL_WORKERS,
        "queue": "12-run mixed (2 tenants, wide+narrow, 2 priority-5)",
        "tick_min": tick,
        "scheduled": scheduled,
        "fifo": fifo,
        "speedup": {
            "makespan": round(
                fifo["makespan_min"] / scheduled["makespan_min"], 3),
            "runs_per_hour": round(
                scheduled["runs_per_hour"] / fifo["runs_per_hour"], 3),
            "mean_wait": round(
                fifo["mean_wait_min"] / scheduled["mean_wait_min"], 3),
        },
    }


def test_scheduled_beats_fifo():
    payload = run_bench(smoke=True)
    scheduled, fifo = payload["scheduled"], payload["fifo"]
    assert scheduled["completed"] == 12
    assert fifo["completed"] == 12
    # the headline win is responsiveness: shortest-first backfill slashes
    # queue waits several-fold while staying work-conserving...
    assert scheduled["mean_wait_min"] < 0.5 * fifo["mean_wait_min"]
    assert scheduled["max_wait_min"] < fifo["max_wait_min"]
    # ...at a throughput cost bounded to a few percent (the preemption
    # overhead plus deferring the wide survey behind cheap runs)
    assert scheduled["runs_per_hour"] >= 0.9 * fifo["runs_per_hour"]
    # the urgent priority-5 arrival displaced a lower-priority run
    assert scheduled["preemptions"] >= 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="coarser virtual tick (CI-sized)")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "BENCH_service.json"))
    args = parser.parse_args()
    payload = run_bench(smoke=args.smoke)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
