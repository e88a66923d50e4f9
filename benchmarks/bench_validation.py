"""Validation-suite benchmark: convergence orders + harness throughput.

Runs the two analytic problems (Sod shock tube, Sedov-Taylor blast)
through the convergence harness (``repro.validation.run_convergence``),
checks every fitted L1 order against the floors stored in
``validation_floors.json``, and records the error norms plus a
cells-advanced-per-second throughput figure for each resolution.  The
floors are deliberately below the deterministic measured orders (the
margin absorbs cross-platform FP drift); a regression that smears a
shock front or breaks the solver's reconstruction drops the fitted order
straight through them.

Writes ``BENCH_validation.json`` next to this file, with the header of
``benchmarks/record.py``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_validation.py [--smoke] [--out X.json]

or via pytest (smoke configuration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_validation.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import record

FLOORS_PATH = Path(__file__).parent / "validation_floors.json"

#: full mode adds a third resolution per problem to each smoke ladder
FULL_EXTRA = {"shock_tube": (256,), "sedov": (32,)}


def load_floors() -> dict:
    with open(FLOORS_PATH, encoding="utf-8") as fh:
        return {k: v for k, v in json.load(fh).items() if k != "comment"}


def run_problem(name: str, spec: dict, full: bool) -> dict:
    from repro.validation import get_problem, run_convergence, validate_report

    resolutions = tuple(spec["resolutions"])
    if full:
        resolutions += tuple(FULL_EXTRA.get(name, ()))
    t0 = time.perf_counter()
    report = run_convergence(
        name, resolutions=resolutions,
        fields=tuple(spec["floors"]), t_end=spec["t_end"],
    )
    wall = time.perf_counter() - t0
    # schema round-trip: what CI consumes must survive serialisation
    validate_report(json.loads(report.to_json()))

    # throughput: cell-updates per second across the whole ladder
    prob_spec = get_problem(name)
    steps = report.meta.get("steps", {})
    ndim = 3 if "3d" in prob_spec.tags else 1
    cell_updates = sum(
        int(steps.get(str(n), steps.get(n, 0))) * n**ndim
        for n in resolutions
    )

    orders = {f: report.order(f) for f in report.fields}
    checks = {
        f: {"order": orders[f], "floor": spec["floors"][f],
            "ok": orders[f] >= spec["floors"][f]}
        for f in spec["floors"]
    }
    return {
        "resolutions": list(resolutions),
        "t_end": spec["t_end"],
        "orders": orders,
        "pairwise_orders": report.pairwise_orders,
        "l1": {f: [row["l1"] for row in report.norms[f]]
               for f in report.fields},
        "floors": checks,
        "all_floors_met": all(c["ok"] for c in checks.values()),
        "wall_s": wall,
        "cell_updates_per_s": cell_updates / wall if wall > 0 else 0.0,
    }


def run(full: bool) -> dict:
    return {name: run_problem(name, spec, full)
            for name, spec in load_floors().items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="floor ladders only (the CI configuration)")
    ap.add_argument("--out",
                    default=str(Path(__file__).parent / "BENCH_validation.json"))
    args = ap.parse_args(argv)
    results = run(full=not args.smoke)
    payload = {
        "bench": "validation",
        **record.header(),
        "mode": "smoke" if args.smoke else "full",
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.out}")
    return 0 if all(r["all_floors_met"] for r in results.values()) else 1


def test_validation_bench_smoke():
    """Pytest entry: every stored convergence-order floor holds."""
    results = run(full=False)
    for name, res in results.items():
        assert res["all_floors_met"], (name, res["floors"])


if __name__ == "__main__":
    raise SystemExit(main())
