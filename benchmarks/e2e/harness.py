"""One command for the whole end-to-end benchmark.

    python3 benchmarks/e2e/harness.py [--seed 7] [--reps 1]
        [--workloads a,b] [--out FILE] [--append FILE.jsonl] [--smoke]
    python3 benchmarks/e2e/harness.py --compare A.json B.json

Runs every workload in a fresh child process (``run.py``), one at a time:
first untraced for the end-to-end metrics, then traced for the per-layer
ones; checks every output; prints each metric by name with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import run as child

RUN = os.path.join(child.HERE, "run.py")


def run_child(workload: str, args, trace: int) -> dict:
    os.makedirs(child.SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=child.SCRATCH) as tmp:
        record = os.path.join(tmp, "record.json")
        cmd = [sys.executable, RUN, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--record", record,
               "--trace-dir", args.trace_dir]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        if os.path.isfile(record):
            with open(record, encoding="utf-8") as fh:
                return json.load(fh)
    # the child died before it could report: one attempted op, failed
    return {"workload": workload, "trace": trace, "correct": False,
            "attempted": 1, "failed": 1, "metrics": {},
            "error": f"exit {proc.returncode}: {proc.stdout[-500:]}"}


def failed_checks(record: dict) -> list:
    checks = list(record.get("cross_checks", []))
    for rep in record.get("reps", []):
        checks += rep["checks"]
    return [c["name"] for c in checks if not c["ok"]]


def run_set(args) -> dict:
    child.prepare_environment()
    from workloads import WORKLOADS

    contract = child.load_contract()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        sys.exit(f"unknown workloads {unknown}; known: {list(WORKLOADS)}")
    # the compile is paid once per machine, here, never inside a child
    tier, kernel_build_s = child.warm_kernels()
    print(f"kernel tier {tier}, kernel_build_s {kernel_build_s:.3f} s "
          f"(info only)")

    result = {"schema": "e2e-1", "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "reps": args.reps,
              "kernel_build_s": kernel_build_s, "workloads": {}, "cross": {}}
    for name in names:
        print(f"\n== {name}: {WORKLOADS[name].why}")
        plain = [run_child(name, args, trace=0) for _ in range(args.reps)]
        traced = run_child(name, args, trace=1)
        children = plain + [traced]
        result.setdefault("env", next(
            (c["env"] for c in children if "env" in c), None))
        entry = {
            "why": WORKLOADS[name].why,
            "steps": traced.get("steps"),
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "errors": [c["error"] for c in children if "error" in c],
            "checks_failed": [name for c in children
                              for name in failed_checks(c)],
            "fingerprint": traced.get("fingerprint"),
            "cell_updates": traced.get("cell_updates"),
            "grids_per_level": traced.get("grids_per_level"),
            "end_to_end": {}, "per_layer": traced["metrics"],
            "layer_table": traced.get("layer_table"),
            "trace_file": traced.get("trace_file"),
        }
        # identical work in every child: the fingerprint and the exact
        # count of cell updates repeat across reps and across modes
        for key in ("fingerprint", "cell_updates"):
            if len({json.dumps(c.get(key)) for c in children}) != 1:
                entry["checks_failed"].append(f"children_identical.{key}")
                entry["failed"] += 1
            entry["attempted"] += 1
        for m in contract["end_to_end"]:
            values = [c["metrics"][m["name"]]["value"] for c in plain
                      if m["name"] in c["metrics"]]
            if values:
                entry["end_to_end"][m["name"]] = {
                    "unit": m["unit"], "values": values,
                    "median": statistics.median(values)}
        result["workloads"][name] = entry
        report(name, entry)

    # cross-workload: the controlled run against the bare evolver
    w = result["workloads"]
    if "collapse_chem" in w and "collapse_chem.ckpt" in w:
        bare, ckpt = w["collapse_chem"], w["collapse_chem.ckpt"]
        same = (bare["fingerprint"] is not None
                and bare["fingerprint"] == ckpt["fingerprint"])
        result["cross"]["ckpt_fingerprint_equal"] = same
        ckpt["attempted"] += 1
        if not same:
            ckpt["failed"] += 1
            ckpt["checks_failed"].append("ckpt_fingerprint_equal")
        if "wall_s" in bare["end_to_end"] and "wall_s" in ckpt["end_to_end"]:
            a = bare["end_to_end"]["wall_s"]["median"]
            b = ckpt["end_to_end"]["wall_s"]["median"]
            result["cross"]["ckpt_overhead_frac"] = (b - a) / a
        print(f"\ncross: {json.dumps(result['cross'])}")
    result["attempted"] = sum(e["attempted"] for e in w.values())
    result["failed"] = sum(e["failed"] for e in w.values())
    print(f"\nfailure share {result['failed']}/{result['attempted']}")
    return result


def report(name: str, entry: dict) -> None:
    for metric, m in entry["end_to_end"].items():
        print(f"{name:20s} {metric:34s} {m['median']:.6g} {m['unit']}"
              f"  (n={len(m['values'])})")
    wall = entry["end_to_end"].get("wall_s")
    if wall and entry["cell_updates"]:
        print(f"{name:20s} {'cell_updates':34s} {entry['cell_updates']} count")
        print(f"{name:20s} {'cell_updates/wall_s (not gated)':34s} "
              f"{entry['cell_updates'] / wall['median']:.6g} 1/s")
    for metric, m in entry["per_layer"].items():
        print(f"{name:20s} {metric:34s} {m['value']:.6g} {m['unit']}")
    table = entry["layer_table"] or {}
    window = table.get("window", {}).get("busy_s")
    if window:
        print(f"{name:20s} layer self time, share of the traced window:")
        for layer, row in sorted(table.items(),
                                 key=lambda kv: -kv[1]["self_s"]):
            print(f"{'':20s}   {layer:22s} {row['self_s']:8.3f} s "
                  f"{100 * row['self_s'] / window:5.1f} %  "
                  f"count {row['count']}")
    if entry["checks_failed"] or entry["errors"]:
        print(f"{name:20s} FAILED {entry['checks_failed']} "
              f"{entry['errors']}")
    print(f"{name:20s} ops failed {entry['failed']}/{entry['attempted']}")


def spread(m: dict) -> float:
    v = m["values"]
    return (max(v) - min(v)) / m["median"] if len(v) > 1 else 0.0


def compare(path_a: str, path_b: str) -> int:
    """B against base A; non-zero on a regression or more failures."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    bad = 0
    for m in child.load_contract()["end_to_end"]:
        sign = 1.0 if m["better"] == "lower" else -1.0
        for name in a["workloads"]:
            ma = a["workloads"][name]["end_to_end"].get(m["name"])
            mb = b["workloads"].get(name, {}).get(
                "end_to_end", {}).get(m["name"])
            if not ma or not mb:
                continue
            ratio = mb["median"] / ma["median"]
            if max(spread(ma), spread(mb)) > m["bound"]:
                verdict = "unresolved"
            elif sign * (ratio - 1.0) > m["bound"]:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            print(f"{name:20s} {m['name']:12s} A {ma['median']:.5g} "
                  f"B {mb['median']:.5g} {m['unit']}  B/A {ratio:.4f} "
                  f"(base A, bound {m['bound']:.2f})  {verdict}")
    share_a = a["failed"] / a["attempted"]
    share_b = b["failed"] / b["attempted"]
    print(f"failure share A {a['failed']}/{a['attempted']} "
          f"B {b['failed']}/{b['attempted']}")
    return 1 if bad or share_b > share_a else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=1,
                        help="untraced child runs per workload")
    parser.add_argument("--seconds", type=float, default=float(
        child.load_contract()["run_seconds"]))
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--append", help="append a one-line record (JSONL)")
    parser.add_argument("--trace-dir", default=child.SCRATCH)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    result = run_set(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    if args.append:
        line = {**result, "workloads": {
            n: {k: v for k, v in e.items() if k != "layer_table"}
            for n, e in result["workloads"].items()}}
        with open(args.append, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
