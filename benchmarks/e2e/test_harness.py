"""Smoke test of the end-to-end benchmark (run explicitly, not tier-1):

    python -m pytest benchmarks/e2e/test_harness.py

One ``harness.py --smoke`` set (< 60 s) is shared by every assertion.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS = os.path.join(HERE, "harness.py")

ALWAYS = ["hydro.task_s", "hydro.cell_updates", "kernels.calls", "boundary.s",
          "rebuild.calls", "flux_correction.s", "projection.s",
          "evolve.self_s", "exec.dispatches", "exec.tasks"]
GRAVITY = ["gravity.solve_s", "gravity.accel_task_s",
           "gravity.solve_calls.L0", "gravity.solve_calls.L1"]
CHEMISTRY = ["chemistry.task_s", "chemistry.substeps",
             "kernels.chem.blend.calls"]
CONTROLLED = ["io.write_s", "io.writes", "io.write_bytes", "io.load_s",
              "runtime.step_record_s", "runtime.emit_s"]
#: workload -> (metrics that must be non-zero, metrics that must be zero)
EXPECT = {
    "collapse_chem": (ALWAYS + GRAVITY + CHEMISTRY, CONTROLLED),
    "collapse_chem.ckpt": (ALWAYS + GRAVITY + CHEMISTRY + CONTROLLED, []),
    "sedov_amr": (ALWAYS, GRAVITY + CHEMISTRY + CONTROLLED),
    "sphere_deep": (ALWAYS + GRAVITY, CHEMISTRY + CONTROLLED),
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, HARNESS, "--smoke", "--out", str(out),
         "--trace-dir", str(out.parent)],
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), out


def test_record_schema(smoke):
    result, _ = smoke
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        contract = json.load(fh)
    for key in ("host_cpus", "kernel_tier", "exec_backend", "commit",
                "python", "numpy"):
        assert key in result["env"]
    assert set(result["workloads"]) == {w["name"]
                                        for w in contract["workloads"]}
    for entry in result["workloads"].values():
        assert set(entry["end_to_end"]) == {
            m["name"] for m in contract["end_to_end"]}
        assert set(entry["per_layer"]) == {
            m["name"] for m in contract["per_layer"]}
        assert len(entry["fingerprint"]) == 64
        assert entry["cell_updates"] > 0
        for m in entry["end_to_end"].values():
            assert m["median"] > 0 and m["unit"]


def test_every_check_passes(smoke):
    result, _ = smoke
    assert result["failed"] == 0 and result["attempted"] > 0
    for name, entry in result["workloads"].items():
        assert entry["checks_failed"] == [] and entry["errors"] == [], name
    assert result["cross"]["ckpt_fingerprint_equal"] is True


@pytest.mark.parametrize("workload", sorted(EXPECT))
def test_layers_fire_where_predicted(smoke, workload):
    result, _ = smoke
    metrics = result["workloads"][workload]["per_layer"]
    nonzero, zero = EXPECT[workload]
    assert [m for m in nonzero if not metrics[m]["value"] > 0] == []
    assert [m for m in zero if metrics[m]["value"] != 0] == []


def test_self_times_sum_to_the_window(smoke):
    result, _ = smoke
    for name, entry in result["workloads"].items():
        table = entry["layer_table"]
        window = table["window"]["busy_s"]
        total = sum(row["self_s"] for row in table.values())
        assert abs(total - window) <= 0.01 * window, name
        assert entry["per_layer"]["window.unattributed_frac"]["value"] < 0.05
        with open(entry["trace_file"], encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        assert sum(e["ph"] == "X" for e in events) > 10


def test_speedups_are_labelled_apart(smoke):
    result, _ = smoke
    metrics = result["workloads"]["collapse_chem"]["per_layer"]
    assert metrics["exec.scheduled_speedup"]["value"] >= 1.0  # modelled
    if result["env"]["host_cpus"] >= 2:
        assert metrics["exec.measured_speedup"]["value"] > 0  # measured


def test_compare_with_itself_is_clean(smoke):
    _, path = smoke
    proc = subprocess.run(
        [sys.executable, HARNESS, "--compare", str(path), str(path)],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stdout
    assert "regressed" not in proc.stdout and " ok" in proc.stdout
