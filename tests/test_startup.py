"""Start-up cost: the hydro path and the paper's collapse load no scipy.

scipy is imported inside the functions that call it (non-EdS expansion,
clump finding, Press-Schechter), so importing the package, running the
CLI, stepping a hydro or self-gravity problem and building and stepping
the sigma_8-normalised collapse must leave it unloaded.  The checks run
in a fresh interpreter because this test process may already hold scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=600)


HYDRO_PATH = """
import contextlib, io, sys
import repro, repro.problems, repro.runtime, repro.analysis, repro.__main__
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.__main__.main(["info"]) == 0
from repro.problems import SedovBlast, SphereCollapse
SedovBlast(n_root=16, max_level=1, refine_shock=0.3).run(max_root_steps=1)
SphereCollapse(n_root=16, max_level=2).run(max_root_steps=1)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""


def test_hydro_path_loads_no_scipy():
    proc = _fresh(HYDRO_PATH)
    assert proc.returncode == 0, proc.stderr[-2000:]


COLLAPSE_PATH = """
import sys
from repro.cosmology import CosmologyParameters, PowerSpectrum
PowerSpectrum(CosmologyParameters())
from repro.problems import PrimordialCollapse
run = PrimordialCollapse(n_root=8, with_chemistry=True, with_dark_matter=True)
run.initial_rebuild()
assert run.run_to_redshift(0.0, max_root_steps=1)["root_steps"] == 1
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""


def test_power_spectrum_and_collapse_load_no_scipy():
    # sigma_8 and D(a) integrate with repro.cosmology.quadrature, so the
    # paper's collapse run (chemistry and dark matter) loads no scipy
    proc = _fresh(COLLAPSE_PATH)
    assert proc.returncode == 0, proc.stderr[-2000:]


BLOCK_SCIPY = """
import contextlib, importlib.abc, io, sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
from repro.__main__ import main
run_dir = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--problem", "collapse", "-n", "8", "--dir", run_dir,
                 "--checkpoint-every", "2", "--max-steps", "3"]) == 0
    assert main(["resume", "--dir", run_dir, "--max-steps", "4"]) == 0
"""


def test_collapse_runs_checkpoints_and_resumes_without_scipy(tmp_path):
    proc = _fresh(BLOCK_SCIPY, str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(tmp_path.joinpath("run").glob("chk_*.npz"))


def test_lcdm_expansion_still_loads_scipy_integrate():
    # positive control: a non-EdS expansion history is tabulated with
    # solve_ivp and interp1d
    pytest.importorskip("scipy")
    proc = _fresh(
        "import sys\n"
        "from repro.cosmology import CosmologyParameters, FriedmannSolver\n"
        "assert 'scipy' not in sys.modules\n"
        "FriedmannSolver(CosmologyParameters(omega_matter=0.3,"
        " omega_lambda=0.7))\n"
        "assert 'scipy.integrate' in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
