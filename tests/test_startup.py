"""Start-up cost: the hydro path loads no scipy.

scipy is imported inside the functions that call it (sigma_8
normalisation, non-EdS expansion, clump finding, Press-Schechter), so
importing the package, running the CLI and stepping a hydro or
self-gravity problem must leave it unloaded.  The check runs in a fresh
interpreter because this test process may already hold scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env,
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


def test_power_spectrum_still_loads_scipy_integrate():
    # positive control: the one remaining start-of-run site is the
    # sigma_8 normalisation of a PowerSpectrum
    pytest.importorskip("scipy")
    proc = _fresh(
        "import sys\n"
        "from repro.cosmology import CosmologyParameters, PowerSpectrum\n"
        "assert 'scipy' not in sys.modules\n"
        "PowerSpectrum(CosmologyParameters())\n"
        "assert 'scipy.integrate' in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
