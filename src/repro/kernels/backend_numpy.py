"""The reference backend: registers the vectorised NumPy hot-path functions.

This is not a reimplementation — the registry entries *are* the original
functions from :mod:`repro.hydro`, :mod:`repro.chemistry`, :mod:`repro.amr`,
:mod:`repro.gravity` and :mod:`repro.nbody`, so selecting
``REPRO_KERNELS=numpy`` (the default) runs byte-for-byte the code the repo
has always run.  Compiled backends are parity-gated against these.
"""

from __future__ import annotations

from repro.amr import flux_correction as _flux_correction
from repro.amr import gravity as _gravity
from repro.amr import interpolation as _interpolation
from repro.chemistry import network as _network
from repro.chemistry import rates as _rates
from repro.gravity import multigrid as _multigrid
from repro.hydro import ppm as _ppm
from repro.kernels import dispatch
from repro.nbody import cic as _cic

dispatch.register("numpy", "hydro.step", _ppm.step_level_numpy)
dispatch.register("numpy", "hydro.cfl", _ppm.cfl_numpy)
dispatch.register("numpy", "chem.blend", _rates.blend_table_numpy)
dispatch.register("numpy", "chem.step", _network.step_numpy)
dispatch.register("numpy", "fill.level", _interpolation.fill_level_numpy)
dispatch.register("numpy", "mg.level", _multigrid.level_numpy)
dispatch.register("numpy", "gravity.accel", _gravity.accel_level_numpy)
dispatch.register("numpy", "flux.correct", _flux_correction.correct_numpy)
dispatch.register("numpy", "cic.deposit", _cic.deposit_numpy)
dispatch.register("numpy", "cic.gather", _cic.gather_numpy)
