"""Poisson solvers for the self-gravity of gas + dark matter (paper Sec. 3.3).

"On the root grid, this is done with an FFT which naturally provides the
periodic boundary conditions required.  On subgrids, we interpolate the
gravitational potential field and then solve the Poisson equation using a
traditional multi-grid relaxation technique."

This package is purely numerical (arrays in, arrays out); the AMR layer
(:mod:`repro.amr.gravity`) owns the hierarchy orchestration and the
iterative sibling-boundary exchange.
"""

from repro.gravity.fft_poisson import solve_periodic, gravity_source
from repro.gravity.multigrid import (
    MultigridConvergenceError,
    MultigridDiagnostics,
)
from repro.gravity.gradient import acceleration_from_potential, laplacian

__all__ = [
    "solve_periodic",
    "gravity_source",
    "MultigridConvergenceError",
    "MultigridDiagnostics",
    "acceleration_from_potential",
    "laplacian",
]
