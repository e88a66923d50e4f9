"""Kelvin-Helmholtz shear instability with a passive dye scalar.

Two counter-flowing streams in a periodic unit box, a smoothed tanh
interface, and a small sinusoidal transverse velocity seed (the McNally
et al. 2012 setup, reduced to our solver's conventions).  The inner
stream is dyed with a passive scalar, so the problem simultaneously
exercises:

* passive-scalar advection through PPM/ZEUS (``n_scalars=1``),
* the vorticity refinement criterion (``refine_vorticity``),
* the chaos matrix — the run goes through the full
  :class:`repro.simulation.Simulation` stack, so fault injection and the
  defense ladder apply unmodified.

The measurable is the amplitude of the seeded transverse-velocity mode,
whose early-time e-folding rate is compared against the incompressible
linear rate ``sigma = k sqrt(rho1 rho2) |u1 - u2| / (rho1 + rho2)``.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const
from repro.simulation import Simulation, SimulationConfig
from repro.validation.analytic import kh_growth_rate


class KelvinHelmholtz:
    """KH test in an ``n_root``^3 periodic box (flow varies in x-y).

    ``rho_inner``/``rho_outer`` are the stream densities, ``u_flow`` the
    half velocity difference, ``pressure`` the uniform initial pressure,
    ``shear_width`` the tanh interface thickness, ``perturb`` the seed
    amplitude (fraction of ``u_flow``) and ``kx`` the seeded mode count.
    """

    default_t_end = 1.0

    def __init__(self, n_root: int = 32, rho_inner: float = 2.0,
                 rho_outer: float = 1.0, u_flow: float = 1.0,
                 pressure: float = 2.5, shear_width: float = 0.05,
                 perturb: float = 0.05, kx: int = 1,
                 n_scalars: int = 1, max_level: int = 0,
                 refine_vorticity: float | None = None,
                 solver: str = "ppm", cfl: float = 0.4,
                 characteristic_tracing: bool = True,
                 exec_backend: str | None = None, workers: int | None = None,
                 max_grid_dims: int = 16):
        self._spec_kwargs = {
            "n_root": int(n_root), "rho_inner": float(rho_inner),
            "rho_outer": float(rho_outer), "u_flow": float(u_flow),
            "pressure": float(pressure), "shear_width": float(shear_width),
            "perturb": float(perturb), "kx": int(kx),
            "n_scalars": int(n_scalars), "max_level": int(max_level),
            "refine_vorticity": refine_vorticity, "solver": solver,
            "cfl": float(cfl),
            "characteristic_tracing": bool(characteristic_tracing),
            "exec_backend": exec_backend, "workers": workers,
            "max_grid_dims": int(max_grid_dims),
        }
        self.n = int(n_root)
        self.rho_inner = float(rho_inner)
        self.rho_outer = float(rho_outer)
        self.u_flow = float(u_flow)
        self.pressure = float(pressure)
        self.kx = int(kx)
        self.gamma = const.GAMMA
        solver_options = (
            {"characteristic_tracing": True}
            if (characteristic_tracing and solver == "ppm")
            else {}
        )
        self.sim = Simulation(SimulationConfig(
            n_root=int(n_root), max_level=int(max_level), solver=solver,
            solver_options=solver_options,
            cfl=cfl, n_scalars=int(n_scalars),
            refine_vorticity=refine_vorticity,
            exec_backend=exec_backend, workers=workers,
            max_grid_dims=max_grid_dims,
        ))
        self.steps = 0
        self.history: list[tuple[float, float]] = []  # (t, mode amplitude)
        self._setup(float(shear_width), float(perturb))

    def _setup(self, w: float, perturb: float) -> None:
        root = self.sim.hierarchy.root
        x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
        # inner band 0.25 < y < 0.75 flows +x, outer flows -x
        band = 0.5 * (np.tanh((y - 0.25) / w) - np.tanh((y - 0.75) / w))
        rho = self.rho_outer + (self.rho_inner - self.rho_outer) * band
        vx = self.u_flow * (2.0 * band - 1.0)
        vy = perturb * self.u_flow * np.sin(2.0 * np.pi * self.kx * x) * (
            np.exp(-((y - 0.25) ** 2) / (2.0 * (2.0 * w) ** 2))
            + np.exp(-((y - 0.75) ** 2) / (2.0 * (2.0 * w) ** 2))
        )
        interior = root.interior
        root.fields["density"][interior] = rho
        root.fields["vx"][interior] = vx
        root.fields["vy"][interior] = vy
        root.fields["internal"][interior] = self.pressure / (
            (self.gamma - 1.0) * rho
        )
        from repro.hydro.state import total_energy

        root.fields["energy"][interior] = total_energy(root.fields)[interior]
        # dye the inner stream: scalar density = band mass density
        for name in self.sim.hierarchy.advected:
            root.fields[name][interior] = rho * band
        self.sim.initialize()
        self.history.append((0.0, self.mode_amplitude()))

    @property
    def time(self) -> float:
        return float(self.sim.hierarchy.root.time)

    # ------------------------------------------------------------------ run
    def run(self, t_end: float | None = None,
            max_root_steps: int | None = None) -> dict:
        t_end = self.default_t_end if t_end is None else float(t_end)
        evolver = self.sim.evolver
        while self.time < t_end:
            if max_root_steps is not None and self.steps >= max_root_steps:
                break
            if evolver.advance_root_step(t_end) is None:
                break
            self.steps += 1
            self.history.append((self.time, self.mode_amplitude()))
        return self.summary()

    def make_controller(self, run_dir: str, **opts):
        opts.setdefault("config", {
            "problem": "kelvin_helmholtz", "kwargs": dict(self._spec_kwargs),
        })
        return self.sim.make_controller(run_dir, **opts)

    # -------------------------------------------------------------- measure
    def mode_amplitude(self) -> float:
        """Amplitude of the seeded vy Fourier mode, density-weighted."""
        root = self.sim.hierarchy.root
        interior = root.interior
        vy = root.fields["vy"][interior]
        x = root.cell_centres()[0]
        phase = 2.0 * np.pi * self.kx * x
        # project onto the seeded mode along x, average over y-z
        sin_part = np.tensordot(np.sin(phase), vy, axes=([0], [0]))
        cos_part = np.tensordot(np.cos(phase), vy, axes=([0], [0]))
        nx = vy.shape[0]
        power = (sin_part / nx) ** 2 + (cos_part / nx) ** 2
        return float(2.0 * np.sqrt(power.mean()))

    def growth_rate(self, window: tuple[float, float] | None = None) -> float:
        """Fitted e-folding rate of the mode amplitude over ``window``."""
        if len(self.history) < 3:
            return 0.0
        t = np.array([h[0] for h in self.history])
        amp = np.array([h[1] for h in self.history])
        if window is None:
            # default: fit while the mode is linear (amplitude under 20%
            # of the velocity jump), skipping the initial transient
            lo, hi = 0.05 * t[-1], t[-1]
            linear = amp < 0.2 * (2.0 * self.u_flow)
            if linear.any():
                hi = min(hi, float(t[linear][-1]))
            window = (lo, hi)
        mask = (t >= window[0]) & (t <= window[1]) & (amp > 0.0)
        if int(mask.sum()) < 3:
            return 0.0
        return float(np.polyfit(t[mask], np.log(amp[mask]), 1)[0])

    def growth_rate_theory(self) -> float:
        return kh_growth_rate(
            2.0 * np.pi * self.kx, self.rho_inner, self.rho_outer,
            self.u_flow, -self.u_flow,
        )

    def solution_fields(self) -> dict[str, np.ndarray]:
        root = self.sim.hierarchy.root
        interior = root.interior
        out = {
            "density": root.fields["density"][interior].copy(),
            "vx": root.fields["vx"][interior].copy(),
            "vy": root.fields["vy"][interior].copy(),
        }
        for name in self.sim.hierarchy.advected:
            out[name] = root.fields[name][interior].copy()
        return out

    def reference_fields(self) -> None:
        return None  # self-convergence only

    def scalar_mass(self) -> float:
        """Total dye mass on the root interior (conservation diagnostic)."""
        root = self.sim.hierarchy.root
        total = 0.0
        for name in self.sim.hierarchy.advected:
            total += float(root.fields[name][root.interior].sum())
        return total * root.dx**3

    def summary(self) -> dict:
        return {
            "time": self.time,
            "steps": self.steps,
            "mode_amplitude": self.mode_amplitude(),
            "growth_rate": self.growth_rate(),
            "growth_rate_theory": self.growth_rate_theory(),
            "scalar_mass": self.scalar_mass(),
            "n_grids": self.sim.hierarchy.n_grids,
        }
