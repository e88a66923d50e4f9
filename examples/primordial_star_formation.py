"""The paper's headline calculation at laptop scale.

Follows the paper's Sec. 4 procedure end to end:

1. a low-resolution survey run locates where the first object forms;
2. the main run starts from the same realisation with full physics —
   dark matter, 12-species chemistry, radiative cooling, self-gravity,
   Jeans + mass refinement — and follows the collapse;
3. the analysis produces Fig. 4-style radial profiles and a Fig. 3-style
   zoom into the forming object.

The configuration below is deliberately small (8^3 root grid, shallow
level cap, boosted fluctuation amplitude) so the script finishes in a few
minutes; raise n_root / max_level / z_end for a longer, deeper run.

Run:  python examples/primordial_star_formation.py
"""

import numpy as np

from repro.analysis import zoom_stack
from repro.analysis.projections import ascii_render
from repro.problems import PrimordialCollapse
from repro.problems.collapse import find_collapse_site


def main():
    print("=== step 1: low-resolution survey (where will the star form?) ===")
    site = find_collapse_site(n_root=8, z_survey=55.0, seed=7, amplitude_boost=4.0)
    print(f"collapse site: {np.round(site, 3)} (box units)\n")

    print("=== step 2: full-physics collapse run ===")
    run = PrimordialCollapse(
        n_root=8,
        max_level=2,
        z_init=100.0,
        seed=7,
        amplitude_boost=4.0,
        jeans_number=4.0,
        mass_refine_factor=8.0,
        with_chemistry=True,
        with_dark_matter=True,
    )
    run.initial_rebuild()
    for z_stop in (75.0, 65.0, 56.0):
        out = run.run_to_redshift(z_stop, max_root_steps=400)
        run.snapshot(label=f"z={out['redshift']:.1f}")
        print(
            f"z={out['redshift']:6.1f}  peak n={out['peak_n_cgs']:9.2e} cm^-3  "
            f"levels={out['max_level']}  grids={out['n_grids']}  SDR={out['sdr']:.0f}"
        )

    print("\n=== step 3: radial profiles about the densest point (Fig. 4) ===")
    prof = run.snapshots[-1]["profiles"]
    print(f"{'r [pc]':>10} {'n [cm^-3]':>12} {'T [K]':>8} {'v_r [km/s]':>11} {'f_H2':>10}")
    for i in range(len(prof["radius"])):
        if np.isfinite(prof["number_density"][i]):
            print(
                f"{prof['radius_pc'][i]:10.2f} {prof['number_density'][i]:12.3e} "
                f"{prof['temperature'][i]:8.1f} {prof['radial_velocity_kms'][i]:11.3f} "
                f"{prof.get('f_H2', np.full_like(prof['radius'], np.nan))[i]:10.2e}"
            )

    print("\n=== zoom into the forming object (Fig. 3) ===")
    frames = zoom_stack(run.hierarchy, n_frames=2, zoom_factor=4.0, resolution=24)
    for k, fr in enumerate(frames):
        print(f"\nframe {k}: width = {fr['width']:.3f} box, "
              f"log10(rho) in [{fr['log10_min']:.2f}, {fr['log10_max']:.2f}]")
        print(ascii_render(fr["image"]))

    print("\n=== component usage (paper Sec. 5 table) ===")
    print(run.evolver.timers.report())


if __name__ == "__main__":
    main()
