"""Tests for the compiled kernel tier (repro.kernels).

Three layers:

* dispatch — backend resolution, env/CLI plumbing, counters, the
  import guard (a missing cffi degrades to NumPy with one warning, never
  an error) and the extension cache key.
* parity — every C kernel must be **bitwise** identical to the
  vectorised NumPy reference on random and adversarial inputs.
  That is the policy docs/PERFORMANCE.md documents: compiled kernels
  preserve the reference op order, so equality is exact, not approximate.
  The AMR level fill (``fill.level``), the level's multigrid solves
  (``mg.level``), the fused hydro step (``hydro.step``), the flux
  correction (``flux.correct``) and the CIC deposit (``cic.deposit``)
  write in place, so their parity cases compare the arrays each tier
  leaves behind, and a canary class checks the C never writes outside
  them.  The Riemann, reconstruction and tracing bodies are tested
  through ``hydro.step``, the one kernel that calls them.
* physics — Riemann edge states (near-vacuum, strong/sonic rarefaction,
  symmetric collision) pinned against the exact solver for both the
  two-shock and HLLC solvers on every backend, plus end-to-end
  fingerprint identity through the Simulation facade.
"""

import itertools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import constants as const
from repro.amr.flux_correction import block_average, correct_numpy, face_cell
from repro.amr.gravity import accel_numpy
from repro.amr.interpolation import (
    FillPlan,
    fill_level_numpy,
    prolong_boxes,
    prolong_linear,
    shell_table,
    subtract_boxes,
)
from repro.amr.topology import box_overlaps
from repro.chemistry import network
from repro.chemistry.network import (
    MAX_SUBSTEPS,
    ChemistryNetwork,
    integrator_stats,
    primordial_initial_fractions,
    step_numpy,
)
from repro.chemistry.rates import CHANNEL_NAMES, RateTable, blend_table_numpy
from repro.chemistry.species import SPECIES, SPECIES_NAMES
from repro.gravity.multigrid import (
    _residual,
    level_numpy,
    redblack_smooth_numpy,
    solve_numpy,
)
from repro.hydro import ppm, reconstruction, riemann, tracing
from repro.hydro.ppm import (
    FLOOR_COUNTS,
    PPMSolver,
    pencil_boxes,
    step_numpy as hydro_step_numpy,
    store_windows,
)
from repro.hydro.state import sync_internal_from_total
from repro.hydro.riemann import (
    _conserved_flux,
    exact_riemann,
    hll_flux,
    hllc_flux,
    two_shock_flux,
)
from repro.kernels import dispatch
from repro.nbody.cic import (
    cic_deposit,
    cic_gather,
    deposit_numpy,
    gather_numpy,
)
from tests.oracles import one_grid_plan, one_grid_solve, shell_boxes

GAMMA = 1.4
ROOT = Path(__file__).resolve().parents[1]

# probe once at collection; a host without cffi or a C compiler warns here
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    #: the compiled tier, when it loads on this host
    COMPILED = [b for b in dispatch.available_backends() if b != "numpy"]

#: the NumPy Riemann bodies; ``hydro.step`` runs them (or their C
#: transcriptions) on every tier
RIEMANN = {"two_shock": two_shock_flux, "hllc": hllc_flux, "hll": hll_flux}


def _tier_impls(tier):
    """The kernels ``tier`` registers, by name."""
    assert dispatch._load(tier)
    return {name: fn for (backend, name), fn in dispatch._impls.items()
            if backend == tier}


def _state(rho, u, p, v=0.0, w=0.0):
    return tuple(np.atleast_1d(np.float64(x)) for x in (rho, u, v, w, p))


def _random_faces(n=256, seed=0):
    rng = np.random.default_rng(seed)

    def side():
        return (rng.random(n) + 0.1, 2.0 * rng.standard_normal(n),
                rng.standard_normal(n), rng.standard_normal(n),
                rng.random(n) + 0.05)

    left, right = side(), side()
    # splice in the adversarial states so the random sweep always covers
    # them: sonic rarefaction, strong double rarefaction (near-vacuum),
    # symmetric collision, supersonic advection, identical states
    hard = [
        ((1.0, 0.75, 0.0, 0.0, 1.0), (0.125, 0.0, 0.0, 0.0, 0.1)),
        ((1.0, -2.0, 0.0, 0.0, 0.4), (1.0, 2.0, 0.0, 0.0, 0.4)),
        ((1.0, 2.0, 0.0, 0.0, 0.4), (1.0, -2.0, 0.0, 0.0, 0.4)),
        ((1.0, 10.0, 0.1, -0.2, 1.0), (0.5, 10.0, 0.0, 0.0, 0.3)),
        ((1.0, 0.5, 0.2, 0.3, 2.0), (1.0, 0.5, 0.2, 0.3, 2.0)),
    ]
    left = tuple(np.array(a) for a in left)
    right = tuple(np.array(a) for a in right)
    for k, (ls, rs) in enumerate(hard):
        for comp in range(5):
            left[comp][k] = ls[comp]
            right[comp][k] = rs[comp]
    return left, right


@pytest.fixture
def isolated():
    """Restore dispatch selection/registry state around a mutating test.

    Declared *first* in test signatures so its teardown runs after
    monkeypatch's env restore — the next test then lazily re-resolves
    from a clean environment.
    """
    yield
    dispatch._reset_for_tests()


# ================================================================ dispatch
class TestDispatch:
    def test_default_is_numpy(self, isolated, monkeypatch):
        monkeypatch.delenv(dispatch.ENV_KERNELS, raising=False)
        dispatch._reset_for_tests()
        assert dispatch.active_backend() == "numpy"

    def test_env_selects_backend(self, isolated, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_KERNELS, "numpy")
        dispatch._reset_for_tests()
        assert dispatch.active_backend() == "numpy"
        if COMPILED:
            monkeypatch.setenv(dispatch.ENV_KERNELS, COMPILED[0])
            dispatch._reset_for_tests()
            assert dispatch.active_backend() == COMPILED[0]

    @pytest.mark.parametrize("name", ["fortran", "numba"])
    def test_unknown_backend_raises(self, isolated, monkeypatch, capsys,
                                    name):
        """An unknown (or retired) tier is refused with the accepted values
        named, wherever it was asked for — never a silent NumPy run."""
        from repro import Simulation, SimulationConfig
        from repro.__main__ import main

        accepted = "unknown kernel backend.*numpy.*cffi.*auto"
        with pytest.raises(ValueError, match=accepted):
            dispatch.resolve_backend(name)
        with pytest.raises(ValueError, match=accepted):
            Simulation(SimulationConfig(n_root=8, kernels=name))
        with pytest.raises(SystemExit):
            main(["run", "--kernels", name])
        assert re.search("invalid choice.*numpy.*cffi.*auto",
                         capsys.readouterr().err)
        monkeypatch.setenv(dispatch.ENV_KERNELS, name)
        dispatch._reset_for_tests()
        with pytest.raises(ValueError, match=accepted):
            dispatch.get("hydro.step")

    def test_auto_prefers_compiled(self, isolated, monkeypatch):
        monkeypatch.delenv(dispatch.ENV_KERNELS, raising=False)
        dispatch._reset_for_tests()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resolved = dispatch.set_backend("auto", env=False)
        assert resolved == (COMPILED[0] if COMPILED else "numpy")

    def test_set_backend_exports_env(self, isolated, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_KERNELS, "placeholder")
        assert dispatch.set_backend("numpy") == "numpy"
        import os

        assert os.environ[dispatch.ENV_KERNELS] == "numpy"

    def test_counters_and_merge(self, isolated):
        dispatch.set_backend("numpy", env=False)
        dispatch.reset_counters()
        mark = dispatch.counters_totals()
        blend = dispatch.get("chem.blend")
        blend(np.zeros((2, 4)), np.zeros(3, dtype=np.intp), np.full(3, 0.5))
        blend(np.zeros((2, 4)), np.zeros(3, dtype=np.intp), np.full(3, 0.5))
        delta = dispatch.counters_delta(mark)
        assert set(delta) == {"chem.blend"}
        assert delta["chem.blend"]["calls"] == 2
        assert delta["chem.blend"]["seconds"] >= 0.0

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
    def test_warm_compiles_every_kernel(self, isolated):
        dispatch.set_backend(COMPILED[0], env=False)
        dispatch.reset_counters()
        dispatch.warm()
        assert set(dispatch.counters_totals()) == set(_tier_impls(COMPILED[0]))

    def test_every_backend_registers_every_kernel(self, isolated):
        """``get`` looks a kernel up in the active backend only, so a run
        can never mix tiers: every tier registers the same kernels, all of
        them named in ``KERNEL_NAMES``.  A retired name is not registered,
        so asking for it is a ``KeyError``, never a silent fallback."""
        registered = set(_tier_impls("numpy"))
        assert registered < set(dispatch.KERNEL_NAMES)
        for backend in COMPILED:
            assert set(_tier_impls(backend)) == registered
        dispatch.set_backend("numpy", env=False)
        for name in set(dispatch.KERNEL_NAMES) - registered:
            with pytest.raises(KeyError):
                dispatch.get(name)

    def test_benchmark_contract_names_only_known_kernels(self):
        """``benchmarks/e2e/tracing.py`` reports ``kernels.<name>.calls`` /
        ``.s`` for every name in ``KERNEL_NAMES``, and a record missing a
        metric ``BENCHMARK.json`` names is incorrect.  So every kernel the
        contract names stays in the tuple, and a retired name stays only
        while the contract names it."""
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        named = set()
        for metric in contract["per_layer"]:
            parts = metric["name"].split(".")
            if parts[0] == "kernels" and len(parts) > 2:
                named.add(".".join(parts[1:-1]))
        assert named <= set(dispatch.KERNEL_NAMES)
        retired = set(dispatch.KERNEL_NAMES) - set(_tier_impls("numpy"))
        assert retired <= named

    def test_lanes_names_the_copy_this_host_runs(self, isolated):
        """``lanes()`` is the compiled tier's SIMD copy, None without it."""
        lanes = dispatch.lanes()
        if not COMPILED:
            assert lanes is None
            return
        assert lanes in ("avx512f", "default", "single")
        flags = Path("/proc/cpuinfo")
        if lanes != "single" and flags.exists():
            has_avx512f = " avx512f" in flags.read_text()
            assert (lanes == "avx512f") == has_avx512f

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
    def test_compile_flags_are_in_the_cache_key(self):
        """Dropping ``-ffp-contract=off`` (parity depends on it) must build
        a new extension, not reuse the one compiled with it."""
        from repro.kernels import backend_cffi

        flags = backend_cffi._COMPILE_ARGS
        assert "-ffp-contract=off" in flags
        fewer = tuple(f for f in flags if f != "-ffp-contract=off")
        assert backend_cffi._module_name(fewer) != backend_cffi._module_name()
        assert backend_cffi._mod.__name__ == backend_cffi._module_name(flags)


class TestImportGuard:
    """A broken compiled tier must never take down a run."""

    def test_broken_cffi_warns_once_and_falls_back(self, isolated,
                                                   monkeypatch):
        dispatch._reset_for_tests()
        # None in sys.modules makes ``import cffi`` raise ImportError —
        # the same failure mode as a missing or broken install
        monkeypatch.setitem(sys.modules, "cffi", None)
        with pytest.warns(RuntimeWarning,
                          match="backend 'cffi' unavailable") as caught:
            assert dispatch.set_backend("cffi", env=False) == "numpy"
        assert len(caught) == 1
        # warn-once: a second resolution is silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch.resolve_backend("cffi") == "numpy"
            assert dispatch.resolve_backend("auto") == "numpy"
        # and the physics still runs on the fallback
        step = dispatch.get("hydro.step")
        assert step.__name__ == "numpy:hydro.step"
        blocks, _ = _step(step, _sweep_arrays((6, 6, 6), 0, "smooth"), 2)
        assert all(np.isfinite(b).all() for b in blocks)

    def test_env_cffi_with_broken_install(self, isolated, monkeypatch):
        dispatch._reset_for_tests()
        monkeypatch.setitem(sys.modules, "cffi", None)
        monkeypatch.setenv(dispatch.ENV_KERNELS, "cffi")
        with pytest.warns(RuntimeWarning):
            assert dispatch.active_backend() == "numpy"


# ================================================================== parity
def _round_trip(state):
    """``state`` as a sweep sees it: pressure stored as ``e_int = p /
    ((gamma - 1) rho)`` and read back as ``(gamma - 1) rho e_int``."""
    rho, u, v, w, p = state
    e_int = p / ((GAMMA - 1.0) * rho)
    return rho, u, v, w, (GAMMA - 1.0) * rho * e_int


def _sweep_faces(fn, left, right, solver):
    """The Riemann fluxes of the (left, right) face pairs, solved by the
    ``hydro.step`` implementation ``fn``.

    Pair k is face 0 of pencil k of the first sweep (along axis 0) of a
    ``flat`` step: three cells (left, right, right), one ghost, unit flux
    scale, no kick or drag and floors that never fire, so the face flux is
    ``solver`` on the round-tripped states (:func:`_round_trip`) and
    nothing else.
    """
    n = np.size(left[0])
    arrays = [np.ones((3, n + 2, 3)) for _ in range(6)]
    for cell, state in enumerate((left, right, right)):
        rho, u, v, w, p = state
        e_int = p / ((GAMMA - 1.0) * rho)
        for arr, q in zip(arrays, (rho, u, v, w, e_int, e_int)):
            arr[cell, 1:-1, 1] = q
    window = np.zeros((2, 5, n, 1))
    with np.errstate(all="ignore"):
        fn(arrays, None, 1, 1.0, 1.0, 1.0, 0, False, GAMMA, "flat", solver,
           1e-300, 1e-300, 1e-3, None, np.array([[0, 0, -1, 0, n, 0, 1]]),
           [window])
    return tuple(window[0, :, :, 0])


@pytest.mark.parametrize("tier", COMPILED)
class TestBitwiseParity:
    """Every tier's kernels must match the NumPy reference bitwise."""

    # seed 11 holds faces that limit-cycle in the last ulp: NumPy (which
    # leaves the two-shock loop only when *every* face is a fixed point)
    # runs the full count there, so parity also pins "per-face exit ==
    # fixed-count loop"
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("solver", ["two_shock", "hllc", "hll"])
    def test_riemann(self, tier, solver, seed):
        """The Riemann solvers, through the step that calls them."""
        fn = _tier_impls(tier)["hydro.step"]
        left, right = _random_faces(seed=seed)
        ref = _sweep_faces(hydro_step_numpy, left, right, solver)
        got = _sweep_faces(fn, left, right, solver)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_sweep_faces_is_the_tested_operator(self, tier, monkeypatch):
        """``_sweep_faces`` solves exactly the given faces: on every tier
        its fluxes are the NumPy solver's on the round-tripped states.  On
        seed 11 the NumPy two-shock loop runs its full count (one iteration
        fewer gives other bits), which is what makes ``test_riemann`` the
        pin for the C's per-face exit."""
        fn = _tier_impls(tier)["hydro.step"]
        for seed, (solver, body) in itertools.product((0, 11),
                                                      RIEMANN.items()):
            left, right = _random_faces(seed=seed)
            ref = body(_round_trip(left), _round_trip(right), GAMMA)
            for impl in (hydro_step_numpy, fn):
                got = _sweep_faces(impl, left, right, solver)
                for a, b in zip(got, ref):
                    np.testing.assert_array_equal(a, b)
        left, right = (_round_trip(s) for s in _random_faces(seed=11))
        full = two_shock_flux(left, right, GAMMA)
        monkeypatch.setattr(riemann, "TWO_SHOCK_ITERATIONS",
                            riemann.TWO_SHOCK_ITERATIONS - 1)
        short = two_shock_flux(left, right, GAMMA)
        assert any(not np.array_equal(a, b) for a, b in zip(full, short))

    def _long_pencils(self, tier, n, scheme):
        """A step whose first sweep runs along pencils of ``n`` active
        cells and one ghost each side, with every Riemann solver."""
        fn = _tier_impls(tier)["hydro.step"]
        arrays = _sweep_arrays((n + 2, 5, 4), 2, "smooth")
        for solver in SWEEP_SOLVERS:
            _assert_steps_equal(*_step_both(fn, arrays, 1, scheme, solver))

    @pytest.mark.parametrize("method", ["ppm", "plm"])
    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_reconstruct(self, tier, method, n):
        """PPM and PLM face states through the step, from pencils below
        the PPM stencil (the PLM fallback) to 34 cells."""
        self._long_pencils(tier, n, method)

    @pytest.mark.parametrize("n", [8, 32])
    def test_trace(self, tier, n):
        """Characteristic tracing through the step."""
        self._long_pencils(tier, n, "trace")

    def test_reconstruct_flat_and_discontinuous(self, tier):
        """Every scheme's face states on flat data and across a jump,
        through the step that reconstructs them, on every Strang
        permutation."""
        fn = _tier_impls(tier)["hydro.step"]
        cases = itertools.product(("flat", "step"), SWEEP_GRIDS, range(3),
                                  SWEEP_SCHEMES)
        for kind, (shape, ng), permute, scheme in cases:
            arrays = _sweep_arrays(shape, 2, kind)
            _assert_steps_equal(*_step_both(fn, arrays, ng, scheme, "hllc",
                                            permute=permute))

    def test_chem_blend(self, tier):
        impls = _tier_impls(tier)
        rng = np.random.default_rng(7)
        logtab = rng.standard_normal((5, 64))
        idx = rng.integers(0, 63, size=200).astype(np.intp)
        weight = rng.random(200)
        ref = blend_table_numpy(logtab, idx, weight)
        got = impls["chem.blend"](logtab, idx, weight)
        np.testing.assert_array_equal(got, ref)
        # both tiers fill a caller's block instead of allocating one
        for fn in (blend_table_numpy, impls["chem.blend"]):
            out = np.empty((5, 200))
            assert fn(logtab, idx, weight, out) is out
            np.testing.assert_array_equal(out, ref)
        with pytest.raises(ValueError, match="chem.blend: out"):
            impls["chem.blend"](logtab, idx, weight, np.empty((200, 5)).T)


# ============================================================ fused chemistry
#: cells spliced over the start of every chemistry test block: NaN
#: everywhere, zero density, vacuum, no free electrons, infinite energy, a
#: negative density — the ghost-cell garbage a hydro sweep can leave behind
N_HARD = 6


def _chem_block(n_cells, seed=3, hard=True, dense=False):
    """A ``(12, n)`` cgs species block with its energy and density: mostly
    a cool, lightly ionised molecular cloud whose cells finish in one
    substep, a hot dense ionised tenth that needs several, the hottest few
    of which (in the 54,872-cell block) run into the substep cap — so the
    active set compacts twice.  ``dense`` raises the cloud's density by
    10^4, into the three-body H2 regime."""
    rng = np.random.default_rng(seed)
    T = 10 ** rng.uniform(1.0, 3.5, n_cells)
    rho = 10 ** rng.uniform(-24.0, -18.0, n_cells)
    if dense:
        rho *= 1e4
    x_e = 10 ** rng.uniform(-5.5, -2.5, n_cells)
    f_h2 = 10 ** rng.uniform(-6.0, -1.0, n_cells)
    hot = rng.random(n_cells) < 0.1
    T[hot] = 10 ** rng.uniform(3.8, 8.5, hot.sum())
    rho[hot] = 10 ** rng.uniform(-21.5, -14.5, hot.sum())
    x_e[hot] = 10 ** rng.uniform(-1.2, -0.01, hot.sum())
    fr = primordial_initial_fractions(x_e=x_e, f_h2=f_h2)
    n = {s: fr[s] * rho / (SPECIES[s].mass_amu * const.HYDROGEN_MASS)
         for s in SPECIES_NAMES}
    n["HeII"] = n["HeI"] * rng.uniform(0, 0.1, n_cells)
    n["HeIII"] = n["HeI"] * rng.uniform(0, 0.01, n_cells)
    e = ChemistryNetwork.energy_from_temperature(n, T, rho)
    state = np.stack([n[s] for s in SPECIES_NAMES])
    if hard and n_cells > N_HARD:
        i = {s: k for k, s in enumerate(SPECIES_NAMES)}
        state[:, 0], e[0], rho[0] = np.nan, np.nan, np.nan
        rho[1] = 0.0
        state[:, 2], e[2], rho[2] = 0.0, 0.0, 0.0
        for s in ("HII", "HeII", "HeIII", "H2II", "DII", "de"):
            state[i[s], 3] = 0.0
        e[4] = np.inf
        state[i["HI"], 5] = -1.0
    return state, e, rho


def _integrate(tier, block, dt=3e12, z=20.0, mode="tabulated"):
    """``advance_stacked`` on a copy of ``block`` under one tier."""
    dispatch.set_backend(tier, env=False)
    net = ChemistryNetwork(rates=RateTable(mode=mode))
    state, e, rho = (a.copy() for a in block)
    with warnings.catch_warnings():
        # the garbage cells overflow and divide by zero by design
        warnings.simplefilter("ignore", RuntimeWarning)
        stats = integrator_stats(net.advance_stacked(state, e, rho, dt, z))
    return state, e, stats


@pytest.mark.parametrize("tier", COMPILED)
class TestChemStepParity:
    """``chem.step`` against ``step_numpy``: bitwise on the arrays each tier
    leaves behind and equal integrator statistics, through the one loop
    (``ChemistryNetwork.advance_stacked``) that drives both."""

    @pytest.mark.parametrize("n_cells", [1, 512, 54872])
    def test_random_and_garbage_cells(self, isolated, tier, n_cells):
        block = _chem_block(n_cells)
        ref = _integrate("numpy", block)
        got = _integrate(tier, block)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]
        stats = ref[2]
        assert set(stats) == {"cells", "substeps_total", "substeps_max",
                              "iterations", "active_fraction_mean"}
        if n_cells > 1:
            # one and several substeps in the same block
            assert stats["substeps_max"] == stats["iterations"]
            assert n_cells < stats["substeps_total"] < (
                stats["iterations"] * n_cells)
            assert stats["active_fraction_mean"] < 0.5
        if n_cells == 54872:
            # ... and the substep cap: its hottest cells reach it
            assert stats["substeps_max"] == MAX_SUBSTEPS

    @pytest.mark.parametrize("flags", itertools.product([True, False],
                                                        repeat=4))
    @pytest.mark.parametrize("mode", ["tabulated", "analytic"])
    def test_every_option_and_both_rate_modes(self, isolated, tier, mode,
                                              flags):
        """Every combination of the options a call still has: garbage
        cells spliced in or not, the cloud at its own or three-body
        density, a step of 3e12 s or of 3e9 s, and redshift 20 or 0 for the
        CMB floor."""
        hard, sparse, long_step, early = flags
        block = _chem_block(300, hard=hard, dense=not sparse)
        options = dict(mode=mode, dt=3e12 if long_step else 3e9,
                       z=20.0 if early else 0.0)
        ref = _integrate("numpy", block, **options)
        got = _integrate(tier, block, **options)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]

    def test_garbage_cells_follow_the_rulebook(self, isolated, tier):
        """NaN, zero-density, vacuum and zero-electron cells come out as
        the reference's garbage, NaN for NaN (``nmax``/``nmin``/select
        rules), after one substep each — and leave their neighbours alone."""
        block = _chem_block(64)
        ref = _integrate("numpy", block)
        got = _integrate(tier, block)
        clean = _integrate(tier, tuple(a[..., N_HARD:] for a in block))
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        # NaN propagates through nmax/nmin; a NaN condition takes the
        # else branch of a where (H- and H2+ equilibria: 0.0)
        fast = [SPECIES_NAMES.index(s) for s in ("HM", "H2II")]
        assert np.isnan(got[1][0])
        assert np.isnan(np.delete(got[0][:, 0], fast)).all()
        assert (got[0][fast, 0] == 0.0).all()
        np.testing.assert_array_equal(got[0][:, N_HARD:], clean[0])
        np.testing.assert_array_equal(got[1][N_HARD:], clean[1])

    def test_cube_is_numpys_power(self, tier):
        """The parity trap: ``hi**3`` is ``np.power``, not ``hi*hi*hi``.
        The kernel takes the cube as an input on every tier, so a caller
        that hands both the same cube — NumPy's, the one-ulp-off product,
        or a plainly wrong one — gets the same answer from both: neither
        tier recomputes it."""
        fn = _tier_impls(tier)["chem.step"]
        state, e, rho = _chem_block(200, hard=False)
        hi = state[SPECIES_NAMES.index("HI")]
        assert np.any(hi ** 3 != hi * hi * hi)
        net = ChemistryNetwork()
        rows = dict(zip(SPECIES_NAMES, state))
        T = net.temperature(rows, e, rho)
        budgets = np.stack(network.nuclei_budgets(rows))
        tail = (net.rates.block(T), 3e12, 20.0, 0.1, 200)
        outs = []
        for cube in (hi ** 3, hi * hi * hi, 1e6 * hi ** 3):
            for step in (step_numpy, fn):
                args = (state.copy(), e.copy(), rho, budgets, np.zeros(200),
                        np.zeros(200, dtype=np.int64),
                        np.arange(200, dtype=np.intp), T.copy(), cube)
                step(*args, *tail)
                outs.append(args)
            for a, b in zip(*outs[-2:]):
                np.testing.assert_array_equal(a, b)
        assert np.any(outs[0][0] != outs[4][0])

    def test_refuses_what_the_c_cannot_index(self, tier):
        fn = _tier_impls(tier)["chem.step"]
        n = 8
        state, e, rho = _chem_block(n, hard=False)

        def call(**changed):
            args = dict(
                state=state.copy(), e=e.copy(), rho=rho,
                budgets=np.ones((3, n)),
                t_done=np.zeros(n), counts=np.zeros(n, dtype=np.int64),
                active=np.arange(n, dtype=np.intp), T=np.full(n, 300.0),
                cube=np.ones(n), block=np.ones((len(CHANNEL_NAMES), n)))
            args.update(changed)
            fn(*args.values(), 1e10, 20.0, 0.1, 200)

        call()
        for bad in (dict(active=np.array([0, 8], dtype=np.intp),
                         T=np.full(2, 300.0), cube=np.ones(2),
                         block=np.ones((len(CHANNEL_NAMES), 2))),
                    dict(active=np.array([-1, 0], dtype=np.intp),
                         T=np.full(2, 300.0), cube=np.ones(2),
                         block=np.ones((len(CHANNEL_NAMES), 2))),
                    dict(active=np.array([3, 3], dtype=np.intp),
                         T=np.full(2, 300.0), cube=np.ones(2),
                         block=np.ones((len(CHANNEL_NAMES), 2))),
                    dict(state=state[:, ::-1]),
                    dict(state=state[:-1].copy()),
                    dict(counts=np.zeros(n, dtype=np.int32)),
                    dict(T=np.full(n + 1, 300.0)),
                    dict(block=np.ones((len(CHANNEL_NAMES) - 1, n))),
                    dict(budgets=np.ones((3, n - 1))),
                    dict(cube=np.ones(n - 1)),
                    dict(rho=rho[:-1])):
            with pytest.raises(ValueError, match="chem.step"):
                call(**bad)


def test_nonfinite_temperature_never_reaches_an_integer_cast():
    """NaN ghost cells (a zero-density hydro update upstream) used to be
    cast to a table index with a RuntimeWarning on every collapse run.
    Both tiers must take them, and zero-density cells, without one."""
    T = np.array([np.nan, 300.0, 1.0, np.inf, 5e3, np.nan])
    block = _chem_block(64)
    for tier in ["numpy"] + COMPILED:
        dispatch.set_backend(tier, env=False)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = RateTable().block(T)
                net = ChemistryNetwork()
                # the temperature of the garbage block, through the table
                state, e, rho = block
                with np.errstate(all="ignore"):
                    T_block = net.temperature(
                        dict(zip(SPECIES_NAMES, state)), e, rho)
                assert np.isnan(T_block[0]) and T_block[1] == 1.0
                net.rates.block(T_block)
        finally:
            dispatch._reset_for_tests()
        assert np.isnan(got[:, [0, 5]]).all()
        assert np.isfinite(got[:, 1:5]).all()
        np.testing.assert_array_equal(got[:, 3], RateTable().block(1e9)[:, 0])


def _parents(shape, kind, seed):
    """Four parent fields (three sign-definite, one signed) + old states."""
    rng = np.random.default_rng(seed)
    coarse = [rng.random(shape) + 0.1 for _ in range(3)]
    coarse.append(rng.standard_normal(shape))
    if kind == "adversarial":
        coarse[0][1, 1, 1] = np.nan
        coarse[0][2, 2, 1] = np.inf
        coarse[3][2, 1, 2] = -np.inf
        # zeros and negatives in a sign-definite field
        coarse[1][rng.random(shape) < 0.25] = 0.0
        coarse[1][rng.random(shape) < 0.1] = -0.3
        coarse[1][0, 0, 0] = -0.0
    elif kind == "flat_sawtooth":
        coarse[0][...] = 2.5
        saw = 1.0 + (np.indices(shape).sum(axis=0) % 2)
        coarse[1][...] = saw
        coarse[3][...] = saw - 1.5
    old = [c + 0.1 * rng.standard_normal(shape) for c in coarse]
    old[3] = None  # a field without an old state (the potential)
    return coarse, old, [True, True, True, False]


def _one_target(fn, coarse, old, frac, positive, c_origin, r, fine,
                f_origin, boxes):
    """``fill.level`` on one target and no copies: prolongation into
    ``boxes`` of ``fine`` and nothing else."""
    fn(FillPlan([(fine, f_origin, 0, frac)], [(coarse, old, c_origin)], [],
                [(0, *lo, *hi) for lo, hi in boxes], (), r, positive))


#: one synthetic level of ``_fill_level_case`` (r = 2, three ghosts): four
#: targets under two parents, as (start, dims, parent).  B's interior
#: covers A's whole +x ghost slab (empty remainder), C's copy into A spans
#: A's -x and -y slabs, and E's ghosts reach the first cell of its
#: parent's arrays (zero slope there).
LEVEL_GRIDS = {"A": ((4, 4, 4), (4, 4, 4), 0),
               "B": ((8, 0, 0), (6, 12, 12), 0),
               "C": ((0, 0, 2), (6, 4, 8), 0),
               "E": ((16, 16, 16), (4, 4, 4), 1)}
#: the two parents as (origin, shape): a 8^3 interior with three ghosts,
#: one with two
LEVEL_PARENTS = (((-3, -3, -3), (14, 14, 14)), ((6, 6, 6), (12, 12, 12)))


def _fill_level_case(seed=0, frac=0.37):
    """``fill.level`` inputs for ``LEVEL_GRIDS``, fresh arrays each call:
    random parents (NaN, inf, -0.0 spliced into them, an old state on the
    first parent only), noise in every ghost cell, interiors with NaN and
    -0.0 (copied raw into a sibling's ghosts), every target also a
    source."""
    ng, nf = 3, 4
    rng = np.random.default_rng(seed)
    parents = []
    for k, (origin, shape) in enumerate(LEVEL_PARENTS):
        coarse, old, _ = _parents(shape, "adversarial", seed + k)
        parents.append((coarse, old if k == 0 else None, origin))
    starts = np.array([g[0] for g in LEVEL_GRIDS.values()])
    ends = starts + np.array([g[1] for g in LEVEL_GRIDS.values()])
    targets, sources = [], []
    for (start, dims, p), lo, hi in zip(LEVEL_GRIDS.values(), starts, ends):
        shape = tuple(d + 2 * ng for d in dims)
        arrays = [rng.standard_normal(shape) for _ in range(nf)]
        arrays[0][ng, ng + 4, ng + 4] = -0.0
        arrays[1][ng + 1, ng + 4, ng + 5] = np.nan
        origin = tuple(int(v) - ng for v in start)
        targets.append((arrays, origin, p, frac))
        sources.append((arrays, origin, tuple(lo), tuple(hi)))
    ids = np.arange(len(starts))
    copies = np.column_stack(box_overlaps(starts - ng, ends + ng, ids,
                                          starts, ends, ids))
    return (targets, parents, sources, shell_table(starts, ends, ng),
            copies, 2, [True, True, True, False])


@pytest.mark.parametrize("tier", ["numpy"] + COMPILED)
@pytest.mark.xfail(strict=True, reason="known bug: the positivity rescale "
                   "scales the slopes by q / reach, which drives the extreme "
                   "child to q - q (0, or a few ulps of q below it); ROADMAP "
                   "item 1")
def test_prolongation_keeps_positive_children_positive(tier):
    """A sign-definite field prolonged from parent cells that are all > 0
    must give children > 0, on every tier (``prolong_slopes`` and the C
    ``prolong_field``).  Random high-contrast parents (log-uniform over
    16 decades) break it: the rescaled extreme child is ``q - q * (reach
    / reach)``, which rounds to 0 or just below."""
    fn = _tier_impls(tier)["fill.level"]
    bad = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        coarse = [10.0 ** rng.uniform(-8.0, 8.0, (12, 12, 12))]
        fine = [np.full((20, 20, 20), -7.0)]
        # the children of parent cells 1 .. 10: both slope neighbours of
        # every sampled parent cell lie inside the parent array
        _one_target(fn, coarse, None, 1.0, [True], (0, 0, 0), 2, fine,
                    (2, 2, 2), [((2, 2, 2), (22, 22, 22))])
        bad.append(int(np.count_nonzero(fine[0] <= 0.0)))
    assert bad == [0] * 4, bad


@pytest.mark.parametrize("tier", COMPILED)
class TestAmrStencilParity:
    """``fill.level`` and the smoothing-only branch of the ``mg.level``
    V-cycle leave bit-identical arrays."""

    @pytest.mark.parametrize("r", [2, 4])
    @pytest.mark.parametrize("shape", [(5, 5, 5), (4, 6, 7)])
    @pytest.mark.parametrize("kind", ["random", "adversarial",
                                      "flat_sawtooth"])
    def test_prolong_linear(self, tier, kind, shape, r):
        """One target and no copies: the prolongation alone, into the
        whole array, the six ghost slabs and a single cell."""
        fn = _tier_impls(tier)["fill.level"]
        c_origin = (-1, 3, 10)
        f_origin = tuple(o * r for o in c_origin)
        f_shape = tuple(n * r for n in shape)
        f_end = tuple(o + n for o, n in zip(f_origin, f_shape))
        one = (f_origin[0] + r + 1, f_origin[1] + 1, f_end[2] - 1)
        box_sets = {
            # the whole array: every parent cell, array-edge cells included
            "full": [(f_origin, f_end)],
            "shell": shell_boxes(tuple(o + 3 for o in f_origin),
                                 tuple(e - 3 for e in f_end), 3),
            "cell": [(one, tuple(v + 1 for v in one))],
        }
        for seed, (frac, with_old) in enumerate(
                [(0.0, True), (0.37, True), (1.0, True), (0.37, False)]):
            coarse, old, positive = _parents(shape, kind, seed)
            for boxes in box_sets.values():
                ref_fine, got_fine = (
                    [np.full(f_shape, -7.0) for _ in coarse] for _ in "rg")
                with np.errstate(all="ignore"):
                    for impl, fine in ((fill_level_numpy, ref_fine),
                                       (fn, got_fine)):
                        _one_target(impl, coarse, old if with_old else None,
                                    frac, positive, c_origin, r, fine,
                                    f_origin, boxes)
                for got, ref in zip(got_fine, ref_fine):
                    np.testing.assert_array_equal(got, ref)
                    np.testing.assert_array_equal(np.signbit(got),
                                                  np.signbit(ref))

    def test_prolong_linear_is_the_tested_operator(self, tier):
        """Filling a whole array equals ``prolong_linear`` on the parent."""
        fn = _tier_impls(tier)["fill.level"]
        coarse, _, positive = _parents((4, 5, 6), "adversarial", 9)
        fine = [np.empty((8, 10, 12)) for _ in coarse]
        with np.errstate(all="ignore"):
            _one_target(fn, coarse, None, 1.0, positive, (0, 0, 0), 2, fine,
                        (0, 0, 0), [((0, 0, 0), (8, 10, 12))])
            for c, f, pos in zip(coarse, fine, positive):
                np.testing.assert_array_equal(
                    f, prolong_linear(c, 2, positive=pos))

    def test_prolong_linear_refuses_out_of_range_boxes(self, tier):
        fn = _tier_impls(tier)["fill.level"]
        coarse, fine = [np.ones((4, 4, 4))], [np.zeros((8, 8, 8))]
        for box in [((-1, 0, 0), (2, 2, 2)),     # leaves the fine array
                    ((0, 0, 0), (2, 2, 9)),
                    ((2, 0, 0), (1, 2, 2))]:     # lo > hi
            with pytest.raises(ValueError, match="outside"):
                _one_target(fn, coarse, None, 1.0, [True], (0, 0, 0), 2,
                            fine, (0, 0, 0), [box])
        with pytest.raises(ValueError, match="outside"):
            # inside the fine array, but its parent cells are not allocated
            _one_target(fn, coarse, None, 1.0, [True], (2, 0, 0), 2, fine,
                        (0, 0, 0), [((0, 0, 0), (2, 2, 2))])
        with pytest.raises(ValueError, match="grouped by target"):
            fn(FillPlan([(fine, (0, 0, 0), 0, 1.0)],
                        [(coarse, None, (0, 0, 0))], [],
                        [(1, 0, 0, 0, 2, 2, 2)], (), 2, [True]))
        assert not fine[0].any()

    @pytest.mark.parametrize("frac", [0.0, 0.37, 1.0])
    def test_level(self, tier, frac):
        """Four targets under two parents: every copy, every remainder and
        the parent-edge slopes, bitwise — and equal to prolonging every
        ghost slab whole, then copying (the two-step procedure the kernel
        shortens)."""
        fn = _tier_impls(tier)["fill.level"]
        for seed in range(3):
            ref, got, whole = (_fill_level_case(seed, frac) for _ in "rgw")
            with np.errstate(all="ignore"):
                fill_level_numpy(FillPlan(*ref))
                fn(FillPlan(*got))
                targets, parents, sources, fill, copies, r, positive = whole
                for t, (arrays, origin, p, f) in enumerate(targets):
                    boxes = [(row[1:4], row[4:7])
                             for row in fill[fill[:, 0] == t].tolist()]
                    prolong_boxes(*parents[p][:2], f, positive,
                                  parents[p][2], r, arrays, origin, boxes)
                fill_level_numpy(FillPlan(targets, parents, sources,
                                          np.empty((0, 7)), copies, r,
                                          positive))
            for (a, *_), (b, *_), (c, *_) in zip(ref[0], got[0], whole[0]):
                for x, y, z in zip(a, b, c):
                    np.testing.assert_array_equal(y, x)
                    np.testing.assert_array_equal(np.signbit(y),
                                                  np.signbit(x))
                    np.testing.assert_array_equal(z, x)
                    np.testing.assert_array_equal(np.signbit(z),
                                                  np.signbit(x))

    def test_level_case_covers_what_it_claims(self, tier):
        """The geometry of ``test_level``: B leaves nothing of A's +x slab
        to prolong, C's copy into A meets two of A's slabs, E samples the
        first cell of its parent's arrays, and A's ghosts show B's -0.0
        and NaN."""
        targets, parents, sources, fill, copies, r, positive = (
            _fill_level_case())
        a_copies = copies[copies[:, 0] == 0]
        covers = [(c[2:5], c[5:8]) for c in a_copies.tolist()]
        a_fill = fill[fill[:, 0] == 0].tolist()
        assert subtract_boxes(a_fill[1][1:4], a_fill[1][4:7], covers) == []
        from_c = a_copies[a_copies[:, 1] == 2][0]
        assert sum(
            np.all(np.maximum(from_c[2:5], row[1:4])
                   < np.minimum(from_c[5:8], row[4:7]))
            for row in a_fill) == 2
        e_fill = fill[fill[:, 0] == 3]
        assert e_fill[:, 1:4].min() // r == parents[1][2][0]
        _tier_impls(tier)["fill.level"](FillPlan(
            targets, parents, sources, fill, copies, r, positive))
        # B's interior cells at fine (8, 4, 4) and (9, 4, 5) are A's
        # ghosts (7, 3, 3) and (8, 3, 4)
        a = targets[0][0]
        assert a[0][7, 3, 3] == 0.0 and np.signbit(a[0][7, 3, 3])
        assert np.isnan(a[1][8, 3, 4])

    def test_refuses_a_copy_from_outside_the_source_interior(self, tier):
        fn = _tier_impls(tier)["fill.level"]
        targets, parents, sources, fill, copies, r, positive = (
            _fill_level_case())
        before = [a.copy() for t in targets for a in t[0]]
        # one cell more along -x: C's copy from B now reads a ghost of B
        # (and writes a ghost of C, inside C's arrays)
        bad = copies.copy()
        row = np.nonzero((bad[:, 0] == 2) & (bad[:, 1] == 1))[0][0]
        bad[row, 2] -= 1
        with pytest.raises(ValueError, match="copy source outside"):
            fn(FillPlan(targets, parents, sources, fill, bad, r, positive))
        for a, b in zip([a for t in targets for a in t[0]], before):
            np.testing.assert_array_equal(a, b)

    def test_refuses_a_target_writing_its_own_interior(self, tier):
        """A target that is also a source must not write that source's
        interior — otherwise the order of the targets would matter."""
        fn = _tier_impls(tier)["fill.level"]
        targets, parents, sources, fill, copies, r, positive = (
            _fill_level_case())
        before = [a.copy() for t in targets for a in t[0]]
        lo, hi = sources[0][2:]
        for table, which in ((fill, "fill"), (copies, "copies")):
            inner = np.array([[0, *lo, *hi]] if which == "fill"
                             else [[0, 0, *lo, *hi]], dtype=np.int64)
            bad = np.concatenate([inner, table])
            args = [targets, parents, sources, fill, copies, r, positive]
            args[3 if which == "fill" else 4] = bad
            with pytest.raises(ValueError, match="own interior"):
                fn(FillPlan(*args))
        for a, b in zip([a for t in targets for a in t[0]], before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("pre,post", [(0, 1), (3, 0), (3, 3)])
    @pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8, 8), (16, 16, 16),
                                       (4, 6, 10), (5, 3, 7)])
    def test_mg_smooth(self, tier, shape, pre, post):
        """The smoothing-only branch of a V-cycle (an odd extent, or none
        above ``min_size``) is ``pre + post + 10`` red-black sweeps, and
        the reported residual is the NumPy norm of what they leave."""
        fn = _tier_impls(tier)["mg.level"]
        rng = np.random.default_rng(sum(shape) + pre + post)
        source = rng.standard_normal(shape)
        start = rng.standard_normal(tuple(n + 2 for n in shape))
        for rim_nan in (False, True):
            if rim_nan:
                start[0, 2, 2] = np.nan
            ref = start.copy()
            redblack_smooth_numpy(ref, source, 0.1, pre + post + 10)
            failed, got, (cycles, residual, converged) = one_grid_solve(
                fn, start, source, 0.1, pre, post, max(shape), 0.0, 1)
            np.testing.assert_array_equal(got, ref)
            assert (failed, cycles, converged) == (-1, 1, False)
            want = (float(np.sqrt((_residual(ref, source, 0.1) ** 2).mean()))
                    / float(np.sqrt((source ** 2).mean())))
            np.testing.assert_array_equal(residual, want)

    def test_non_contiguous_targets_are_written_back(self, tier):
        fn = _tier_impls(tier)["fill.level"]
        coarse = [np.random.default_rng(2).random((4, 4, 4))]
        fine = np.asfortranarray(np.zeros((8, 8, 8)))
        _one_target(fn, coarse, None, 1.0, [True], (0, 0, 0), 2, [fine],
                    (0, 0, 0), [((0, 0, 0), (8, 8, 8))])
        np.testing.assert_array_equal(fine, prolong_linear(coarse[0], 2,
                                                           positive=True))


# ================================================================ V-cycle
#: every interior shape the ``sphere_deep`` benchmark window solves (63,
#: over 1,906 solves), plus 32^3 for a deeper recursion
VCYCLE_SHAPES = [
    (2, 4, 4), (4, 4, 4), (4, 4, 6), (4, 4, 8), (4, 6, 4), (4, 6, 6),
    (4, 6, 8), (4, 8, 4), (4, 8, 6), (4, 8, 8), (4, 10, 8), (4, 12, 8),
    (4, 12, 10), (6, 4, 4), (6, 4, 6), (6, 4, 8), (6, 6, 4), (6, 6, 6),
    (6, 6, 8), (6, 6, 10), (6, 6, 12), (6, 8, 6), (6, 12, 6), (6, 12, 8),
    (8, 4, 4), (8, 4, 6), (8, 4, 8), (8, 4, 10), (8, 4, 12), (8, 6, 12),
    (8, 8, 4), (8, 8, 6), (8, 8, 8), (8, 8, 14), (8, 8, 16), (8, 10, 12),
    (8, 12, 4), (8, 12, 10), (8, 12, 12), (8, 12, 22), (8, 12, 24),
    (8, 14, 14), (10, 4, 12), (10, 6, 6), (10, 8, 8), (10, 8, 16),
    (10, 12, 8), (10, 12, 12), (10, 12, 24), (12, 4, 8), (12, 6, 6),
    (12, 8, 8), (12, 8, 14), (12, 8, 16), (12, 10, 8), (12, 10, 16),
    (12, 12, 8), (12, 12, 10), (12, 22, 8), (12, 24, 8), (12, 24, 10),
    (16, 24, 24), (16, 26, 26), (32, 32, 32),
]
VCYCLE_KINDS = ("random", "sawtooth", "nan_rim", "zero_source")


def _poisson_problem(shape, kind, seed=0):
    """(rim-padded start, source) of one subgrid problem.  ``sawtooth`` is
    the checkerboard mode the red-black smoother decouples; ``nan_rim``
    poisons one Dirichlet cell, so NaN spreads through every stage."""
    rng = np.random.default_rng(sum(shape) + seed)
    padded = tuple(n + 2 for n in shape)
    phi = rng.standard_normal(padded) * 10.0 ** rng.integers(-3, 4, padded)
    source = rng.standard_normal(shape)
    if kind == "sawtooth":
        phi = 1.0 + (np.indices(padded).sum(axis=0) % 2) * 1e3
        source = (np.indices(shape).sum(axis=0) % 2) - 0.5
    elif kind == "nan_rim":
        phi[0, 1, 2] = np.nan
    elif kind == "zero_source":
        source = np.zeros(shape)
    return phi, source


def _assert_vcycle_parity(fn, shape, kind, pre, post, min_size):
    """One V-cycle (a budget of 1, a tolerance never met) of one
    ``mg.level`` call on a one-grid level leaves the potential
    :func:`solve_numpy` leaves and reports the same cycles, residual and
    verdict."""
    phi, source = _poisson_problem(shape, kind, pre)
    ref = phi.copy()
    with np.errstate(all="ignore"):
        want = solve_numpy(ref, source, 0.1, pre, post, min_size, 0.0, 1,
                           False, False)
        failed, got, out = one_grid_solve(fn, phi, source, 0.1, pre, post,
                                          min_size, 0.0, 1)
    assert failed == -1
    np.testing.assert_array_equal(got, ref, err_msg=str(shape))
    # NaN residuals (the nan_rim kind) compare equal as strings
    assert repr(out) == repr(want), shape


@pytest.mark.parametrize("tier", COMPILED)
class TestVcycleParity:
    """The subgrid solve of ``mg.level``, on a one-grid level, leaves a
    bit-identical potential and reports the same cycles, relative residual
    and verdict."""

    @pytest.mark.parametrize("kind", VCYCLE_KINDS)
    @pytest.mark.parametrize("min_size", [2, 4])
    def test_matrix(self, tier, min_size, kind):
        fn = _tier_impls(tier)["mg.level"]
        for shape, (pre, post) in itertools.product(
                VCYCLE_SHAPES, [(1, 3), (3, 1), (3, 3)]):
            _assert_vcycle_parity(fn, shape, kind, pre, post, min_size)

    def test_last_axis_of_two_is_restricted_in_the_written_order(self, tier):
        """At ``min_size < 2`` a level with a 2-cell last axis is restricted
        — the one shape where NumPy's own ``mean`` sums in another order
        than ``_restrict`` writes out; both tiers follow ``_restrict``."""
        fn = _tier_impls(tier)["mg.level"]
        for shape in [(4, 4, 2), (2, 2, 2), (8, 6, 2), (8, 8, 4)]:
            _assert_vcycle_parity(fn, shape, "random", 2, 2, 1)

    @pytest.mark.parametrize("kind", VCYCLE_KINDS)
    def test_whole_solve(self, tier, kind):
        """A whole solve ends on the same verdict, cycle count, residual
        and potential on both tiers — converged, tolerance met early,
        budget exhausted, strict (NaN fails fast, and a failed strict
        solve writes nothing), force-diverged, odd extents."""
        cases = [((8, 8, 8), {}), ((16, 26, 26), {}), ((4, 6, 4), {}),
                 ((5, 3, 7), {}),
                 ((16, 16, 16), {"budget": 2}),
                 ((16, 16, 16), {"budget": 2, "strict": True}),
                 ((9, 9, 9), {"budget": 3, "strict": True}),
                 ((8, 12, 10), {"force_diverge": True}),
                 ((8, 12, 10), {"force_diverge": True, "strict": True})]
        for shape, kwargs in cases:
            phi, source = _poisson_problem(shape, kind)
            args = {"budget": 6, **kwargs}
            outs = []
            for fn in (level_numpy, _tier_impls(tier)["mg.level"]):
                with np.errstate(all="ignore"):
                    outs.append(one_grid_solve(
                        fn, phi, source, 0.1, 3, 3, 4, 1e-9, **args))
            (f_ref, p_ref, s_ref), (f_got, p_got, s_got) = outs
            np.testing.assert_array_equal(p_got, p_ref)
            # NaN residuals (the nan_rim kind) compare equal as strings
            assert repr((f_got, s_got)) == repr((f_ref, s_ref)), (shape,
                                                                  kwargs)
            assert f_ref == (0 if kwargs.get("strict") else -1)
            if f_ref == 0:
                assert not p_ref.any()

    def test_refuses_an_empty_budget(self, tier):
        """A budget below one V-cycle runs none: both tiers refuse it
        before touching the rim or the potential."""
        phi, source = _poisson_problem((4, 4, 4), "random")
        before = phi.copy()
        for fn in (level_numpy, _tier_impls(tier)["mg.level"]):
            plan = one_grid_plan(phi)
            for budget in (0, -1):
                with pytest.raises(ValueError, match="budget"):
                    fn(plan, source.reshape(-1), 0, 1, 3, 3, 4, 1e-6, budget,
                       False, False, True, np.zeros((1, 3)))
            assert not plan.phis[0].any()
        np.testing.assert_array_equal(phi, before)

    def test_rms_is_numpys_mean_order(self, tier):
        """The C norm equals ``np.sqrt((x**2).mean())`` bit for bit.  NumPy
        sums a contiguous run pairwise in a tree that changes with its
        length — sequentially below 8, in eight accumulators up to 128,
        in halves above — and these lengths reach every branch and
        several levels of halving."""
        from repro.kernels import backend_cffi

        rng = np.random.default_rng(17)
        for n in [*range(1, 131), 512, 4096, 8193, 32 ** 3]:
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            if n == 32 ** 3:
                x = x.reshape(32, 32, 32)
            want = float(np.sqrt((x ** 2).mean()))
            assert backend_cffi._lib.rk_rms(n, backend_cffi._pc(x)) == want, n

    def test_refuses_what_the_c_cannot_index(self, tier):
        """The call's own arrays are checked before the C runs (the plan's
        where it is built): the statistics must be a writable C-contiguous
        float64 row per grid, the source one value per interior cell, the
        grid range inside the level."""
        fn = _tier_impls(tier)["mg.level"]
        phi, source = _poisson_problem((4, 6, 8), "random")
        plan = one_grid_plan(phi.copy())
        src = source.reshape(-1)
        tail = (3, 3, 4, 1e-6, 2, False, False, True)
        read_only = np.zeros((1, 3))
        read_only.flags.writeable = False
        for bad in [np.zeros((2, 3)),                        # shape mismatch
                    np.zeros(3),
                    np.zeros((1, 6))[:, ::2],                 # non-contiguous
                    read_only,                                # non-writable
                    np.zeros((1, 3), dtype=np.float32)]:
            with pytest.raises(ValueError, match="mg.level: stats"):
                fn(plan, src, 0, 1, *tail, bad)
        stats = np.zeros((1, 3))
        with pytest.raises(ValueError, match="src must hold"):
            fn(plan, src[:-1], 0, 1, *tail, stats)
        for first, stop in [(0, 2), (-1, 1), (1, 0)]:
            with pytest.raises(ValueError, match="grid range"):
                fn(plan, src, first, stop, *tail, stats)
        assert not plan.phis[0].any() and not stats.any()
        np.testing.assert_array_equal(plan.rim_views[0], phi)


# ============================================================ level solve
def _mg_level_case(seed, overlap):
    """A level-1 hierarchy under a 16^3 root with a random potential:
    grids of 4^3 .. 12^3 (odd extents included), the first two abutting
    on a face, the rest random (overlapping one another when ``overlap``),
    and random sources in the flat layout ``mg.level`` reads."""
    from repro.amr import Grid, Hierarchy

    rng = np.random.default_rng(seed)
    h = Hierarchy(n_root=16)
    h.root.phi[...] = rng.standard_normal(h.root.phi.shape)
    dims_a = rng.integers(4, 13, size=3)
    start_a = rng.integers(0, 32 - 24, size=3)
    dims_b = rng.integers(4, 13, size=3)
    start_b = start_a + np.array([dims_a[0], 0, 0])
    boxes = [(start_a, dims_a), (start_b, dims_b)]
    while len(boxes) < 5:
        dims = rng.integers(4, 13, size=3)
        start = rng.integers(0, 33 - dims, size=3)
        hits = any(np.all(np.maximum(start, s) < np.minimum(start + dims,
                                                            s + d))
                   for s, d in boxes)
        if hits == overlap or len(boxes) == 4:
            boxes.append((start, dims))
    for start, dims in boxes:
        h.add_grid(Grid(1, tuple(start), tuple(dims), n_root=16), h.root)
    plan = h.level_topology(1).poisson()
    src = rng.standard_normal(int(plan.cell_offsets[-1]))
    return h, plan, src


def _store_reference(phi, sol, ng):
    """The rim-padded solution written into a ghost-padded potential as
    the per-grid gravity path wrote it: the rim box, then each axis's
    ghost layers copied from its edge plane, axis by axis."""
    sl = tuple(slice(ng - 1, ng + n - 1) for n in sol.shape)
    phi[sl] = sol
    for axis in range(3):
        n = phi.shape[axis]
        for dst, src in ((slice(0, ng - 1), slice(ng - 1, ng)),
                         (slice(n - ng + 1, n), slice(n - ng, n - ng + 1))):
            d, s_ = [slice(None)] * 3, [slice(None)] * 3
            d[axis], s_[axis] = dst, src
            phi[tuple(d)] = phi[tuple(s_)]


def _level_reference(h, src, passes, budget=8):
    """The per-grid loop ``mg.level`` replaces: one :func:`solve_numpy` per
    grid and pass from a copy of its rim, the store, then every
    ``rim_copies`` row copied where ``np.array_equal`` says the rim
    differs.  Returns the potentials, the rims the last pass solved from
    and each solve's ``(cycles, residual, converged)``."""
    topo = h.level_topology(1)
    plan = h.level_topology(1).poisson()
    fill_level_numpy(plan.rim_fill)
    rims = [r.copy() for r in plan.rim_views]
    phis = [g.phi.copy() for g in topo.grids]
    stats = np.zeros((len(phis), 3))
    starts = np.array(topo.starts)
    origins = np.array(topo.origins)
    for k in range(passes):
        for g, (rim, phi, source) in enumerate(zip(
                rims, phis, plan.interiors(src))):
            sol = rim.copy()
            stats[g] = solve_numpy(sol, source, plan.dx, 2, 2, 2, 1e-9,
                                   budget, False, False)
            _store_reference(phi, sol, plan.nghost)
        if k == passes - 1:
            break
        for t, s, *box in topo.rim_copies.tolist():
            lo, hi = np.array(box[:3]), np.array(box[3:])
            rim_sl = tuple(map(slice, lo - starts[t] + 1, hi - starts[t] + 1))
            phi_sl = tuple(map(slice, lo - origins[s], hi - origins[s]))
            if not np.array_equal(rims[t][rim_sl], phis[s][phi_sl]):
                rims[t][rim_sl] = phis[s][phi_sl]
    return phis, rims, stats


@pytest.mark.parametrize("tier", ["numpy"] + COMPILED)
class TestMgLevelParity:
    """``mg.level`` on every tier equals the per-grid loop it replaces:
    ``solve_numpy`` + store + exchange, bitwise."""

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("passes", [1, 2])
    def test_matches_the_per_grid_loop(self, tier, overlap, passes):
        impls = _tier_impls(tier)
        for seed in range(3):
            h_ref, _, src = _mg_level_case(seed, overlap)
            phis, rims, want = _level_reference(h_ref, src, passes)
            h, plan, src = _mg_level_case(seed, overlap)
            n = len(plan.phis)
            impls["fill.level"](plan.rim_fill)
            stats = np.full((n, 3), np.nan)
            for k in range(passes):
                failed, changed = impls["mg.level"](
                    plan, src, 0, n, 2, 2, 2, 1e-9, 8, False, False,
                    k < passes - 1, stats)
                assert failed == -1
                assert changed == (k < passes - 1)
            for g, phi in enumerate(phis):
                np.testing.assert_array_equal(plan.phis[g], phi)
                np.testing.assert_array_equal(plan.rim_views[g], rims[g])
            np.testing.assert_array_equal(stats, want)

    def test_exchange_reports_a_change_as_array_equal_does(self, tier):
        """A pass that moves no rim value reports no change (and ends the
        sibling iteration); a NaN in a rim and in the sibling potential
        over it is a change, a -0.0 over a 0.0 is not."""
        fn = _tier_impls(tier)["mg.level"]
        h, plan, src = _mg_level_case(0, False)
        n = len(plan.phis)
        _tier_impls(tier)["fill.level"](plan.rim_fill)
        stats = np.zeros((n, 3))
        args = (2, 2, 2, 1e-9, 8, False, False)
        assert fn(plan, src, 0, n, *args, True, stats) == (-1, True)
        # the rims now hold the siblings' potentials: nothing moves
        assert fn(plan, src, n, n, *args, True, stats) == (-1, False)
        t, s, *box = plan.rim_rows[0].tolist()
        r_lo, p_lo = box[:3], box[3:6]
        plan.rim_views[t][tuple(r_lo)] = 0.0
        plan.phis[s][tuple(p_lo)] = -0.0
        assert fn(plan, src, n, n, *args, True, stats) == (-1, False)
        assert not np.signbit(plan.rim_views[t][tuple(r_lo)])
        plan.rim_views[t][tuple(r_lo)] = np.nan
        plan.phis[s][tuple(p_lo)] = np.nan
        assert fn(plan, src, n, n, *args, True, stats) == (-1, True)

    def test_strict_failure_returns_its_grid(self, tier):
        """A strict solve that does not converge ends the call at its
        grid, which stays unwritten; the grids before it are solved."""
        fn = _tier_impls(tier)["mg.level"]
        h, plan, src = _mg_level_case(1, True)
        n = len(plan.phis)
        _tier_impls(tier)["fill.level"](plan.rim_fill)
        plan.interiors(src)[2][1, 1, 1] = np.nan  # never converges
        before = [phi.copy() for phi in plan.phis]
        stats = np.zeros((n, 3))
        assert fn(plan, src, 0, n, 2, 2, 2, 1e-6, 60, True, False, True,
                  stats) == (2, False)
        assert stats[:2, 2].all() and not stats[2, 2]
        assert stats[2, 0] == 1  # a NaN residual fails fast
        for g in range(2):
            assert not np.array_equal(plan.phis[g], before[g])
        for g in range(2, n):
            np.testing.assert_array_equal(plan.phis[g], before[g])
        # an injected divergence fails the first grid of the range
        stats[...] = 0.0
        assert fn(plan, src, 3, n, 2, 2, 2, 1e-9, 4, True, True, True,
                  stats) == (3, False)
        assert stats[3, 0] == 4 and not stats[3, 2]
        with pytest.raises(ValueError, match="mg.level"):
            fn(plan, src, 0, n + 1, 2, 2, 2, 1e-9, 4, True, False, True,
               stats)


# ======================================================= potential gradient
#: cubic, non-cubic, and an extent of 2 along each axis (every cell of
#: it an edge cell)
ACCEL_SHAPES = [(14, 14, 14), (8, 11, 6), (2, 9, 5), (7, 2, 3), (4, 5, 2),
                (2, 2, 2)]


@pytest.mark.parametrize("tier", COMPILED)
class TestAccelParity:
    """``gravity.accel`` returns ``-np.gradient(phi, dx, axis=k) / a``
    bit for bit: central differences inside, one-sided ones on the two
    edge planes of every axis."""

    @pytest.mark.parametrize("kind", ["random", "nan"])
    def test_matrix(self, tier, kind):
        fn = _tier_impls(tier)["gravity.accel"]
        for shape in ACCEL_SHAPES:
            rng = np.random.default_rng(sum(shape))
            phi = (rng.standard_normal(shape)
                   * 10.0 ** rng.integers(-3, 4, shape))
            if kind == "nan":
                phi[0, -1, 1] = np.nan
                phi[tuple(n // 2 for n in shape)] = np.inf
            for dx, a, layout in ((0.37, 1.3, np.ascontiguousarray),
                                  (1.0 / 96, 0.02, np.asfortranarray)):
                with np.errstate(all="ignore"):
                    ref = accel_numpy(phi, dx, a)
                    got = fn(layout(phi), dx, a)
                assert got.shape == (3, *shape)
                np.testing.assert_array_equal(got, ref, err_msg=str(shape))
                finite = np.isfinite(ref)
                np.testing.assert_array_equal(np.signbit(got[finite]),
                                              np.signbit(ref[finite]))

    def test_refuses_what_the_c_cannot_index(self, tier):
        """Fewer than two cells along an axis has no gradient on either
        tier."""
        fn = _tier_impls(tier)["gravity.accel"]
        for bad in (np.zeros((1, 4, 4)), np.zeros((4, 4, 1)),
                    np.zeros((4, 4))):
            for impl in (fn, accel_numpy):
                with pytest.raises(ValueError):
                    impl(bad, 0.1, 1.0)


# ============================================================== fused step
SWEEP_SCHEMES = ("trace", "ppm+flatten", "ppm", "plm", "flat")
SWEEP_SOLVERS = ("hllc", "hll", "two_shock")
#: (ghost-inclusive shape, nghost): cubic, non-cubic, a 5-cell sweep
#: extent with two ghosts (below the PPM stencil: the PLM fallback), and
#: 3- and 4-cell extents with one ghost (PLM donor cells only, and PLM
#: slopes under a PPM scheme)
SWEEP_GRIDS = [((14, 14, 14), 3), ((8, 14, 22), 3), ((5, 6, 7), 2),
               ((3, 4, 6), 1)]
STEP_ARGS = (0.1, 0.0143, 1.1)         # dx, dt, a: dt / (a dx) = 0.13
SWEEP_FLOORS = (1e-12, 1e-30)          # density, energy
STEP_ETA = 1e-3                        # dual-energy threshold
STEP_DRAG = (0.97, 0.93)               # expansion factors: velocity, internal
#: every (permute, accel present, drag present, full_update) of a step
STEP_OPTIONS = list(itertools.product(range(3), (False, True), (False, True),
                                      (False, True)))


def _sweep_arrays(shape, n_adv, kind):
    """(rho, u, v, w, e_tot, e_int, *advected) for one grid.

    ``floors`` has a near-vacuum, zero-energy cell, a density cliff, a
    hot slab and a diverging supersonic flow: every positivity floor of
    the sweep fires and the flattening coefficient is non-zero; ``nan``
    poisons one cell of the density on top of that.  ``flat`` is one
    uniform moving state, ``step`` Sod's two states at rest on either
    side of a plane that crosses every axis.
    """
    rng = np.random.default_rng(sum(shape) + n_adv)
    if kind in ("flat", "step"):
        rho = np.full(shape, 2.5)
        e_int = np.full(shape, 0.7)
        vel = [np.full(shape, v) for v in (0.3, -0.2, 0.1)]
        if kind == "step":
            high = np.indices(shape).sum(axis=0) < sum(shape) // 2
            rho = np.where(high, 1.0, 0.125)
            e_int = np.where(high, 2.5, 2.0)
            vel = [np.zeros(shape) for _ in range(3)]
        e_tot = e_int + 0.5 * sum(v * v for v in vel)
        return [rho, *vel, e_tot, e_int,
                *(rho * rng.random(shape) for _ in range(n_adv))]
    rho = rng.random(shape) + 0.2
    vel = [0.8 * rng.standard_normal(shape) for _ in range(3)]
    e_int = rng.random(shape) + 0.1
    mid = tuple(s // 2 for s in shape)
    if kind != "smooth":
        rho[mid[0]:] *= 1e-3
        e_int[:, mid[1]:] *= 1e4
        for v, index, m in zip(vel, np.indices(shape), mid):
            v[...] += 6.0 * np.sign(index - m)     # flow away from ``mid``
        rho[mid] = 1e-13
        e_int[mid] = 1e-32
    if kind == "nan":
        rho[tuple(m - 1 for m in mid)] = np.nan
    e_tot = e_int + 0.5 * sum(v * v for v in vel)
    if kind != "smooth":
        e_tot[mid] = e_int[mid]        # energy floor: E far below v^2/2
    advected = [rho * rng.random(shape) for _ in range(n_adv)]
    return [rho, *vel, e_tot, e_int, *advected]


#: rows (axis-1 index) of :func:`_select_edges`, one case each
EDGE_ROWS = ("rest", "sonic_right", "sonic_left", "cold", "spike",
             "signed_zeros", "jump", "rest")


def _select_edges():
    """A (16, 8, 7) grid, three ghosts, whose pencils along axis 0 put the
    selects of a ``ppm+flatten`` or ``trace`` sweep with ``hllc`` on their
    boundaries; row ``a`` is case ``EDGE_ROWS[a]``:

    * uniform gas at rest (face states are the cell values exactly, so
      the PPM extremum product is exactly 0 and the contact speed s_m is
      exactly 0), moving at +c (s_l exactly 0) and at -c (s_r exactly 0);
    * ``cold``: pressure far below the floor of any sound speed, moving at
      1 — s_l == u_l (the p_term guard), a contact denominator and
      s - s_m below 1e-300;
    * ``spike``: one hot cell in converging flow — flattening with dp2 == 0
      (the ratio guard) next to it;
    * ``signed_zeros``: velocity alternating +0.0 / -0.0 — minmod of
      +-0.0 and du == 0 in the flattening;
    * ``jump``: Sod's two states, the selects off their boundaries.
    """
    shape = (16, 8, 7)
    rho = np.ones(shape)
    e_int = np.full(shape, 2.5)
    vel = [np.zeros(shape) for _ in range(3)]
    c = np.sqrt(GAMMA * ((GAMMA - 1.0) * 1.0 * 2.5) / 1.0)
    rows = {name: a for a, name in enumerate(EDGE_ROWS)}
    vel[0][:, rows["sonic_right"]] = c
    vel[0][:, rows["sonic_left"]] = -c
    e_int[:, rows["cold"]] = 1e-40
    vel[0][:, rows["cold"]] = 1.0
    e_int[8, rows["spike"]] = 7.5
    vel[0][:, rows["spike"]] = 0.1 * (8 - np.arange(16))[:, None]
    vel[0][1::2, rows["signed_zeros"]] = -0.0
    rho[8:, rows["jump"]] = 0.125
    e_int[8:, rows["jump"]] = 2.0
    e_tot = e_int + 0.5 * sum(v * v for v in vel)
    return [rho, *vel, e_tot, e_int]


def test_select_edges_cover_what_they_claim(monkeypatch):
    """Every boundary :func:`_select_edges` claims is reached in the
    NumPy reference's own sweeps (recorded at the Riemann solver, the
    flattening, the PPM reconstruction and minmod)."""
    seen = {"riemann": [], "flatten": [], "ppm": [], "minmod": []}

    def recorder(key, body):
        def record(*args):
            seen[key].append(args)
            return body(*args)
        return record

    monkeypatch.setitem(ppm._RIEMANN, "hllc",
                        recorder("riemann", riemann.hllc_flux))
    monkeypatch.setattr(ppm, "shock_flattening",
                        recorder("flatten", ppm.shock_flattening))
    monkeypatch.setitem(ppm._RECONSTRUCT, "ppm+flatten",
                        recorder("ppm", reconstruction.ppm_reconstruct))
    monkeypatch.setattr(tracing, "ppm_reconstruct",
                        recorder("ppm", reconstruction.ppm_reconstruct))
    monkeypatch.setattr(reconstruction, "_minmod",
                        recorder("minmod", reconstruction._minmod))
    for scheme in ("ppm+flatten", "trace"):
        for key in seen:
            seen[key].clear()
        _step(hydro_step_numpy, _select_edges(), 3, scheme, "hllc")
        assert seen["riemann"] and seen["ppm"] and seen["minmod"]
        hit = dict.fromkeys(("s_l", "s_m", "s_r", "p_term", "den", "s - s_m",
                             "extremum", "minmod +-0"), False)
        for left, right, _ in seen["riemann"]:
            rho_l, u_l, _, _, p_l = left
            rho_r, u_r, _, _, p_r = right
            s_l, s_r = riemann._wave_speed_estimates(rho_l, u_l, p_l, rho_r,
                                                     u_r, p_r, GAMMA)
            s_m = ppm.contact_speed(left, right, GAMMA)
            den = rho_l * (s_l - u_l) - rho_r * (s_r - u_r)
            hit["s_l"] |= bool(np.any(s_l == 0.0))
            hit["s_m"] |= bool(np.any(s_m == 0.0))
            hit["s_r"] |= bool(np.any(s_r == 0.0))
            hit["p_term"] |= bool(np.any(s_l == u_l) or np.any(s_r == u_r))
            hit["den"] |= bool(np.any(np.abs(den) < 1e-300))
            hit["s - s_m"] |= bool(np.any(np.abs(s_l - s_m) < 1e-300)
                                   or np.any(np.abs(s_r - s_m) < 1e-300))
        for (q,) in seen["ppm"]:
            dq = np.zeros_like(q)
            dq[1:-1] = reconstruction._mc_limiter(q[1:-1] - q[:-2],
                                                  q[2:] - q[1:-1])
            qf = 0.5 * (q[1:-2] + q[2:-1]) - (dq[2:-1] - dq[1:-2]) / 6.0
            qc = q[2:-2]
            hit["extremum"] |= bool(np.any((qf[1:] - qc) * (qc - qf[:-1])
                                           == 0.0))
        for a, b in seen["minmod"]:
            signed = [(x == 0.0) & np.signbit(x) for x in (a, b)]
            hit["minmod +-0"] |= bool(np.any(signed[0] | signed[1]))
        if scheme == "ppm+flatten":
            hit.update(dict.fromkeys(("dp2", "du"), False))
            for p, u in seen["flatten"]:
                dp1, dp2 = p[3:-1] - p[1:-3], p[4:] - p[:-4]
                du = u[3:-1] - u[1:-3]
                hit["dp2"] |= bool(np.any((dp2 == 0.0) & (dp1 != 0.0)
                                          & (du < 0.0)))
                hit["du"] |= bool(np.any(du == 0.0))
        assert all(hit.values()), (scheme, hit)


def _accel(shape, seed=5):
    return 0.3 * np.random.default_rng(seed).standard_normal((3, *shape))


def _every_face(shape, ng, nf):
    """A face-window table with one row per interior face of every axis
    (side 0 only), and its zeroed blocks."""
    n = [s - 2 * ng for s in shape]
    rows = []
    for ax in range(3):
        n_t1, n_t2 = (m for d, m in enumerate(n) if d != ax)
        rows += [(ax, f, -1, 0, n_t1, 0, n_t2) for f in range(n[ax] + 1)]
    return (np.array(rows, dtype=np.int64),
            [np.zeros((2, nf, r[4], r[6])) for r in rows])


def _step(fn, arrays, ng, scheme="ppm+flatten", solver="hllc", permute=0,
          accel=None, drag=None, full_update=False, wrap=None):
    """``(blocks, counts)`` of one ``hydro.step`` of implementation ``fn``
    on ``arrays`` (updated in place), given a window at every interior
    face (:func:`_every_face`, each block passed through ``wrap``):
    ``blocks[ax]`` is the ``(nf, *faces)`` array those windows gathered
    for axis ``ax``, face dimension along ``ax``, rows in
    ``WINDOW_FIELDS`` + advected order.  Side 1 of every window must stay
    zero."""
    table, outs = _every_face(arrays[0].shape, ng, len(arrays) - 1)
    if wrap is not None:
        outs = [wrap(out) for out in outs]
    with np.errstate(all="ignore"):
        counts = fn(arrays, accel, ng, *STEP_ARGS, permute, full_update,
                    GAMMA, scheme, solver, *SWEEP_FLOORS, STEP_ETA, drag,
                    table, outs)
    assert not any(out[1].any() for out in outs)
    blocks = [np.stack([out[0] for row, out in zip(table, outs)
                        if row[0] == ax], axis=1 + ax) for ax in range(3)]
    return blocks, counts


def _step_both(fn, arrays, ng, scheme, solver, **options):
    """``(fields, blocks, counts)`` of the NumPy reference and of ``fn``,
    each stepping its own copy of ``arrays``."""
    ref = [a.copy() for a in arrays]
    got = [a.copy() for a in arrays]
    return ((ref, *_step(hydro_step_numpy, ref, ng, scheme, solver, **options)),
            (got, *_step(fn, got, ng, scheme, solver, **options)))


def _assert_steps_equal(ref, got):
    (ref_fields, ref_blocks, ref_counts), (got_fields, got_blocks,
                                           got_counts) = ref, got
    assert tuple(got_counts) == tuple(ref_counts)
    assert len(ref_counts) == 3 * len(FLOOR_COUNTS) + 1
    assert len(got_blocks) == len(ref_blocks) == 3
    for a, b in zip(got_fields, ref_fields):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(got_blocks, ref_blocks):
        assert a.shape == b.shape and a.shape[0] == len(ref_fields) - 1
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("tier", COMPILED)
class TestSweepParity:
    """``hydro.step`` leaves bit-identical fields, flux blocks and counts:
    its three sweeps, the half kicks, the drag, the dual-energy sync and
    the energy floor."""

    @pytest.mark.parametrize("kind", ["smooth", "floors", "nan"])
    def test_matrix(self, tier, kind):
        """Grids x schemes x solvers x 0/3/9 advected fields, each case
        with one of the 24 :data:`STEP_OPTIONS` (permute 0/1/2, ``accel``
        None or present, ``drag`` None or present, ``full_update`` false
        or true), rotating so that every option set meets every advected
        count."""
        fn = _tier_impls(tier)["hydro.step"]
        cases = list(itertools.product(SWEEP_GRIDS, SWEEP_SCHEMES,
                                       SWEEP_SOLVERS, (0, 3, 9)))
        fired = np.zeros(len(FLOOR_COUNTS), dtype=int)
        seen = set()
        for i, ((shape, ng), scheme, solver, n_adv) in enumerate(cases):
            options = STEP_OPTIONS[(i + i // len(STEP_OPTIONS))
                                   % len(STEP_OPTIONS)]
            seen.add(options)
            permute, accel, drag, full_update = options
            arrays = _sweep_arrays(shape, n_adv, kind)
            ref, got = _step_both(
                fn, arrays, ng, scheme, solver, permute=permute,
                accel=_accel(shape) if accel else None,
                drag=STEP_DRAG if drag else None, full_update=full_update)
            _assert_steps_equal(ref, got)
            fired += np.reshape(ref[2][:15], (3, 5)).sum(axis=0) > 0
        assert seen == set(STEP_OPTIONS)
        if kind == "floors":
            # (the step's own floor count stays 0 on finite input: the
            # sync before it already floors the internal energy)
            assert fired.all(), dict(zip(FLOOR_COUNTS, fired))

    @pytest.mark.parametrize("kind", ["floors", "nan"])
    def test_solver_pencil_boxes(self, tier, kind):
        """The boxes ``ppm.pencil_boxes`` gives the three sweeps: both tiers
        agree; the active zone and every flux equal those of a
        ``full_update`` step, and no floor fires more often; no cell
        outside the sweeps' bands in their boxes and the active zone is
        written."""
        fn = _tier_impls(tier)["hydro.step"]
        cases = itertools.product(SWEEP_GRIDS, range(3), SWEEP_SCHEMES)
        for i, ((shape, ng), permute, scheme) in enumerate(cases):
            solver = SWEEP_SOLVERS[i % len(SWEEP_SOLVERS)]
            arrays = _sweep_arrays(shape, 3, kind)
            ref, got = _step_both(fn, arrays, ng, scheme, solver,
                                  permute=permute)
            _assert_steps_equal(ref, got)
            whole = [a.copy() for a in arrays]
            full = (whole, *_step(fn, whole, ng, scheme, solver,
                                  permute=permute, full_update=True))
            interior = tuple(slice(ng, n - ng) for n in shape)
            for new, whole in zip(ref[0], full[0]):
                np.testing.assert_array_equal(new[interior], whole[interior])
            for a, b in zip(ref[1], full[1]):
                np.testing.assert_array_equal(a, b)
            assert all(c <= w for c, w in zip(ref[2][:15], full[2][:15]))
            written = np.zeros(shape, dtype=bool)
            written[interior] = True
            order = [(permute + k) % 3 for k in range(3)]
            for axis, (a_lo, a_hi, b_lo, b_hi) in zip(
                    order, pencil_boxes(shape, ng, order)):
                band = np.zeros(np.moveaxis(written, axis, 0).shape,
                                dtype=bool)
                band[ng:shape[axis] - ng, a_lo:a_hi, b_lo:b_hi] = True
                written |= np.moveaxis(band, 0, axis)
            for new, old in zip(ref[0], arrays):
                np.testing.assert_array_equal(new[~written], old[~written])

    def test_solver_boxes_cover_what_later_sweeps_read(self, tier):
        """A step with the pencil boxes leaves the active zone of a full
        update bit for bit, on every Strang permutation, kicked and
        dragged."""
        fn = _tier_impls(tier)["hydro.step"]
        shape, ng = (9, 12, 14), 3
        interior = tuple(slice(ng, n - ng) for n in shape)
        for permute in range(3):
            results = []
            for full in (False, True):
                arrays = _sweep_arrays(shape, 2, "floors")
                _step(fn, arrays, ng, permute=permute, accel=_accel(shape),
                      drag=STEP_DRAG, full_update=full)
                results.append(arrays)
            for a, b in zip(*results):
                np.testing.assert_array_equal(a[interior], b[interior])
        # the restricted step does skip work: 196 + 112 + 64 of 588
        # pencils on an 8^3 interior with three ghosts
        boxes = pencil_boxes((14, 14, 14), 3, [0, 1, 2])
        assert [(b[1] - b[0]) * (b[3] - b[2]) for b in boxes] == [196, 112,
                                                                  64]

    def test_flux_layout(self, tier):
        """A window block holds its lo face on side 0 and its hi face on
        side 1 (none for -1), rows in ``WINDOW_FIELDS`` + advected order,
        its transverse box of the face plane, transverse axes ascending:
        the slices of the every-face windows, on every Strang
        permutation.  No window: no flux stored, the same fields."""
        fn = _tier_impls(tier)["hydro.step"]
        table = np.array([(0, 0, 4, 0, 5, 0, 6), (1, 2, -1, 1, 3, 2, 5),
                          (2, -1, 6, 3, 4, 0, 5), (0, 4, 1, 2, 5, 5, 6),
                          (2, 0, 6, 0, 4, 0, 5)], dtype=np.int64)
        for permute in range(3):
            arrays = _sweep_arrays((8, 9, 10), 2, "smooth")
            whole = [a.copy() for a in arrays]
            bare = [a.copy() for a in arrays]
            blocks, counts = _step(fn, whole, 2, permute=permute)
            assert [b.shape for b in blocks] == [(7, 5, 5, 6), (7, 4, 6, 6),
                                                 (7, 4, 5, 7)]
            outs = [np.full((2, 7, r[4] - r[3], r[6] - r[5]), -1.0)
                    for r in table]
            with np.errstate(all="ignore"):
                got = fn(arrays, None, 2, *STEP_ARGS, permute, False, GAMMA,
                         "ppm+flatten", "hllc", *SWEEP_FLOORS, STEP_ETA,
                         None, table, outs)
                assert fn(bare, None, 2, *STEP_ARGS, permute, False, GAMMA,
                          "ppm+flatten", "hllc", *SWEEP_FLOORS, STEP_ETA,
                          None) == got == counts
            for a, b, c in zip(arrays, whole, bare):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
            for (ax, *faces, a0, a1, b0, b1), out in zip(table.tolist(),
                                                         outs):
                for side, face in enumerate(faces):
                    if face < 0:
                        assert (out[side] == -1.0).all()
                        continue
                    plane = np.take(blocks[ax], face, axis=1 + ax)
                    np.testing.assert_array_equal(out[side],
                                                  plane[:, a0:a1, b0:b1])

    def test_non_contiguous_fields_are_written_back(self, tier):
        fn = _tier_impls(tier)["hydro.step"]
        arrays = _sweep_arrays((8, 9, 10), 2, "floors")
        accel = _accel((8, 9, 10))
        ref, _ = _step_both(fn, arrays, 2, "ppm+flatten", "hllc", permute=1,
                            accel=accel, drag=STEP_DRAG)
        got = [np.asfortranarray(a) for a in arrays]
        got[1] = np.repeat(arrays[1], 2, axis=2)[:, :, ::2]   # strided view
        out = _step(fn, got, 2, permute=1, accel=np.asfortranarray(accel),
                    drag=STEP_DRAG)
        assert not got[1].flags.c_contiguous
        _assert_steps_equal(ref, (got, *out))

    @pytest.mark.parametrize("scheme", ["ppm+flatten", "trace"])
    def test_selects_at_their_boundaries(self, tier, scheme):
        """Every select of the sweep body on its boundary
        (:func:`_select_edges`), with and without kicks and drag."""
        fn = _tier_impls(tier)["hydro.step"]
        shape = (16, 8, 7)
        for permute, accel, drag, full_update in STEP_OPTIONS:
            _assert_steps_equal(*_step_both(
                fn, _select_edges(), 3, scheme, "hllc", permute=permute,
                accel=_accel(shape) if accel else None,
                drag=STEP_DRAG if drag else None, full_update=full_update))

    def test_refuses_what_the_c_cannot_index(self, tier):
        fn = _tier_impls(tier)["hydro.step"]
        arrays = _sweep_arrays((6, 8, 8), 0, "smooth")
        before = [a.copy() for a in arrays]
        # windows outside the 2 x 4 x 4 interior, or blocks of another
        # shape or layout
        for row, block in [((0, 3, -1, 0, 4, 0, 4), (2, 5, 4, 4)),
                           ((1, 0, -2, 0, 2, 0, 4), (2, 5, 2, 4)),
                           ((2, 0, 4, 0, 2, 1, 5), (2, 5, 2, 4)),
                           ((2, 0, 4, 1, 1, 0, 4), (2, 5, 0, 4)),
                           ((3, 0, 1, 0, 4, 0, 4), (2, 5, 4, 4)),
                           ((0, 0, 2, 0, 4, 0, 4), (2, 6, 4, 4))]:
            with pytest.raises(ValueError, match="hydro.step: "):
                fn(arrays, None, 2, *STEP_ARGS, 0, False, GAMMA, "ppm",
                   "hllc", *SWEEP_FLOORS, STEP_ETA, None,
                   np.array([row]), [np.zeros(block)])
        for bad in (np.zeros((2, 5, 4, 4), dtype=np.float32),
                    np.zeros((2, 5, 4, 8))[..., ::2]):
            with pytest.raises(ValueError, match="window block"):
                fn(arrays, None, 2, *STEP_ARGS, 0, False, GAMMA, "ppm",
                   "hllc", *SWEEP_FLOORS, STEP_ETA, None,
                   np.array([(0, 0, 2, 0, 4, 0, 4)]), [bad])
        with pytest.raises(ValueError, match="one block each"):
            fn(arrays, None, 2, *STEP_ARGS, 0, False, GAMMA, "ppm", "hllc",
               *SWEEP_FLOORS, STEP_ETA, None,
               np.array([(0, 0, 2, 0, 4, 0, 4)]), [])
        with pytest.raises(ValueError, match="no interior cell"):
            _step(fn, arrays, 3)                      # n = 2 ng along x
        with pytest.raises(ValueError, match="shapes differ"):
            _step(fn, arrays[:5] + [np.ones((6, 8, 9))], 2)
        with pytest.raises(ValueError, match="accel shape"):
            _step(fn, arrays, 2, accel=np.zeros((3, 6, 8, 9)))
        # an unknown name is refused before the first kick, on both tiers
        for impl in (fn, hydro_step_numpy):
            with pytest.raises(ValueError, match="unknown reconstruction"):
                _step(impl, arrays, 2, scheme="weno", accel=_accel((6, 8, 8)))
            with pytest.raises(ValueError, match="unknown riemann solver"):
                _step(impl, arrays, 2, solver="roe", accel=_accel((6, 8, 8)))
            # and so is a drag of other than two factors: the C would read
            # past one, and never reads a third
            for drag in (STEP_DRAG[:1], STEP_DRAG + (0.9,)):
                with pytest.raises(ValueError, match="drag must be two"):
                    _step(impl, arrays, 2, drag=drag,
                          accel=_accel((6, 8, 8)))
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)


# ====================================================== flux correction
#: corrected fields of the synthetic parent: the conserved five and two
#: advected species
FC_NAMES = ("density", "vx", "vy", "vz", "energy", "HI", "HII")
#: the synthetic parent's interior and ghost depth
FC_INTERIOR, FC_NG = (8, 6, 10), 3
#: child footprints (parent-local interior lo, hi) per case: two children
#: side by side along x (the cell between them is corrected by both), one
#: a cell wide along z (the b = 1 summation order), one on the parent's
#: own y = 0 boundary and one covering the whole y extent
FC_BOXES = {
    "interior": [((1, 1, 1), (3, 3, 4)), ((3, 1, 1), (5, 3, 4)),
                 ((2, 3, 5), (6, 5, 9)), ((5, 3, 2), (7, 4, 3)),
                 ((6, 0, 6), (8, 2, 8)), ((0, 0, 4), (1, 6, 6))],
    # on a periodic root every box-edge face wraps; the last box spans
    # seven of eight x cells, so its lo and hi faces correct the same plane
    "periodic": [((0, 0, 0), (2, 2, 2)), ((6, 4, 8), (8, 6, 10)),
                 ((0, 2, 3), (8, 4, 5)), ((1, 3, 6), (8, 5, 7))],
}


def _cold_hypersonic(shape, rng):
    """Velocities and energies of flow so fast and cold that
    ``sync_internal_from_total`` does not reach its fixed point in one
    pass: e - v^2/2 loses the internal energy's low bits, and the
    eta-test flips between the two branches."""
    vel = [10.0 * rng.standard_normal(shape) for _ in range(3)]
    ke = 0.5 * (vel[0] ** 2 + vel[1] ** 2 + vel[2] ** 2)
    internal = ke * 10.0 ** rng.uniform(-7.0, -2.0, shape)
    return vel, internal, ke + internal * rng.uniform(0.5, 1.5, shape)


def _coarse_planes(coarse, lo, hi, periodic):
    """The parent's planes at one child's faces, as its hydro step stores
    them: the windows ``face_cell`` picks, gathered from the parent's
    whole face arrays ``coarse`` (axis -> {field: array})."""
    planes = []
    for ax in range(3):
        t1, t2 = (d for d in range(3) if d != ax)
        faces = [face_cell(lo, hi, ax, side, FC_INTERIOR[ax], periodic)
                 for side in (0, 1)]
        row = (ax, *(-1 if f is None else f[1] for f in faces),
               lo[t1], hi[t1], lo[t2], hi[t2])
        out = np.zeros((2, len(FC_NAMES), hi[t1] - lo[t1], hi[t2] - lo[t2]))
        store_windows(ax, [coarse[ax][name] for name in FC_NAMES],
                      np.array([row]), [out])
        planes.append(out)
    return planes


def _flux_problem(kind, seed=0):
    """``(fields, periodic, children)`` of one parent, ``children`` the
    ``flux.correct`` rows ``(lo, hi, fine, coarse, present)``.

    ``kind`` is ``random``; ``cold`` (hypersonic cells needing several
    syncs); ``nonfinite`` (NaN, +-inf and -0.0 in the fine and coarse
    fluxes, a NaN parent cell, parent momenta of +-0.0); ``missing`` (a
    field on one axis and a whole axis of every child, a field a child
    never accumulated, a child with nothing accumulated); ``periodic`` (a
    periodic root, faces wrapping across the box edge)."""
    rng = np.random.default_rng(seed)
    shape = tuple(n + 2 * FC_NG for n in FC_INTERIOR)
    rho = rng.random(shape) + 0.5
    if kind == "cold":
        vel, internal, energy = _cold_hypersonic(shape, rng)
    else:
        vel = [rng.standard_normal(shape) for _ in range(3)]
        internal = rng.random(shape) + 0.1
        # not yet synced: the first sync rewrites every cell
        energy = (internal + 0.5 * (vel[0] ** 2 + vel[1] ** 2 + vel[2] ** 2)
                  ) * (1.0 + 1e-3 * rng.standard_normal(shape))
    fields = dict(zip(FC_NAMES, [rho, *vel, energy, *(
        rho * rng.random(shape) for _ in FC_NAMES[5:])]))
    fields["internal"] = internal
    nf = len(FC_NAMES)
    coarse = []
    for ax in range(3):
        face = list(FC_INTERIOR)
        face[ax] += 1
        coarse.append({name: 0.05 * rng.standard_normal(face)
                       for name in FC_NAMES + ("internal",)})
    children = []
    for lo, hi in FC_BOXES["periodic" if kind == "periodic" else "interior"]:
        blocks = []
        for ax in range(3):
            t = [2 * (h - l) for d, (l, h) in enumerate(zip(lo, hi))
                 if d != ax]
            blocks.append(0.05 * rng.standard_normal((2, nf, *t)))
        children.append((np.array(lo), np.array(hi), blocks,
                         np.ones((3, nf), dtype=bool)))
    if kind == "nonfinite":
        blocks = children[0][2]
        blocks[0][0, 0, 0, 0] = np.nan
        blocks[1][1, 4, 1, 1] = np.inf
        blocks[2][0, 5, 0, 1] = -np.inf
        # fine blocks of -0.0 average to +0.0: seen only where the coarse
        # flux is zero too and the parent momentum is -0.0
        blocks[0][:, 1] = -0.0
        coarse[0]["vx"][...] = 0.0
        fields["vx"][...] = 0.0
        fields["vx"][::2] = -0.0
        blocks[1][:, 6] = -0.0
        coarse[0]["density"][1, 2, 2] = np.nan
        coarse[1]["vx"][...] = -0.0
        coarse[2]["HI"][2, 1, 1] = -np.inf
        fields["density"][FC_NG, FC_NG + 1, FC_NG + 1] = np.nan
        fields["HII"][...] = -0.0
    elif kind == "missing":
        for child in children:
            child[3][1, FC_NAMES.index("energy")] = False
            child[3][2] = False
        children[1][3][0, FC_NAMES.index("HII")] = False
        children[2][3][...] = False
    periodic = kind == "periodic"
    children = [(lo, hi, fine, _coarse_planes(coarse, lo, hi, periodic),
                 present) for lo, hi, fine, present in children]
    return fields, [periodic] * 3, children


def _correct_both(fn, problem, r=2):
    """Run the reference and ``fn`` on copies; returns both field dicts."""
    fields, periodic, children = problem
    out = []
    for impl in (correct_numpy, fn):
        copy = {k: v.copy() for k, v in fields.items()}
        with np.errstate(all="ignore"):
            impl(copy, FC_NAMES, FC_NG, 0.125, periodic, r, children)
        out.append(copy)
    return out


def _assert_bitwise(got, ref, err_msg=""):
    """Equal values and equal signs of zero (NaN payloads aside)."""
    np.testing.assert_array_equal(got, ref, err_msg=err_msg)
    numbers = ~np.isnan(ref)
    np.testing.assert_array_equal(np.signbit(got[numbers]),
                                  np.signbit(ref[numbers]), err_msg=err_msg)


def _assert_fields_equal(got, ref):
    assert set(got) == set(ref)
    for name in ref:
        _assert_bitwise(got[name], ref[name], err_msg=name)


class TestBlockAverage:
    @pytest.mark.parametrize("kind", ["random", "special"])
    def test_written_order_is_numpys_mean(self, kind):
        """``block_average`` at r = 2 is bit for bit the ``mean`` the
        reference used to call, on every face shape from 1 x 1 to 16 x 16
        coarse cells: the written-out order (one run of four when the face
        is one cell wide, pairs along the last axis otherwise) and the +0.0
        the sum starts from are the trap the C follows."""
        rng = np.random.default_rng(1)
        special = np.array([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, 1e308,
                            -1e308, 5e-324, -5e-324, np.nan])
        for a, b in itertools.product(range(1, 17), repeat=2):
            if kind == "random":
                plane = (rng.standard_normal((2 * a, 2 * b))
                         * 10.0 ** rng.integers(-300, 300, (2 * a, 2 * b)))
            else:
                plane = rng.choice(special, size=(2 * a, 2 * b))
            with np.errstate(all="ignore"):
                want = plane.reshape(a, 2, b, 2).mean(axis=(1, 3))
                got = block_average(plane, 2)
            _assert_bitwise(got, want, err_msg=f"{a} x {b}")


@pytest.mark.parametrize("tier", COMPILED)
class TestFluxCorrectParity:
    """``flux.correct`` against ``correct_numpy``: bit-identical parent
    fields, although the C syncs each cell lazily and the reference runs
    one whole-parent sync per child."""

    @pytest.mark.parametrize("kind", ["random", "cold", "nonfinite",
                                      "missing", "periodic"])
    def test_cases(self, tier, kind):
        fn = _tier_impls(tier)["flux.correct"]
        for seed in range(3):
            problem = _flux_problem(kind, seed)
            got, ref = _correct_both(fn, problem)[::-1]
            _assert_fields_equal(got, ref)
            # the correction did something the syncs alone would not
            synced = {k: v.copy() for k, v in problem[0].items()}
            for _ in problem[2]:
                sync_internal_from_total(synced)
            assert not np.array_equal(ref["density"], synced["density"],
                                      equal_nan=True)

    def test_cold_cells_need_more_than_one_sync(self, tier):
        """The lazy count is only exact if it still runs a cell's second,
        third ... sync: on the cold case one sync is not a fixed point."""
        fields = _flux_problem("cold")[0]
        once = {k: v.copy() for k, v in fields.items()}
        sync_internal_from_total(once)
        twice = {k: v.copy() for k, v in once.items()}
        sync_internal_from_total(twice)
        changed = (twice["internal"] != once["internal"]).sum()
        assert changed > 10, changed

    def test_refinement_factor_four_runs_the_reference(self, tier):
        fn = _tier_impls(tier)["flux.correct"]
        fields, periodic, children = _flux_problem("random")
        nf = len(FC_NAMES)
        rng = np.random.default_rng(4)
        wide = []
        for lo, hi, blocks, coarse, present in children:
            wide.append((lo, hi, [rng.standard_normal(
                (2, nf, 2 * b.shape[2], 2 * b.shape[3])) for b in blocks],
                coarse, present))
        got, ref = _correct_both(fn, (fields, periodic, wide), r=4)
        _assert_fields_equal(got, ref)

    def test_no_children_changes_nothing(self, tier):
        fn = _tier_impls(tier)["flux.correct"]
        fields, periodic, _ = _flux_problem("random")
        got = {k: v.copy() for k, v in fields.items()}
        fn(got, FC_NAMES, FC_NG, 0.125, periodic, 2, [])
        _assert_fields_equal(got, fields)

    def test_refuses_what_the_c_cannot_index(self, tier):
        fn = _tier_impls(tier)["flux.correct"]
        fields, periodic, children = _flux_problem("random")
        lo, hi, blocks, coarse, present = children[0]
        before = {k: v.copy() for k, v in fields.items()}
        bad_cases = [
            dict(children=[(lo, np.array([9, 3, 4]), blocks, coarse,
                             present)]),
            dict(children=[(np.array([-1, 1, 1]), hi, blocks, coarse,
                            present)]),
            dict(children=[(lo, hi, [blocks[0][:, :, :-1]] + blocks[1:],
                            coarse, present)]),
            dict(children=[(lo, hi, blocks, coarse[:2] + [coarse[2][:, :-1]],
                            present)]),
            dict(children=[(lo, hi, blocks, [coarse[0][..., 1:]]
                            + coarse[1:], present)]),
            dict(children=[(lo, hi, blocks, coarse, present[:, :-1])]),
            dict(names=FC_NAMES[1:]),
            dict(fields={**fields, "vx": np.zeros((14, 12, 15))}),
        ]
        for bad in bad_cases:
            args = dict(fields=fields, names=FC_NAMES, children=children)
            args.update(bad)
            with pytest.raises(ValueError, match="flux.correct"):
                fn(args["fields"], args["names"], FC_NG, 0.125, periodic, 2,
                   args["children"])
        _assert_fields_equal(fields, before)


# ================================================================== CIC
#: grid of the CIC cases and its cell width
CIC_SHAPE, CIC_DX = (6, 5, 7), 0.125


def _particle_cloud(seed=0, n=300, garbage=False):
    """``(offsets, masses)``: random particles plus particles exactly on
    cell edges and centres, ten in one cell, particles off every side of
    the grid (by less and by more than a cell) and on its far edge; with
    ``garbage`` also NaN / inf / huge offsets."""
    rng = np.random.default_rng(seed)
    size = np.array(CIC_SHAPE) * CIC_DX
    off = rng.random((n, 3)) * size
    off[:40] = rng.integers(-2, 2 * max(CIC_SHAPE) + 2, (40, 3)) \
        * (CIC_DX / 2)
    off[40:50] = off[40] + 1e-9 * rng.standard_normal((10, 3))
    off[50:60] = -rng.random((10, 3)) * 3 * CIC_DX
    off[60:70] = size + rng.random((10, 3)) * 3 * CIC_DX
    off[70], off[71] = 0.0, size
    masses = rng.random(n) + 0.5
    masses[72] = 0.0
    if garbage:
        off[73] = np.nan
        off[74, 1] = np.inf
        off[75, 2] = -1e300
    return off, masses


@pytest.mark.parametrize("tier", COMPILED)
class TestCicParity:
    """``cic.deposit`` / ``cic.gather`` against their NumPy references."""

    @pytest.mark.parametrize("garbage", [False, True])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_deposit(self, tier, periodic, garbage):
        fn = _tier_impls(tier)["cic.deposit"]
        for seed in range(3):
            off, masses = _particle_cloud(seed, garbage=garbage)
            start = np.random.default_rng(seed).standard_normal(CIC_SHAPE)
            start[0, 0, 0] = -0.0
            ref, got = start.copy(), start.copy()
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                # NumPy warns casting a NaN offset to an index
                warnings.simplefilter("ignore", RuntimeWarning)
                deposit_numpy(ref, off, masses, CIC_DX, CIC_DX ** 3, periodic)
            fn(got, off, masses, CIC_DX, CIC_DX ** 3, periodic)
            _assert_bitwise(got, ref)
            assert not np.array_equal(got, start)

    @pytest.mark.parametrize("garbage", [False, True])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_gather(self, tier, periodic, garbage):
        fn = _tier_impls(tier)["cic.gather"]
        rng = np.random.default_rng(2)
        field3 = rng.standard_normal((3, *CIC_SHAPE))
        field3[:, 1, 1, 1] = -0.0
        field3[2, 3, 2, 4] = np.nan
        for seed in range(3):
            off, _ = _particle_cloud(seed, garbage=garbage)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                ref = gather_numpy(field3, off, CIC_DX, periodic)
            got = fn(field3, off, CIC_DX, periodic)
            _assert_bitwise(got, ref)
        assert fn(field3, np.empty((0, 3)), CIC_DX, periodic).shape == (0, 3)

    def test_public_functions_dispatch(self, isolated, tier):
        """``cic_deposit`` / ``cic_gather`` keep their signatures and give
        the same bits on every tier."""
        off, masses = _particle_cloud(5)
        field3 = np.random.default_rng(5).standard_normal((3, *CIC_SHAPE))
        outs = []
        for backend in ("numpy", tier):
            dispatch.set_backend(backend, env=False)
            outs.append((cic_deposit(off, masses, CIC_SHAPE, CIC_DX),
                         cic_deposit(off, masses, CIC_SHAPE, CIC_DX,
                                     periodic=False),
                         cic_gather(field3, off, CIC_DX, periodic=False)))
        for a, b in zip(*outs):
            np.testing.assert_array_equal(a, b)

    def test_refuses_what_the_c_cannot_index(self, tier):
        deposit = _tier_impls(tier)["cic.deposit"]
        gather = _tier_impls(tier)["cic.gather"]
        off, masses = _particle_cloud()
        grid = np.zeros(CIC_SHAPE)
        with pytest.raises(ValueError, match="cic.deposit"):
            deposit(grid, off, masses[:-1], CIC_DX, CIC_DX ** 3, True)
        with pytest.raises(ValueError, match="cic.deposit"):
            deposit(grid, off[:, :2], masses, CIC_DX, CIC_DX ** 3, True)
        with pytest.raises(ValueError, match="cic.deposit"):
            deposit(grid[0], off, masses, CIC_DX, CIC_DX ** 3, True)
        with pytest.raises(ValueError, match="cic.gather"):
            gather(np.zeros((2, *CIC_SHAPE)), off, CIC_DX, True)
        assert not grid.any()


#: guard elements on each side of a canary array: more than two planes of
#: the largest case (20² for the potential of ``mg.level``'s 16³ grid), so a
#: stride-sized overrun still lands inside the guard
GUARD = 1024


def _guarded(arr):
    """A C-contiguous copy of ``arr`` in the middle of a larger buffer (the
    kernels write it in place, not a copy); returns both.  The guard bands
    hold noise, not one value: a stencil that runs over the edge computes
    from guard elements, and a constant (or NaN) would come back as itself.
    An element that was read instead shows in the parity check."""
    buf = np.random.default_rng(arr.size).standard_normal(
        arr.size + 2 * GUARD).astype(arr.dtype)
    view = buf[GUARD:-GUARD].reshape(arr.shape)
    view[...] = arr
    assert view.flags.c_contiguous and view.base is not None
    return view, buf


def _guards(buffers):
    return [np.concatenate((buf[:GUARD], buf[-GUARD:])) for buf in buffers]


@pytest.mark.parametrize("tier", COMPILED)
class TestNoOutOfBoundsWrites:
    """The C indexes raw memory and nothing bounds-checks it at run time:
    every array a kernel reads or updates in place sits between guard
    bands that must come back untouched, with the arrays themselves still
    equal to the reference (so a guard was not read either)."""

    @pytest.mark.parametrize("permute", range(3))
    @pytest.mark.parametrize("solver", SWEEP_SOLVERS)
    @pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
    @pytest.mark.parametrize("shape", [(8, 8, 8), (14, 14, 14)])
    def test_hydro_sweep(self, tier, shape, scheme, solver, permute):
        """The three sweeps of one ``hydro.step``, kicked and dragged, with
        the pencil boxes and with every pencil (``full_update``); the
        acceleration sits between guard bands too."""
        fn = _tier_impls(tier)["hydro.step"]
        arrays = _sweep_arrays(shape, 2, "smooth")
        accel = _accel(shape)
        for full_update in (False, True):
            options = dict(permute=permute, drag=STEP_DRAG,
                           full_update=full_update)
            ref = [a.copy() for a in arrays]
            ref_out = _step(hydro_step_numpy, ref, 3, scheme, solver, accel=accel,
                            **options)
            got, buffers = zip(*(_guarded(a) for a in [*arrays, accel]))
            buffers = list(buffers)
            before = _guards(buffers)

            def guard(out):
                # the window blocks sit between guard bands too
                view, buf = _guarded(out)
                buffers.append(buf)
                before.extend(_guards([buf]))
                return view

            got_out = _step(fn, list(got[:-1]), 3, scheme, solver,
                            accel=got[-1], wrap=guard, **options)
            np.testing.assert_array_equal(_guards(buffers), before)
            _assert_steps_equal((ref, *ref_out), (got[:-1], *got_out))

    @pytest.mark.parametrize("r", [2, 4])
    def test_prolong_linear(self, tier, r):
        """One ``fill.level`` target, no copies."""
        fn = _tier_impls(tier)["fill.level"]
        shape, c_origin = (4, 6, 7), (-1, 3, 10)
        f_origin = tuple(o * r for o in c_origin)
        f_shape = tuple(n * r for n in shape)
        f_end = tuple(o + n for o, n in zip(f_origin, f_shape))
        coarse, old, positive = _parents(shape, "random", r)
        for boxes in ([(f_origin, f_end)],
                      shell_boxes(tuple(o + 3 for o in f_origin),
                                  tuple(e - 3 for e in f_end), 3),
                      [(tuple(e - 1 for e in f_end), f_end)]):
            ref = [np.full(f_shape, -7.0) for _ in coarse]
            prolong_boxes(coarse, old, 0.37, positive, c_origin, r, ref,
                          f_origin, boxes)
            # parents and children alike: the slopes read one cell either
            # side of every parent cell under a box
            g_coarse, b_coarse = zip(*(_guarded(c) for c in coarse))
            g_old, b_old = zip(*(_guarded(o) for o in old[:3]))
            got, b_fine = zip(*(_guarded(np.full(f_shape, -7.0))
                                for _ in coarse))
            before = _guards(b_coarse + b_old + b_fine)
            _one_target(fn, list(g_coarse), [*g_old, None], 0.37, positive,
                        c_origin, r, list(got), f_origin, boxes)
            np.testing.assert_array_equal(
                _guards(b_coarse + b_old + b_fine), before)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)

    def test_fill_level(self, tier):
        """Four targets that are also the copy sources, two parents (one
        with an old state): every array between guard bands."""
        fn = _tier_impls(tier)["fill.level"]
        ref = _fill_level_case(4)
        targets, parents, sources, fill, copies, r, positive = (
            _fill_level_case(4))
        buffers, g_targets, g_sources = [], [], []
        for (arrays, origin, p, frac), (_, _, lo, hi) in zip(targets,
                                                             sources):
            guarded, bufs = zip(*(_guarded(a) for a in arrays))
            buffers += bufs
            g_targets.append((list(guarded), origin, p, frac))
            g_sources.append((list(guarded), origin, lo, hi))
        g_parents = []
        for coarse, old, origin in parents:
            g_coarse, bufs = zip(*(_guarded(c) for c in coarse))
            buffers += bufs
            g_old = None
            if old is not None:
                g_old = [None if o is None else _guarded(o) for o in old]
                buffers += [o[1] for o in g_old if o is not None]
                g_old = [None if o is None else o[0] for o in g_old]
            g_parents.append((list(g_coarse), g_old, origin))
        before = _guards(buffers)
        with np.errstate(all="ignore"):
            fill_level_numpy(FillPlan(*ref))
            fn(FillPlan(g_targets, g_parents, g_sources, fill, copies, r,
                        positive))
        np.testing.assert_array_equal(_guards(buffers), before)
        for (a, *_), (b, *_) in zip(g_targets, ref[0]):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("min_size", [2, 4])
    @pytest.mark.parametrize("shape", [(4, 4, 4), (5, 3, 7), (8, 12, 10),
                                       (16, 16, 16)])
    def test_mg_vcycle(self, tier, shape, min_size):
        """Three V-cycles of the one grid of an ``mg.level`` call, its rim,
        source, potential (two ghost layers) and statistics between guard
        bands."""
        fn = _tier_impls(tier)["mg.level"]
        start, source = _poisson_problem(shape, "random")
        ref = one_grid_plan(start.copy(), nghost=2)
        want = np.zeros((1, 3))
        level_numpy(ref, source.reshape(-1), 0, 1, 2, 3, min_size, 1e-12, 3,
                    False, False, True, want)
        (rim, b_rim), (src, b_src), (phi, b_phi), (stats, b_stats) = (
            _guarded(a) for a in (start, source.reshape(-1),
                                  np.zeros_like(ref.phis[0]),
                                  np.zeros((1, 3))))
        buffers = (b_rim, b_src, b_phi, b_stats)
        before = _guards(buffers)
        assert fn(one_grid_plan(rim, phi, nghost=2), src, 0, 1, 2, 3,
                  min_size, 1e-12, 3, False, False, True, stats) == (-1,
                                                                     False)
        np.testing.assert_array_equal(_guards(buffers), before)
        np.testing.assert_array_equal(rim, start)
        np.testing.assert_array_equal(phi, ref.phis[0])
        np.testing.assert_array_equal(stats, want)

    def test_gravity_accel(self, tier):
        fn = _tier_impls(tier)["gravity.accel"]
        phi = np.random.default_rng(3).standard_normal((8, 11, 6))
        got, buf = _guarded(phi)
        before = _guards((buf,))
        out = fn(got, 0.1, 1.2)
        np.testing.assert_array_equal(_guards((buf,)), before)
        np.testing.assert_array_equal(out, accel_numpy(phi, 0.1, 1.2))

    def test_chem_step(self, tier):
        """Two substeps: all cells in flight (unit stride), then a
        compacted active set (gather/scatter)."""
        fn = _tier_impls(tier)["chem.step"]
        n = 700
        net = ChemistryNetwork()
        state, e, rho = _chem_block(n)
        rows = dict(zip(SPECIES_NAMES, state))
        budgets = np.stack(network.nuclei_budgets(rows))
        with np.errstate(all="ignore"):
            T0 = net.temperature(rows, e, rho)
        tail = (1e12, 20.0, 0.1, 200)

        def substeps(step, wrap):
            arrays = [wrap(a) for a in (state, e, rho, budgets, np.zeros(n),
                                        np.zeros(n, dtype=np.int64))]
            st, en, rh, bud, t_done, counts = arrays
            active, T = np.arange(n, dtype=np.intp), T0
            for _ in range(2):
                per_call = [wrap(a) for a in (
                    active, T, st[0][active] ** 3, net.rates.block(T))]
                arrays += per_call
                active, T, cube, block = per_call
                with np.errstate(all="ignore"):
                    step(st, en, rh, bud, t_done, counts, active, T, cube,
                         block, *tail)
                keep = t_done[active] < 1e12 * (1.0 - 1e-12)
                active, T = active[keep], T[keep]
            assert 0 < active.size < n
            return arrays

        ref = substeps(step_numpy, np.copy)
        buffers = []

        def guard(a):
            view, buf = _guarded(a)
            buffers.append(buf)
            return view

        got = substeps(fn, guard)
        expected = [np.concatenate((b[:GUARD], b[-GUARD:]))
                    for b in (_guarded(v)[1] for v in got)]
        # the guards of every array still hold what _guarded put there
        np.testing.assert_array_equal(_guards(buffers), expected)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["random", "periodic", "nonfinite"])
    def test_flux_correct(self, tier, kind):
        """Parent fields, coarse planes and fine blocks alike: the wrapped
        faces of the periodic case index the parent's first and last
        cell planes."""
        fn = _tier_impls(tier)["flux.correct"]
        fields, periodic, children = _flux_problem(kind)
        ref = {k: v.copy() for k, v in fields.items()}
        with np.errstate(all="ignore"):
            correct_numpy(ref, FC_NAMES, FC_NG, 0.125, periodic, 2, children)
        buffers = []

        def guard(a):
            view, buf = _guarded(a)
            buffers.append(buf)
            return view

        got = {k: guard(v) for k, v in fields.items()}
        g_children = [(lo, hi, [guard(b) for b in fine],
                       [guard(b) for b in coarse], present)
                      for lo, hi, fine, coarse, present in children]
        before = _guards(buffers)
        fn(got, FC_NAMES, FC_NG, 0.125, periodic, 2, g_children)
        np.testing.assert_array_equal(_guards(buffers), before)
        _assert_fields_equal(got, ref)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_cic_deposit(self, tier, periodic):
        fn = _tier_impls(tier)["cic.deposit"]
        off, masses = _particle_cloud()
        ref = np.zeros(CIC_SHAPE)
        deposit_numpy(ref, off, masses, CIC_DX, CIC_DX ** 3, periodic)
        (grid, b_grid), (g_off, b_off), (g_m, b_m) = (
            _guarded(np.zeros(CIC_SHAPE)), _guarded(off), _guarded(masses))
        before = _guards((b_grid, b_off, b_m))
        fn(grid, g_off, g_m, CIC_DX, CIC_DX ** 3, periodic)
        np.testing.assert_array_equal(_guards((b_grid, b_off, b_m)), before)
        _assert_bitwise(grid, ref)


@pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
class TestSolverStepAcrossTiers:
    def _fields(self):
        from repro.hydro.state import META_KEY, FieldSet

        names = ["density", "vx", "vy", "vz", "energy", "internal",
                 "HI", "HII"]
        fields = FieldSet(zip(names, _sweep_arrays((10, 11, 12), 2,
                                                   "floors")))
        fields[META_KEY] = ["HI", "HII"]
        return fields

    @pytest.mark.parametrize("permute", [0, 1, 2])
    @pytest.mark.parametrize("options", [
        {}, {"characteristic_tracing": True},
        {"reconstruction": "flat", "riemann_solver": "hll",
         "flattening": False}])
    def test_step_fluxes_identical(self, isolated, options, permute):
        """Planes (boundary and a child's), shapes, values, diagnostics and
        the advanced fields of ``PPMSolver.step`` do not depend on the
        tier."""
        from repro.amr import Grid
        from repro.amr.flux_correction import FaceWindows

        grid = Grid(1, (0, 0, 0), (4, 5, 6), n_root=8)
        child = Grid(2, (2, 2, 2), (4, 4, 6), n_root=8)
        windows = FaceWindows(grid, [child])
        accel = 0.3 * np.random.default_rng(5).standard_normal((3, 10, 11,
                                                                12))
        results = []
        for backend in ["numpy"] + COMPILED:
            dispatch.set_backend(backend, env=False)
            fields = self._fields()
            with np.errstate(all="ignore"):
                out = PPMSolver(**options).step(fields, 0.1, 0.004, a=1.1,
                                                adot=0.2, accel=accel,
                                                permute=permute,
                                                windows=windows)
            results.append((fields, out))
        ref_fields, ref = results[0]
        assert [b.shape for b in ref.boundary] == [(2, 7, 5, 6),
                                                   (2, 7, 4, 6),
                                                   (2, 7, 4, 5)]
        assert list(ref.coarse) == [child.grid_id]
        assert [b.shape for b in ref.coarse[child.grid_id]] == [
            (2, 7, 2, 3), (2, 7, 2, 3), (2, 7, 2, 2)]
        assert ref.diagnostics and set(ref.diagnostics) <= set(FLOOR_COUNTS)
        for fields, out in results[1:]:
            assert out.diagnostics == ref.diagnostics
            assert list(out.coarse) == list(ref.coarse)
            for a, b in zip(out.planes(), ref.planes(), strict=True):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)
            for name, arr in ref_fields.array_items():
                np.testing.assert_array_equal(fields[name], arr)


@pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
class TestNoFullFaceBlocks:
    """The compiled ``hydro.step`` stores fluxes only in the face windows:
    one step of a 32^3 grid with three ghosts, childless or with
    children, allocates less than one ``(nq, 33, 32, 32)`` face block —
    the allocation every step made when it returned whole faces."""

    @pytest.mark.parametrize("children", [0, 4])
    def test_step_allocates_less_than_one_face_block(self, isolated,
                                                     children):
        import tracemalloc

        from repro.amr import Grid
        from repro.amr.flux_correction import FaceWindows
        from repro.hydro.state import make_fields

        dispatch.set_backend(COMPILED[0], env=False)
        n, ng, advected = 32, 3, ["HI", "HII"]
        grid = Grid(1, (0, 0, 0), (n, n, n), n_root=16, nghost=ng)
        kids = [Grid(2, (16 * (k % 2) + 4, 16 * (k // 2) + 4, 8), (8, 8, 16),
                     n_root=16, nghost=ng) for k in range(children)]
        windows = FaceWindows(grid, kids)
        assert len(windows.table) == 3 + 3 * children
        rng = np.random.default_rng(3)
        fields = make_fields((n + 2 * ng,) * 3, density=1.0,
                             internal_energy=1.0, advected=advected)
        fields["density"][:] = 1.0 + 0.2 * rng.random(fields.shape)
        fields["vx"][:] = 0.1 * rng.standard_normal(fields.shape)
        solver = PPMSolver()
        block = (6 + len(advected)) * (n + 1) * n * n * 8
        solver.step(fields, 1.0 / 32, 1e-3, windows=windows)   # warm
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = solver.step(fields, 1.0 / 32, 1e-3, windows=windows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(out.coarse) == children
        assert peak < block, (peak, block)


# ======================================================= Riemann edge states
@pytest.mark.parametrize("tier", ["numpy"] + COMPILED)
@pytest.mark.parametrize("solver", ["two_shock", "hllc"])
class TestRiemannEdgeStates:
    """Adversarial wave patterns, pinned against the exact solver, in both
    solvers: the NumPy bodies directly, and each compiled tier through the
    step that calls its C transcription."""

    def _flux(self, tier, solver, left, right):
        if tier == "numpy":
            return RIEMANN[solver](left, right, GAMMA)
        return _sweep_faces(_tier_impls(tier)["hydro.step"], left, right,
                            solver)

    def _exact_flux(self, left, right):
        (rl, ul, _, _, pl), (rr, ur, _, _, pr) = left, right
        rho, u, p = exact_riemann(
            (rl.item(), ul.item(), pl.item()),
            (rr.item(), ur.item(), pr.item()), GAMMA, np.array([0.0]))
        return _conserved_flux(rho, u, np.zeros(1), np.zeros(1), p, GAMMA)

    def test_near_vacuum_expansion_stays_finite(self, tier, solver):
        left = _state(1.0, -4.0, 0.4)
        right = _state(1.0, 4.0, 0.4)
        f = self._flux(tier, solver, left, right)
        assert all(np.isfinite(c).all() for c in f)
        # symmetry: no mass transport through the interface
        assert abs(f[0].item()) < 1e-10

    def test_strong_rarefaction_matches_exact(self, tier, solver):
        left = _state(1.0, -2.0, 0.4)
        right = _state(1.0, 2.0, 0.4)
        f = self._flux(tier, solver, left, right)
        f_ex = self._exact_flux(left, right)
        assert abs(f[0].item()) < 1e-10
        if solver == "two_shock":
            # the momentum flux is p* at the symmetry plane; the two-shock
            # approximation lands close even though both waves rarefy
            assert f[1].item() == pytest.approx(f_ex[1].item(), abs=0.05)
        else:
            # HLLC's star-state momentum flux carries the Einfeldt wave
            # speed into a strong expansion (~ -1.1 here vs ~0 exact) —
            # known HLL-family diffusion, so only pin boundedness; the
            # cross-backend test below pins the value bitwise
            assert -3.0 < f[1].item() < 1.0

    def test_sonic_rarefaction_matches_exact(self, tier, solver):
        left = _state(1.0, 0.75, 1.0)
        right = _state(0.125, 0.0, 0.1)
        f = self._flux(tier, solver, left, right)
        f_ex = self._exact_flux(left, right)
        for a, b in zip(f, f_ex):
            assert a.item() == pytest.approx(b.item(), rel=0.2, abs=0.05)

    def test_symmetric_collision_matches_exact(self, tier, solver):
        """Both waves are shocks: two-shock is exact, HLLC close."""
        left = _state(1.0, 2.0, 0.4)
        right = _state(1.0, -2.0, 0.4)
        f = self._flux(tier, solver, left, right)
        f_ex = self._exact_flux(left, right)
        assert abs(f[0].item()) < 1e-10
        rel = 1e-3 if solver == "two_shock" else 0.25
        assert f[1].item() == pytest.approx(f_ex[1].item(), rel=rel)

    def test_cross_backend_bitwise_on_edges(self, tier, solver):
        """Backends agree bitwise even on the adversarial states."""
        if tier == "numpy":
            pytest.skip("numpy is the reference")
        for ls, rs in [((1.0, -4.0, 0.4), (1.0, 4.0, 0.4)),
                       ((1.0, 0.75, 1.0), (0.125, 0.0, 0.1)),
                       ((1.0, 2.0, 0.4), (1.0, -2.0, 0.4))]:
            left, right = _state(*ls), _state(*rs)
            ref = _sweep_faces(hydro_step_numpy, left, right, solver)
            got = self._flux(tier, solver, left, right)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)


# ============================================================== integration
class TestIntegration:
    def _small_sim(self, **overrides):
        from repro import Simulation, SimulationConfig

        cfg = dict(n_root=8, max_level=1, refine_overdensity=3.0,
                   solver_options={"riemann_solver": "hllc"})
        cfg.update(overrides)
        sim = Simulation(SimulationConfig(**cfg))
        r2 = lambda x, y, z: ((x - 0.5) ** 2 + (y - 0.5) ** 2
                              + (z - 0.5) ** 2)
        sim.set_density(lambda x, y, z: 1.0 + 10.0 * np.exp(-r2(x, y, z)
                                                            / 0.01))
        sim.initialize()
        return sim

    def test_hllc_and_two_shock_both_run(self, isolated):
        fps = {}
        for rs in ("hllc", "two_shock"):
            sim = self._small_sim(solver_options={"riemann_solver": rs})
            sim.run(t_end=0.005)
            fps[rs] = sim.hierarchy.fingerprint()
        # different solvers genuinely produce different answers
        assert fps["hllc"] != fps["two_shock"]

    def test_telemetry_records_kernels(self, isolated):
        from repro.runtime.telemetry import run_setup, step_record

        dispatch.set_backend("numpy", env=False)
        sim = self._small_sim()
        dt = sim.evolver.advance_root_step(0.005)
        assert run_setup(sim.evolver)["kernels"] == "numpy"
        kernels = step_record(sim.evolver, step=1, dt=dt)["kernels"]
        # a step is one kernel call on every tier: the reference calls
        # the NumPy bodies directly, so nothing is counted twice
        assert kernels["hydro.step.calls"] > 0
        assert kernels["hydro.step.s"] >= 0.0
        assert "riemann.hllc.calls" not in kernels
        assert all(key.endswith((".calls", ".s")) for key in kernels)

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
    def test_fingerprint_identical_across_kernel_backends(self, isolated):
        """The PR-3 gate, extended to the kernel tier: a run on the
        compiled kernels is bitwise-identical to the NumPy reference."""
        fps = {}
        for backend in ["numpy"] + COMPILED:
            dispatch.set_backend(backend, env=False)
            sim = self._small_sim()
            sim.run(t_end=0.005)
            fps[backend] = sim.hierarchy.fingerprint()
        assert len(set(fps.values())) == 1, fps

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
    def test_fingerprint_identical_on_thread_exec(self, isolated):
        """Compiled kernels under the thread exec backend stay bitwise
        identical to the serial NumPy run (worker counters included)."""
        dispatch.set_backend("numpy", env=False)
        ref = self._small_sim()
        ref.run(t_end=0.005)
        dispatch.set_backend(COMPILED[0], env=False)
        sim = self._small_sim(exec_backend="thread", workers=2)
        sim.run(t_end=0.005)
        assert sim.hierarchy.fingerprint() == ref.hierarchy.fingerprint()

    def test_simulation_config_kernels_field(self, isolated, monkeypatch):
        monkeypatch.delenv(dispatch.ENV_KERNELS, raising=False)
        target = COMPILED[0] if COMPILED else "numpy"
        self._small_sim(kernels=target)
        assert dispatch.active_backend() == target
        import os

        # the choice is exported so child processes resolve the same
        assert os.environ[dispatch.ENV_KERNELS] == target

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
    def test_amr_stencils_fingerprint_identical(self, isolated):
        """The deep-lattice smoke problem (two refined levels): new grids
        filled, reused ghost shells refreshed, ghost zones set and subgrid
        gravity relaxed through the kernels — every tier ends on the
        same bytes, and so does the compiled tier under ``thread x 2``:
        the compiled sweep releases the GIL, so sibling grids really sweep
        at once, and every kernel's scratch is per call."""
        from repro.exec.config import ExecConfig
        from repro.problems import SphereCollapse

        def run(backend, exec_config=None):
            dispatch.set_backend(backend, env=False)
            dispatch.reset_counters()
            run = SphereCollapse(n_root=16, max_level=2, overdensity=25.0,
                                 max_dims=8, exec_config=exec_config)
            t_end = 1.5 * run.free_fall_time(run.peak_density)
            for _ in range(2):
                run.evolver.advance_root_step(t_end)
            assert run.hierarchy.grids_reused > 0
            assert len(run.hierarchy.level_grids(2)) > 1
            calls = dispatch.counters_totals()
            assert calls["fill.level"][0] > 0
            assert calls["mg.level"][0] > 0
            assert calls["gravity.accel"][0] > 0
            assert calls["flux.correct"][0] > 0
            return run.hierarchy.fingerprint()

        fps = {backend: run(backend) for backend in ["numpy"] + COMPILED}
        fps["thread"] = run(COMPILED[0], ExecConfig("thread", 2))
        assert len(set(fps.values())) == 1, fps

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend on host")
    def test_chemistry_fingerprint_identical(self, isolated):
        """The collapse smoke problem (12-species chemistry, dark matter,
        two refined levels): every tier ends on the same bytes, and so
        does the compiled tier under ``thread x 2`` — ``chem.step`` holds
        no state between calls, its per-thread scratch aside, and releases
        the GIL, so sibling grids really integrate at once."""
        from repro.problems import PrimordialCollapse

        def run(backend, **exec_options):
            dispatch.set_backend(backend, env=False)
            dispatch.reset_counters()
            problem = PrimordialCollapse(
                n_root=8, max_level=2, z_init=100.0, seed=7,
                amplitude_boost=4.0, jeans_number=4.0,
                mass_refine_factor=8.0, with_chemistry=True,
                with_dark_matter=True, max_dims=16, **exec_options)
            problem.initial_rebuild()
            t_end = problem.code_time_of_redshift(20.0)
            for _ in range(4):
                problem.evolver.advance_root_step(t_end)
            calls = dispatch.counters_totals()
            # one table pass and one fused substep per iteration (the
            # first RateTable of a process also blends once, to check
            # its accuracy)
            assert 0 < calls["chem.step"][0] <= calls["chem.blend"][0] \
                <= calls["chem.step"][0] + 1
            # and the coarse-fine and particle-mesh bookkeeping
            for name in ("flux.correct", "cic.deposit", "cic.gather"):
                assert calls[name][0] > 0, name
            # every kernel the tier registers is one this run reaches: an
            # entry point no run calls shows here
            assert {name for name, (n, _) in calls.items() if n > 0} == set(
                _tier_impls(backend)), calls
            assert len(problem.hierarchy.levels) > 1
            return problem.hierarchy.fingerprint()

        fps = {backend: run(backend) for backend in ["numpy"] + COMPILED}
        fps["thread"] = run(COMPILED[0], exec_backend="thread", workers=2)
        assert len(set(fps.values())) == 1, fps
