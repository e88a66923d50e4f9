"""Chemistry in bounded slabs: ``ChemistryNetwork.advance_fields`` walks a
grid's interior one slab of whole first-axis planes at a time.

Chemistry is cell-local, so the slabbed advance must be bitwise the
whole-grid integration (one ``advance_stacked`` call over every cell) on
each kernel tier, with the same integrator statistics; its per-thread
scratch is sized by the slab, not the grid; and the statistics a call
returns are its own, whatever another grid's call does meanwhile.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import constants as const
from repro.chemistry import network
from repro.chemistry.network import (SLAB_CELLS, ChemistryNetwork,
                                     integrator_stats,
                                     primordial_initial_fractions)
from repro.chemistry.species import SPECIES, SPECIES_NAMES
from repro.cosmology import STANDARD_CDM, CodeUnits
from repro.hydro.state import make_fields

NG = 3
UNITS = CodeUnits.for_cosmology(STANDARD_CDM, 256.0, 100.0)
A = UNITS.a_initial
DT_CODE = 1e-3


def _grid_fields(shape, seed=5):
    """A ghosted field set with mixed hot/cold, thin/dense chemistry and
    its interior view (what ``ChemistryTask`` hands the network)."""
    rng = np.random.default_rng(seed)
    f = make_fields(tuple(n + 2 * NG for n in shape),
                    advected=list(SPECIES_NAMES))
    inner = f.view((slice(NG, -NG),) * 3)
    density = 0.06 * 10 ** rng.uniform(0.0, 3.0, shape)
    inner["density"][...] = density
    fr = primordial_initial_fractions(x_e=10 ** rng.uniform(-4, -0.3, shape),
                                      f_h2=10 ** rng.uniform(-7, -4, shape))
    for s in SPECIES_NAMES:
        inner[s][...] = fr[s] * density
    for v in ("vx", "vy", "vz"):
        inner[v][...] = rng.normal(0.0, 0.1, shape)
    inner["internal"][...] = UNITS.energy_from_temperature(
        10 ** rng.uniform(1.5, 5.0, shape), 1.22, A)
    inner["energy"][...] = inner["internal"] + 0.5 * (
        inner["vx"] ** 2 + inner["vy"] ** 2 + inner["vz"] ** 2)
    return f, inner


def _whole_grid(net, fields, dt_code, units, a):
    """The unslabbed integration: the whole interior converted to cgs,
    advanced by one ``advance_stacked`` call and written back, with the
    roundings ``advance_fields`` uses."""
    a3 = a**3
    density = fields["density"]
    shape = density.shape
    rho = (density * units.density_unit / a3).reshape(-1)
    state = np.empty((len(SPECIES_NAMES), rho.size))
    rows = state.reshape((-1,) + shape)
    for row, s in zip(rows, SPECIES_NAMES):
        np.multiply(fields[s], units.density_unit, out=row)
        row /= a3
        row /= SPECIES[s].mass_amu * const.HYDROGEN_MASS
    e = (fields["internal"] * units.energy_unit).reshape(-1)
    counters = net.advance_stacked(state, e, rho, dt_code * units.time_unit,
                                   1.0 / a - 1.0)
    for row, s in zip(rows, SPECIES_NAMES):
        row *= SPECIES[s].mass_amu
        row *= const.HYDROGEN_MASS
        row *= a3
        np.divide(row, units.density_unit, out=fields[s])
    kinetic = 0.5 * (fields["vx"] ** 2 + fields["vy"] ** 2
                     + fields["vz"] ** 2)
    fields["internal"][...] = (e / units.energy_unit).reshape(shape)
    fields["energy"][...] = fields["internal"] + kinetic
    return integrator_stats(counters)


# a short last slab (24 planes of 360 cells: 11 + 11 + 2), and planes
# larger than a slab (one 4,480-cell plane per slab)
@pytest.mark.parametrize("shape", [(24, 20, 18), (3, 70, 64)])
def test_slabs_are_bitwise_the_whole_grid(kernel_tier, shape):
    planes = max(SLAB_CELLS // (shape[1] * shape[2]), 1)
    assert planes < shape[0]
    assert shape[0] % planes or planes == 1
    ref_fields, ref_inner = _grid_fields(shape)
    got_fields, got_inner = _grid_fields(shape)
    ref = _whole_grid(ChemistryNetwork(), ref_inner, DT_CODE, UNITS, A)
    got = ChemistryNetwork().advance_fields(got_inner, DT_CODE, UNITS, A)
    for name, arr in ref_fields.array_items():
        np.testing.assert_array_equal(got_fields[name], arr, err_msg=name)
    assert got == ref
    assert type(got["active_fraction_mean"]) is float
    # the slabs took different substep counts: the sums and maxima differ
    assert 1 < got["substeps_max"] == got["iterations"]
    assert got["cells"] < got["substeps_total"] < (
        got["substeps_max"] * got["cells"])


def test_scratch_is_bounded_by_the_slab():
    """After a 32^3 grid's advance, the advancing thread's scratch holds
    at most 2 MiB: it is sized by the slab, not the grid."""
    held = []

    def advance():
        _, inner = _grid_fields((32, 32, 32))
        ChemistryNetwork().advance_fields(inner, DT_CODE, UNITS, A)
        held.append(sum(buf.nbytes
                        for buf in vars(network._SCRATCH).values()))

    worker = threading.Thread(target=advance)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert 0 < held[0] <= 2 * 2**20


class _MeetingNetwork(ChemistryNetwork):
    """A network whose every ``advance_stacked`` call meets the other
    thread's at ``barrier`` before integrating and again before returning,
    so two grids' slabs are always in flight together."""

    def __init__(self, barrier):
        super().__init__()
        self.barrier = barrier

    def advance_stacked(self, *args, **kwargs):
        self.barrier.wait(timeout=60)
        out = super().advance_stacked(*args, **kwargs)
        self.barrier.wait(timeout=60)
        return out


def test_returned_stats_are_the_grids_own():
    """Under the thread backend several grids share one network.  Two
    threads advancing different grids through one network, slab for slab
    at the same time, each get the stats of their own serial reference."""
    shape = (24, 20, 18)  # three slabs each
    seeds = (5, 6)
    refs = [_whole_grid(ChemistryNetwork(), _grid_fields(shape, seed)[1],
                        DT_CODE, UNITS, A) for seed in seeds]
    assert refs[0] != refs[1]
    net = _MeetingNetwork(threading.Barrier(len(seeds)))
    got = [None] * len(seeds)

    def advance(k):
        _, inner = _grid_fields(shape, seeds[k])
        got[k] = net.advance_fields(inner, DT_CODE, UNITS, A)

    workers = [threading.Thread(target=advance, args=(k,))
               for k in range(len(seeds))]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=300)
    assert not any(w.is_alive() for w in workers)
    assert got == refs
