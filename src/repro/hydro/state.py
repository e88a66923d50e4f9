"""Field registry and conversions for the gas state on one grid.

A grid's gas state is a plain dict of named 3-d ndarrays (including ghost
zones).  Primary fields:

* ``density``       — comoving gas density (code units)
* ``vx, vy, vz``    — proper peculiar velocity (code units)
* ``energy``        — *total* specific energy e + v^2/2 (proper, code units)
* ``internal``      — specific internal energy, carried separately for the
  dual-energy formalism (hypersonic flows make e = E - v^2/2 catastrophic)

Chemistry species ride along as comoving partial densities named after the
species (``HI``, ``HII``, ... see :mod:`repro.chemistry.species`); the hydro
solvers advect any field listed in ``fields['__advected__']``.
"""

from __future__ import annotations

import numpy as np

#: Fields every hydro solver advances (in conserved form internally).
CONSERVED_FIELDS = ("density", "vx", "vy", "vz", "energy")

#: Extra bookkeeping keys that are not ndarrays.
META_KEY = "__advected__"

VELOCITY_FIELDS = ("vx", "vy", "vz")

#: name prefix for generic passive scalars (see :func:`scalar_names`)
SCALAR_PREFIX = "scalar"


def scalar_names(n: int) -> tuple[str, ...]:
    """Canonical names for ``n`` passive scalars (``scalar00``, ...).

    Passive scalars are ordinary advected fields: listing them under
    ``__advected__`` routes them through PPM/ZEUS transport, flux
    correction, projection and prolongation exactly like chemistry
    species.  With ``n == 0`` (the default everywhere) no field is added
    and runs remain bitwise identical to scalar-free builds.
    """
    return tuple(f"{SCALAR_PREFIX}{i:02d}" for i in range(int(n)))


class FieldSet(dict):
    """dict of field-name -> ndarray with a list of advected scalar names.

    Behaves exactly like a dict; the class only adds convenience
    constructors and copy semantics that preserve the advected-scalar list.
    """

    @property
    def advected(self) -> list[str]:
        return self.setdefault(META_KEY, [])

    def array_items(self):
        return [(k, v) for k, v in self.items() if k != META_KEY]

    def deep_copy(self) -> "FieldSet":
        out = FieldSet()
        for k, v in self.items():
            out[k] = list(v) if k == META_KEY else v.copy()
        return out

    def view(self, index) -> "FieldSet":
        """The same fields, every array indexed by ``index`` (basic slices,
        e.g. a grid's ``interior``): writes through to this set's arrays."""
        out = FieldSet()
        for k, v in self.items():
            out[k] = v if k == META_KEY else v[index]
        return out

    @property
    def shape(self):
        return self["density"].shape


def make_fields(shape, density=1.0, velocity=(0.0, 0.0, 0.0), internal_energy=1.0,
                advected=()) -> FieldSet:
    """Allocate a uniform field set of the given (ghost-inclusive) shape."""
    def filled(value: float) -> np.ndarray:
        return np.full(shape, float(value))

    f = FieldSet()
    f["density"] = filled(density)
    for name, v in zip(VELOCITY_FIELDS, velocity):
        f[name] = filled(v)
    e_kin = 0.5 * sum(float(v) ** 2 for v in velocity)
    f["internal"] = filled(internal_energy)
    f["energy"] = filled(float(internal_energy) + e_kin)
    f[META_KEY] = list(advected)
    for name in advected:
        f[name] = filled(0.0)
    return f


def total_energy(fields: FieldSet) -> np.ndarray:
    """Recompute total specific energy from internal + kinetic."""
    return fields["internal"] + 0.5 * (
        fields["vx"] ** 2 + fields["vy"] ** 2 + fields["vz"] ** 2
    )


def kinetic_energy(fields: FieldSet) -> np.ndarray:
    return 0.5 * (fields["vx"] ** 2 + fields["vy"] ** 2 + fields["vz"] ** 2)


#: defaults of :func:`sync_internal_from_total` (the compiled flux
#: correction re-runs that sync and takes these very floats)
DUAL_ENERGY_ETA = 1e-3
INTERNAL_FLOOR = 1e-30


def sync_internal_from_total(fields: FieldSet, eta: float = DUAL_ENERGY_ETA,
                             floor: float = INTERNAL_FLOOR) -> None:
    """Dual-energy selection (Bryan et al. 1995, eq. 12-13).

    Where thermal energy is a healthy fraction (> eta) of total energy, trust
    the conservative total-energy field; otherwise keep the separately
    advected internal energy (accurate in hypersonic flow).  Finally rebuild
    ``energy`` so the two fields agree.  Writes in place, so ``fields`` may
    be a :meth:`FieldSet.view`.
    """
    e_from_total = fields["energy"] - kinetic_energy(fields)
    use_total = e_from_total > eta * fields["energy"]
    fields["internal"][...] = np.where(
        use_total, np.maximum(e_from_total, floor), np.maximum(fields["internal"], floor)
    )
    fields["energy"][...] = total_energy(fields)


def fill_ghosts_periodic(fields: FieldSet, ng: int, axes=(0, 1, 2)) -> None:
    """Wrap-around ghost fill for standalone (non-AMR) unigrid use.

    ``axes`` restricts the fill so mixed boundaries compose, e.g. periodic
    in x with outflow in y for the Rayleigh-Taylor box.
    """
    for name, arr in fields.array_items():
        for axis in axes:
            src_lo = [slice(None)] * arr.ndim
            src_hi = [slice(None)] * arr.ndim
            dst_lo = [slice(None)] * arr.ndim
            dst_hi = [slice(None)] * arr.ndim
            n = arr.shape[axis]
            dst_lo[axis] = slice(0, ng)
            src_lo[axis] = slice(n - 2 * ng, n - ng)
            dst_hi[axis] = slice(n - ng, n)
            src_hi[axis] = slice(ng, 2 * ng)
            arr[tuple(dst_lo)] = arr[tuple(src_lo)]
            arr[tuple(dst_hi)] = arr[tuple(src_hi)]


def fill_ghosts_outflow(fields: FieldSet, ng: int, axes=(0, 1, 2)) -> None:
    """Zero-gradient (outflow) ghost fill along the given axes."""
    for name, arr in fields.array_items():
        for axis in axes:
            n = arr.shape[axis]
            edge_lo = [slice(None)] * arr.ndim
            edge_lo[axis] = slice(ng, ng + 1)
            edge_hi = [slice(None)] * arr.ndim
            edge_hi[axis] = slice(n - ng - 1, n - ng)
            dst_lo = [slice(None)] * arr.ndim
            dst_lo[axis] = slice(0, ng)
            dst_hi = [slice(None)] * arr.ndim
            dst_hi[axis] = slice(n - ng, n)
            arr[tuple(dst_lo)] = arr[tuple(edge_lo)]
            arr[tuple(dst_hi)] = arr[tuple(edge_hi)]


def fill_ghosts_reflecting(fields: FieldSet, ng: int, axes=(0, 1, 2)) -> None:
    """Mirror (solid-wall) ghost fill: scalars mirrored, normal v negated."""
    normal_velocity = {0: "vx", 1: "vy", 2: "vz"}
    for name, arr in fields.array_items():
        for axis in axes:
            n = arr.shape[axis]
            src_lo = [slice(None)] * arr.ndim
            src_lo[axis] = slice(2 * ng - 1, ng - 1, -1)
            dst_lo = [slice(None)] * arr.ndim
            dst_lo[axis] = slice(0, ng)
            src_hi = [slice(None)] * arr.ndim
            src_hi[axis] = slice(n - ng - 1, n - 2 * ng - 1, -1)
            dst_hi = [slice(None)] * arr.ndim
            dst_hi[axis] = slice(n - ng, n)
            sign = -1.0 if name == normal_velocity[axis] else 1.0
            arr[tuple(dst_lo)] = sign * arr[tuple(src_lo)]
            arr[tuple(dst_hi)] = sign * arr[tuple(src_hi)]


def mass_fractions(fields: FieldSet, names) -> dict[str, np.ndarray]:
    """Advected species densities -> mass fractions of the gas density."""
    rho = fields["density"]
    return {n: fields[n] / rho for n in names}
