"""Machine-readable validation reports.

A :class:`ValidationReport` is the single artifact every layer of the
validation subsystem emits: the convergence harness fills one in, tests
assert on it, CI round-trips it through JSON, and
``benchmarks/bench_validation.py`` embeds them in ``BENCH_validation.json``.

The schema is versioned and deliberately flat so a report written by one
revision of the code stays consumable by the next: top-level metadata plus
per-field lists of ``{n, l1, l2, linf}`` rows and fitted orders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: bump when the JSON layout changes incompatibly
SCHEMA_VERSION = 1

#: required top-level keys and their types, checked by :func:`validate_report`
_REQUIRED = {
    "schema_version": int,
    "problem": str,
    "mode": str,            # 'analytic' | 'self'
    "fields": list,
    "resolutions": list,
    "t_end": float,
    "norms": dict,
    "orders": dict,
    "pairwise_orders": dict,
    "meta": dict,
}

_NORM_KEYS = ("l1", "l2", "linf")


@dataclass
class ValidationReport:
    """Result of one convergence-harness invocation.

    ``norms[field]`` is a list (ascending resolution) of rows
    ``{"n": int, "l1": float, "l2": float, "linf": float}``;
    ``orders[field]`` the least-squares fitted order per norm; and
    ``pairwise_orders[field][norm]`` the order between each adjacent
    resolution pair (length ``len(resolutions) - 1``).
    """

    problem: str
    mode: str
    fields: list[str]
    resolutions: list[int]
    t_end: float
    norms: dict = field(default_factory=dict)
    orders: dict = field(default_factory=dict)
    pairwise_orders: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------ accessors
    def order(self, field_name: str, norm: str = "l1") -> float:
        """Fitted convergence order for one field/norm."""
        return float(self.orders[field_name][norm])

    # ----------------------------------------------------------------- json
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "problem": self.problem,
            "mode": self.mode,
            "fields": list(self.fields),
            "resolutions": [int(n) for n in self.resolutions],
            "t_end": float(self.t_end),
            "norms": self.norms,
            "orders": self.orders,
            "pairwise_orders": self.pairwise_orders,
            "meta": self.meta,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, d: dict) -> "ValidationReport":
        validate_report(d)
        return cls(
            problem=d["problem"],
            mode=d["mode"],
            fields=list(d["fields"]),
            resolutions=[int(n) for n in d["resolutions"]],
            t_end=float(d["t_end"]),
            norms=d["norms"],
            orders=d["orders"],
            pairwise_orders=d["pairwise_orders"],
            meta=d["meta"],
            schema_version=int(d["schema_version"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "ValidationReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ValidationReport":
        with open(path) as fh:
            return cls.from_json(fh.read())


def validate_report(d: dict) -> None:
    """Schema check for a report dict; raises ``ValueError`` on violation.

    Hand-rolled (no jsonschema dependency): key presence + types, the
    per-field norm rows, and consistency between ``fields``/``norms``/
    ``orders`` keys.
    """
    if not isinstance(d, dict):
        raise ValueError(f"report must be a dict, got {type(d).__name__}")
    for key, typ in _REQUIRED.items():
        if key not in d:
            raise ValueError(f"report missing required key {key!r}")
        value = d[key]
        if typ is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"report[{key!r}] must be a number")
        elif not isinstance(value, typ):
            raise ValueError(
                f"report[{key!r}] must be {typ.__name__}, "
                f"got {type(value).__name__}"
            )
    if int(d["schema_version"]) != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {d['schema_version']} "
            f"(expected {SCHEMA_VERSION})"
        )
    if d["mode"] not in ("analytic", "self"):
        raise ValueError(f"mode must be 'analytic' or 'self', got {d['mode']!r}")
    fields = d["fields"]
    if not all(isinstance(f, str) for f in fields):
        raise ValueError("fields must be a list of strings")
    res = d["resolutions"]
    if len(res) < 2 or not all(isinstance(n, int) and n > 0 for n in res):
        raise ValueError("resolutions must be >= 2 positive integers")
    if sorted(res) != list(res):
        raise ValueError("resolutions must be ascending")
    for fname in fields:
        rows = d["norms"].get(fname)
        if not isinstance(rows, list) or len(rows) != len(res):
            raise ValueError(f"norms[{fname!r}] must have one row per resolution")
        for row, n in zip(rows, res):
            if int(row.get("n", -1)) != n:
                raise ValueError(f"norms[{fname!r}] rows out of order")
            for key in _NORM_KEYS:
                if not isinstance(row.get(key), (int, float)):
                    raise ValueError(f"norms[{fname!r}] row missing {key!r}")
        fitted = d["orders"].get(fname)
        if not isinstance(fitted, dict) or not all(
            isinstance(fitted.get(k), (int, float)) for k in _NORM_KEYS
        ):
            raise ValueError(f"orders[{fname!r}] must map l1/l2/linf to numbers")
        pairwise = d["pairwise_orders"].get(fname)
        if not isinstance(pairwise, dict):
            raise ValueError(f"pairwise_orders[{fname!r}] missing")
        for key in _NORM_KEYS:
            seq = pairwise.get(key)
            if not isinstance(seq, list) or len(seq) != len(res) - 1:
                raise ValueError(
                    f"pairwise_orders[{fname!r}][{key!r}] must have "
                    f"{len(res) - 1} entries"
                )
