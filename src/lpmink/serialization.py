"""Canonical JSON input/output for measures, bodies, and reports.

All numbers are serialized as decimals with 17 significant digits so a
write-read cycle reproduces every double bit-faithfully, and identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SchemaError
from .geometry import Polygon, polygon_from_support
from .measure import DiscreteMeasure, MeasureSpec, PiecewiseLinearDensity


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite number {v}")
    return format(v, ".17g")


def _float_lines(items, indent: int) -> str:
    """dumps_canonical of a non-empty list of finite Python floats."""
    inner, pad = " " * (indent + 2), " " * indent
    return "[\n" + ",\n".join([inner + format(v, ".17g") for v in items]) + "\n" + pad + "]"


def _all_finite_floats(items) -> bool:
    """Every item a finite Python float (not a subclass such as np.float64,
    which goes through _format_number)."""
    return set(map(type, items)) == {float} and all(map(math.isfinite, items))


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _format_number(obj)
    if isinstance(obj, (list, tuple)) and obj and _all_finite_floats(obj):
        return _float_lines(obj, indent)
    if (isinstance(obj, (list, tuple)) and obj and all(type(r) is list and r for r in obj)
            and _all_finite_floats([v for r in obj for v in r])):
        # Rows of floats, such as polygon_to_dict's [x, y] vertices.
        rows = [inner + _float_lines(r, indent + 2) for r in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_canonical(v, indent + 2) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        keys = sorted(obj.keys())
        items = [
            f"{json.dumps(str(k))}: {dumps_canonical(obj[k], indent + 2)}" for k in keys
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_canonical(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def _require(cond: bool, field: str, msg: str):
    if not cond:
        raise SchemaError(f"{field}: {msg}")


def polygon_to_dict(P: Polygon) -> dict:
    return {
        "normals_theta": P.normals.tolist(),
        "support": P.support.tolist(),
        "vertices": P.vertices.tolist(),
    }


def polygon_from_dict(d: dict) -> Polygon:
    _require(isinstance(d, dict), "$", "polygon JSON must be an object")
    _require("normals_theta" in d, "normals_theta", "missing")
    _require("support" in d, "support", "missing")
    normals = d["normals_theta"]
    support = d["support"]
    _require(isinstance(normals, list) and len(normals) >= 3,
             "normals_theta", "need a list of at least 3 angles")
    _require(isinstance(support, list) and len(support) == len(normals),
             "support", "length must match normals_theta")
    # vertices are always recomputed from the support data
    return polygon_from_support(np.asarray(normals, float), np.asarray(support, float))


def measure_spec_to_dict(spec: MeasureSpec) -> dict:
    atoms = []
    if spec.atoms is not None:
        atoms = [
            {"theta": float(t), "mass": float(m)}
            for t, m in zip(spec.atoms.thetas, spec.atoms.masses)
        ]
    density = None
    if spec.density is not None:
        density = {
            "theta": [float(t) for t in spec.density.knots],
            "f": [float(v) for v in spec.density.values],
        }
    return {"atoms": atoms, "density": density}


def _atom_lists(raw_atoms: list) -> tuple[list, list]:
    """Theta and mass lists of well-formed atoms in one pass each.  If any
    entry is malformed, the per-entry loop raises on the first bad one, as
    it names atoms[k]."""
    if all(isinstance(entry, dict) for entry in raw_atoms):
        try:
            thetas = [float(entry["theta"]) for entry in raw_atoms]
            masses = [float(entry["mass"]) for entry in raw_atoms]
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        else:
            if all(m > 0 for m in masses):
                return thetas, masses
    thetas, masses = [], []
    for k, entry in enumerate(raw_atoms):
        _require(isinstance(entry, dict) and "theta" in entry and "mass" in entry,
                 f"atoms[{k}]", "needs theta and mass")
        _require(float(entry["mass"]) > 0, f"atoms[{k}].mass", "must be positive")
        thetas.append(float(entry["theta"]))
        masses.append(float(entry["mass"]))
    return thetas, masses


def measure_spec_from_dict(d: dict) -> MeasureSpec:
    _require(isinstance(d, dict), "$", "measure JSON must be an object")
    _require("atoms" in d, "atoms", "missing (use [] for none)")
    raw_atoms = d["atoms"]
    _require(isinstance(raw_atoms, list), "atoms", "must be a list")
    thetas, masses = _atom_lists(raw_atoms)
    atoms = DiscreteMeasure(thetas, masses) if thetas else None
    density = None
    raw_density = d.get("density")
    if raw_density is not None:
        _require(isinstance(raw_density, dict) and "theta" in raw_density
                 and "f" in raw_density, "density", "needs theta and f lists")
        t, f = raw_density["theta"], raw_density["f"]
        _require(isinstance(t, list) and isinstance(f, list) and len(t) == len(f)
                 and len(t) >= 2, "density", "theta and f must be equal-length lists (>= 2)")
        _require(all(float(v) >= 0 for v in f), "density.f", "samples must be nonnegative")
        density = PiecewiseLinearDensity(np.asarray(t, float), np.asarray(f, float))
    _require(atoms is not None or density is not None, "$",
             "measure must have atoms or a density")
    try:
        return MeasureSpec(atoms, density)
    except Exception as exc:
        raise SchemaError(f"$: {exc}") from exc


def discrete_measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {
        "atoms": [
            {"theta": float(t), "mass": float(m)}
            for t, m in zip(mu.thetas, mu.masses)
        ],
        "density": None,
    }
