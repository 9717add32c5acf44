"""Canonical JSON input/output for measures, bodies, and reports.

All numbers are serialized as decimals with 17 significant digits so a
write-read cycle reproduces every double bit-faithfully, and identical
invocations produce byte-identical files.

The writer walks the document once and builds a single %-format template
plus one flat list of floats, then formats them all with one `%` operation.
A list (or a list of equal-length lists) whose items are all finite Python
floats adds its whole template in one step, with a `%.17g` slot per float;
every other node (dicts, strings, ints, bools, numpy scalars, None, mixed or
ragged lists) is written as literal text, with any `%` in it doubled.
`"%.17g" % v` and `format(v, ".17g")` give the same text for every float.

The readers reject any angle, mass, density sample or support number that is
not a finite number, JSON booleans included, naming its field.
"""

from __future__ import annotations

import json
import math
from itertools import chain

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


def _finite_floats(items) -> bool:
    """Every item a finite Python float (not a subclass such as np.float64,
    which is written as literal text by _format_number)."""
    return set(map(type, items)) == {float} and all(map(math.isfinite, items))


def _float_list_template(n: int, indent: int) -> str:
    inner, pad = " " * (indent + 2), " " * indent
    return "[\n" + (inner + "%.17g,\n") * (n - 1) + inner + "%.17g\n" + pad + "]"


def _walk(obj, indent: int, out: list, values: list) -> None:
    """Append obj's template text to out and its float slots to values."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj).replace("%", "%%"))
    elif isinstance(obj, (bool, int, float, np.integer, np.floating)):
        out.append(_format_number(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        inner, pad = " " * (indent + 2), " " * indent
        if len(obj) == 0:
            out.append("[]")
        elif not isinstance(obj, np.ndarray) and _finite_floats(obj):
            out.append(_float_list_template(len(obj), indent))
            values.extend(obj)
        elif (type(obj[0]) is list and obj[0]
              and all(type(r) is list and len(r) == len(obj[0]) for r in obj)
              and _finite_floats(flat := list(chain.from_iterable(obj)))):
            # Rows of floats, such as polygon_to_dict's [x, y] vertices.
            row = inner + _float_list_template(len(obj[0]), indent + 2)
            out.append("[\n" + (row + ",\n") * (len(obj) - 1) + row + "\n" + pad + "]")
            values.extend(flat)
        else:
            out.append("[\n")
            for k, v in enumerate(obj):
                out.append(inner)
                _walk(v, indent + 2, out, values)
                out.append(",\n" if k < len(obj) - 1 else "\n" + pad + "]")
    elif isinstance(obj, dict) and not obj:
        out.append("{}")
    elif isinstance(obj, dict):
        inner, pad = " " * (indent + 2), " " * indent
        keys = sorted(obj.keys())
        out.append("{\n")
        for k, key in enumerate(keys):
            out.append(inner + json.dumps(str(key)).replace("%", "%%") + ": ")
            _walk(obj[key], indent + 2, out, values)
            out.append(",\n" if k < len(keys) - 1 else "\n" + pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    out, values = [], []
    _walk(obj, indent, out, values)
    return "".join(out) % tuple(values)


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


def _no_bools(values: list, a: np.ndarray) -> bool:
    """No JSON boolean among values, a being values as floats.  numpy reads
    true and false as 1.0 and 0.0, so only the entries that read as exactly
    0 or 1 need their type checked."""
    return not any(type(values[k]) is bool
                   for k in np.flatnonzero((a == 0.0) | (a == 1.0)).tolist())


def _finite_number(value, field: str) -> float:
    try:
        x = None if isinstance(value, bool) else np.asarray(value, float)
    except (TypeError, ValueError, OverflowError):
        x = None
    _require(x is not None and x.ndim == 0 and math.isfinite(x), field, "must be a finite number")
    return float(x)


def _finite_array(values: list, field: str) -> np.ndarray:
    """values as one float array.  If any value is not a finite number (NaN,
    +-inf, null, a boolean, a non-numeric string, a list), the per-value
    check raises on the first bad one, naming field[k]."""
    try:
        a = np.asarray(values, float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.ndim == 1 and np.isfinite(a).all() and _no_bools(values, a):
        return a
    return np.array([_finite_number(v, f"{field}[{k}]") for k, v in enumerate(values)])


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
    return polygon_from_support(_finite_array(normals, "normals_theta"),
                                _finite_array(support, "support"))


def measure_spec_to_dict(spec: MeasureSpec) -> dict:
    atoms = []
    if spec.atoms is not None:
        atoms = discrete_measure_to_dict(spec.atoms)["atoms"]
    density = None
    if spec.density is not None:
        density = {"theta": spec.density.knots.tolist(), "f": spec.density.values.tolist()}
    return {"atoms": atoms, "density": density}


def _atom_arrays(raw_atoms: list) -> tuple[np.ndarray, np.ndarray]:
    """Theta and mass arrays of well-formed atoms in one pass each.  If any
    entry is malformed (a boolean theta or mass included), the per-entry
    loop raises on the first bad one, as it names atoms[k]."""
    if all(isinstance(entry, dict) for entry in raw_atoms):
        try:
            t = [entry["theta"] for entry in raw_atoms]
            m = [entry["mass"] for entry in raw_atoms]
            thetas, masses = np.asarray(t, float), np.asarray(m, float)
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        else:
            if (thetas.ndim == masses.ndim == 1 and np.isfinite(thetas).all()
                    and np.isfinite(masses).all() and (masses > 0).all()
                    and _no_bools(t, thetas) and _no_bools(m, masses)):
                return thetas, masses
    thetas, masses = [], []
    for k, entry in enumerate(raw_atoms):
        _require(isinstance(entry, dict) and "theta" in entry and "mass" in entry,
                 f"atoms[{k}]", "needs theta and mass")
        thetas.append(_finite_number(entry["theta"], f"atoms[{k}].theta"))
        masses.append(_finite_number(entry["mass"], f"atoms[{k}].mass"))
        _require(masses[-1] > 0, f"atoms[{k}].mass", "must be positive")
    return np.array(thetas), np.array(masses)


def measure_spec_from_dict(d: dict) -> MeasureSpec:
    _require(isinstance(d, dict), "$", "measure JSON must be an object")
    _require("atoms" in d, "atoms", "missing (use [] for none)")
    raw_atoms = d["atoms"]
    _require(isinstance(raw_atoms, list), "atoms", "must be a list")
    thetas, masses = _atom_arrays(raw_atoms)
    atoms = DiscreteMeasure(thetas, masses) if len(thetas) else None
    density = None
    raw_density = d.get("density")
    if raw_density is not None:
        _require(isinstance(raw_density, dict) and "theta" in raw_density
                 and "f" in raw_density, "density", "needs theta and f lists")
        t, f = raw_density["theta"], raw_density["f"]
        _require(isinstance(t, list) and isinstance(f, list) and len(t) == len(f)
                 and len(t) >= 2, "density", "theta and f must be equal-length lists (>= 2)")
        t, f = _finite_array(t, "density.theta"), _finite_array(f, "density.f")
        _require((f >= 0).all(), "density.f", "samples must be nonnegative")
        density = PiecewiseLinearDensity(t, f)
    _require(atoms is not None or density is not None, "$",
             "measure must have atoms or a density")
    try:
        return MeasureSpec(atoms, density)
    except Exception as exc:
        raise SchemaError(f"$: {exc}") from exc


def discrete_measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {
        "atoms": [{"theta": t, "mass": m}
                  for t, m in zip(mu.thetas.tolist(), mu.masses.tolist())],
        "density": None,
    }
