"""Canonical JSON input/output for measures, bodies, and reports.

All numbers are serialized as decimals with 17 significant digits so a
write-read cycle reproduces every double bit-faithfully, and identical
invocations produce byte-identical files.

The writer walks the document once and builds a %-format template plus the
document's floats in order.  A list (or a list of equal-length lists) whose
items are all finite Python floats, a list of {"mass", "theta"} atom dicts
with finite Python float values, and a finite float64 array of one or two
dimensions, adds one slot per float in one step; an array is written as its
.tolist() would be.  Every other node (dicts, strings, ints, bools, numpy
scalars, None, mixed or ragged lists) is written as literal text, with any
`%` in it doubled.

A document with fewer than _KERNEL_MIN floats fills `%.17g` slots with one
`%` operation.  A larger one has its floats formatted by _format17, whose
array operations give the text of `format(v, ".17g")` exactly, _BLOCK floats
at a time, and each block joined with the template text between its floats.
`"%.17g" % v` and `format(v, ".17g")` give the same text for every float.

The readers reject any angle, mass, density sample or support number that is
not a finite number, JSON booleans included, naming its field.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import SchemaError
from .geometry import Polygon, polygon_from_support
from .measure import DiscreteMeasure, MeasureSpec, PiecewiseLinearDensity

# A document with this many floats or more goes through _format17.  Its fixed
# cost of some 70 numpy calls per block outweighs its saving over `%.17g`
# below about 500 floats.
_KERNEL_MIN = 512
_BLOCK = 8192  # floats per _format17 call: its temporaries peak near 2.4 MB


def _split(v):
    """v = hi + lo exactly, each half with at most 26 significant bits
    (Veltkamp's split)."""
    t = v * 134217729.0  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


# _format17's tables: 10^k, a double for k <= 22, and its halves; the four
# ASCII digits of each c < 10^4 as one uint32; _KEEP[p], 255 in the first p
# of _WIDTH columns and 0 in the others; the two exponents _format17 writes.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
_WIDTH = 23  # the longest text: "-0.000" and 17 digits, or "-d." 16 digits "e-06"
_PAD = 7  # "0" columns ahead of the digits: sign, "0.000" and one spare
_KEEP = np.where(np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None], 255, 0).astype(np.uint8)
_EXPONENT = np.frombuffer(b"e-06e-05", np.uint8).reshape(2, 4)


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite number {v}")
    return format(v, ".17g")


def _times_pow10(a, k):
    """a * 10^k = hi + lo exactly: hi the rounded product, lo its error
    (Dekker's product, Numer. Math. 18, 1971)."""
    hi = a * _POW10[k]
    ah, al = _split(a)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _digits17(a):
    """D and e with a rounded to 17 significant digits = D * 10^(e - 16),
    10^16 <= D < 10^17, for 1e-6 < a < 1e16.  D = round(a * 10^k), ties to
    even, for the k in [1, 22] that puts the exact product in [10^16, 10^17).
    The product never rounds up to 10^17: below each power of ten in range,
    the nearest double's product is at least 4.5 short of it."""
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 1, 22)
    hi, lo = _times_pow10(a, k)
    while True:  # log10 can be one off next to a power of ten
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        k[off] += low[off].astype(np.intp) - high[off]
        hi[off], lo[off] = _times_pow10(a[off], k[off])
    # hi >= 10^16 > 2^53 is an even integer, so rint's ties to even are D's
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), 16 - k


def _kernel17(x):
    """format(v, ".17g").encode() for each v of x, 1e-6 < |v| < 1e16."""
    n = len(x)
    D, e = _digits17(np.abs(x))
    # Row i of G: "0" columns, then D's 17 digits from column _PAD, taken
    # from a table of 4-digit words.
    words = np.zeros((n, 8), np.intp)
    words[:, 1], rest = np.divmod(D, 10**16)
    hi8, lo8 = np.divmod(rest, 10**8)
    words[:, 2], words[:, 3] = np.divmod(hi8, 10**4)
    words[:, 4], words[:, 5] = np.divmod(lo8, 10**4)
    G = np.take(_DIGITS4, words).view(np.uint8)
    nz = 17 - np.argmax(G[:, _PAD + 16:_PAD - 1:-1] != 48, axis=1)  # up to the last nonzero
    # The text is the sign, then the digits after Z zeros with a "." after
    # the first I of them, cut after the last nonzero digit (and the "."
    # with it when none follows), then an exponent when e < -4.
    sign = np.signbit(x)
    sci = e < -4
    Z = np.where(sci, 0, np.maximum(-e, 0))
    I = np.maximum(e, 0) + 1
    head = sign + I  # columns ahead of the "."
    start = np.arange(_PAD, G.size, G.shape[1]) - sign - Z
    # windows[j]: the _WIDTH bytes of G from byte j on, a view
    windows = np.ndarray((G.size - _WIDTH + 1, _WIDTH), np.uint8, G, 0, (1, 1))
    out = windows[start - 1]
    before = windows[start]
    out ^= (before ^ out) & np.take(_KEEP, head, axis=0)  # the columns ahead of the "." from before
    out.ravel()[np.arange(0, out.size, _WIDTH) + head] = 46  # "."
    out[sign, 0] = 45  # "-"
    length = sign + np.maximum(Z + nz, I) + (Z + nz > I)
    out &= np.take(_KEEP, length, axis=0)
    if sci.any():
        rows = np.flatnonzero(sci)
        out[rows[:, None], length[rows, None] + np.arange(4)] = _EXPONENT[e[rows] + 6]
    return out.view(f"S{_WIDTH}").ravel().tolist()


def _format17(x: np.ndarray) -> list:
    """format(v, ".17g").encode() for each v of x, a finite float64 vector
    (_fill passes _BLOCK floats at a time).  Zeros and values outside
    1e-6 < |v| < 1e16 are formatted one by one."""
    a = np.abs(x)
    inside = (a > 1e-6) & (a < 1e16)
    texts = _kernel17(np.where(inside, x, 1.0))
    for i in np.flatnonzero(~inside).tolist():
        texts[i] = format(float(x[i]), ".17g").encode()
    return texts


def _finite_floats(items) -> bool:
    """Every item a finite Python float (not a subclass such as np.float64,
    which is written as literal text by _format_number)."""
    return set(map(type, items)) == {float} and all(map(math.isfinite, items))


def _float_array(obj) -> bool:
    """obj a finite float64 vector, or matrix with at least one column."""
    return (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2)
            and obj.shape[-1] > 0 and bool(np.isfinite(obj).all()))


def _float_block(n: int, cols: int, indent: int) -> tuple:
    """The marker of n floats at indent, one list (cols 0) or rows of cols:
    (rows, cols, opening, gap, row_gap, closing), the text ahead of the
    first float, between two floats of a row, between two rows, and after
    the last float."""
    inner, pad = " " * (indent + 2), " " * indent
    if not cols:
        return 1, n, "[\n" + inner, ",\n" + inner, "", "\n" + pad + "]"
    inner2 = " " * (indent + 4)
    return (n // cols, cols, "[\n" + inner + "[\n" + inner2, ",\n" + inner2,
            "\n" + inner + "],\n" + inner + "[\n" + inner2, "\n" + inner + "]\n" + pad + "]")


_MASS_THETA = itemgetter("mass", "theta")  # an atom's values in sorted key order


def _atom_floats(items) -> list | None:
    """[mass, theta, mass, theta, ...] when every item is a dict of exactly
    the keys "mass" and "theta" with finite Python float values, else None."""
    if set(map(type, items)) != {dict} or set(map(len, items)) != {2}:
        return None
    try:
        flat = list(chain.from_iterable(map(_MASS_THETA, items)))
    except KeyError:
        return None
    return flat if _finite_floats(flat) else None


def _atom_block(n: int, indent: int) -> tuple:
    """The _float_block marker of n atom dicts at indent: one row of
    (mass, theta) per atom, each row's text that of its dict."""
    inner, inner2, pad = " " * (indent + 2), " " * (indent + 4), " " * indent
    head = "{\n" + inner2 + '"mass": '
    return (n, 2, "[\n" + inner + head, ",\n" + inner2 + '"theta": ',
            "\n" + inner + "},\n" + inner + head, "\n" + inner + "}\n" + pad + "]")


def _walk(obj, indent: int, out: list, floats: list) -> None:
    """Append obj's template text to out, with a _float_block marker in
    place of each run of float slots, and the run's floats to floats."""
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
        elif _float_array(obj):
            out.append(_float_block(obj.size, obj.shape[1] if obj.ndim == 2 else 0, indent))
            floats.append(obj.ravel())
        elif not isinstance(obj, np.ndarray) and _finite_floats(obj):
            out.append(_float_block(len(obj), 0, indent))
            floats.append(obj)
        elif (type(obj[0]) is list and obj[0]
              and all(type(r) is list and len(r) == len(obj[0]) for r in obj)
              and _finite_floats(flat := list(chain.from_iterable(obj)))):
            # Rows of floats, such as [x, y] vertices.
            out.append(_float_block(len(flat), len(obj[0]), indent))
            floats.append(flat)
        elif type(obj[0]) is dict and (flat := _atom_floats(obj)) is not None:
            # Atoms, such as a measure's {"mass", "theta"} dicts.
            out.append(_atom_block(len(obj), indent))
            floats.append(flat)
        else:
            out.append("[\n")
            for k, v in enumerate(obj):
                out.append(inner)
                _walk(v, indent + 2, out, floats)
                out.append(",\n" if k < len(obj) - 1 else "\n" + pad + "]")
    elif isinstance(obj, dict) and not obj:
        out.append("{}")
    elif isinstance(obj, dict):
        inner, pad = " " * (indent + 2), " " * indent
        keys = sorted(obj.keys())
        out.append("{\n")
        for k, key in enumerate(keys):
            out.append(inner + json.dumps(str(key)).replace("%", "%%") + ": ")
            _walk(obj[key], indent + 2, out, floats)
            out.append(",\n" if k < len(keys) - 1 else "\n" + pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _template(out: list) -> str:
    """out as one template with a %.17g slot per float."""
    parts = []
    for p in out:
        if type(p) is str:
            parts.append(p)
        else:
            rows, cols, opening, gap, row_gap, closing = p
            row = "%.17g" + (gap + "%.17g") * (cols - 1)
            parts.append(opening + row + (row_gap + row) * (rows - 1) + closing)
    return "".join(parts)


def _fill(out: list, x: np.ndarray) -> str:
    """out's text with the floats x written by _format17, _BLOCK at a time.
    Each float is followed by the text up to the next float (or the end),
    with out's doubled "%" written once."""
    gaps, run, head = [], [], None
    for p in out:
        if type(p) is str:
            run.append(p)
            continue
        rows, cols, opening, gap, row_gap, closing = p
        run.append(opening)
        text = "".join(run).replace("%%", "%")
        if head is None:
            head = text
        else:
            gaps.append(text.encode("ascii"))
        gaps += ([gap.encode("ascii")] * (cols - 1) + [row_gap.encode("ascii")]) * rows
        gaps.pop()  # no row_gap after the last row
        run = [closing]
    gaps.append("".join(run).replace("%%", "%").encode("ascii"))
    pieces = [head]
    for start in range(0, len(x), _BLOCK):
        texts = _format17(x[start:start + _BLOCK])
        both = [None] * (2 * len(texts))
        both[0::2] = texts
        both[1::2] = gaps[start:start + len(texts)]
        pieces.append(b"".join(both).decode("ascii"))
    return "".join(pieces)


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    out, floats = [], []
    _walk(obj, indent, out, floats)
    if sum(map(len, floats)) < _KERNEL_MIN:
        values = chain.from_iterable(f.tolist() if isinstance(f, np.ndarray) else f
                                     for f in floats)
        return _template(out) % tuple(values)
    return _fill(out, np.concatenate(floats))


def write_canonical(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def _require(cond: bool, field: str, msg: str):
    if not cond:
        raise SchemaError(f"{field}: {msg}")


def polygon_to_dict(P: Polygon) -> dict:
    """P's support data and vertices as float64 arrays, which the writers
    write as lists; json.loads of the written text gives the lists."""
    return {"normals_theta": P.normals, "support": P.support, "vertices": P.vertices}


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
    """Theta and mass arrays of well-formed atoms, each field read in one
    itemgetter pass over entries that are all plain dicts.  If any entry is
    malformed (a boolean theta or mass, or a mapping other than a dict,
    included), the per-entry loop raises on the first bad one, as it names
    atoms[k]."""
    if set(map(type, raw_atoms)) == {dict}:
        try:
            t = list(map(itemgetter("theta"), raw_atoms))
            m = list(map(itemgetter("mass"), raw_atoms))
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
