"""Canonical JSON: the one-template writer against the per-item recursive
formatter, the vectorized %.17g formatter against format(), and the readers'
checks on every number of a measure or body."""

import json
import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from conftest import import_bench_module, random_general_position_polygon

from lpmink import serialization
from lpmink.errors import SchemaError
from lpmink.geometry import polygon_from_support
from lpmink.measure import DiscreteMeasure, MeasureSpec, PiecewiseLinearDensity
from lpmink.pipeline import solve
from lpmink.serialization import (
    _BLOCK,
    _KERNEL_MIN,
    _format17,
    dumps_canonical,
    measure_spec_from_dict,
    polygon_from_dict,
    polygon_to_dict,
)

TWO_PI = 2.0 * math.pi


def reference_dumps(obj, indent=0):
    """dumps_canonical with one recursive call per list item."""
    pad, inner = " " * indent, " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError(f"cannot serialize non-finite number {v}")
        return format(v, ".17g")
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [reference_dumps(v, indent + 2) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {reference_dumps(obj[k], indent + 2)}"
                 for k in sorted(obj)]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_number(value, field):
    """One measure or body number: a finite number, else SchemaError naming field."""
    try:
        x = float(value) if not isinstance(value, (list, dict, bool)) else math.nan
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise SchemaError(f"{field}: must be a finite number")
    return x


def reference_atoms(raw_atoms):
    """measure_spec_from_dict's atoms, checked and converted entry by entry."""
    thetas, masses = [], []
    for k, entry in enumerate(raw_atoms):
        if not (isinstance(entry, dict) and "theta" in entry and "mass" in entry):
            raise SchemaError(f"atoms[{k}]: needs theta and mass")
        thetas.append(reference_number(entry["theta"], f"atoms[{k}].theta"))
        masses.append(reference_number(entry["mass"], f"atoms[{k}].mass"))
        if not masses[-1] > 0:
            raise SchemaError(f"atoms[{k}].mass: must be positive")
    return DiscreteMeasure(thetas, masses)


def reference_polygon_to_dict(P):
    return {
        "normals_theta": [float(t) for t in P.normals],
        "support": [float(h) for h in P.support],
        "vertices": [[float(x), float(y)] for x, y in P.vertices],
    }


class TestCanonicalJsonBitIdentity:
    def test_float_lists_at_every_depth(self, rng):
        x = rng.normal(size=50) * 10.0 ** rng.uniform(-300, 300, 50)
        floats = x.tolist() + [0.0, -0.0, 1.0, 0.1, 1e-320, 2.0**60, -math.pi]
        doc = {"flat": floats, "nested": [floats[:5], [floats[5:9], floats[9:12]]],
               "rows": np.column_stack([x[:10], x[10:20]]).tolist(),
               "tuple": tuple(floats[:4]), "one": [floats[0]], "empty": []}
        assert dumps_canonical(doc) == reference_dumps(doc)
        assert dumps_canonical(floats, 6) == reference_dumps(floats, 6)

    def test_mixed_items_keep_the_general_path(self):
        np_floats = np.array([0.1, 2.5, -3.0])
        for items in ([1.0, 2, 3.5], [1.0, True, 2.0], [0.5, None], [0.5, "x"],
                      [0.5, np.float64(0.1)], list(np_floats), np_floats,
                      np.array([1, 2, 3]), [np.int64(4), 1.5],
                      [[0.5, 1.5], [2, 3.0], []], [{"a": 0.25, "b": [1.0, 2.0]}, 0.5],
                      (1, 2.0), [1.0, float("-0.0")]):
            assert dumps_canonical(items) == reference_dumps(items)
            assert dumps_canonical({"k": items}, 4) == reference_dumps({"k": items}, 4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_raise_alike(self, bad):
        for items in ([0.5, bad, 1.0], [bad], [[1.0], [2.0, bad]], [np.float64(bad)],
                      bad, {"residual": bad}, np.float32(bad), {"residual": np.float32(bad)}):
            with pytest.raises(ValueError) as ref:
                reference_dumps(items)
            with pytest.raises(ValueError) as got:
                dumps_canonical(items)
            assert str(got.value) == str(ref.value)

    def test_empty_containers_and_other_types(self):
        for obj in ({}, [], (), {"a": {}, "b": [], "c": [{}, [], ()]}, np.zeros(0),
                    np.zeros((0, 2)), np.zeros((2, 0))):
            for indent in (0, 4):
                assert dumps_canonical(obj, indent) == reference_dumps(obj, indent)
        for obj in ({1.5}, {"k": object()}, [0.5, b"bytes"], np.bool_(True)):
            with pytest.raises(TypeError) as ref:
                reference_dumps(obj)
            with pytest.raises(TypeError) as got:
                dumps_canonical(obj)
            assert str(got.value) == str(ref.value)

    def test_polygon_body_bytes(self, rng):
        for _ in range(10):
            P = random_general_position_polygon(rng, nmax=60)
            assert (dumps_canonical(polygon_to_dict(P))
                    == reference_dumps(reference_polygon_to_dict(P)))

    def test_float_rows(self, rng):
        x = (rng.normal(size=60) * 10.0 ** rng.uniform(-300, 300, 60)).tolist()
        for rows in ([x[0:2], x[2:4], x[4:6]], [x[:1]], [x[:5], x[5:6], x[6:20]],
                     (x[:2], x[2:4]), np.column_stack([x[:30], x[30:]]).tolist()):
            for indent in (0, 2, 6):
                assert dumps_canonical(rows, indent) == reference_dumps(rows, indent)
            doc = {"vertices": rows, "k": [rows, rows[:1]]}
            assert dumps_canonical(doc) == reference_dumps(doc)

    def test_rows_with_other_items_keep_the_general_path(self):
        np_row = [np.float64(0.1), 2.5]
        for rows in ([[0.5, 1.5], [2, 3.0]], [[0.5, 1.5], [True, 3.0]], [[0.5, 1.5], np_row],
                     [np_row, np_row], [[0.5, 1.5], []], [[], []], [[0.5], (1.5, 2.5)],
                     [[0.5], [[1.5]]], [[0.5], 1.5], [[0.5], None], [[0.5], ["x"]],
                     [[1.0, -0.0], [0.25, 1e-320]]):
            assert dumps_canonical(rows) == reference_dumps(rows)
            assert dumps_canonical({"k": rows}, 4) == reference_dumps({"k": rows}, 4)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rows_raise_alike(self, bad):
        rows = [[0.5, 1.0], [2.0, bad]]
        with pytest.raises(ValueError) as ref:
            reference_dumps(rows)
        with pytest.raises(ValueError) as got:
            dumps_canonical(rows)
        assert str(got.value) == str(ref.value)

    def test_percent_signs_stay_literal(self):
        doc = {"a%b": [0.5, 1.5], "%": {"%.17g": "%s %d %%"}, "k": "100%",
               "warnings": ["residual 50% above %.3e", "%"], "rows": [[0.25, 0.5]],
               "%%": [[1.0, 2.0], [3.0, 4.0]]}
        for obj in (doc, "%", ["%", 0.5], {"%": 1.5}):
            assert dumps_canonical(obj) == reference_dumps(obj)

    def test_8192_facet_body(self, rng):
        n = 8192
        normals = TWO_PI * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
        P = polygon_from_support(normals % TWO_PI, 1.0 + 0.1 * np.cos(2 * normals))
        assert P.n == n
        assert (dumps_canonical(polygon_to_dict(P))
                == reference_dumps(reference_polygon_to_dict(P)))

    def test_report_with_loop_history(self):
        t = TWO_PI * np.arange(256) / 256
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, 1.0 + 0.3 * np.cos(2 * t)))
        _, rep = solve(spec, 0.5)
        d = rep.to_dict()
        assert len(d["loop_history"]) >= 2
        d["warnings"] = ["100% of m_max", "stage m = 64"]
        assert dumps_canonical(d) == reference_dumps(d)
        assert dumps_canonical(d, 4) == reference_dumps(d, 4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_inside_a_dict_inside_a_list_raises_alike(self, bad):
        for doc in ([{"a": [0.5, bad]}, 1.0], {"k": [{"b": {"c": bad}}, [0.5]]},
                    [{"rows": [[0.5, 1.5], [bad, 2.0]]}]):
            with pytest.raises(ValueError) as ref:
                reference_dumps(doc)
            with pytest.raises(ValueError) as got:
                dumps_canonical(doc)
            assert str(got.value) == str(ref.value)


def as_lists(obj):
    """obj with every numpy array replaced by its .tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    return obj


def power_of_ten_neighbours():
    """The doubles nearest 10^k, -30 <= k <= 45, with two neighbours on
    either side: the decades where log10 can be one off."""
    pw = np.array([float(f"1e{k}") for k in range(-30, 46)])
    down = np.nextafter(pw, 0.0)
    up = np.nextafter(pw, np.inf)
    return np.concatenate([np.nextafter(down, 0.0), down, pw, up, np.nextafter(up, np.inf)])


def rounding_ties(rng):
    """Odd multiples x of 2^-j with 17 - j digits ahead of the point, from
    10^15 down to 10^-6: x * 10^(j - 1) is an odd multiple of 1/2, so
    rounding x to 17 digits is an exact tie."""
    out = []
    for j in range(2, 24):
        e = 17 - j
        u = rng.uniform(10.0 ** e, min(10.0 ** (e + 1), 2.0 ** (53 - j)), 200)
        x = (2.0 * np.floor(u * 2.0 ** (j - 1)) + 1.0) / 2.0 ** j
        x = x[(x >= 10.0 ** e) & (x < 10.0 ** (e + 1))]
        assert all(Fraction(v) * 10 ** (j - 1) % 1 == Fraction(1, 2) for v in x[:5].tolist())
        out.append(x)
    return np.concatenate(out)


def parity_values(rng):
    """Seeded doubles from every regime %.17g has, each with its negation."""
    x = np.concatenate([
        rng.uniform(0.0, TWO_PI, 20000),  # angles
        rng.normal(size=20000),  # coordinates
        10.0 ** rng.uniform(-25.0, 45.0, 40000),  # log-uniform, both sides of the window
        power_of_ten_neighbours(),
        rounding_ties(rng),
        [1e-6, np.nextafter(1e-6, 1.0), 1e-5, 1e-4, np.nextafter(1e-4, 0.0),
         1e16 * (1 - 2.0**-53), 1e16, 2.0**53, 1.0, 0.5, 0.0],
        [5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0)],
        rng.uniform(0.0, 2.2250738585072014e-308, 100),  # subnormals
        rng.integers(1, 10**6, 1000).astype(float),  # integers
    ])
    return np.concatenate([x, -x])


class TestVectorFormatter:
    """_format17 gives format(v, ".17g") byte for byte: its kernel covers
    1e-6 < |v| < 1e16 and format() itself writes zeros and the rest.
    Documents of _KERNEL_MIN floats or more take it, with the same bytes
    as the per-item reference."""

    def test_parity_with_format(self, rng):
        x = parity_values(rng)
        inside = (np.abs(x) > 1e-6) & (np.abs(x) < 1e16)
        assert inside.sum() > 100000 and (~inside).sum() > 10000
        want = [format(v, ".17g").encode() for v in x.tolist()]
        got = [t for k in range(0, len(x), _BLOCK) for t in _format17(x[k:k + _BLOCK])]
        assert len(got) == len(want)
        assert [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w][:5] == []

    def test_the_double_nearest_1e_6_lies_below_it(self):
        # 1e-6 has 17 digits 9.9999999999999995e-07; its product with 10^22
        # rounds to 10^16 while the exact product lies just below it
        assert Fraction(1e-6) < Fraction(1, 10**6)
        x = np.array([1e-6, -1e-6, np.nextafter(1e-6, 1.0)])
        assert _format17(x) == [b"9.9999999999999995e-07", b"-9.9999999999999995e-07",
                                format(np.nextafter(1e-6, 1.0), ".17g").encode()]

    @pytest.mark.parametrize("extra", [-1, 0])
    def test_documents_either_side_of_the_threshold(self, rng, monkeypatch, extra):
        n = _KERNEL_MIN + extra
        calls = []
        format17 = serialization._format17
        monkeypatch.setattr(serialization, "_format17",
                            lambda x: calls.append(len(x)) or format17(x))
        x = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-9.0, 18.0, n - 1)  # and the scalar
        x[::11] = 0.0
        doc = {"flat": x[:100].tolist(), "rows": x[100:300].reshape(-1, 2).tolist(),
               "k": {"v": x[300:].tolist(), "100%": "%.17g %s", "scalar": 0.1}, "n": n,
               "θ": "é", "%s": "%% %.17g %s"}  # non-ASCII text and % directives
        for indent in (0, 4):
            assert dumps_canonical(doc, indent) == reference_dumps(doc, indent)
        assert calls == ([] if extra < 0 else [n, n])

    @pytest.mark.parametrize("extra", [-1, 0])
    def test_scalar_documents_either_side_of_the_threshold(self, rng, monkeypatch, extra):
        # every float is a slot: a dict of scalars counts toward
        # _KERNEL_MIN as a list of as many floats does
        n = _KERNEL_MIN + extra
        calls = []
        format17 = serialization._format17
        monkeypatch.setattr(serialization, "_format17",
                            lambda x: calls.append(len(x)) or format17(x))
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-9.0, 18.0, n)
        x[::11] = 0.0
        doc = {f"v{k:04d}%": v for k, v in enumerate(x.tolist())}
        for indent in (0, 4):
            assert dumps_canonical(doc, indent) == reference_dumps(doc, indent)
        assert calls == ([] if extra < 0 else [n, n])

    @pytest.mark.parametrize("n", [5, 3000])
    @pytest.mark.parametrize("indent", [0, 4])
    def test_float64_arrays_write_as_their_lists(self, rng, n, indent):
        x = rng.normal(size=2 * n) * 10.0 ** rng.uniform(-9.0, 18.0, 2 * n)
        x[::7] = -0.0
        for obj in (x, x.reshape(n, 2), x.reshape(-1, 1), x[: 3 * (n // 3)].reshape(-1, 3),
                    {"v": x.reshape(n, 2), "t": x[:n], "s": "%"}, [x[:3], x.reshape(n, 2)[:2]],
                    x.astype(np.float32), np.zeros((n, 0)), np.zeros((0, 2))):
            text = dumps_canonical(obj, indent)
            assert text == reference_dumps(obj, indent)
            assert text == dumps_canonical(as_lists(obj), indent)

    @pytest.mark.parametrize("shape", ["flat", "rows", "atoms"])
    def test_documents_across_two_block_seams(self, rng, monkeypatch, shape):
        # 2 _BLOCK + 3 floats: the writer's blocks end at floats _BLOCK and
        # 2 _BLOCK, inside a row of 2 and between an atom's mass and theta
        # once one float ahead shifts the rows and atoms by one
        n = 2 * _BLOCK + 3
        calls = []
        format17 = serialization._format17
        monkeypatch.setattr(serialization, "_format17",
                            lambda x: calls.append(len(x)) or format17(x))
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-9.0, 18.0, n)
        x[::7] = -0.0
        x = x.tolist()
        if shape == "flat":
            doc = {"v": x}
        elif shape == "rows":
            doc = {"a": x[:1], "rows": [x[i:i + 2] for i in range(1, n, 2)]}
        else:
            doc = {"a": x[:1], "atoms": [{"mass": x[i], "theta": x[i + 1]} for i in range(1, n, 2)]}
        doc.update({"θ": "é", "%s": "%% %.17g %s"})  # non-ASCII text and % directives
        for indent in (0, 4):
            assert dumps_canonical(doc, indent) == reference_dumps(doc, indent)
        assert calls == [_BLOCK, _BLOCK, 3] * 2

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_on_the_kernel_path_raises_alike(self, rng, bad):
        x = rng.normal(size=_KERNEL_MIN)
        y = x.copy()
        y[7], y[9] = bad, (math.nan if bad == math.inf else math.inf)
        for doc in ({"a": x.tolist(), "b": y}, {"a": x, "b": y.reshape(-1, 2)},
                    {"a": x, "b": [x.tolist(), y.tolist()]}, [x, {"z": [0.5, -bad]}, y]):
            with pytest.raises(ValueError) as ref:
                reference_dumps(doc)
            with pytest.raises(ValueError) as got:
                dumps_canonical(doc)
            assert str(got.value) == str(ref.value)

    def test_atomic_large_body(self):
        workloads = import_bench_module("workloads")
        case = workloads.generate("atomic-large", 1)[0]
        assert case.label.startswith("atoms n=1024 ")
        P, report = solve(measure_spec_from_dict(json.loads(case.measure_json)), case.p)
        assert 4 * P.n >= _KERNEL_MIN
        want = reference_dumps(reference_polygon_to_dict(P))
        assert dumps_canonical(polygon_to_dict(P)) == want
        assert dumps_canonical(reference_polygon_to_dict(P)) == want
        assert dumps_canonical(report.to_dict()) == reference_dumps(report.to_dict())


class TestAtomDocuments:
    """A list of {"mass", "theta"} dicts is walked dict by dict, each value
    a float slot, with the bytes of the per-dict reference."""

    @staticmethod
    def atoms(rng, n):
        mu = DiscreteMeasure(rng.uniform(0.0, TWO_PI, n),
                             rng.uniform(0.0, 3.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n))
        return serialization.discrete_measure_to_dict(mu)["atoms"]

    @pytest.mark.parametrize("slots", [_KERNEL_MIN - 1, _KERNEL_MIN])
    @pytest.mark.parametrize("indent", [0, 4])
    def test_either_side_of_the_kernel_threshold(self, rng, monkeypatch, slots, indent):
        calls = []
        format17 = serialization._format17
        monkeypatch.setattr(serialization, "_format17",
                            lambda x: calls.append(len(x)) or format17(x))
        atoms = self.atoms(rng, slots // 2)
        doc = {"atoms": atoms, "density": None, "scale": [0.5] * (slots % 2)}
        assert len(atoms) == slots // 2
        assert dumps_canonical(doc, indent) == reference_dumps(doc, indent)
        assert dumps_canonical(atoms, indent) == reference_dumps(atoms, indent)
        assert calls == ([] if slots < _KERNEL_MIN else [slots] * 2)

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("indent", [0, 4])
    def test_one_other_value_keeps_the_per_dict_walk(self, rng, n, indent):
        for key, value in [("mass", 2), ("theta", np.float64(0.5)), ("mass", True),
                           ("theta", None), ("mass", "1.0"), ("theta", [0.5]), ("extra", 0.5)]:
            atoms = self.atoms(rng, n)
            atoms[n // 2] = {**atoms[n // 2], key: value}
            doc = {"atoms": atoms, "density": None}
            assert dumps_canonical(doc, indent) == reference_dumps(doc, indent)
        atoms = self.atoms(rng, n)
        del atoms[n // 2]["mass"]
        atoms[n // 2]["weight"] = 0.5
        assert dumps_canonical(atoms, indent) == reference_dumps(atoms, indent)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_raise_alike(self, rng, bad):
        for n in (3, 300):
            atoms = self.atoms(rng, n)
            atoms[1]["theta"] = bad
            with pytest.raises(ValueError) as ref:
                reference_dumps(atoms)
            with pytest.raises(ValueError) as got:
                dumps_canonical(atoms)
            assert str(got.value) == str(ref.value)

    def test_measure_documents_round_trip(self, rng):
        mu = DiscreteMeasure(rng.uniform(0.0, TWO_PI, 700), rng.uniform(0.1, 2.0, 700))
        spec = MeasureSpec(mu, PiecewiseLinearDensity([0.0, 2.0, 4.0], [1.0, 0.5, 2.0]))
        for doc in (serialization.discrete_measure_to_dict(mu),
                    serialization.measure_spec_to_dict(spec)):
            text = dumps_canonical(doc)
            assert text == reference_dumps(doc)
            back = measure_spec_from_dict(json.loads(text)).atoms
            assert np.array_equal(back.thetas, mu.thetas) and np.array_equal(back.masses, mu.masses)


NOT_FINITE = [math.nan, math.inf, -math.inf, None, "north", [0.5], [[0.5]], {"v": 0.5},
              True, False]


class TestNumbersMustBeFinite:
    """Every angle, mass, density sample and support number is a finite
    number; anything else is a SchemaError naming its field."""

    @pytest.mark.parametrize("bad", NOT_FINITE)
    @pytest.mark.parametrize("field", ["theta", "mass"])
    def test_atoms(self, bad, field):
        atoms = [{"theta": 0.1 * k, "mass": 1.0} for k in range(5)]
        atoms[2][field] = bad
        with pytest.raises(SchemaError, match=rf"^atoms\[2\]\.{field}: must be a finite number"):
            measure_spec_from_dict({"atoms": atoms, "density": None})

    @pytest.mark.parametrize("bad", NOT_FINITE)
    @pytest.mark.parametrize("field", ["theta", "f"])
    def test_density(self, bad, field):
        density = {"theta": (TWO_PI * np.arange(8) / 8).tolist(), "f": [1.0] * 8}
        density[field][5] = bad
        with pytest.raises(SchemaError, match=rf"^density\.{field}\[5\]: must be a finite number"):
            measure_spec_from_dict({"atoms": [], "density": density})

    @pytest.mark.parametrize("bad", NOT_FINITE)
    @pytest.mark.parametrize("field", ["normals_theta", "support"])
    def test_body(self, bad, field):
        body = json.loads(dumps_canonical(polygon_to_dict(
            polygon_from_support(TWO_PI * np.arange(6) / 6, np.ones(6)))))
        body[field][4] = bad
        with pytest.raises(SchemaError, match=rf"^{field}\[4\]: must be a finite number"):
            polygon_from_dict(body)

    def test_negative_values_keep_their_messages(self):
        atoms = [{"theta": 0.1 * k, "mass": 1.0 - k} for k in range(3)]
        with pytest.raises(SchemaError, match=r"^atoms\[1\]\.mass: must be positive$"):
            measure_spec_from_dict({"atoms": atoms, "density": None})

    def test_an_all_zero_density_is_refused(self):
        density = {"theta": (TWO_PI * np.arange(8) / 8).tolist(), "f": [0.0] * 8}
        with pytest.raises(SchemaError, match=r"^\$: measure spec has zero total mass$"):
            measure_spec_from_dict({"atoms": [], "density": density})
        density = {"theta": [0.0, 2.0, 4.0], "f": [1.0, -0.5, 1.0]}
        with pytest.raises(SchemaError, match=r"^density\.f: samples must be nonnegative$"):
            measure_spec_from_dict({"atoms": [], "density": density})
        density = {"theta": [0.0, 1.0, 6.283185307179586], "f": [1.0, 1.0, 1.0]}
        with pytest.raises(SchemaError, match=r"^density\.theta: duplicate density knots$"):
            measure_spec_from_dict({"atoms": [], "density": density})

    def test_numeric_strings_parse_and_bools_do_not(self):
        density = {"theta": ["0", 1, 2.0, "4.5"], "f": [1, "0.5", "0", 2.0]}
        spec = measure_spec_from_dict({"atoms": [], "density": density})
        assert spec.density.knots.tolist() == [0.0, 1.0, 2.0, 4.5]
        assert spec.density.values.tolist() == [1.0, 0.5, 0.0, 2.0]
        density["theta"][1] = True
        with pytest.raises(SchemaError, match=r"^density\.theta\[1\]: must be a finite number"):
            measure_spec_from_dict({"atoms": [], "density": density})
        atoms = [{"theta": 0.5, "mass": 1.0}, {"theta": False, "mass": True}]
        with pytest.raises(SchemaError, match=r"^atoms\[1\]\.theta: must be a finite number"):
            measure_spec_from_dict({"atoms": atoms, "density": None})

    @pytest.mark.parametrize("bad", [False, True])
    def test_a_bool_deep_in_a_long_density_raises(self, bad):
        # zeros and ones around it read as the same floats, so only the
        # types of those entries tell the boolean apart
        n = 8192
        f = [0.0, 1.0, 0, 1, 0.5] * (n // 5) + [1.0] * (n % 5)
        density = {"theta": (TWO_PI * np.arange(n) / n).tolist(), "f": f}
        density["f"][n - 7] = bad
        with pytest.raises(SchemaError, match=rf"^density\.f\[{n - 7}\]: must be a finite number"):
            measure_spec_from_dict({"atoms": [], "density": density})
        density["f"][n - 7] = float(bad)
        assert measure_spec_from_dict({"atoms": [], "density": density}).density.values[n - 7] == bad


class TestAtomParsing:
    def test_well_formed_atoms(self, rng):
        t, m = rng.uniform(-1.0, 7.0, 500), rng.uniform(0.01, 3.0, 500)
        atoms = [{"theta": a, "mass": b} for a, b in zip(t.tolist(), m.tolist())]
        atoms += [{"theta": 1, "mass": 2}, {"theta": "2.5", "mass": "0.125"},
                  {"theta": np.float64(3.25), "mass": 1e-300}]
        spec = measure_spec_from_dict({"atoms": atoms, "density": None})
        ref = reference_atoms(atoms)
        assert np.array_equal(spec.atoms.thetas, ref.thetas)
        assert np.array_equal(spec.atoms.masses, ref.masses)

    @pytest.mark.parametrize("bad", [
        {"mass": 1.0}, {"theta": 0.5}, [0.5, 1.0], None,
        {"theta": 0.5, "mass": 0}, {"theta": 0.5, "mass": -1.0}, {"theta": 0.5, "mass": "-0.0"},
        {"theta": 0.5, "mass": math.nan}, {"theta": "north", "mass": 1.0},
        {"theta": None, "mass": 1.0}, {"theta": 0.5, "mass": "heavy"},
        {"theta": [0.5], "mass": 1.0}, MappingProxyType({"theta": 0.5, "mass": 1.0}),
        {"theta": False, "mass": 1.0}, {"theta": 0.5, "mass": True},
    ])
    @pytest.mark.parametrize("at", [0, 3])
    @pytest.mark.parametrize("later_bad", [False, True])
    def test_malformed_atoms_raise_as_before(self, bad, at, later_bad):
        atoms = [{"theta": 0.1 * k, "mass": 1.0} for k in range(5)]
        atoms[at] = bad
        if later_bad:  # a later bad entry is not the one named
            atoms[4] = {"theta": 0.4, "mass": 0.0}
        with pytest.raises(Exception) as ref:
            reference_atoms(atoms)
        with pytest.raises(Exception) as got:
            measure_spec_from_dict({"atoms": atoms, "density": None})
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)
