"""Canonical JSON: the list fast path against the per-item recursive formatter."""

import json
import math

import numpy as np
import pytest

from conftest import random_general_position_polygon

from lpmink.serialization import dumps_canonical, polygon_to_dict


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
        for items in ([0.5, bad, 1.0], [bad], [[1.0], [2.0, bad]], [np.float64(bad)]):
            with pytest.raises(ValueError) as ref:
                reference_dumps(items)
            with pytest.raises(ValueError) as got:
                dumps_canonical(items)
            assert str(got.value) == str(ref.value)

    def test_polygon_body_bytes(self, rng):
        for _ in range(10):
            P = random_general_position_polygon(rng, nmax=60)
            assert (dumps_canonical(polygon_to_dict(P))
                    == reference_dumps(reference_polygon_to_dict(P)))
