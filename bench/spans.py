"""Span recorder for the traced benchmark run.

Wraps lpmink's layer-boundary functions from outside the library: every
module that binds a wrapped function (``from .x import y`` copies the name at
import time) gets the wrapper, and the two hot Polygon methods are wrapped on
the class.  Each span records name, start, end, parent span and op id; spans
stay in memory and are written once at the end of the run.  A layer's self
time is its span minus the spans of wrapped functions it called.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np
from lpmink.errors import NoConvergenceError

# Layer-boundary functions per module.  Scalar helpers (canonical_angle,
# unit_vectors, circular_gaps, ...) are left out: they run inside per-element
# loops, so a span around each call would cost more than the call.
# polygon_support is the body of Polygon.support_values and has no other
# caller, so it is measured as that method.
WRAPPED = {
    "geometry": ["polygon_from_support", "support_distance", "edge_lengths", "area",
                 "dilate", "translate", "apply_isometry", "group_orbit_map",
                 "in_positive_hull"],
    "measure": ["classify", "lp_surface_measure", "weak_distance", "hemisphere_delta",
                "chord_mass_bound"],
    "solver": ["solve_discrete", "measure_residual", "orbit_partition", "optimal_anchor",
               "anchor_objective"],
    "pipeline": ["solve", "classify_spec", "discretize", "discretize_symmetric",
                 "solve_semicircle", "detect_symmetry", "monge_ampere_residual",
                 "ma_residual_from_samples"],
    "serialization": ["dumps_canonical", "polygon_to_dict", "polygon_from_dict",
                      "measure_spec_to_dict", "discrete_measure_to_dict",
                      "write_canonical"],
}
WRAPPED_METHODS = ["diameter", "support_values"]


def _count_union_grid(mu, nu, tol: float) -> int:
    """Variables of the flat-distance LP: atoms of both measures, merged."""
    t = np.sort(np.concatenate([mu.thetas, nu.thetas]))
    n = 1 + int(np.count_nonzero(np.diff(t) > tol))
    if n >= 2 and t[0] + 2.0 * np.pi - t[-1] <= tol:
        n -= 1
    return n


def _active_atoms(P) -> int:
    return int(np.count_nonzero(P.active & (P.support > 0.0) & (P.lengths > 0.0)))


# Work counts per span: name -> (counter name, f(args, result) -> int).
WORK = {
    "geometry.diameter": ("pairs", lambda a, r: len(a[0].vertices) ** 2),
    "geometry.support_values": ("pairs",
                                lambda a, r: len(a[0].vertices) * np.size(a[1])),
    "geometry.polygon_from_support": ("normals", lambda a, r: np.size(a[0])),
    "measure.weak_distance": ("lp_vars", lambda a, r: _count_union_grid(a[0], a[1], 1e-9)),
    "pipeline.discretize": ("atoms", lambda a, r: r.n),
    "pipeline.discretize_symmetric": ("atoms", lambda a, r: r.n),
    "solver.measure_residual": ("atom_pairs", lambda a, r: a[1].n * _active_atoms(a[0])),
    "serialization.dumps_canonical": ("bytes", lambda a, r: len(r)),
}


class Recorder:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.solver = defaultdict(int)
        self.op_id = -1
        self._stack: list[list] = []  # [name, start, child_time, span index]
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append([name, self.spans[-1][1], 0.0, len(self.spans) - 1])

    def end(self) -> None:
        name, start, child, idx = self._stack.pop()
        stop = time.perf_counter()
        dur = stop - start
        rec = self.spans[idx]
        self.spans[idx] = (rec[0], rec[1], stop, rec[3], rec[4])
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; re-entrant calls (recursion) get none."""
        if self._stack and self._stack[-1][0] == name:
            return fn(*args, **kwargs)
        self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.end()
            self._after(name, args, None, exc)
            raise
        self.end()
        self._after(name, args, result, None)
        return result

    def _after(self, name, args, result, exc) -> None:
        if exc is None and name in WORK:
            counter, fn = WORK[name]
            self.work[f"{name}.{counter}"] += int(fn(args, result))
        if name != "solver.solve_discrete":
            return
        report = result[1] if exc is None else getattr(exc, "report", None)
        if exc is None:
            self.solver["success"] += 1
        elif isinstance(exc, NoConvergenceError):
            self.solver["no_convergence"] += 1
        if report is not None:
            self.solver["newton_iters"] += report.newton_iters
            self.solver["outer_iters"] += report.outer_iters

    # -- installation ------------------------------------------------------
    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped name in every lpmink module that holds it."""
        import lpmink.geometry as geometry

        modules = [m for k, m in sys.modules.items() if k == "lpmink" or k.startswith("lpmink.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"lpmink.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for meth in WRAPPED_METHODS:
            original = getattr(geometry.Polygon, meth)
            self._patches.append((geometry.Polygon, meth, original))
            setattr(geometry.Polygon, meth, self._wrap(f"geometry.{meth}", original))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, stop, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": stop,
                                     "parent": parent, "op": op}) + "\n")
